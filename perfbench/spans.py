"""In-memory span recorder for the traced benchmark run.

`SpanRecorder.install()` replaces each public drivesim function listed in
FUNCTIONS at every module attribute that holds it (so both
`drivesim.core.nearest_lane` and `drivesim.policies.nearest_lane` are
timed), and each method in METHODS on its class. `restore()` puts every
original back. A span records (id, name, start, end, parent, thread, note);
parent stacks are per thread because `--jobs 2` runs policies on pool
threads. Spans stay in memory until `summarize()` is called.
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from itertools import count


def _active_agents(args, kwargs, result):
    return sum(1 for a in args[0].agents if a.active)


def _render_size(args, kwargs, result):
    return result.width_px


def _text_bytes(args, kwargs, result):
    return len(args[0])


def _samples(args, kwargs, result):
    return len(result)


# (module, attribute, note): the note extracts one number per call.
FUNCTIONS = (
    ("drivesim.core", "project_to_polyline", None),
    ("drivesim.core", "nearest_lane", None),
    ("drivesim.core", "load_map", None),
    ("drivesim.policies", "agent_lane_projections", None),
    ("drivesim.policies", "lead_gap", None),
    ("drivesim.policies", "mlp_forward", None),
    ("drivesim.policies", "build_bc_dataset", _samples),
    ("drivesim.policies", "mlp_train", None),
    ("drivesim.engine", "step", _active_agents),
    ("drivesim.engine", "stream_rng", None),
    ("drivesim.engine", "ego_collides", None),
    ("drivesim.engine", "unroll", None),
    ("drivesim.kinematics", "advance", None),
    ("drivesim.kinematics", "fit_controls", None),
    ("drivesim.raster", "render", _render_size),
    ("drivesim.raster", "connected_components", None),
    ("drivesim.raster", "extract_from_channel", None),
    ("drivesim.initstate", "state_from_raster", None),
    ("drivesim.initstate", "sample_state_procedural", None),
    ("drivesim.metrics", "reactivity", None),
    ("drivesim.metrics", "constant_speed_log", None),
    ("drivesim.metrics", "static_lead_suite", None),
    ("drivesim.metrics", "realism_report", None),
    ("drivesim.cli.logs", "serialize_episode", None),
    ("drivesim.cli.logs", "parse_episode", _text_bytes),
    ("drivesim.cli.config", "load_run_config", None),
    ("drivesim.cli", "main", None),
)

# (module, class, method): every policy `act`, plus the feature extractor.
METHODS = (
    ("drivesim.policies", "ConstantVelocityPolicy", "act"),
    ("drivesim.policies", "LogReplayPolicy", "act"),
    ("drivesim.policies", "ReactiveFollowPolicy", "act"),
    ("drivesim.policies", "MlpPolicy", "act"),
    ("drivesim.policies", "FeatureExtractor", "features"),
)


def span_name(module: str, *attrs: str) -> str:
    """`drivesim.cli.logs` + `parse_episode` -> `cli.logs.parse_episode`."""
    return ".".join([module.removeprefix("drivesim.")] + list(attrs))


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, name: str, fn, note=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = note(args, kwargs, result) if note is not None and result is not None else None
                spans.append((sid, name, start, end, parent, threading.get_ident(), value))

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        """Replace `owner.attr` with a traced wrapper until `restore()`."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def install(self) -> None:
        for module_name, _, _ in FUNCTIONS + METHODS:
            importlib.import_module(module_name)
        modules = [m for n, m in list(sys.modules.items()) if n == "drivesim" or n.startswith("drivesim.")]
        for module_name, attr, note in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span_name(module_name, attr), original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, traced)
        for module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self.patch(cls, method, span_name(module_name, cls_name, method))

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * q
    lo, hi = math.floor(k), math.ceil(k)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def summarize(spans: list[tuple], client_thread: int, wall_s: float) -> dict:
    """Per-name calls, self time and duration lists, plus the accounting
    checks. Self time is a span's duration minus the time its children on
    the same thread cover (children nest, so that is their summed
    duration). There is no root span: the share of the client thread's
    wall time that no span covers is `unattributed_frac`."""
    covered = defaultdict(float)
    looked_up_lanes = set()
    for sid, name, start, end, parent, tid, value in spans:
        if parent:
            covered[parent] += end - start
            if name == "core.nearest_lane":
                looked_up_lanes.add(parent)
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": [], "notes": [], "no_lane_child": 0})
    client_self = pool_self = 0.0
    for sid, name, start, end, parent, tid, value in spans:
        layer = layers[name]
        self_s = (end - start) - covered.get(sid, 0.0)
        layer["calls"] += 1
        layer["self_s"] += self_s
        layer["durations"].append(end - start)
        layer["notes"].append(value)
        layer["no_lane_child"] += sid not in looked_up_lanes
        if tid == client_thread:
            client_self += self_s
        else:
            pool_self += self_s
    return {
        "layers": layers,
        "client_self_frac": client_self / wall_s,
        "unattributed_frac": 1.0 - client_self / wall_s,
        "pool_self_frac": pool_self / wall_s,
        "spans": len(spans),
    }


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metric values, named `<module>.<function>.<stat>`.
    A layer the workload never reaches reads 0."""
    layers = summary["layers"]
    out: dict[str, tuple[float, str]] = {}
    for module_name, attr, _ in FUNCTIONS:
        name = span_name(module_name, attr)
        out[f"{name}.calls"] = (layers[name]["calls"], "count")
        out[f"{name}.self_s"] = (layers[name]["self_s"], "s")
    for module_name, cls_name, method in METHODS:
        name = span_name(module_name, cls_name, method)
        out[f"{name}.calls"] = (layers[name]["calls"], "count")
        out[f"{name}.self_s"] = (layers[name]["self_s"], "s")

    alp = layers["policies.agent_lane_projections"]
    out["policies.agent_lane_projections.hit_ratio"] = (
        alp["no_lane_child"] / alp["calls"] if alp["calls"] else 0.0,
        "ratio",
    )
    step = layers["engine.step"]
    out["engine.step.ms_p50"] = (1e3 * percentile(step["durations"], 0.5), "ms")
    out["engine.step.ms_p90"] = (1e3 * percentile(step["durations"], 0.9), "ms")
    per_agent = [1e6 * d / n for d, n in zip(step["durations"], step["notes"]) if n]
    out["engine.step.us_per_agent"] = (statistics.median(per_agent) if per_agent else 0.0, "us")
    act = layers["policies.ReactiveFollowPolicy.act"]
    out["policies.ReactiveFollowPolicy.act.us_p50"] = (1e6 * percentile(act["durations"], 0.5), "us")
    out["policies.ReactiveFollowPolicy.act.us_p90"] = (1e6 * percentile(act["durations"], 0.9), "us")
    out["policies.build_bc_dataset.samples"] = (
        sum(n for n in layers["policies.build_bc_dataset"]["notes"] if n),
        "count",
    )
    out["cli.logs.parse_episode.bytes"] = (
        sum(n for n in layers["cli.logs.parse_episode"]["notes"] if n),
        "B",
    )
    render = layers["raster.render"]
    for px in (64, 128, 256):
        times = [d for d, n in zip(render["durations"], render["notes"]) if n == px]
        out[f"raster.render.px{px}.ms_p50"] = (1e3 * percentile(times, 0.5), "ms")
    return out
