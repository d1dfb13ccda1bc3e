"""Run configuration: a strict JSON document with sim / mode / policies /
ego / metrics sections. SCHEMA declares each key once, with its converter;
a RunSetup checks the whole document, so an unknown key or a bad value is
rejected by name whatever the command."""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from ..core import Episode, Polyline, Pose2, SemanticMap, SimState, error_detail, load_map
from ..engine import MODES, SimConfig
from ..initstate import ProceduralConfig
from ..metrics import PlannerThresholds
from ..policies import (
    BrakeToStopPolicy,
    ConstantVelocityPolicy,
    FeatureExtractor,
    LogReplayPolicy,
    MlpPolicy,
    ReactiveFollowPolicy,
    TrainConfig,
    load_mlp,
)


class ConfigError(Exception):
    """Malformed run configuration (reported as a usage error, exit 1)."""


POLICY_NAMES = ("constant", "reactive_follow", "log_replay", "mlp")
EGO_NAMES = ("constant", "log_replay", "reactive_follow", "brake_stop")


def load_run_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    return doc


def _number(value) -> float:
    """A finite number; a JSON boolean is not one."""
    if isinstance(value, bool):
        raise ValueError("expected a number, got a boolean")
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("expected a finite number")
    return out


def _positive(value) -> float:
    out = _number(value)
    if not out > 0:
        raise ValueError("expected a number > 0")
    return out


def _non_negative(value) -> float:
    out = _number(value)
    if out < 0:
        raise ValueError("expected a number >= 0")
    return out


def _text(value) -> str:
    if not isinstance(value, str):
        raise ValueError("expected a string")
    return value


def _one_of(names: tuple, what: str):
    """A converter for one of the given names."""

    def convert(value) -> str:
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}; expected one of {', '.join(names)}")
        return value

    return convert


_policy = _one_of(POLICY_NAMES, "policy")


def _overrides(value) -> dict:
    """An object mapping agent ids to policy names (policies.overrides)."""
    if not isinstance(value, dict):
        raise ValueError("expected an object of agent id -> policy name")
    return {agent_id: _policy(name) for agent_id, name in value.items()}


def _paths(value) -> dict:
    """An object mapping agent ids to Polylines (mode.paths)."""
    if not isinstance(value, dict):
        raise ValueError("expected an object of agent id -> [[x, y], ...]")
    return {agent_id: Polyline(path) for agent_id, path in value.items()}


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _floats(n: int):
    """A converter for a list of exactly n numbers."""

    def convert(value) -> tuple:
        out = tuple(_number(v) for v in value)
        if len(out) != n:
            raise ValueError(f"expected {n} numbers")
        return out

    return convert


def _non_negative_pair(value) -> tuple:
    """Two numbers, each >= 0 (noise standard deviations)."""
    return tuple(_non_negative(v) for v in _floats(2)(value))


def _range(value) -> tuple:
    """A range [lo, hi] with 0 <= lo <= hi."""
    lo, hi = _non_negative_pair(value)
    if lo > hi:
        raise ValueError("expected lo <= hi")
    return lo, hi


def _int(value) -> int:
    """A whole number: 3 and 3.0 pass, 2.7 is an error, not 2."""
    if not _number(value).is_integer():
        raise ValueError("expected a whole number")
    return int(value)


def _count(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError("expected a count >= 1")
    return n


def _horizons(value) -> list:
    """A non-empty list of numbers > 0 (metrics.horizons, seconds)."""
    out = [_positive(h) for h in value]
    if not out:
        raise ValueError("expected at least one horizon")
    return out


# Every key of the run config, with the converter that checks its value; a
# nested dict is a section. A key left out takes the default of the field
# it fills, or RunSetup's default where it fills none.
SCHEMA = {
    "sim": {
        "dt": _positive, "horizon": _count, "seed": _int, "noise": _non_negative_pair,
        "roi_radius": _positive, "interrupt_on_collision": _bool,
    },
    "mode": {
        "name": _one_of(MODES, "mode"), "map": _text, "episodes": _count,
        "location": lambda v: Pose2(*_floats(3)(v)), "source_log": _text, "source_frame": _int,
        "dataset_dir": _text, "anchor_radius": _non_negative, "paths": _paths,
        "procedural": {"agents_mean": _non_negative, "min_gap": _positive, "speed_range": _range},
    },
    "policies": {
        "default": _policy, "overrides": _overrides, "weights": _text,
        "reactive": {
            "a_max": _positive, "b": _positive, "s0": _non_negative, "t_headway": _non_negative, "v0": _positive,
        },
        "train": {
            "lr": _positive, "batch": _count, "epochs": _count, "hidden": lambda v: tuple(_count(n) for n in v),
            "history_s": _non_negative,
        },
    },
    "ego": {"controller": _one_of(EGO_NAMES, "ego controller"), "params": {"decel": _positive}},
    "metrics": {
        "horizons": _horizons, "d_thresh": _non_negative, "window_s": _positive, "kappa": _non_negative,
        "g_free": _non_negative, "l_thresh": _non_negative,
        "suite": {"scenes": _count, "gap_range": _range, "speed_range": _range},
    },
}

# The config keys whose field in the object they fill has another name.
_FIELDS = {"horizon": "horizon_steps", "noise": "control_noise", "scenes": "n_scenes",
           "interrupt_on_collision": "interrupt_on_ego_collision"}


def _checked(doc: dict, schema: dict, where: str = "") -> dict:
    """doc with each value converted by its key's converter, and each
    section checked in turn. A ConfigError names an unknown key, a section
    that is not an object, or a value that its converter rejects."""
    out = {}
    for key, value in doc.items():
        name = f"{where}.{key}" if where else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {name}")
        rule = schema[key]
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"section {name!r} must be an object")
            out[key] = _checked(value, rule, name)
            continue
        try:
            out[key] = rule(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config key {name}: bad value {value!r} ({exc})") from None
    return out


def _fields(section: dict) -> dict:
    """A section's keys as the field names of the object it fills."""
    return {_FIELDS.get(key, key): value for key, value in section.items()}


class RunSetup:
    """Everything a command needs, resolved from a config document.

    Relative paths in the config resolve against the config file's
    directory."""

    def __init__(self, doc: dict, base_dir: Path, seed_override: Optional[int] = None):
        self.doc = _checked(doc, SCHEMA)
        self.base_dir = base_dir
        sim = _fields(self._section("sim"))
        if seed_override is not None:
            sim["seed"] = seed_override
        self.sim_config = SimConfig(**sim)
        self.mode = self._section("mode")
        self.mode_name = self.mode.get("name", "scenario")
        self._map: Optional[SemanticMap] = None
        self._source: Optional[Episode] = None
        self._policies: dict[str, object] = {}

    def _section(self, *names: str) -> dict:
        """The checked section at the path of names; {} when it is absent."""
        node = self.doc
        for name in names:
            node = node.get(name, {})
        return node

    def _path(self, text: str) -> Path:
        """A path from the config, relative to the config file."""
        p = Path(text)
        return p if p.is_absolute() else self.base_dir / p

    @property
    def smap(self) -> SemanticMap:
        if self._map is None:
            if "map" not in self.mode:
                raise ConfigError("mode.map is required")
            self._map = load_map(self._path(self.mode["map"]))
        return self._map

    @property
    def source_episode(self) -> Episode:
        if self._source is None:
            if "source_log" not in self.mode:
                raise ConfigError("mode.source_log is required for this mode/policy")
            from .logs import read_episode_log

            self._source = read_episode_log(self._path(self.mode["source_log"]))
        return self._source

    def initial_state(self) -> Optional[SimState]:
        """The scenario/behaviour seed state. Its original step index is
        kept so log-replay policies stay aligned with the source."""
        if self.mode_name not in ("scenario", "behaviour"):
            return None
        source = self.source_episode
        return source.state_at(source.states[0].step_index + self.mode.get("source_frame", 0))

    def dataset(self) -> Optional[list[Episode]]:
        """The episodes under mode.dataset_dir."""
        if "dataset_dir" not in self.mode:
            return None
        from .logs import read_episode_dir

        return read_episode_dir(self._path(self.mode["dataset_dir"]))

    def sampler_inputs(self) -> dict:
        """What sample_initial_state and run_mode take to sample an initial
        state: location, dataset, proc_cfg, and anchor_radius when given."""
        inputs = dict(
            location=self.mode.get("location"),
            dataset=self.dataset(),
            proc_cfg=ProceduralConfig(**self._section("mode", "procedural")),
        )
        if "anchor_radius" in self.mode:
            inputs["anchor_radius"] = self.mode["anchor_radius"]
        return inputs

    def episode_count(self) -> int:
        return self.mode.get("episodes", 1)

    def forced_paths(self) -> dict[str, Polyline]:
        return self.mode.get("paths", {})

    def policy(self, name: str):
        """The policy named by a POLICY_NAMES or EGO_NAMES entry, built on
        its first request and then shared for the rest of the run:
        policies are immutable, so agents of one name hold one instance."""
        if name in self._policies:
            return self._policies[name]
        dt = self.sim_config.dt
        if name == "constant":
            policy = ConstantVelocityPolicy()
        elif name == "reactive_follow":
            policy = ReactiveFollowPolicy(dt=dt, **self._section("policies", "reactive"))
        elif name == "log_replay":
            policy = LogReplayPolicy(self.source_episode)
        elif name == "mlp":
            weights = self._section("policies").get("weights")
            if weights is None:
                raise ConfigError("policies.weights is required for the mlp policy")
            path = self._path(weights)
            try:
                policy = MlpPolicy(load_mlp(path), FeatureExtractor(dt=dt))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"config key policies.weights: bad model in {path}: {error_detail(exc)}") from None
        elif name == "brake_stop":
            policy = BrakeToStopPolicy(dt=dt, **self._section("ego", "params"))
        else:
            raise ConfigError(f"unknown policy {name!r}")
        self._policies[name] = policy
        return policy

    def policies_factory(self):
        """state -> policy table for every agent: policies.default and
        policies.overrides for the others, ego.controller for the ego."""
        policies = self._section("policies")
        default_name = policies.get("default", "constant")
        overrides = policies.get("overrides", {})
        ego_name = self._section("ego").get("controller", "constant")

        def make(state: SimState) -> dict:
            table = {
                a.id: self.policy(overrides.get(a.id, default_name))
                for a in state.agents
                if a.id != state.ego_id
            }
            table[state.ego_id] = self.policy(ego_name)
            return table

        return make

    def training(self) -> tuple[TrainConfig, dict]:
        """The TrainConfig from policies.train, and what build_bc_dataset
        takes from that section: history_s, when given."""
        train = dict(self._section("policies", "train"))
        dataset_args = {"history_s": train.pop("history_s")} if "history_s" in train else {}
        return TrainConfig(seed=self.sim_config.seed, **train), dataset_args

    def planner_thresholds(self) -> PlannerThresholds:
        metrics = self._section("metrics")
        return PlannerThresholds(**{k: v for k, v in metrics.items() if k not in ("horizons", "suite")})

    def horizons(self) -> list[float]:
        return self._section("metrics").get("horizons", [0.5, 1.0, 2.0, 3.0, 4.0, 5.0])

    def suite_params(self) -> dict:
        return dict(
            _fields(self._section("metrics", "suite")),
            seed=self.sim_config.seed,
            horizon_s=self.sim_config.horizon_steps * self.sim_config.dt,
        )
