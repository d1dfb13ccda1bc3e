"""Run configuration: a strict JSON document with sim / mode / policies /
ego / metrics sections. Unknown keys are rejected by name."""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

from ..core import Episode, Polyline, Pose2, SemanticMap, SimState, load_map
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


def _keys(*names, **sections) -> dict:
    """One level of the schema: a plain key maps to None, a nested section
    to its own level."""
    return {**dict.fromkeys(names), **sections}


SCHEMA = _keys(
    sim=_keys("dt", "horizon", "seed", "noise", "roi_radius", "interrupt_on_collision"),
    mode=_keys(
        "name", "map", "episodes", "location", "source_log", "source_frame", "dataset_dir",
        "anchor_radius", "paths", procedural=_keys("agents_mean", "min_gap", "speed_range"),
    ),
    policies=_keys(
        "default", "overrides", "weights",
        reactive=_keys("a_max", "b", "s0", "t_headway", "v0"),
        train=_keys("lr", "batch", "epochs", "hidden", "history_s"),
    ),
    ego=_keys("controller", params=_keys("decel")),
    metrics=_keys(
        "horizons", "d_thresh", "window_s", "kappa", "g_free", "l_thresh",
        suite=_keys("scenes", "gap_range", "speed_range"),
    ),
)
POLICY_NAMES = ("constant", "reactive_follow", "log_replay", "mlp")
EGO_NAMES = ("constant", "log_replay", "reactive_follow", "brake_stop")


def _reject_unknown(obj: dict, schema: dict, where: str) -> None:
    """Every key of obj is in its schema level, and every nested section is
    an object whose keys are in turn."""
    for key, value in obj.items():
        name = f"{where}.{key}" if where else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {name}")
        if schema[key] is not None:
            if not isinstance(value, dict):
                raise ConfigError(f"section {name!r} must be an object")
            _reject_unknown(value, schema[key], name)


def load_run_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(doc, SCHEMA, "")
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


def _names(value) -> dict:
    """An object whose values are names (policies.overrides)."""
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise ValueError("expected an object of names")
    return value


def _one_of(names: tuple):
    """A converter for one of the given names."""

    def convert(value) -> str:
        if value not in names:
            raise ValueError(f"expected one of {names}")
        return value

    return convert


def _paths(value) -> dict:
    """An object mapping agent ids to Polylines (mode.paths)."""
    if not isinstance(value, dict):
        raise ValueError("expected an object of agent id -> [[x, y], ...]")
    return {agent_id: Polyline(path) for agent_id, path in value.items()}


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _value(section: dict, where: str, key: str, default, convert=_number):
    """section[key], or default, through convert; a ConfigError naming the
    key when the value does not convert."""
    value = section.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {where}.{key}: bad value {value!r} ({exc})") from None


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


class RunSetup:
    """Everything a command needs, resolved from a config document.

    Relative paths in the config resolve against the config file's
    directory."""

    def __init__(self, doc: dict, base_dir: Path, seed_override: Optional[int] = None):
        self.doc = doc
        self.base_dir = base_dir
        sim = doc.get("sim", {})
        self.sim_config = SimConfig(
            dt=_value(sim, "sim", "dt", 0.1, _positive),
            horizon_steps=_value(sim, "sim", "horizon", 50, _count),
            seed=seed_override if seed_override is not None else _value(sim, "sim", "seed", 0, _int),
            interrupt_on_ego_collision=_value(sim, "sim", "interrupt_on_collision", True, _bool),
            control_noise=_value(sim, "sim", "noise", (0.0, 0.0), _non_negative_pair),
            roi_radius=_value(sim, "sim", "roi_radius", 200.0, _positive),
        )
        self.mode = doc.get("mode", {})
        self.mode_name = self.mode_value("name", "scenario", _one_of(MODES))
        self._map: Optional[SemanticMap] = None
        self._source: Optional[Episode] = None
        self._policies: dict[str, object] = {}

    def mode_value(self, key: str, default, convert=_number):
        return _value(self.mode, "mode", key, default, convert)

    def _path(self, section: dict, where: str, key: str) -> Path:
        """The path string at section[key], relative to the config file."""
        p = Path(_value(section, where, key, None, _text))
        return p if p.is_absolute() else self.base_dir / p

    @property
    def smap(self) -> SemanticMap:
        if self._map is None:
            if "map" not in self.mode:
                raise ConfigError("mode.map is required")
            self._map = load_map(self._path(self.mode, "mode", "map"))
        return self._map

    @property
    def source_episode(self) -> Episode:
        if self._source is None:
            if "source_log" not in self.mode:
                raise ConfigError("mode.source_log is required for this mode/policy")
            from .logs import read_episode_log

            self._source = read_episode_log(self._path(self.mode, "mode", "source_log"))
        return self._source

    def initial_state(self) -> Optional[SimState]:
        """The scenario/behaviour seed state. Its original step index is
        kept so log-replay policies stay aligned with the source."""
        if self.mode_name not in ("scenario", "behaviour"):
            return None
        frame = self.mode_value("source_frame", 0, _int)
        source = self.source_episode
        return source.state_at(source.states[0].step_index + frame)

    def location(self) -> Optional[Pose2]:
        if "location" not in self.mode:
            return None
        return Pose2(*self.mode_value("location", None, _floats(3)))

    def dataset(self) -> Optional[list[Episode]]:
        """The episodes under mode.dataset_dir."""
        if "dataset_dir" not in self.mode:
            return None
        from .logs import read_episode_dir

        return read_episode_dir(self._path(self.mode, "mode", "dataset_dir"))

    def episode_count(self) -> int:
        return self.mode_value("episodes", 1, _count)

    def procedural_config(self) -> ProceduralConfig:
        proc = self.mode.get("procedural", {})
        return ProceduralConfig(
            agents_mean=_value(proc, "mode.procedural", "agents_mean", 5.0, _non_negative),
            min_gap=_value(proc, "mode.procedural", "min_gap", 8.0, _positive),
            speed_range=_value(proc, "mode.procedural", "speed_range", (0.0, 12.0), _range),
        )

    def forced_paths(self) -> dict[str, Polyline]:
        return self.mode_value("paths", {}, _paths)

    def policy(self, name: str):
        """The policy named by a POLICY_NAMES or EGO_NAMES entry, built on
        its first request and then shared for the rest of the run:
        policies are immutable, so agents of one name hold one instance."""
        if name in self._policies:
            return self._policies[name]
        cfg = self.doc.get("policies", {})
        if name == "constant":
            policy = ConstantVelocityPolicy()
        elif name == "reactive_follow":
            reactive = cfg.get("reactive", {})
            where = "policies.reactive"
            policy = ReactiveFollowPolicy(
                dt=self.sim_config.dt,
                a_max=_value(reactive, where, "a_max", 1.5, _positive),
                b=_value(reactive, where, "b", 2.0, _positive),
                s0=_value(reactive, where, "s0", 2.0, _non_negative),
                t_headway=_value(reactive, where, "t_headway", 1.5, _non_negative),
                v0=_value(reactive, where, "v0", 10.0, _positive),
            )
        elif name == "log_replay":
            policy = LogReplayPolicy(self.source_episode)
        elif name == "mlp":
            if "weights" not in cfg:
                raise ConfigError("policies.weights is required for the mlp policy")
            path = self._path(cfg, "policies", "weights")
            try:
                policy = MlpPolicy(load_mlp(path), FeatureExtractor(dt=self.sim_config.dt))
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ConfigError(f"config key policies.weights: bad model in {path}: {detail}") from None
        elif name == "brake_stop":
            decel = _value(self.doc.get("ego", {}).get("params", {}), "ego.params", "decel", 2.5, _positive)
            policy = BrakeToStopPolicy(dt=self.sim_config.dt, decel=decel)
        else:
            raise ConfigError(f"unknown policy {name!r}")
        self._policies[name] = policy
        return policy

    def policies_factory(self):
        """state -> policy table for every agent: policies.default and
        policies.overrides for the others, ego.controller for the ego."""
        cfg = self.doc.get("policies", {})
        default_name = cfg.get("default", "constant")
        overrides = _value(cfg, "policies", "overrides", {}, _names)
        ego_name = self.doc.get("ego", {}).get("controller", "constant")

        def named(name: str, allowed: tuple, what: str):
            if name not in allowed:
                raise ConfigError(f"unknown {what} {name!r} (expected one of {allowed})")
            return self.policy(name)

        def make(state: SimState) -> dict:
            table = {
                a.id: named(overrides.get(a.id, default_name), POLICY_NAMES, "policy")
                for a in state.agents
                if a.id != state.ego_id
            }
            table[state.ego_id] = named(ego_name, EGO_NAMES, "ego controller")
            return table

        return make

    def train_config(self) -> TrainConfig:
        train = self.doc.get("policies", {}).get("train", {})
        return TrainConfig(
            lr=_value(train, "policies.train", "lr", 1e-3, _positive),
            batch=_value(train, "policies.train", "batch", 64, _count),
            epochs=_value(train, "policies.train", "epochs", 30, _int),
            seed=self.sim_config.seed,
            hidden=_value(train, "policies.train", "hidden", (32, 32), lambda v: tuple(_count(n) for n in v)),
        )

    def history_s(self) -> float:
        return _value(self.doc.get("policies", {}).get("train", {}), "policies.train", "history_s", 1.0)

    def planner_thresholds(self) -> PlannerThresholds:
        m = self.doc.get("metrics", {})
        return PlannerThresholds(
            d_thresh=_value(m, "metrics", "d_thresh", 5.0),
            window_s=_value(m, "metrics", "window_s", 3.0),
            kappa=_value(m, "metrics", "kappa", 0.5),
            g_free=_value(m, "metrics", "g_free", 10.0),
            l_thresh=_value(m, "metrics", "l_thresh", 2.0),
        )

    def horizons(self) -> list[float]:
        m = self.doc.get("metrics", {})
        return _value(m, "metrics", "horizons", (0.5, 1, 2, 3, 4, 5), lambda v: [_number(h) for h in v])

    def suite_params(self) -> dict:
        suite = self.doc.get("metrics", {}).get("suite", {})
        return {
            "n_scenes": _value(suite, "metrics.suite", "scenes", 100, _count),
            "gap_range": _value(suite, "metrics.suite", "gap_range", (10.0, 40.0), _range),
            "speed_range": _value(suite, "metrics.suite", "speed_range", (5.0, 12.0), _range),
            "seed": self.sim_config.seed,
            "horizon_s": self.sim_config.horizon_steps * self.sim_config.dt,
        }
