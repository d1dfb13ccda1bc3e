"""Per-agent transition policies: p(agent at t | state at t-1).

Every policy sees only the previous state and the map, so decisions for
different agents within a step are independent. Policies are
deterministic: the same (agent, state, map) always gives the same
decision, and the only randomness in a step is the engine's control
noise, added after the policy has acted. Policies are immutable after
construction and reentrant.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AgentState,
    Episode,
    Polyline,
    Pose2,
    SemanticMap,
    SimState,
    advance_along_lanes,
    lane_chain,
    lane_pose_at,
    nearest_lane,
    normalize_angle,
    project_to_polyline,
)
from .kinematics import DEFAULT_PHI_MAX, Control, fit_controls

GAP_CAP = 100.0  # m, free-road gap when no leader is found
DEFAULT_V_MAX = 15.0  # m/s, learned-policy speed ceiling
# Steering aims at the path point max(MIN_LOOKAHEAD, speed * LOOKAHEAD_TIME) ahead
LOOKAHEAD_TIME = 1.0  # s
MIN_LOOKAHEAD = 3.0  # m
CURVATURE_DS = 5.0  # m ahead at which the curvature feature reads the tangent


@dataclass(frozen=True)
class PolicyDecision:
    """A control, or an exact pose to place the agent at (log replay only).

    When pose_override is set the engine skips integration: the agent is
    placed at the override pose and its speed becomes control.v.
    """

    control: Control
    pose_override: Optional[Pose2] = None


class ConstantVelocityPolicy:
    """Keep the current speed and heading."""

    def act(self, agent_id, state, smap) -> PolicyDecision:
        return PolicyDecision(Control(0.0, state.agent(agent_id).speed))


class LogReplayPolicy:
    """Place the agent exactly where a recorded episode has it.

    Non-reactive by construction; beyond the end of the source log the
    agent freezes at its last recorded pose.
    """

    def __init__(self, source: Episode):
        self.source = source

    def act(self, agent_id, state, smap) -> PolicyDecision:
        first = self.source.states[0].step_index
        last = self.source.states[-1].step_index
        t = min(max(state.step_index + 1, first), last)
        recorded = self.source.state_at(t).agent(agent_id)
        return PolicyDecision(Control(0.0, recorded.speed), pose_override=recorded.pose)


@dataclass(frozen=True)
class BrakeToStopPolicy:
    """Scripted probe: decelerate straight ahead to a stop and stay put."""

    dt: float = 0.1
    decel: float = 2.5

    def act(self, agent_id, state, smap) -> PolicyDecision:
        v = state.agent(agent_id).speed
        return PolicyDecision(Control(0.0, max(0.0, v - self.decel * self.dt)))


def pure_pursuit_rate(pose: Pose2, speed: float, target: Sequence[float]) -> float:
    """Yaw rate steering the pose toward a lookahead point."""
    dx = target[0] - pose.x
    dy = target[1] - pose.y
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    lx = c * dx + s * dy
    ly = -s * dx + c * dy
    dist2 = lx * lx + ly * ly
    if dist2 < 1e-12:
        return 0.0
    curvature = 2.0 * ly / dist2  # = 2 sin(alpha) / L
    return min(max(speed * curvature, -DEFAULT_PHI_MAX), DEFAULT_PHI_MAX)


class LaneContext:
    """The lane view of one state: the nearest-lane projection of every
    active agent, and for each lane the agents within half its width of
    the centerline, sorted by (arclength, state order)."""

    def __init__(self, state: SimState, smap: SemanticMap):
        active = [(k, a) for k, a in enumerate(state.agents) if a.active]
        lane_ids, arcs, laterals = nearest_lane(smap, np.array([a.center for _, a in active]).reshape(-1, 2))
        rows = list(zip(active, lane_ids, arcs.tolist(), laterals.tolist()))
        self.projections: dict[str, tuple[str, float, float]] = {
            a.id: (lane_id, s, lateral) for (_, a), lane_id, s, lateral in rows
        }
        by_lane: dict[str, list[tuple[float, int, AgentState]]] = {}
        for (k, a), lane_id, s, lateral in rows:
            if abs(lateral) <= smap.lane(lane_id).width / 2.0:
                by_lane.setdefault(lane_id, []).append((s, k, a))
        # lane id -> (entries sorted by arclength then state order, longest agent)
        self.lanes: dict[str, tuple[list[tuple[float, int, AgentState]], float]] = {
            lane_id: (sorted(entries, key=lambda e: e[:2]), max(e[2].length for e in entries))
            for lane_id, entries in by_lane.items()
        }


# One entry, matched by identity: every policy and feature call of a step
# reads the same frozen state, so the last context serves them all, and
# nothing outlives the next state.
_last_context: tuple = (None, None, None)


def agent_lane_projections(state: SimState, smap: SemanticMap) -> LaneContext:
    """The lane context of a state, built on its first use."""
    global _last_context
    last_state, last_map, context = _last_context
    if last_state is state and last_map is smap:
        return context
    context = LaneContext(state, smap)
    _last_context = (state, smap, context)
    return context


def lead_gap(
    state: SimState,
    agent_id: str,
    smap: SemanticMap,
    max_range: float = GAP_CAP,
) -> tuple[float, Optional[AgentState]]:
    """Bumper-to-bumper gap to the nearest agent ahead in the lane corridor.

    The corridor is the agent's nearest lane plus its successor chain;
    candidates count if they project into that chain within half a lane
    width laterally. Equal gaps go to the first agent in state order.
    Returns (max_range, None) when the road is clear.
    """
    me = state.agent(agent_id)
    context = agent_lane_projections(state, smap)
    lane_id, s_me, _ = context.projections[agent_id]
    best_gap, best_order, best_agent = max_range, -1, None
    for o_lane, offset in lane_chain(smap, lane_id, max_range + s_me):
        if o_lane not in context.lanes:
            continue
        entries, longest = context.lanes[o_lane]
        reach = (me.length + longest) / 2.0
        # delta grows with arclength, so the candidates ahead are a suffix,
        # and once even the longest agent cannot beat the best gap no later
        # one on this lane can
        first = bisect_right(entries, 0.0, key=lambda e: (offset + e[0]) - s_me)
        for o_s, order, other in entries[first:]:
            delta = (offset + o_s) - s_me
            if delta - reach > best_gap:
                break
            if other.id == agent_id:
                continue
            gap = delta - (me.length + other.length) / 2.0
            if gap < best_gap or (gap == best_gap and order < best_order):
                best_gap, best_order, best_agent = gap, order, other
    return best_gap, best_agent


@dataclass(frozen=True)
class ReactiveFollowPolicy:
    """Lane-following car follower: pure-pursuit steering plus a
    desired-gap speed law.

    Acceleration is a_max * (1 - (v/v0)^4 - (s*/s)^2) with desired gap
    s* = s0 + v*T + v*dv/(2*sqrt(a_max*b)); the commanded speed is clamped
    to [0, v0]. Needs the step size at construction because the engine's
    policy interface carries no dt.
    """

    dt: float = 0.1
    a_max: float = 1.5
    b: float = 2.0
    s0: float = 2.0
    t_headway: float = 1.5
    v0: float = 10.0

    def acceleration(self, v: float, gap: float, lead_speed: Optional[float]) -> float:
        dv = v - lead_speed if lead_speed is not None else 0.0
        s_star = self.s0 + v * self.t_headway + v * dv / (2.0 * math.sqrt(self.a_max * self.b))
        s = max(gap, 0.1)
        return self.a_max * (1.0 - (v / self.v0) ** 4 - (s_star / s) ** 2)

    def act(self, agent_id, state, smap) -> PolicyDecision:
        me = state.agent(agent_id)
        v = me.speed
        try:
            lane_id, s_me, _ = agent_lane_projections(state, smap).projections[agent_id]
        except ValueError:
            return PolicyDecision(Control(0.0, v))  # off-map: keep rolling
        gap, lead = lead_gap(state, agent_id, smap)
        a = self.acceleration(v, gap, lead.speed if lead is not None else None)
        v_cmd = min(max(v + a * self.dt, 0.0), self.v0)
        target_lane, target_s = advance_along_lanes(
            smap, lane_id, s_me, max(MIN_LOOKAHEAD, v * LOOKAHEAD_TIME)
        )
        target = lane_pose_at(smap, target_lane, target_s)
        phi = pure_pursuit_rate(me.pose, v_cmd, (target.x, target.y))
        return PolicyDecision(Control(phi, v_cmd))


class PathOverridePolicy:
    """Force steering along a fixed path (a Polyline, or its points);
    speed still comes from the wrapped policy, so the agent remains
    longitudinally reactive."""

    def __init__(self, inner, path):
        self.inner = inner
        self.path = path if isinstance(path, Polyline) else Polyline(path)

    def act(self, agent_id, state, smap) -> PolicyDecision:
        inner_decision = self.inner.act(agent_id, state, smap)
        v = inner_decision.control.v
        me = state.agent(agent_id)
        _, _, s = project_to_polyline(self.path.segments, me.center)
        if s >= self.path.length - 1e-9:
            return PolicyDecision(Control(0.0, v))  # past the end: hold heading
        target = self.path.pose_at(s + max(MIN_LOOKAHEAD, me.speed * LOOKAHEAD_TIME))
        phi = pure_pursuit_rate(me.pose, v, (target.x, target.y))
        return PolicyDecision(Control(phi, v))


# ---------------------------------------------------------------------------
# Features for the trainable policy

FEATURE_NAMES = (
    "speed",
    "lead_gap",
    "lead_rel_speed",
    "lateral_offset",
    "heading_error",
    "curvature",
    "red_light_distance",
    "bias",
)
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class FeatureExtractor:
    """Maps (state, agent) to the 8 scalars consumed by the learned policy.

    Components (see FEATURE_NAMES): own speed; bumper gap to the corridor
    leader (capped); leader speed minus own speed; signed lateral offset to
    the lane centerline; heading error vs the lane tangent; tangent-angle
    change per meter a few meters ahead; distance to the next red-lit lane
    entry (capped); constant 1.
    """

    dt: float = 0.1

    def features(self, state: SimState, agent_id: str, smap: SemanticMap) -> np.ndarray:
        me = state.agent(agent_id)
        f = np.zeros(N_FEATURES)
        f[0] = me.speed
        f[7] = 1.0
        try:
            lane_id, s, lateral = agent_lane_projections(state, smap).projections[agent_id]
        except ValueError:
            f[1] = GAP_CAP
            f[6] = GAP_CAP
            return f
        gap, lead = lead_gap(state, agent_id, smap)
        f[1] = gap
        f[2] = (lead.speed - me.speed) if lead is not None else 0.0
        f[3] = lateral
        tangent = lane_pose_at(smap, lane_id, s).yaw
        f[4] = normalize_angle(me.pose.yaw - tangent)
        lane_len = smap.lane(lane_id).length
        ds = min(CURVATURE_DS, lane_len - s)
        if ds > 1e-6:
            ahead = lane_pose_at(smap, lane_id, s + ds).yaw
            f[5] = normalize_angle(ahead - tangent) / ds
        f[6] = self._red_light_distance(smap, lane_id, s, state.step_index * self.dt)
        return f

    def _red_light_distance(self, smap: SemanticMap, lane_id: str, s: float, t: float) -> float:
        if smap.lane_red_at(lane_id, t):
            return 0.0  # already past the stop line
        for chain_lane, offset in lane_chain(smap, lane_id, GAP_CAP + s)[1:]:
            if smap.lane_red_at(chain_lane, t):
                return min(max(offset - s, 0.0), GAP_CAP)
        return GAP_CAP


# ---------------------------------------------------------------------------
# Small trainable policy: tanh MLP over the feature vector


@dataclass
class Mlp:
    """Fully-connected net, tanh hidden layers, identity output.

    Weight matrices are (fan_in, fan_out); the two raw outputs are squashed
    into a Control as phi = phi_max*tanh(o0), v = v_max*sigmoid(o1).
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    phi_max: float = DEFAULT_PHI_MAX
    v_max: float = DEFAULT_V_MAX

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and parallel")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {k}: bias shape {b.shape} mismatches weights {w.shape}")
            if k > 0 and w.shape[0] != self.weights[k - 1].shape[1]:
                raise ValueError(f"layer {k}: fan-in {w.shape[0]} does not chain")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)


def init_mlp(layer_sizes: Sequence[int] = (N_FEATURES, 32, 32, 2), seed: int = 0) -> Mlp:
    """Seeded init: weights ~ N(0, 1/fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(weights, biases)


def _forward_raw(m: Mlp, x: np.ndarray) -> np.ndarray:
    h = x
    for k, (w, b) in enumerate(zip(m.weights, m.biases)):
        h = h @ w + b
        if k < len(m.weights) - 1:
            h = np.tanh(h)
    return h


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def mlp_forward(m: Mlp, features: np.ndarray) -> Control:
    """Squashed control for one feature vector. MlpPolicy checks the model
    once; here a wrong feature size fails in the product, NaN in Control."""
    raw = _forward_raw(m, np.asarray(features, dtype=float)[None, :])[0]
    return Control(m.phi_max * math.tanh(raw[0]), m.v_max * _sigmoid(raw[1]))


def controls_to_targets(controls: Sequence[Control], phi_max: float, v_max: float) -> np.ndarray:
    """Inverse-squash controls into raw regression targets."""
    eps = 1e-6
    phi = np.array([c.phi for c in controls]) / phi_max
    v = np.array([c.v for c in controls]) / v_max
    t0 = np.arctanh(np.clip(phi, -1.0 + eps, 1.0 - eps))
    t1 = -np.log(1.0 / np.clip(v, eps, 1.0 - eps) - 1.0)  # logit
    return np.stack([t0, t1], axis=1)


def mlp_loss_and_grads(
    m: Mlp, x: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean-squared error on raw outputs and its analytic gradients."""
    acts = [x]
    pre = []
    h = x
    for k, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = h @ w + b
        pre.append(z)
        h = np.tanh(z) if k < len(m.weights) - 1 else z
        acts.append(h)
    out = acts[-1]
    diff = out - targets
    loss = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    grad_w, grad_b = [], []
    for k in range(len(m.weights) - 1, -1, -1):
        grad_w.append(acts[k].T @ grad)
        grad_b.append(grad.sum(axis=0))
        if k > 0:
            grad = (grad @ m.weights[k].T) * (1.0 - acts[k] ** 2)
    return loss, grad_w[::-1], grad_b[::-1]


def mlp_loss(m: Mlp, x: np.ndarray, targets: np.ndarray) -> float:
    out = _forward_raw(m, x)
    return float(np.mean((out - targets) ** 2))


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch: int = 64
    epochs: int = 30
    seed: int = 0
    hidden: tuple[int, ...] = (32, 32)


def mlp_train(
    dataset: Sequence[tuple[np.ndarray, Control]],
    config: TrainConfig = TrainConfig(),
    on_epoch: Optional[Callable[[int, float], None]] = None,
) -> Mlp:
    """Mini-batch gradient descent on squash-inverted control targets.

    Deterministic given config.seed (initialization and shuffling both
    derive from it). on_epoch, when given, receives (epoch, full-set loss).
    """
    if not dataset:
        raise ValueError("empty training dataset")
    x = np.asarray([f for f, _ in dataset], dtype=float)
    targets = controls_to_targets([c for _, c in dataset], DEFAULT_PHI_MAX, DEFAULT_V_MAX)
    sizes = (x.shape[1],) + tuple(config.hidden) + (2,)
    m = init_mlp(sizes, seed=config.seed)
    rng = np.random.default_rng(config.seed + 1)
    n = len(x)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch):
            idx = order[start : start + config.batch]
            _, gw, gb = mlp_loss_and_grads(m, x[idx], targets[idx])
            for k in range(len(m.weights)):
                m.weights[k] -= config.lr * gw[k]
                m.biases[k] -= config.lr * gb[k]
        if on_epoch is not None:
            on_epoch(epoch, mlp_loss(m, x, targets))
    return m


def build_bc_dataset(
    episodes: Sequence[Episode],
    smap: SemanticMap,
    history_s: float = 1.0,
) -> list[tuple[np.ndarray, Control]]:
    """Extract (features, control) pairs from recorded episodes.

    A sample is emitted at step t for every agent (ego included) whose
    consecutive active history through t-1 is strictly longer than
    history_s; the label inverts the integrator between t-1 and t.
    """
    if not episodes:
        return []
    dt = episodes[0].dt
    for ep in episodes:
        if abs(ep.dt - dt) > 1e-12:
            raise ValueError("episodes must share dt")
    extractor = FeatureExtractor(dt=dt)
    min_run = math.ceil(history_s / dt - 1e-9) + 1
    samples: list[tuple[np.ndarray, Control]] = []
    for ep in episodes:
        runs: dict[str, int] = {}
        for k, state in enumerate(ep.states):
            for agent in state.agents:
                runs[agent.id] = runs.get(agent.id, 0) + 1 if agent.active else 0
                if k == 0 or not agent.active:
                    continue
                prev_state = ep.states[k - 1]
                prev = prev_state.agent(agent.id)
                if not prev.active or runs[agent.id] - 1 < min_run:
                    continue
                feats = extractor.features(prev_state, agent.id, smap)
                label = fit_controls(prev.pose, agent.pose, dt)
                samples.append((feats, label))
    return samples


class MlpPolicy:
    """Learned transition policy: features -> MLP -> control. The one place
    a model is checked: N_FEATURES inputs, 2 outputs, finite parameters,
    phi_max and v_max >= 0."""

    def __init__(self, mlp: Mlp, extractor: FeatureExtractor):
        sizes = mlp.layer_sizes
        if sizes[0] != N_FEATURES or sizes[-1] != 2:
            raise ValueError(f"layer sizes {sizes}: expected {N_FEATURES} inputs and 2 outputs")
        params = [*mlp.weights, *mlp.biases, np.array([mlp.phi_max, mlp.v_max], dtype=float)]
        if not all(np.isfinite(p).all() for p in params):
            raise ValueError("non-finite model parameters")
        if not (mlp.phi_max >= 0 and mlp.v_max >= 0):
            raise ValueError(f"phi_max and v_max must be >= 0, got {mlp.phi_max} and {mlp.v_max}")
        self.mlp = mlp
        self.extractor = extractor

    def act(self, agent_id, state, smap) -> PolicyDecision:
        feats = self.extractor.features(state, agent_id, smap)
        return PolicyDecision(mlp_forward(self.mlp, feats))


# ---------------------------------------------------------------------------
# Weights file format (JSON)


def save_mlp(m: Mlp, path: str | Path) -> None:
    doc = {
        "layers": [
            {
                "rows": int(w.shape[0]),
                "cols": int(w.shape[1]),
                "weights": [float(v) for v in w.ravel()],
                "bias": [float(v) for v in b],
            }
            for w, b in zip(m.weights, m.biases)
        ],
        "phi_max": m.phi_max,
        "v_max": m.v_max,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_mlp(path: str | Path) -> Mlp:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    weights, biases = [], []
    for k, layer in enumerate(doc["layers"]):
        rows, cols = int(layer["rows"]), int(layer["cols"])
        flat = layer["weights"]
        if len(flat) != rows * cols:
            raise ValueError(f"layer {k}: {len(flat)} weights for shape ({rows}, {cols})")
        if len(layer["bias"]) != cols:
            raise ValueError(f"layer {k}: bias length {len(layer['bias'])} != {cols}")
        weights.append(np.asarray(flat, dtype=float).reshape(rows, cols))
        biases.append(np.asarray(layer["bias"], dtype=float))
    return Mlp(weights, biases, phi_max=float(doc["phi_max"]), v_max=float(doc["v_max"]))
