"""Markov forward simulator.

Each step advances every agent, the ego included, by its own policy from
the frozen previous state only, so per-agent evaluations are order-free
and can run on any number of worker threads without changing the
result. Randomness comes from counter-based streams keyed by (seed, agent
id, step index); the ego's policy gets none.
"""
from __future__ import annotations

import hashlib
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    AgentState,
    Episode,
    Pose2,
    SemanticMap,
    SimState,
    agent_obb,
    obb_overlap,
)
from .kinematics import Control, advance
from .policies import PolicyDecision, policy_act

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimConfig:
    """Engine knobs. horizon_steps counts forward transitions, so an
    episode holds at most horizon_steps + 1 states including the seed."""

    dt: float = 0.1
    horizon_steps: int = 50
    seed: int = 0
    interrupt_on_ego_collision: bool = True
    control_noise: tuple[float, float] = (0.0, 0.0)  # (sigma_phi, sigma_v)
    roi_radius: float = 200.0
    workers: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.horizon_steps < 1:
            raise ValueError(f"horizon_steps must be >= 1, got {self.horizon_steps}")


def stream_rng(seed: int, tag: str, counter: int = 0) -> np.random.Generator:
    """Counter-based stream: independent of call order and thread count."""
    digest = hashlib.sha256(f"{seed}|{tag}|{counter}".encode("utf-8")).digest()
    return np.random.Generator(np.random.Philox(key=int.from_bytes(digest[:16], "little")))


def agent_step_rng(seed: int, agent_id: str, step_index: int) -> np.random.Generator:
    """The rng stream a policy sees for one (agent, step) evaluation."""
    return stream_rng(seed, f"agent:{agent_id}", step_index)


# ---------------------------------------------------------------------------
# Stepping


def _apply_decision(agent: AgentState, decision: PolicyDecision, dt: float) -> AgentState:
    if decision.pose_override is not None:
        return replace(agent, pose=decision.pose_override, speed=decision.control.v)
    return advance(agent, decision.control, dt)


def _advance_agent(
    agent: AgentState,
    policies: Mapping[str, object],
    prev: SimState,
    smap: SemanticMap,
    cfg: SimConfig,
    t: int,
) -> AgentState:
    try:
        policy = policies[agent.id]
    except KeyError:
        raise ValueError(f"no policy assigned for agent {agent.id!r}") from None
    # The ego's policy is the planner under test: no rng stream, no noise.
    rng = None if agent.id == prev.ego_id else agent_step_rng(cfg.seed, agent.id, t)
    decision = policy_act(policy, agent.id, prev, smap, rng)
    sigma_phi, sigma_v = cfg.control_noise
    if rng is not None and decision.pose_override is None and (sigma_phi > 0 or sigma_v > 0):
        c = decision.control
        phi = c.phi + sigma_phi * rng.standard_normal()
        v = max(0.0, c.v + sigma_v * rng.standard_normal())
        decision = PolicyDecision(Control(phi, v))
    return _apply_decision(agent, decision, cfg.dt)


def step(
    prev: SimState,
    policies: Mapping[str, object],
    smap: SemanticMap,
    cfg: SimConfig,
    t: int,
    pool: Optional[ThreadPoolExecutor] = None,
) -> SimState:
    """One synchronous transition: the ego and every active agent advance
    off the frozen previous state by their policies. Agents whose centers
    leave the region of interest around the new ego deactivate."""

    def advance_one(agent):
        return _advance_agent(agent, policies, prev, smap, cfg, t)

    # The ego runs on the calling thread: one pool task more per step costs
    # more than the ego's policy when a scene has few agents.
    ego = advance_one(prev.ego)
    movers = [a for a in prev.agents if a.active and a.id != prev.ego_id]
    advanced = pool.map(advance_one, movers) if pool is not None else map(advance_one, movers)
    moved = {a.id: a for a in advanced}
    moved[prev.ego_id] = ego

    agents = []
    for a in prev.agents:
        nxt = moved.get(a.id, a)
        if nxt.active and a.id != prev.ego_id:
            if math.hypot(nxt.pose.x - ego.pose.x, nxt.pose.y - ego.pose.y) > cfg.roi_radius:
                nxt = replace(nxt, active=False)
        agents.append(nxt)
    return SimState(step_index=t, agents=tuple(agents), ego_id=prev.ego_id)


def ego_collides(state: SimState) -> Optional[AgentState]:
    """The first active agent whose rectangle overlaps the ego's, or None."""
    ego_box = agent_obb(state.ego)
    for a in state.agents:
        if a.active and a.id != state.ego_id and obb_overlap(ego_box, agent_obb(a)):
            return a
    return None


def _log_agent_collisions(state: SimState) -> None:
    if not log.isEnabledFor(logging.DEBUG):
        return
    actives = [a for a in state.active_agents() if a.id != state.ego_id]
    for a, b in combinations(actives, 2):
        if obb_overlap(agent_obb(a), agent_obb(b)):
            log.debug("agent-agent overlap at step %d: %s / %s", state.step_index, a.id, b.id)


def unroll(
    s1: SimState,
    policies: Mapping[str, object],
    smap: SemanticMap,
    cfg: SimConfig,
) -> Episode:
    """Roll the state forward horizon_steps transitions, truncating with
    termination "ego_collision" if the ego rectangle contacts an agent.
    policies maps every agent id, the ego's included, to its policy."""
    states = [s1]
    termination = "completed"
    pool = ThreadPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        for k in range(1, cfg.horizon_steps + 1):
            t = s1.step_index + k
            state = step(states[-1], policies, smap, cfg, t, pool=pool)
            states.append(state)
            _log_agent_collisions(state)
            if cfg.interrupt_on_ego_collision and ego_collides(state) is not None:
                termination = "ego_collision"
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return Episode(dt=cfg.dt, map_id=smap.map_id, states=tuple(states), termination=termination)


def assign_policies(
    state: SimState,
    default_policy,
    overrides: Optional[Mapping[str, object]] = None,
) -> dict[str, object]:
    """Policy table for every agent, the ego included: default plus
    per-id overrides."""
    table = {a.id: default_policy for a in state.agents}
    for agent_id, policy in (overrides or {}).items():
        if agent_id not in table:
            raise ValueError(f"policy override for unknown agent {agent_id!r}")
        table[agent_id] = policy
    return table


def sample_initial_state(
    mode: str,
    smap: SemanticMap,
    cfg: SimConfig,
    location: Optional[Pose2] = None,
    dataset: Optional[Sequence[Episode]] = None,
    proc_cfg=None,
    anchor_radius: float = math.inf,
) -> tuple[Pose2, SimState]:
    """The ego location (sampled in full mode, else the fixed one) and an
    initial state around it: drawn from the dataset when one is given,
    else synthesized on the lane graph."""
    from . import initstate

    if mode == "full":
        location = initstate.sample_location(smap, stream_rng(cfg.seed, "location"))
    elif location is None:
        raise ValueError(f"{mode} mode needs a fixed ego location")
    state_rng = stream_rng(cfg.seed, "initstate")
    if dataset:
        return location, initstate.sample_state_empirical(dataset, location, anchor_radius, state_rng)
    proc_cfg = proc_cfg or initstate.ProceduralConfig()
    return location, initstate.sample_state_procedural(smap, location, proc_cfg, state_rng)


def run_mode(
    mode: str,
    *,
    smap: SemanticMap,
    cfg: SimConfig,
    make_policies: Callable[[SimState], Mapping[str, object]],
    location: Optional[Pose2] = None,
    s1: Optional[SimState] = None,
    dataset: Optional[Sequence[Episode]] = None,
    proc_cfg=None,
    anchor_radius: float = math.inf,
    forced_paths: Optional[Mapping[str, np.ndarray]] = None,
) -> Episode:
    """Generate one episode in one of the four configurations.

    full: sample an ego location, then an initial state, then unroll.
    journey: fixed location, sampled initial state.
    scenario: unroll from a given initial state.
    behaviour: scenario, with listed agents forced onto fixed paths while
    their speed stays with the underlying policy.

    make_policies builds the policy table, the ego's included.
    """
    from .policies import PathOverridePolicy

    if mode not in ("full", "journey", "scenario", "behaviour"):
        raise ValueError(f"unknown mode {mode!r}")

    if mode in ("full", "journey"):
        _, s1 = sample_initial_state(mode, smap, cfg, location, dataset, proc_cfg, anchor_radius)
    elif s1 is None:
        raise ValueError(f"{mode} mode needs an initial state")

    policies = dict(make_policies(s1))
    if mode == "behaviour":
        if not forced_paths:
            raise ValueError("behaviour mode needs (agent id, path) pairs")
        for agent_id, path in forced_paths.items():
            if agent_id not in policies:
                raise ValueError(f"forced path for unknown agent {agent_id!r}")
            policies[agent_id] = PathOverridePolicy(policies[agent_id], path)
    return unroll(s1, policies, smap, cfg)
