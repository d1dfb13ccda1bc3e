"""Markov forward simulator.

Each step advances every agent, the ego included, by its own policy from
the frozen previous state only, so the result does not depend on the
order in which agents are evaluated. Steps run on the calling thread.
Policies are deterministic; the only per-step randomness is the engine's
control noise, drawn from a counter-based stream keyed by (seed, agent
id, step index) for each non-ego agent, and only when the noise is on.
"""
from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .core import (
    AgentState,
    Episode,
    Polyline,
    Pose2,
    SemanticMap,
    SimState,
    agent_obb,
    obb_overlap,
)
from .kinematics import Control, advance

log = logging.getLogger(__name__)

MODES = ("full", "journey", "scenario", "behaviour")


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


def _stream_key(seed: int, tag: str, counter: int) -> np.ndarray:
    """A Philox key: the first 16 bytes of a sha256 as two little-endian words."""
    return np.frombuffer(hashlib.sha256(f"{seed}|{tag}|{counter}".encode("utf-8")).digest(), "<u8", 2)


def stream_rng(seed: int, tag: str, counter: int = 0) -> np.random.Generator:
    """A fresh counter-based stream, independent of call order."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, tag, counter)))


# The one generator behind agent_step_rng: re-keying it costs a quarter of
# building a new Philox. It is shared, so two threads must not step at once.
_philox = np.random.Philox(0)
_agent_rng = np.random.Generator(_philox)
_fresh_state = _philox.state  # counter 0, an empty buffer, no cached half-word


def agent_step_rng(seed: int, agent_id: str, step_index: int) -> np.random.Generator:
    """The control-noise stream of one (agent, step): the draws of
    stream_rng(seed, "agent:<id>", step_index), from one shared generator
    that is valid only until the next call."""
    _fresh_state["state"]["key"] = _stream_key(seed, f"agent:{agent_id}", step_index)
    _philox.state = _fresh_state
    return _agent_rng


# ---------------------------------------------------------------------------
# Stepping


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
    decision = policy.act(agent.id, prev, smap)
    if decision.pose_override is not None:
        return replace(agent, pose=decision.pose_override, speed=decision.control.v)
    c = decision.control
    sigma_phi, sigma_v = cfg.control_noise
    # The ego's policy is the planner under test: it gets no noise.
    if (sigma_phi > 0 or sigma_v > 0) and agent.id != prev.ego_id:
        rng = agent_step_rng(cfg.seed, agent.id, t)
        phi = c.phi + sigma_phi * rng.standard_normal()
        c = Control(phi, max(0.0, c.v + sigma_v * rng.standard_normal()))
    return advance(agent, c, cfg.dt)


def step(
    prev: SimState,
    policies: Mapping[str, object],
    smap: SemanticMap,
    cfg: SimConfig,
    t: int,
) -> SimState:
    """One synchronous transition: the ego and every active agent advance
    off the frozen previous state by their policies. Agents whose centers
    leave the region of interest around the new ego deactivate."""
    ego = _advance_agent(prev.ego, policies, prev, smap, cfg, t)
    agents = []
    for a in prev.agents:
        if a.id == prev.ego_id:
            a = ego
        elif a.active:
            a = _advance_agent(a, policies, prev, smap, cfg, t)
            if math.hypot(a.pose.x - ego.pose.x, a.pose.y - ego.pose.y) > cfg.roi_radius:
                a = replace(a, active=False)
        agents.append(a)
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
    policies maps every agent id, the ego's included, to its policy. The
    ego must be active in s1; step never deactivates it."""
    if not s1.ego.active:
        raise ValueError(f"agent {s1.ego_id!r} is not active at step {s1.step_index}")
    states = [s1]
    termination = "completed"
    for k in range(1, cfg.horizon_steps + 1):
        state = step(states[-1], policies, smap, cfg, s1.step_index + k)
        states.append(state)
        _log_agent_collisions(state)
        if cfg.interrupt_on_ego_collision and ego_collides(state) is not None:
            termination = "ego_collision"
            break
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
    forced_paths: Optional[Mapping[str, Polyline]] = None,
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

    if mode not in MODES:
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
