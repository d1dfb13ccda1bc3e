"""Initial ego locations and initial states: empirical (from logs),
procedural (on the lane graph), or vectorized from a rendered grid."""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    AgentState,
    Episode,
    Pose2,
    SemanticMap,
    SimState,
    agent_obb,
    lane_pose_at,
    nearest_lane,
    normalize_angle,
    obb_overlap,
)
from .raster import Grid, extract_from_channel

DEFAULT_VEHICLE_EXTENT = (4.5, 2.0)
MAX_ATTEMPTS = 100  # placement tries per procedural agent
RASTER_SPEED = 5.0  # m/s of every agent read from a grid: an image carries no velocity


@dataclass(frozen=True)
class ProceduralConfig:
    """Knobs for lane-graph state synthesis. Candidate agents violating
    min_gap (same-lane bumper gap) or physically overlapping anything are
    rejected, up to MAX_ATTEMPTS tries each."""

    agents_mean: float = 5.0
    min_gap: float = 8.0
    speed_range: tuple[float, float] = (0.0, 12.0)

    def __post_init__(self):
        if not self.min_gap > 0:
            raise ValueError("min_gap must be > 0")
        lo, hi = self.speed_range
        if not (0 <= lo <= hi):
            raise ValueError(f"speed_range must be ordered and non-negative, got {self.speed_range}")


def _draw_lane_position(smap: SemanticMap, rng: np.random.Generator) -> tuple[str, float]:
    """Uniform over total centerline arclength."""
    lengths = [lane.length for lane in smap.lanes]
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    u = rng.uniform(0.0, cum[-1])
    i = min(bisect_right(cum, u) - 1, len(smap.lanes) - 1)
    return smap.lanes[i].id, min(u - cum[i], lengths[i])


def sample_location(smap: SemanticMap, rng: np.random.Generator) -> Pose2:
    """A pose uniform over all lane centerline arclength, facing the lane
    tangent."""
    if not smap.lanes:
        raise ValueError("no lanes")
    lane_id, s = _draw_lane_position(smap, rng)
    return lane_pose_at(smap, lane_id, s)


def _rigid_transform(pose: Pose2, anchor: Pose2, target: Pose2) -> Pose2:
    """Re-express pose after the rigid motion that maps anchor onto target."""
    dyaw = normalize_angle(target.yaw - anchor.yaw)
    c, s = math.cos(dyaw), math.sin(dyaw)
    dx, dy = pose.x - anchor.x, pose.y - anchor.y
    return Pose2(
        target.x + c * dx - s * dy,
        target.y + s * dx + c * dy,
        normalize_angle(pose.yaw + dyaw),
    )


def sample_state_empirical(
    dataset: Sequence[Episode],
    location: Pose2,
    radius: float,
    rng: np.random.Generator,
) -> SimState:
    """Pick a recorded state whose ego is within radius of the location,
    uniformly, and re-anchor it so the ego pose coincides with location."""
    if not dataset:
        raise ValueError("empty dataset")
    candidates = []
    for ep in dataset:
        for state in ep.states:
            ego = state.ego
            if math.hypot(ego.pose.x - location.x, ego.pose.y - location.y) <= radius:
                candidates.append(state)
    if not candidates:
        raise ValueError("no feasible states")
    state = candidates[int(rng.integers(len(candidates)))]
    anchor = state.ego.pose
    agents = tuple(
        AgentState(
            id=a.id,
            pose=_rigid_transform(a.pose, anchor, location),
            extent=a.extent,
            speed=a.speed,
            kind=a.kind,
            active=a.active,
        )
        for a in state.agents
    )
    return SimState(step_index=0, agents=agents, ego_id=state.ego_id)


def _same_lane_gap_ok(
    smap: SemanticMap,
    placed: list[tuple[str, float, AgentState]],
    lane_id: str,
    s: float,
    agent: AgentState,
    min_gap: float,
) -> bool:
    box = agent_obb(agent)
    for other_lane, other_s, other in placed:
        if other_lane == lane_id:
            gap = abs(other_s - s) - (agent.length + other.length) / 2.0
            if gap < min_gap:
                return False
        if obb_overlap(box, agent_obb(other)):
            return False
    return True


def sample_state_procedural(
    smap: SemanticMap,
    location: Pose2,
    cfg: ProceduralConfig,
    rng: np.random.Generator,
) -> SimState:
    """Synthesize a state: ego at the location, a Poisson number of agents
    at uniform lane arclengths with rejection below min_gap. Under-filling
    is allowed when rejections exhaust the attempt budget."""
    ego = AgentState(
        id="ego",
        pose=location,
        extent=DEFAULT_VEHICLE_EXTENT,
        speed=float(rng.uniform(*cfg.speed_range)),
        kind="vehicle",
    )
    ego_lane, ego_s, _ = nearest_lane(smap, ego.center)
    placed: list[tuple[str, float, AgentState]] = [(ego_lane, ego_s, ego)]
    n = int(rng.poisson(cfg.agents_mean))
    agents = [ego]
    for i in range(n):
        for _ in range(MAX_ATTEMPTS):
            lane_id, s = _draw_lane_position(smap, rng)
            pose = lane_pose_at(smap, lane_id, s)
            candidate = AgentState(
                id=f"agent_{i + 1}",
                pose=pose,
                extent=DEFAULT_VEHICLE_EXTENT,
                speed=float(rng.uniform(*cfg.speed_range)),
                kind="vehicle",
            )
            if _same_lane_gap_ok(smap, placed, lane_id, s, candidate, cfg.min_gap):
                placed.append((lane_id, s, candidate))
                agents.append(candidate)
                break
    return SimState(step_index=0, agents=tuple(agents), ego_id="ego")


def state_from_raster(grid: Grid) -> SimState:
    """Vectorize a rendered grid back into a state.

    The ego channel must hold exactly one blob. Extracted agents get the
    blob's box pose and extent and RASTER_SPEED."""
    ego_blobs = extract_from_channel(grid, "ego")
    if len(ego_blobs) != 1:
        raise ValueError(f"expected exactly 1 ego component, found {len(ego_blobs)}")
    agents = [_agent_from_blob(ego_blobs[0], "ego")]
    for i, blob in enumerate(extract_from_channel(grid, "agents")):
        agents.append(_agent_from_blob(blob, f"agent_{i + 1}"))
    return SimState(step_index=0, agents=tuple(agents), ego_id="ego")


def _agent_from_blob(blob, agent_id: str) -> AgentState:
    box = blob.bbox
    return AgentState(
        id=agent_id,
        pose=Pose2(box.center[0], box.center[1], box.yaw),
        extent=(2.0 * box.half_extents[0], 2.0 * box.half_extents[1]),
        speed=RASTER_SPEED,
        kind="vehicle",
    )
