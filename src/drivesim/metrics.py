"""Simulation realism, reactivity, and planner-evaluation metrics, plus
the synthetic scene suites they are measured on."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AgentState,
    Episode,
    SemanticMap,
    SimState,
    agent_obb,
    lane_pose_at,
    normalize_angle,
    obb_corners,
    obb_overlap,
    project_to_polyline,
)
from .engine import SimConfig, assign_policies, ego_collides, stream_rng, unroll
from .initstate import DEFAULT_VEHICLE_EXTENT
from .policies import ConstantVelocityPolicy, LogReplayPolicy

FOLLOWER_ARC = 5.0  # m, lane arclength of a static-lead follower's rear bumper
REACH_MARGIN = 2.0  # m, how far short of the lead a non-braking follower may end


# ---------------------------------------------------------------------------
# Realism: displacement against ground truth


@dataclass(frozen=True)
class RealismReport:
    horizons: tuple[float, ...]
    mean_l2: tuple[float, ...]
    n_agents: int
    n_scenes: int

    def to_json_dict(self) -> dict:
        return {
            "horizons": list(self.horizons),
            "mean_l2": list(self.mean_l2),
            "n_agents": self.n_agents,
            "n_scenes": self.n_scenes,
        }

    def csv_rows(self) -> list[list]:
        rows = [["horizon_s", "mean_l2_m"]]
        rows += [[h, d] for h, d in zip(self.horizons, self.mean_l2)]
        return rows


def _check_same_start(sim: Episode, gt: Episode) -> None:
    s0, g0 = sim.states[0], gt.states[0]
    if abs(sim.dt - gt.dt) > 1e-12:
        raise ValueError("episodes must share dt")
    if s0.step_index != g0.step_index or s0.ego_id != g0.ego_id:
        raise ValueError("episodes must share the initial state")
    ids_s = {a.id for a in s0.agents}
    ids_g = {a.id for a in g0.agents}
    if ids_s != ids_g:
        raise ValueError("episodes must share the initial agent set")
    for a in s0.agents:
        b = g0.agent(a.id)
        if math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y) > 1e-6:
            raise ValueError("episodes must share the initial state")


def _pair_distances(sim: Episode, gt: Episode, horizons: Sequence[float]) -> list[list[float]]:
    _check_same_start(sim, gt)
    start = sim.states[0].step_index
    per_horizon: list[list[float]] = []
    for h in horizons:
        k = round(h / sim.dt)
        if abs(k * sim.dt - h) > 1e-6:
            raise ValueError(f"horizon {h} is not a multiple of dt {sim.dt}")
        if k >= len(sim.states) or k >= len(gt.states):
            raise ValueError(f"horizon {h}s exceeds episode length")
        ss, gs = sim.state_at(start + k), gt.state_at(start + k)
        dists = []
        for a in ss.agents:
            if a.id == ss.ego_id or not a.active:
                continue
            b = gs.agent(a.id)
            if not b.active:
                continue
            dists.append(math.hypot(a.pose.x - b.pose.x, a.pose.y - b.pose.y))
        per_horizon.append(dists)
    return per_horizon


def realism_report(
    sims: Sequence[Episode], gts: Sequence[Episode], horizons: Sequence[float]
) -> RealismReport:
    """Mean L2 distance between simulated and ground-truth agents (ego
    excluded) at each horizon, pooled over scenes and agents."""
    if len(sims) != len(gts):
        raise ValueError("mismatched scene counts")
    pooled: list[list[float]] = [[] for _ in horizons]
    for sim, gt in zip(sims, gts):
        for bucket, dists in zip(pooled, _pair_distances(sim, gt, horizons)):
            bucket.extend(dists)
    means = tuple(float(np.mean(b)) if b else 0.0 for b in pooled)
    n_agents = max((len(b) for b in pooled), default=0)
    return RealismReport(tuple(horizons), means, n_agents=n_agents, n_scenes=len(sims))


def simulate_against_logs(
    gt_episodes: Sequence[Episode],
    make_policies: Callable[[SimState, Episode], dict],
    smap: SemanticMap,
    cfg: SimConfig,
) -> list[Episode]:
    """Re-simulate each log's agents while the ego replays its recorded
    path exactly; the returned episodes pair 1:1 with the inputs."""
    sims = []
    for gt in gt_episodes:
        s1 = gt.states[0]
        policies = {**make_policies(s1, gt), s1.ego_id: LogReplayPolicy(gt)}
        run_cfg = replace(cfg, horizon_steps=len(gt.states) - 1, interrupt_on_ego_collision=False)
        sims.append(unroll(s1, policies, smap, run_cfg))
    return sims


# ---------------------------------------------------------------------------
# Reactivity: static-lead scenes


@dataclass(frozen=True)
class ReactivityReport:
    scenes_total: int
    scenes_without_collision: int

    @property
    def reactivity(self) -> float:
        return self.scenes_without_collision / self.scenes_total if self.scenes_total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "scenes_total": self.scenes_total,
            "scenes_without_collision": self.scenes_without_collision,
            "reactivity": self.reactivity,
        }

    def csv_rows(self) -> list[list]:
        return [
            ["key", "value"],
            ["scenes_total", self.scenes_total],
            ["scenes_without_collision", self.scenes_without_collision],
            ["reactivity", self.reactivity],
        ]


def make_static_lead_scene(gap: float, follower_speed: float, smap: SemanticMap) -> SimState:
    """A stopped car ahead of a moving one on the longest lane (on a tie,
    the greatest id).

    The lead is the ego (the blockage whose contact interrupts the run);
    the follower is the policy-controlled subject. gap is bumper to
    bumper."""
    if not gap > 0:
        raise ValueError(f"gap must be > 0, got {gap}")
    if follower_speed < 0:
        raise ValueError(f"follower speed must be >= 0, got {follower_speed}")
    lane = max(smap.lanes, key=lambda l: (l.length, l.id))
    extent = DEFAULT_VEHICLE_EXTENT
    follower_center = FOLLOWER_ARC + extent[0] / 2.0
    lead_center = follower_center + extent[0] + gap
    if lead_center + extent[0] / 2.0 + 1.0 > lane.length:
        raise ValueError(f"lane {lane.id!r} too short for gap {gap}")
    lead = AgentState(
        id="lead", pose=lane_pose_at(smap, lane.id, lead_center), extent=extent, speed=0.0
    )
    follower = AgentState(
        id="follower",
        pose=lane_pose_at(smap, lane.id, follower_center),
        extent=extent,
        speed=follower_speed,
    )
    return SimState(step_index=0, agents=(lead, follower), ego_id="lead")


def static_lead_suite(
    smap: SemanticMap,
    n_scenes: int = 100,
    gap_range: tuple[float, float] = (10.0, 40.0),
    speed_range: tuple[float, float] = (5.0, 12.0),
    seed: int = 0,
    horizon_s: float = 5.0,
) -> list[SimState]:
    """Seeded randomized scenes. Draws are rejected until the lead is
    reachable without braking (gap + margin <= speed * horizon), so a
    non-reactive follower is guaranteed to hit it."""
    if min(gap_range) + REACH_MARGIN > max(speed_range) * horizon_s:
        raise ValueError(
            f"no static-lead scene is reachable: gap {min(gap_range)} + margin {REACH_MARGIN} m "
            f"> speed {max(speed_range)} m/s * horizon {horizon_s} s"
        )
    rng = stream_rng(seed, "static-lead-suite")
    scenes = []
    while len(scenes) < n_scenes:
        gap = float(rng.uniform(*gap_range))
        speed = float(rng.uniform(*speed_range))
        if gap + REACH_MARGIN > speed * horizon_s:
            continue
        scenes.append(make_static_lead_scene(gap, speed, smap))
    return scenes


def reactivity(
    suite: Sequence[SimState],
    subject,
    cfg: SimConfig,
    smap: SemanticMap,
) -> ReactivityReport:
    """Fraction of scenes the subject completes without touching the lead.

    subject is a policy, or a callable scene -> policy when the policy
    depends on the scene (log replay)."""
    if not suite:
        raise ValueError("empty scene suite")
    make_subject = subject if not hasattr(subject, "act") else (lambda scene: subject)
    clean = 0
    for scene in suite:
        policies = assign_policies(scene, make_subject(scene), {scene.ego_id: ConstantVelocityPolicy()})
        episode = unroll(scene, policies, smap, cfg)
        if episode.termination == "completed":
            clean += 1
    return ReactivityReport(scenes_total=len(suite), scenes_without_collision=clean)


def constant_speed_log(scene: SimState, cfg: SimConfig, smap: SemanticMap) -> Episode:
    """What each agent would record if nothing reacted: everyone holds
    speed and heading. The non-reactive replay source for a scene."""
    # Noise-free on purpose: the non-reactive reference carries no control
    # noise.
    run_cfg = replace(cfg, interrupt_on_ego_collision=False, control_noise=(0.0, 0.0))
    return unroll(scene, assign_policies(scene, ConstantVelocityPolicy()), smap, run_cfg)


# ---------------------------------------------------------------------------
# Collision direction


def _clip_polygon(subject: np.ndarray, clip: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against a convex polygon."""
    out = list(subject)
    n = len(clip)
    for i in range(n):
        a, b = clip[i], clip[(i + 1) % n]
        edge = b - a
        inp, out = out, []
        if not inp:
            break
        prev = inp[-1]
        prev_in = edge[0] * (prev[1] - a[1]) - edge[1] * (prev[0] - a[0]) >= 0
        for curr in inp:
            curr_in = edge[0] * (curr[1] - a[1]) - edge[1] * (curr[0] - a[0]) >= 0
            if curr_in != prev_in:
                d = curr - prev
                denom = edge[0] * d[1] - edge[1] * d[0]
                if abs(denom) > 1e-12:
                    t = (edge[0] * (a[1] - prev[1]) - edge[1] * (a[0] - prev[0])) / denom
                    out.append(prev + t * d)
            if curr_in:
                out.append(curr)
            prev, prev_in = curr, curr_in
    return np.array(out) if out else np.empty((0, 2))


def _polygon_centroid(poly: np.ndarray) -> np.ndarray:
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = cross.sum() / 2.0
    if abs(area) < 1e-12:
        return poly.mean(axis=0)
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return np.array([cx, cy])


def classify_collision(ego: AgentState, other: AgentState) -> str:
    """Label an overlapping pair front/side/rear by the azimuth of the
    contact region (overlap-polygon centroid) in the ego frame."""
    ego_box, other_box = agent_obb(ego), agent_obb(other)
    if not obb_overlap(ego_box, other_box):
        raise ValueError("agents do not overlap")
    region = _clip_polygon(obb_corners(other_box), obb_corners(ego_box))
    if len(region) == 0:
        contact = np.array([(ego.pose.x + other.pose.x) / 2.0, (ego.pose.y + other.pose.y) / 2.0])
    else:
        contact = _polygon_centroid(region)
    azimuth = normalize_angle(
        math.atan2(contact[1] - ego.pose.y, contact[0] - ego.pose.x) - ego.pose.yaw
    )
    if abs(azimuth) <= math.pi / 4.0:
        return "front"
    if abs(azimuth) >= 3.0 * math.pi / 4.0:
        return "rear"
    return "side"


# ---------------------------------------------------------------------------
# Planner evaluation


@dataclass(frozen=True)
class PlannerThresholds:
    d_thresh: float = 5.0  # m, end-of-horizon ego displacement
    window_s: float = 3.0  # s, passiveness window
    kappa: float = 0.5  # passiveness speed fraction
    g_free: float = 10.0  # m, "clear road" front gap
    l_thresh: float = 2.0  # m, lateral corridor around the reference path


@dataclass(frozen=True)
class PlannerReport:
    front_collisions: int = 0
    side_collisions: int = 0
    rear_collisions: int = 0
    displacement_errors: int = 0
    passiveness: int = 0
    distance_to_reference: int = 0

    CATEGORIES = (
        "front_collisions",
        "side_collisions",
        "rear_collisions",
        "displacement_errors",
        "passiveness",
        "distance_to_reference",
    )

    def to_json_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.CATEGORIES}

    def csv_rows(self) -> list[list]:
        return [["category", "count"]] + [[n, getattr(self, n)] for n in self.CATEGORIES]


def _front_gap(state: SimState) -> float:
    """Bumper gap to the nearest active agent directly ahead of the ego
    (heading corridor, map-free)."""
    ego = state.ego
    c, s = math.cos(ego.pose.yaw), math.sin(ego.pose.yaw)
    best = math.inf
    for other in state.agents:
        if other.id == state.ego_id or not other.active:
            continue
        dx = other.pose.x - ego.pose.x
        dy = other.pose.y - ego.pose.y
        fwd = c * dx + s * dy
        lat = -s * dx + c * dy
        if fwd <= 0 or abs(lat) > (ego.width + other.width) / 2.0 + 0.5:
            continue
        best = min(best, fwd - (ego.length + other.length) / 2.0)
    return best


def _first_ego_collision(ep: Episode) -> Optional[str]:
    for state in ep.states:
        other = ego_collides(state)
        if other is not None:
            return classify_collision(state.ego, other)
    return None


def _ego_positions(ep: Episode) -> np.ndarray:
    return np.array([(s.ego.pose.x, s.ego.pose.y) for s in ep.states])


def planner_eval(
    episodes: Sequence[Episode],
    references: Sequence[Episode],
    thresholds: PlannerThresholds = PlannerThresholds(),
) -> PlannerReport:
    """Per-scene planner failure events, at most one per category per scene.

    Collisions are classified at the first ego contact. Displacement
    compares ego vs reference at the last common step. Passiveness fires
    when some window has ego mean speed below kappa times the reference's
    while the road ahead stays clear. Distance-to-reference fires when the
    ego strays laterally from the reference path."""
    if len(episodes) != len(references):
        raise ValueError("episodes and references must pair 1:1")
    counts = dict.fromkeys(PlannerReport.CATEGORIES, 0)
    for sim, ref in zip(episodes, references):
        if abs(sim.dt - ref.dt) > 1e-12 or sim.ego_id != ref.ego_id:
            raise ValueError("paired episodes must share dt and ego id")
        label = _first_ego_collision(sim)
        if label is not None:
            counts[f"{label}_collisions"] += 1

        last = min(len(sim.states), len(ref.states)) - 1
        sim_pos = _ego_positions(sim)
        ref_pos = _ego_positions(ref)
        if float(np.hypot(*(sim_pos[last] - ref_pos[last]))) > thresholds.d_thresh:
            counts["displacement_errors"] += 1

        window = max(1, round(thresholds.window_s / sim.dt))
        sim_speeds = [s.ego.speed for s in sim.states]
        ref_speeds = [s.ego.speed for s in ref.states]
        gaps = [_front_gap(s) for s in sim.states]
        for start in range(0, last + 2 - window):
            mean_sim = sum(sim_speeds[start : start + window]) / window
            mean_ref = sum(ref_speeds[start : start + window]) / window
            if mean_sim < thresholds.kappa * mean_ref and min(gaps[start : start + window]) > thresholds.g_free:
                counts["passiveness"] += 1
                break

        keep = np.ones(len(ref_pos), dtype=bool)
        keep[1:] = np.hypot(*(np.diff(ref_pos, axis=0).T)) > 1e-9
        path = ref_pos[keep]
        if len(path) < 2:
            lateral = [float(np.hypot(*(p - path[0]))) for p in sim_pos]
        else:
            lateral = project_to_polyline(path, sim_pos)[0]
        if any(d > thresholds.l_thresh for d in lateral):
            counts["distance_to_reference"] += 1
    return PlannerReport(**counts)


# ---------------------------------------------------------------------------
# Report files


def write_report(report, json_path: str | Path, csv_path: Optional[str | Path] = None) -> None:
    """Serialize any report to JSON and (optionally) flat CSV."""
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
