"""Domain types, planar geometry, and semantic-map queries.

World frame: x east, y north, distances in meters. Headings are radians,
counter-clockwise from +x, normalized to (-pi, pi]. All types are immutable
value objects and every function here is pure, so everything is safe to
share across threads.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

TAU = 2.0 * math.pi

AGENT_KINDS = ("vehicle", "pedestrian", "cyclist")
TERMINATIONS = ("completed", "ego_collision", "external")


def normalize_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValueError(f"non-finite angle: {theta!r}")
    t = math.fmod(theta, TAU)
    if t > math.pi:
        t -= TAU
    elif t <= -math.pi:
        t += TAU
    return t


@dataclass(frozen=True)
class Pose2:
    """Planar pose: position in world meters, yaw in radians CCW from +x."""

    x: float
    y: float
    yaw: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position: ({self.x!r}, {self.y!r})")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True)
class AgentState:
    """One traffic participant: pose, footprint extent, scalar speed.

    Speed is non-negative; motion direction is given by the pose yaw
    (reversing is unsupported). ``extent`` is (length, width) of the
    rectangular footprint centered on the pose.
    """

    id: str
    pose: Pose2
    extent: tuple[float, float]
    speed: float
    kind: str = "vehicle"
    active: bool = True

    def __post_init__(self):
        object.__setattr__(self, "extent", (float(self.extent[0]), float(self.extent[1])))
        if not (self.extent[0] > 0 and self.extent[1] > 0):
            raise ValueError(f"agent {self.id}: extent must be strictly positive, got {self.extent}")
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ValueError(f"agent {self.id}: speed must be finite and >= 0, got {self.speed}")
        object.__setattr__(self, "speed", float(self.speed))
        if self.kind not in AGENT_KINDS:
            raise ValueError(f"agent {self.id}: unknown kind {self.kind!r}")

    @property
    def length(self) -> float:
        return self.extent[0]

    @property
    def width(self) -> float:
        return self.extent[1]

    @property
    def center(self) -> tuple[float, float]:
        return (self.pose.x, self.pose.y)


@dataclass(frozen=True)
class SimState:
    """The world at one timestep: all agents plus the ego designation."""

    step_index: int
    agents: tuple[AgentState, ...]
    ego_id: str

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        if self.step_index < 0:
            raise ValueError(f"step_index must be >= 0, got {self.step_index}")
        ids = [a.id for a in self.agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be pairwise distinct")
        if self.ego_id not in set(ids):
            raise ValueError(f"ego id {self.ego_id!r} not present among agents")

    @cached_property
    def _by_id(self) -> dict[str, AgentState]:
        return {a.id: a for a in self.agents}

    def agent(self, agent_id: str) -> AgentState:
        try:
            return self._by_id[agent_id]
        except KeyError:
            raise ValueError(f"unknown agent id {agent_id!r}") from None

    @property
    def ego(self) -> AgentState:
        return self._by_id[self.ego_id]

    def active_agents(self) -> tuple[AgentState, ...]:
        return tuple(a for a in self.agents if a.active)


@dataclass(frozen=True)
class Episode:
    """A fixed-dt sequence of states with contiguous step indices."""

    dt: float
    map_id: str
    states: tuple[SimState, ...]
    termination: str = "completed"

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not self.states:
            raise ValueError("episode must contain at least one state")
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")
        first = self.states[0].step_index
        ids0 = frozenset(a.id for a in self.states[0].agents)
        for k, s in enumerate(self.states):
            if s.step_index != first + k:
                raise ValueError("state step indices must be contiguous")
            if frozenset(a.id for a in s.agents) != ids0:
                raise ValueError("agent id sets must be consistent across states")
            if s.ego_id != self.states[0].ego_id:
                raise ValueError("ego id must not change within an episode")

    @property
    def ego_id(self) -> str:
        return self.states[0].ego_id

    def state_at(self, step_index: int) -> SimState:
        k = step_index - self.states[0].step_index
        if not 0 <= k < len(self.states):
            raise ValueError(f"step {step_index} outside episode range")
        return self.states[k]


# ---------------------------------------------------------------------------
# Oriented bounding boxes


@dataclass(frozen=True)
class Obb:
    """Oriented rectangle: center, half extents along its local x/y, yaw."""

    center: tuple[float, float]
    half_extents: tuple[float, float]
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(
            self, "half_extents", (float(self.half_extents[0]), float(self.half_extents[1]))
        )
        if not (self.half_extents[0] > 0 and self.half_extents[1] > 0):
            raise ValueError(f"half extents must be strictly positive, got {self.half_extents}")


def agent_obb(agent: AgentState) -> Obb:
    """Collision rectangle of an agent: its extent centered on its pose."""
    return Obb(
        center=(agent.pose.x, agent.pose.y),
        half_extents=(agent.extent[0] / 2.0, agent.extent[1] / 2.0),
        yaw=agent.pose.yaw,
    )


def obb_corners(obb: Obb) -> np.ndarray:
    """The 4 corners as a (4, 2) array, counter-clockwise."""
    c, s = math.cos(obb.yaw), math.sin(obb.yaw)
    hx, hy = obb.half_extents
    local = np.array([(hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy)])
    rot = np.array([(c, -s), (s, c)])
    return local @ rot.T + np.asarray(obb.center)


def _axis_overlaps(corners_a: np.ndarray, corners_b: np.ndarray, axes: np.ndarray) -> np.ndarray:
    pa = corners_a @ axes.T
    pb = corners_b @ axes.T
    return np.minimum(pa.max(axis=0), pb.max(axis=0)) - np.maximum(pa.min(axis=0), pb.min(axis=0))


def _obb_axes(a: Obb, b: Obb) -> np.ndarray:
    out = np.empty((4, 2))
    for i, obb in enumerate((a, b)):
        c, s = math.cos(obb.yaw), math.sin(obb.yaw)
        out[2 * i] = (c, s)
        out[2 * i + 1] = (-s, c)
    return out


def obb_overlap(a: Obb, b: Obb) -> bool:
    """Whether two oriented rectangles intersect (touching counts).

    Separating-axis test over the 4 edge normals, with a bounding-circle
    early-out. Tangencies closer than ~1e-3 m are implementation-defined.
    """
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    ra = math.hypot(*a.half_extents)
    rb = math.hypot(*b.half_extents)
    if dx * dx + dy * dy > (ra + rb) ** 2:
        return False
    overlaps = _axis_overlaps(obb_corners(a), obb_corners(b), _obb_axes(a, b))
    return bool(np.all(overlaps >= 0.0))


# ---------------------------------------------------------------------------
# Semantic map


@dataclass(frozen=True, eq=False)
class Polyline:
    """A path of (N>=2, 2) finite points with no zero-length segment, and
    its arclength `length`: a lane centerline or a forced path."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
            raise ValueError("must be an (N>=2, 2) point array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("has a non-finite point")
        seg = np.diff(pts, axis=0)
        seglen = np.hypot(seg[:, 0], seg[:, 1])
        if np.any(seglen <= 0):
            raise ValueError("has a zero-length segment")
        object.__setattr__(self, "points", pts)
        # Python floats: pose_at reads one entry at a time
        object.__setattr__(self, "_seg", seg.tolist())
        object.__setattr__(self, "_seglen", seglen.tolist())
        object.__setattr__(self, "_cumlen", np.concatenate(([0.0], np.cumsum(seglen))).tolist())
        object.__setattr__(self, "length", self._cumlen[-1])

    @cached_property
    def segments(self) -> "PolylineSegments":
        """The segment arrays as `project_to_polyline` uses them. Its
        lengths come from sqrt(einsum), which differs in the last bit from
        the np.hypot lengths above in some segments."""
        return polyline_segments(self.points)

    def pose_at(self, s: float) -> Pose2:
        """Interpolated position and tangent yaw at arclength s, clamped to
        [0, length]."""
        s = min(max(s, 0.0), self.length)
        cum = self._cumlen
        i = min(bisect_right(cum, s) - 1, len(self._seglen) - 1)
        t = (s - cum[i]) / self._seglen[i]
        x0, y0 = self.points[i].tolist()
        dx, dy = self._seg[i]
        return Pose2(x0 + t * dx, y0 + t * dy, math.atan2(dy, dx))


@dataclass(frozen=True, eq=False)
class Lane:
    """A lane centerline with width, successor links, and optional light;
    `path` is the centerline's Polyline and `length` its arclength."""

    id: str
    centerline: np.ndarray  # (N, 2) float
    width: float
    successors: tuple[str, ...] = ()
    light_id: Optional[str] = None

    def __post_init__(self):
        try:
            path = Polyline(self.centerline)
        except ValueError as exc:
            raise ValueError(f"lane {self.id}: centerline {exc}") from None
        if not self.width > 0:
            raise ValueError(f"lane {self.id}: width must be > 0")
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "length", path.length)
        object.__setattr__(self, "centerline", path.points)
        object.__setattr__(self, "successors", tuple(self.successors))


@dataclass(frozen=True, eq=False)
class TrafficLight:
    """A light with a schedule of non-overlapping (start_s, end_s, color) phases."""

    id: str
    schedule: tuple[tuple[float, float, str], ...]

    def __post_init__(self):
        sched = tuple((float(s), float(e), str(c)) for s, e, c in self.schedule)
        for s, e, c in sched:
            if not s < e:
                raise ValueError(f"light {self.id}: empty phase [{s}, {e})")
            if c not in ("red", "green"):
                raise ValueError(f"light {self.id}: unknown color {c!r}")
        ordered = sorted(sched)
        for (s0, e0, _), (s1, _, _) in zip(ordered, ordered[1:]):
            if s1 < e0:
                raise ValueError(f"light {self.id}: overlapping phases")
        object.__setattr__(self, "schedule", sched)

    def color_at(self, t: float) -> str:
        """Phase color at time t; uncovered times default to green."""
        for s, e, c in self.schedule:
            if s <= t < e:
                return c
        return "green"


@dataclass(frozen=True, eq=False)
class SemanticMap:
    """Lane graph, crosswalk polygons, and traffic-light schedules."""

    lanes: tuple[Lane, ...]
    crosswalks: tuple[np.ndarray, ...] = ()
    lights: tuple[TrafficLight, ...] = ()
    map_id: str = "map"

    def __post_init__(self):
        object.__setattr__(self, "lanes", tuple(self.lanes))
        object.__setattr__(
            self, "crosswalks", tuple(np.asarray(p, dtype=float) for p in self.crosswalks)
        )
        object.__setattr__(self, "lights", tuple(self.lights))
        lane_ids = [l.id for l in self.lanes]
        if len(set(lane_ids)) != len(lane_ids):
            raise ValueError("duplicate lane ids")
        light_ids = {l.id for l in self.lights}
        if len(light_ids) != len(self.lights):
            raise ValueError("duplicate light ids")
        for lane in self.lanes:
            for succ in lane.successors:
                if succ not in set(lane_ids):
                    raise ValueError(f"lane {lane.id}: unresolved successor {succ!r}")
            if lane.light_id is not None and lane.light_id not in light_ids:
                raise ValueError(f"lane {lane.id}: unresolved light {lane.light_id!r}")
        for poly in self.crosswalks:
            if poly.ndim != 2 or poly.shape[0] < 3 or poly.shape[1] != 2:
                raise ValueError("crosswalk polygons need >= 3 points")

    @cached_property
    def _lane_by_id(self) -> dict[str, Lane]:
        return {l.id: l for l in self.lanes}

    @cached_property
    def _lanes_in_id_order(self) -> tuple[Lane, ...]:
        return tuple(sorted(self.lanes, key=lambda l: l.id))

    @cached_property
    def lane_boxes(self) -> np.ndarray:
        """Each lane's centerline bounding box as a (lanes, 4) array of
        (x_min, y_min, x_max, y_max) rows, in `lanes` order."""
        return np.array(
            [(*l.centerline.min(axis=0), *l.centerline.max(axis=0)) for l in self.lanes]
        ).reshape(-1, 4)

    @cached_property
    def _light_by_id(self) -> dict[str, TrafficLight]:
        return {l.id: l for l in self.lights}

    def lane(self, lane_id: str) -> Lane:
        try:
            return self._lane_by_id[lane_id]
        except KeyError:
            raise ValueError(f"unknown lane id {lane_id!r}") from None

    def lane_red_at(self, lane_id: str, t: float) -> bool:
        lane = self.lane(lane_id)
        if lane.light_id is None:
            return False
        return self._light_by_id[lane.light_id].color_at(t) == "red"


# ---------------------------------------------------------------------------
# Map queries


class PolylineSegments(NamedTuple):
    """A polyline's segments as columns: start point (x0, y0), vector
    (dx, dy), squared length, length, and the arclength at each vertex."""

    x0: np.ndarray
    y0: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    seglen2: np.ndarray
    seglen: np.ndarray
    cumlen: np.ndarray


def polyline_segments(pts: np.ndarray) -> PolylineSegments:
    """The segment arrays of an (M, 2) polyline, for repeated projections."""
    pts = np.asarray(pts, dtype=float)
    seg = np.diff(pts, axis=0)
    seglen2 = np.einsum("ij,ij->i", seg, seg)
    seglen = np.sqrt(seglen2)
    start = np.ascontiguousarray(pts[:-1].T)
    seg_t = np.ascontiguousarray(seg.T)
    cumlen = np.concatenate(([0.0], np.cumsum(seglen)))
    return PolylineSegments(start[0], start[1], seg_t[0], seg_t[1], seglen2, seglen, cumlen)


def project_to_polyline(path, point):
    """Project one point, or an (N, 2) array of points, onto a polyline.

    path is an (M, 2) point array or its PolylineSegments. Returns
    (distance, signed_lateral, arclength): floats for one point, (N,)
    arrays for many. Lateral is positive to the left of the local tangent
    direction. Ties across segments resolve to the smallest arclength.
    """
    poly = path if isinstance(path, PolylineSegments) else polyline_segments(path)
    p = np.asarray(point, dtype=float)
    q = p.reshape(-1, 2)
    px, py = q[:, :1], q[:, 1:]
    # (N, segments) arrays; each 2-vector dot product is x*x' + y*y', the
    # same two roundings as an einsum over the pair
    t = np.clip(((px - poly.x0) * poly.dx + (py - poly.y0) * poly.dy) / poly.seglen2, 0.0, 1.0)
    ox = px - (poly.x0 + t * poly.dx)
    oy = py - (poly.y0 + t * poly.dy)
    d2 = ox * ox + oy * oy
    i = np.argmin(d2, axis=1)
    rows = np.arange(len(i))
    arclength = poly.cumlen[i] + t[rows, i] * poly.seglen[i]
    cross = poly.dx[i] * oy[rows, i] - poly.dy[i] * ox[rows, i]
    dist = np.sqrt(d2[rows, i])
    lateral = np.where(dist > 0, np.copysign(dist, cross), 0.0)
    if p.ndim == 1:
        return float(dist[0]), float(lateral[0]), float(arclength[0])
    return dist, lateral, arclength


def nearest_lane(smap: SemanticMap, point):
    """The lane whose centerline is laterally closest to a point.

    Returns (lane_id, arclength, signed_lateral_offset) for one point, or
    for an (N, 2) array of points a list of lane ids and two (N,) arrays.
    Within a lane the smallest squared distance wins; across lanes the
    smallest distance, then the lowest lane id.
    """
    if not smap.lanes:
        raise ValueError("no lanes")
    p = np.asarray(point, dtype=float)
    q = p.reshape(-1, 2)
    lanes = smap._lanes_in_id_order
    dist, lateral, arclength = project_to_polyline(lanes[0].path.segments, q)
    k = np.zeros(len(q), dtype=np.intp)
    for j in range(1, len(lanes)):
        d, lat, arc = project_to_polyline(lanes[j].path.segments, q)
        nearer = d < dist  # strict: equal distances keep the lower id
        dist = np.where(nearer, d, dist)
        lateral = np.where(nearer, lat, lateral)
        arclength = np.where(nearer, arc, arclength)
        k[nearer] = j
    ids = [lanes[j].id for j in k.tolist()]
    if p.ndim == 1:
        return ids[0], float(arclength[0]), float(lateral[0])
    return ids, arclength, lateral


def lane_pose_at(smap: SemanticMap, lane_id: str, arclength: float) -> Pose2:
    """Pose on a lane centerline: interpolated position, tangent yaw."""
    lane = smap.lane(lane_id)
    if arclength < -1e-9 or arclength > lane.length + 1e-9:
        raise ValueError(
            f"arclength {arclength} outside [0, {lane.length}] for lane {lane_id!r}"
        )
    return lane.path.pose_at(arclength)


def lane_chain(smap: SemanticMap, lane_id: str, max_length: float) -> list[tuple[str, float]]:
    """Forward corridor from a lane: [(lane_id, start_offset), ...].

    Follows successors (lowest id on branches) until max_length is covered,
    the chain ends, or a lane repeats.
    """
    chain: list[tuple[str, float]] = []
    seen = set()
    offset = 0.0
    current = lane_id
    while current not in seen and offset <= max_length:
        chain.append((current, offset))
        seen.add(current)
        lane = smap.lane(current)
        offset += lane.length
        if not lane.successors:
            break
        current = min(lane.successors)
    return chain


def advance_along_lanes(
    smap: SemanticMap, lane_id: str, arclength: float, distance: float
) -> tuple[str, float]:
    """Move forward along a lane and its successor chain.

    Clamps at the end of the terminal lane. Branches take the lowest
    successor id.
    """
    s = arclength + distance
    current = lane_id
    seen = set()
    while True:
        lane = smap.lane(current)
        if s <= lane.length or not lane.successors or current in seen:
            return current, min(max(s, 0.0), lane.length)
        seen.add(current)
        s -= lane.length
        current = min(lane.successors)


# ---------------------------------------------------------------------------
# Map file format (JSON)


def map_to_json(smap: SemanticMap) -> dict:
    return {
        "map_id": smap.map_id,
        "lanes": [
            {
                "id": l.id,
                "centerline": [[float(x), float(y)] for x, y in l.centerline],
                "width": l.width,
                "successors": list(l.successors),
                **({"light_id": l.light_id} if l.light_id is not None else {}),
            }
            for l in smap.lanes
        ],
        "crosswalks": [[[float(x), float(y)] for x, y in poly] for poly in smap.crosswalks],
        "lights": [
            {
                "id": l.id,
                "schedule": [
                    {"start_s": s, "end_s": e, "color": c} for s, e, c in l.schedule
                ],
            }
            for l in smap.lights
        ],
    }


class FormatError(ValueError):
    """A malformed record in a map or episode log file; the command line
    reports it as a usage error (exit 1)."""


# What reading a record with a missing key or a bad value raises.
RECORD_ERRORS = (AttributeError, KeyError, TypeError, ValueError)


def error_detail(exc: Exception) -> str:
    """exc as a message; a KeyError names the missing key."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _check_keys(obj: dict, allowed: set[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {where}")


def map_from_json(doc: dict, map_id: str = "map") -> SemanticMap:
    """A FormatError names the lane or light record, lanes[k] or
    lights[k], that has a missing key or a bad value."""
    if not isinstance(doc, dict):
        raise FormatError("the map document must be an object")
    _check_keys(doc, {"map_id", "lanes", "crosswalks", "lights"}, "map document")
    lanes = []
    try:
        for entry in doc.get("lanes", []):
            _check_keys(entry, {"id", "centerline", "width", "successors", "light_id"}, "lane")
            lanes.append(
                Lane(
                    id=str(entry["id"]),
                    centerline=np.asarray(entry["centerline"], dtype=float),
                    width=float(entry["width"]),
                    successors=tuple(entry.get("successors", ())),
                    light_id=entry.get("light_id"),
                )
            )
    except RECORD_ERRORS as exc:
        raise FormatError(f"lanes[{len(lanes)}]: {error_detail(exc)}") from None
    lights = []
    try:
        for entry in doc.get("lights", []):
            _check_keys(entry, {"id", "schedule"}, "light")
            sched = []
            for phase in entry["schedule"]:
                _check_keys(phase, {"start_s", "end_s", "color"}, "light phase")
                sched.append((float(phase["start_s"]), float(phase["end_s"]), str(phase["color"])))
            lights.append(TrafficLight(id=str(entry["id"]), schedule=tuple(sched)))
    except RECORD_ERRORS as exc:
        raise FormatError(f"lights[{len(lights)}]: {error_detail(exc)}") from None
    return SemanticMap(
        lanes=tuple(lanes),
        crosswalks=tuple(np.asarray(p, dtype=float) for p in doc.get("crosswalks", [])),
        lights=tuple(lights),
        map_id=str(doc.get("map_id", map_id)),
    )


def load_map(path: str | Path) -> SemanticMap:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return map_from_json(doc, map_id=path.stem)
    except FormatError as exc:
        raise FormatError(f"map {path}: {exc}") from None


def save_map(smap: SemanticMap, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(map_to_json(smap), fh, indent=2, sort_keys=True)
        fh.write("\n")
