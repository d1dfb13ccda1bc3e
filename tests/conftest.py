import math

import numpy as np
import pytest

from drivesim.core import Lane, SemanticMap, TrafficLight


@pytest.fixture
def straight_map():
    """One straight 200 m lane along +x."""
    lane = Lane(id="main", centerline=np.array([[0.0, 0.0], [200.0, 0.0]]), width=3.5)
    return SemanticMap(lanes=(lane,), map_id="straight")


@pytest.fixture
def two_lane_map():
    """Two parallel lanes along +x, ids chosen to test tie-breaking."""
    a = Lane(id="a", centerline=np.array([[0.0, 0.0], [100.0, 0.0]]), width=3.5)
    b = Lane(id="b", centerline=np.array([[0.0, 2.0], [100.0, 2.0]]), width=3.5)
    return SemanticMap(lanes=(a, b), map_id="parallel")


@pytest.fixture
def lit_map():
    """A 60 m approach lane feeding a crossing lane controlled by a light
    that is red from t=10s to t=20s."""
    approach = Lane(
        id="approach",
        centerline=np.array([[0.0, 0.0], [60.0, 0.0]]),
        width=3.5,
        successors=("crossing",),
    )
    crossing = Lane(
        id="crossing",
        centerline=np.array([[60.0, 0.0], [90.0, 0.0]]),
        width=3.5,
        light_id="l1",
    )
    light = TrafficLight(id="l1", schedule=((0.0, 10.0, "green"), (10.0, 20.0, "red")))
    return SemanticMap(lanes=(approach, crossing), lights=(light,), map_id="lit")


def sample_obb_oracle(a, b, grid_n=100):
    """Point-containment sampling oracle for rectangle overlap.

    Exact circle bounds short-circuit the clear cases; ambiguous pairs are
    decided by testing a boundary-inclusive grid of each rectangle's points
    against the other. Independent of the separating-axis code path.
    """
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    d = math.hypot(dx, dy)
    if d > math.hypot(*a.half_extents) + math.hypot(*b.half_extents):
        return False
    if d < min(a.half_extents) + min(b.half_extents):
        return True

    def points_of(obb, n):
        u = np.linspace(-obb.half_extents[0], obb.half_extents[0], n)
        v = np.linspace(-obb.half_extents[1], obb.half_extents[1], n)
        uu, vv = np.meshgrid(u, v)
        c, s = math.cos(obb.yaw), math.sin(obb.yaw)
        x = obb.center[0] + c * uu - s * vv
        y = obb.center[1] + s * uu + c * vv
        return np.stack([x.ravel(), y.ravel()], axis=1)

    def any_inside(points, obb):
        rel = points - np.asarray(obb.center)
        c, s = math.cos(obb.yaw), math.sin(obb.yaw)
        lx = rel[:, 0] * c + rel[:, 1] * s
        ly = -rel[:, 0] * s + rel[:, 1] * c
        return bool(
            np.any((np.abs(lx) <= obb.half_extents[0]) & (np.abs(ly) <= obb.half_extents[1]))
        )

    return any_inside(points_of(a, grid_n), b) or any_inside(points_of(b, grid_n), a)


def obb_separation_margin(a, b):
    """Signed separating-axis margin: >= 0 means overlap (penetration depth
    along the tightest axis), < 0 means separated by that gap. Tells a
    near-tangent disagreement with sample_obb_oracle from a real one."""

    def frame(obb):
        c, s = math.cos(obb.yaw), math.sin(obb.yaw)
        hx, hy = obb.half_extents
        local = np.array([(hx, hy), (-hx, hy), (-hx, -hy), (hx, -hy)])
        axes = np.array([(c, s), (-s, c)])
        return local @ axes + np.asarray(obb.center), axes

    corners_a, axes_a = frame(a)
    corners_b, axes_b = frame(b)
    axes = np.vstack([axes_a, axes_b])
    pa = corners_a @ axes.T
    pb = corners_b @ axes.T
    overlaps = np.minimum(pa.max(axis=0), pb.max(axis=0)) - np.maximum(pa.min(axis=0), pb.min(axis=0))
    return float(overlaps.min())


def reference_project_to_polyline(pts, point):
    """The scalar projection loop the batched `project_to_polyline`
    replaced, kept as its bit-level oracle: (distance, lateral, arclength).
    Within a polyline the first segment with the smallest squared distance
    wins."""
    pts = np.asarray(pts, dtype=float)
    p = np.asarray(point, dtype=float)
    seg = np.diff(pts, axis=0)
    seglen2 = np.einsum("ij,ij->i", seg, seg)
    rel = p - pts[:-1]
    t = np.clip(np.einsum("ij,ij->i", rel, seg) / seglen2, 0.0, 1.0)
    proj = pts[:-1] + t[:, None] * seg
    d2 = np.einsum("ij,ij->i", p - proj, p - proj)
    i = int(np.argmin(d2))
    seglen = np.sqrt(seglen2)
    arclength = float(np.concatenate(([0.0], np.cumsum(seglen)))[i] + t[i] * seglen[i])
    off = p - proj[i]
    cross = seg[i, 0] * off[1] - seg[i, 1] * off[0]
    dist = float(math.sqrt(d2[i]))
    lateral = math.copysign(dist, cross) if dist > 0 else 0.0
    return dist, lateral, arclength


def reference_segment_d2(pts, point):
    """Squared distance from a point to each segment of a polyline, as the
    reference projection computes it."""
    pts = np.asarray(pts, dtype=float)
    p = np.asarray(point, dtype=float)
    seg = np.diff(pts, axis=0)
    t = np.clip(np.einsum("ij,ij->i", p - pts[:-1], seg) / np.einsum("ij,ij->i", seg, seg), 0.0, 1.0)
    proj = pts[:-1] + t[:, None] * seg
    return np.einsum("ij,ij->i", p - proj, p - proj)


def reference_nearest_lane(smap, point):
    """The per-lane loop the batched `nearest_lane` replaced: the smallest
    distance (the square root of each lane's smallest squared distance)
    wins, then the lowest lane id."""
    best = None
    for lane in smap.lanes:
        dist, lateral, arc = reference_project_to_polyline(lane.centerline, point)
        key = (dist, lane.id)
        if best is None or key < best[0]:
            best = (key, lane.id, arc, lateral)
    return best[1], best[2], best[3]


def reference_lead_gap(state, agent_id, smap, max_range=100.0):
    """The scan over every agent that the per-lane arclength index
    replaced: the smallest gap wins, ties to the first in state order."""
    from drivesim.core import lane_chain

    me = state.agent(agent_id)
    projections = {a.id: reference_nearest_lane(smap, a.center) for a in state.agents if a.active}
    lane_id, s_me, _ = projections[agent_id]
    chain = dict(lane_chain(smap, lane_id, max_range + s_me))
    best_gap, best_agent = max_range, None
    for other in state.agents:
        if other.id == agent_id or not other.active:
            continue
        o_lane, o_s, o_lat = projections[other.id]
        if o_lane not in chain or abs(o_lat) > smap.lane(o_lane).width / 2.0:
            continue
        delta = (chain[o_lane] + o_s) - s_me
        if delta <= 0:
            continue
        gap = delta - (me.length + other.length) / 2.0
        if gap < best_gap:
            best_gap, best_agent = gap, other
    return best_gap, best_agent


def _reference_mark_obb(plane, centers, obb):
    rel = centers - np.asarray(obb.center)
    c, s = math.cos(obb.yaw), math.sin(obb.yaw)
    local_x = rel[..., 0] * c + rel[..., 1] * s
    local_y = -rel[..., 0] * s + rel[..., 1] * c
    hx, hy = obb.half_extents
    plane[(np.abs(local_x) <= hx) & (np.abs(local_y) <= hy)] = 1


def _reference_mark_band(plane, centers, pts, half_width):
    flat = centers.reshape(-1, 2)
    a = pts[:-1]
    d = np.diff(pts, axis=0)
    len2 = np.einsum("ij,ij->i", d, d)
    rel = flat[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", rel, d) / len2, 0.0, 1.0)
    diff = rel - t[..., None] * d[None, :, :]
    d2 = np.einsum("pij,pij->pi", diff, diff).min(axis=1)
    plane.ravel()[d2 <= half_width * half_width] = 1


def _reference_mark_polygon(plane, centers, poly):
    flat = centers.reshape(-1, 2)
    x, y = flat[:, 0], flat[:, 1]
    inside = np.zeros(len(flat), dtype=bool)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < np.where(crosses, xi, 0.0))
    plane.ravel()[inside] = 1


def reference_render(state, smap, center, resolution, size_px, sim_time=0.0):
    """The full-grid `render` the clipped one replaced, kept as its
    bit-level oracle: every lane, crosswalk and agent box tests every
    pixel center of the grid."""
    from drivesim.core import agent_obb
    from drivesim.raster import CHANNEL_NAMES, Grid

    shape = (size_px, size_px)
    channels = {name: np.zeros(shape, dtype=np.uint8) for name in CHANNEL_NAMES}
    grid = Grid(size_px, size_px, resolution, center, channels)
    centers = grid.pixels_to_world(*np.indices(shape))
    for lane in smap.lanes:
        if smap.lane_red_at(lane.id, sim_time):
            continue
        _reference_mark_band(channels["lanes"], centers, lane.centerline, lane.width / 2.0)
    for poly in smap.crosswalks:
        _reference_mark_polygon(channels["crosswalks"], centers, poly)
    for agent in state.agents:
        if not agent.active:
            continue
        name = "ego" if agent.id == state.ego_id else "agents"
        _reference_mark_obb(channels[name], centers, agent_obb(agent))
    return grid


def reference_connected_components(channel):
    """The per-pixel labelling loop the one-pass `connected_components`
    replaced: components ordered by their first row-major pixel, each in
    row-major order."""
    from scipy import ndimage

    plane = np.asarray(channel)
    labels, count = ndimage.label(plane != 0, structure=np.ones((3, 3), dtype=int))
    if count == 0:
        return []
    first_seen = {}
    for idx, lab in enumerate(labels.ravel()):
        if lab and lab not in first_seen:
            first_seen[lab] = idx
    order = sorted(first_seen, key=first_seen.get)
    return [np.argwhere(labels == lab) for lab in order]
