"""Bird's-eye-view occupancy rendering and its inverse (grid -> agents).

A grid is anchored at a center pose: grid-frame u runs along the center
yaw, v to its left. Pixel (row, col) centers map to world points; row 0 is
the +v (left) edge. Channels are binary uint8 planes named lanes,
crosswalks, ego, agents.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Obb, Pose2, SemanticMap, SimState, agent_obb, normalize_angle, obb_corners

CHANNEL_NAMES = ("lanes", "crosswalks", "ego", "agents")

DEFAULT_RESOLUTION = 0.5  # m / pixel
DEFAULT_SIZE_PX = 64
MIN_BLOB_PIXELS = 3  # smaller components are noise, not agents


@dataclass(frozen=True, eq=False)
class Grid:
    """Multi-channel binary occupancy grid in a center-anchored frame."""

    width_px: int
    height_px: int
    resolution: float
    center: Pose2
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0 or self.resolution <= 0:
            raise ValueError("grid dimensions and resolution must be positive")
        for name, plane in self.channels.items():
            if plane.shape != (self.height_px, self.width_px):
                raise ValueError(f"channel {name!r} shape {plane.shape} mismatches grid")
            if not np.isin(plane, (0, 1)).all():
                raise ValueError(f"channel {name!r} must be binary")

    def pixels_to_world(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """World coordinates of the given pixel centers: shape (N, 2) for
        index vectors, (H, W, 2) for np.indices((H, W))."""
        u = (np.asarray(cols) + 0.5 - self.width_px / 2.0) * self.resolution
        v = (self.height_px / 2.0 - (np.asarray(rows) + 0.5)) * self.resolution
        c, s = math.cos(self.center.yaw), math.sin(self.center.yaw)
        return np.stack(
            [self.center.x + c * u - s * v, self.center.y + s * u + c * v], axis=-1
        )


def _pixel_rects(grid: Grid, pts: np.ndarray, pad: float = 0.0):
    """Half-open pixel index ranges (r0, r1, c0, c1), clipped to the grid,
    that cover each group of world points in pts (..., K, 2) padded by pad
    metres and one pixel; empty (r0 >= r1 or c0 >= c1) where the padded
    group misses the grid."""
    c, s = math.cos(grid.center.yaw), math.sin(grid.center.yaw)
    dx = pts[..., 0] - grid.center.x
    dy = pts[..., 1] - grid.center.y
    cols = (c * dx + s * dy) / grid.resolution + (grid.width_px / 2.0 - 0.5)
    rows = (grid.height_px / 2.0 - 0.5) - (-s * dx + c * dy) / grid.resolution
    margin = pad / grid.resolution + 1.0

    def span(at, n):
        lo = np.clip(np.floor(at.min(axis=-1) - margin), 0, n).astype(np.intp)
        hi = np.clip(np.ceil(at.max(axis=-1) + margin) + 1, 0, n).astype(np.intp)
        return lo, hi

    return (*span(rows, grid.height_px), *span(cols, grid.width_px))


def _nonempty(r0, r1, c0, c1):
    """The indices of the non-empty rectangles, with their slices."""
    for i in np.flatnonzero((r0 < r1) & (c0 < c1)):
        yield i, (slice(r0[i], r1[i]), slice(c0[i], c1[i]))


def _mark_obb_footprint(plane: np.ndarray, centers: np.ndarray, obb: Obb) -> None:
    """Set pixels whose centers fall inside the rectangle (inclusive)."""
    rel = centers - np.asarray(obb.center)
    c, s = math.cos(obb.yaw), math.sin(obb.yaw)
    local_x = rel[..., 0] * c + rel[..., 1] * s
    local_y = -rel[..., 0] * s + rel[..., 1] * c
    hx, hy = obb.half_extents
    plane[(np.abs(local_x) <= hx) & (np.abs(local_y) <= hy)] = 1


def _mark_polyline_band(
    plane: np.ndarray, centers: np.ndarray, pts: np.ndarray, half_width: float
) -> None:
    """Set pixels whose centers lie within half_width of the polyline.
    plane may be a strided view, so it is written through a 2-D mask."""
    flat = centers.reshape(-1, 2)
    a = pts[:-1]
    d = np.diff(pts, axis=0)
    len2 = np.einsum("ij,ij->i", d, d)
    rel = flat[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", rel, d) / len2, 0.0, 1.0)
    diff = rel - t[..., None] * d[None, :, :]
    d2 = np.einsum("pij,pij->pi", diff, diff).min(axis=1)
    plane[(d2 <= half_width * half_width).reshape(plane.shape)] = 1


def _mark_polygon(plane: np.ndarray, centers: np.ndarray, poly: np.ndarray) -> None:
    """Even-odd fill: set pixels whose centers lie inside the polygon."""
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
    plane[inside.reshape(plane.shape)] = 1


def _near_lanes(grid: Grid, smap: SemanticMap) -> np.ndarray:
    """Indices of the lanes whose band can reach a pixel center: their
    centerline box, grown by half the lane width and one pixel, meets the
    world-aligned box of the grid's pixel centers."""
    h, w = grid.height_px, grid.width_px
    corners = grid.pixels_to_world(np.array([0, 0, h - 1, h - 1]), np.array([0, w - 1, 0, w - 1]))
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    boxes = smap.lane_boxes
    reach = np.array([lane.width / 2.0 for lane in smap.lanes]) + grid.resolution
    return np.flatnonzero(
        (boxes[:, 0] - reach <= hi[0])
        & (boxes[:, 2] + reach >= lo[0])
        & (boxes[:, 1] - reach <= hi[1])
        & (boxes[:, 3] + reach >= lo[1])
    )


def render(
    state: SimState,
    smap: SemanticMap,
    center: Pose2,
    resolution: float = DEFAULT_RESOLUTION,
    size_px: int = DEFAULT_SIZE_PX,
    sim_time: float = 0.0,
) -> Grid:
    """Rasterize a state over the map into a square multi-channel grid.

    Lanes controlled by a light that is red at sim_time are left blank.
    The ego footprint goes to the ego channel, all other active agents to
    the agents channel; anything outside the grid is clipped.

    Each lane segment, crosswalk and agent box tests only the pixels of
    the rectangle its bounding box covers, so a frame costs what lies
    inside its window, not what the map holds.
    """
    if size_px <= 0 or resolution <= 0:
        raise ValueError("size_px and resolution must be positive")
    shape = (size_px, size_px)
    channels = {name: np.zeros(shape, dtype=np.uint8) for name in CHANNEL_NAMES}
    grid = Grid(size_px, size_px, resolution, center, channels)
    centers = grid.pixels_to_world(*np.indices(shape))

    lanes = channels["lanes"]
    for k in _near_lanes(grid, smap):
        lane = smap.lanes[k]
        if smap.lane_red_at(lane.id, sim_time):
            continue
        pts, half_width = lane.centerline, lane.width / 2.0
        segments = np.stack((pts[:-1], pts[1:]), axis=1)
        for i, rect in _nonempty(*_pixel_rects(grid, segments, half_width)):
            _mark_polyline_band(lanes[rect], centers[rect], segments[i], half_width)
    for poly in smap.crosswalks:
        for _, rect in _nonempty(*_pixel_rects(grid, poly[None])):
            _mark_polygon(channels["crosswalks"][rect], centers[rect], poly)
    active = [agent for agent in state.agents if agent.active]
    boxes = [agent_obb(agent) for agent in active]
    corners = np.array([obb_corners(box) for box in boxes]).reshape(-1, 4, 2)
    for i, rect in _nonempty(*_pixel_rects(grid, corners)):
        name = "ego" if active[i].id == state.ego_id else "agents"
        _mark_obb_footprint(channels[name][rect], centers[rect], boxes[i])
    return grid


def connected_components(channel: np.ndarray) -> list[np.ndarray]:
    """Maximal 8-connected components of 1-pixels.

    Each component is an (K, 2) array of (row, col) indices in row-major
    order; components are ordered by their smallest row-major index.
    """
    from scipy import ndimage  # 0.2 s and 26 MB to import; only this needs it

    plane = np.asarray(channel)
    labels, count = ndimage.label(plane != 0, structure=np.ones((3, 3), dtype=int))
    if count == 0:
        return []
    flat = labels.ravel()
    pixels = np.flatnonzero(flat)
    owner = flat[pixels]
    _, first, sizes = np.unique(owner, return_index=True, return_counts=True)
    # a stable sort keeps each component's pixels in row-major order
    groups = np.split(pixels[np.argsort(owner, kind="stable")], np.cumsum(sizes)[:-1])
    width = plane.shape[1]
    return [np.stack(np.divmod(groups[k], width), axis=1) for k in np.argsort(first)]


@dataclass(frozen=True)
class ExtractedAgent:
    """One vectorized blob: world centroid, minimum-area box, pixel count."""

    centroid: tuple[float, float]
    bbox: Obb
    pixel_count: int


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; handles collinear input (returns the hull
    or the extreme segment)."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    return hull if len(hull) >= 2 else pts[:1]


def min_area_rect(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Minimum-area enclosing rectangle of a point set.

    Sweeps the convex-hull edge directions (rotating-calipers candidates).
    Returns (center, extents, angle) with extents possibly zero for
    degenerate inputs.
    """
    hull = _convex_hull(np.asarray(points, dtype=float))
    if len(hull) == 1:
        return hull[0].copy(), np.zeros(2), 0.0
    best = None
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0) if len(hull) > 2 else hull[1:] - hull[:1]
    for edge in edges:
        angle = math.atan2(edge[1], edge[0])
        c, s = math.cos(angle), math.sin(angle)
        rot = hull @ np.array([(c, -s), (s, c)])  # coords in the edge-aligned frame
        lo, hi = rot.min(axis=0), rot.max(axis=0)
        extents = hi - lo
        area = extents[0] * extents[1]
        if best is None or area < best[0]:
            mid = (lo + hi) / 2.0
            center = np.array([mid[0] * c - mid[1] * s, mid[0] * s + mid[1] * c])
            best = (area, center, extents, angle)
    return best[1], best[2], best[3]


def extract_from_channel(grid: Grid, channel: str) -> list[ExtractedAgent]:
    """Vectorize one channel: connected components of at least
    MIN_BLOB_PIXELS pixels -> centroid + min box.

    Boxes are expanded half a pixel per side so a rendered rectangle
    recovers its footprint; the longer box side defines the yaw, folded to
    (-pi/2, pi/2] since a blob has no front/back.
    """
    out = []
    for comp in connected_components(grid.channels[channel]):
        if len(comp) < MIN_BLOB_PIXELS:
            continue
        world = grid.pixels_to_world(comp[:, 0], comp[:, 1])
        centroid = world.mean(axis=0)
        center, extents, angle = min_area_rect(world)
        extents = extents + grid.resolution  # half-pixel margin per side
        if extents[0] >= extents[1]:
            length, width, yaw = extents[0], extents[1], angle
        else:
            length, width, yaw = extents[1], extents[0], angle + math.pi / 2.0
        yaw = normalize_angle(yaw)
        if yaw <= -math.pi / 2.0:
            yaw += math.pi
        elif yaw > math.pi / 2.0:
            yaw -= math.pi
        out.append(
            ExtractedAgent(
                centroid=(float(centroid[0]), float(centroid[1])),
                bbox=Obb(
                    center=(float(center[0]), float(center[1])),
                    half_extents=(float(length) / 2.0, float(width) / 2.0),
                    yaw=yaw,
                ),
                pixel_count=len(comp),
            )
        )
    return out
