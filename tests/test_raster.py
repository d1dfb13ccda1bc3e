import math
import tracemalloc

import numpy as np
import pytest

from drivesim import raster
from drivesim.core import AgentState, Lane, Pose2, SemanticMap, SimState, normalize_angle
from drivesim.raster import (
    connected_components,
    extract_from_channel,
    min_area_rect,
    render,
)


def union_find_components(plane):
    """Brute-force 8-connected labeling by union-find over pixel pairs."""
    idx = {tuple(p): i for i, p in enumerate(np.argwhere(plane != 0))}
    parent = list(range(len(idx)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for (r, c), i in idx.items():
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                j = idx.get((r + dr, c + dc))
                if j is not None and j != i:
                    union(i, j)
    groups = {}
    for p, i in idx.items():
        groups.setdefault(find(i), set()).add(p)
    return set(frozenset(g) for g in groups.values())


def simple_state(agents, ego=None):
    ego = ego or AgentState(id="ego", pose=Pose2(0, 0, 0), extent=(4.0, 2.0), speed=0.0)
    return SimState(step_index=0, agents=(ego, *agents), ego_id="ego")


@pytest.fixture
def green_lane_map(straight_map):
    return straight_map


class TestRender:
    def test_lane_channel_only(self, straight_map):
        state = simple_state([], ego=AgentState(id="ego", pose=Pose2(50, 0, 0), extent=(4, 2), speed=0))
        grid = render(state, straight_map, center=Pose2(50, 0, 0))
        assert grid.channels["lanes"].sum() > 0
        assert grid.channels["agents"].sum() == 0
        assert grid.channels["ego"].sum() > 0

    def test_red_light_suppresses_lane(self, lit_map):
        ego = AgentState(id="ego", pose=Pose2(75, 0, 0), extent=(4, 2), speed=0)
        state = simple_state([], ego=ego)
        # keep the grid entirely over the lit crossing lane (x in [60, 90])
        center = Pose2(75, 0, 0)
        grid_green = render(state, lit_map, center, resolution=0.5, size_px=32, sim_time=5.0)
        grid_red = render(state, lit_map, center, resolution=0.5, size_px=32, sim_time=15.0)
        assert grid_green.channels["lanes"].sum() > 0
        assert grid_red.channels["lanes"].sum() == 0

    def test_axis_aligned_agent_footprint(self, straight_map):
        agent = AgentState(id="car", pose=Pose2(0, 0, 0), extent=(4.0, 2.0), speed=0)
        ego = AgentState(id="ego", pose=Pose2(-10, 0, 0), extent=(4, 2), speed=0)
        state = SimState(step_index=0, agents=(ego, agent), ego_id="ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.5, size_px=64)
        plane = grid.channels["agents"]
        assert plane.sum() == 8 * 4
        rows, cols = np.nonzero(plane)
        assert cols.min() == 28 and cols.max() == 35
        assert rows.min() == 30 and rows.max() == 33

    def test_deterministic(self, straight_map):
        agent = AgentState(id="car", pose=Pose2(3, 1, 0.3), extent=(4.0, 2.0), speed=0)
        state = simple_state([agent])
        g1 = render(state, straight_map, center=Pose2(0, 0, 0.2))
        g2 = render(state, straight_map, center=Pose2(0, 0, 0.2))
        for name in g1.channels:
            np.testing.assert_array_equal(g1.channels[name], g2.channels[name])

    def test_clipping_outside_grid(self, straight_map):
        far = AgentState(id="car", pose=Pose2(500, 0, 0), extent=(4, 2), speed=0)
        grid = render(simple_state([far]), straight_map, center=Pose2(0, 0, 0))
        assert grid.channels["agents"].sum() == 0

    def test_crosswalk_polygon(self):
        smap = SemanticMap(
            lanes=(
                __import__("drivesim.core", fromlist=["Lane"]).Lane(
                    id="l", centerline=np.array([[0.0, 0.0], [10.0, 0.0]]), width=3.0
                ),
            ),
            crosswalks=(np.array([[2.0, -2.0], [4.0, -2.0], [4.0, 2.0], [2.0, 2.0]]),),
        )
        state = simple_state([], ego=AgentState(id="ego", pose=Pose2(3, 0, 0), extent=(4, 2), speed=0))
        grid = render(state, smap, center=Pose2(3, 0, 0), resolution=0.5, size_px=32)
        assert grid.channels["crosswalks"].sum() == pytest.approx(4 * 8, abs=8)


class TestConnectedComponents:
    def test_empty(self):
        assert connected_components(np.zeros((8, 8), dtype=np.uint8)) == []

    def test_two_blocks(self):
        plane = np.zeros((16, 16), dtype=np.uint8)
        plane[1:4, 1:4] = 1
        plane[10:13, 10:13] = 1
        comps = connected_components(plane)
        assert [len(c) for c in comps] == [9, 9]
        # ordered by smallest row-major index
        assert tuple(comps[0][0]) == (1, 1)

    def test_diagonal_is_connected(self):
        plane = np.eye(5, dtype=np.uint8)
        assert len(connected_components(plane)) == 1

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            plane = (rng.random((32, 32)) < 0.35).astype(np.uint8)
            comps = connected_components(plane)
            got = set(frozenset(map(tuple, c)) for c in comps)
            assert got == union_find_components(plane)

    def test_partition_property(self):
        rng = np.random.default_rng(22)
        plane = (rng.random((40, 40)) < 0.4).astype(np.uint8)
        comps = connected_components(plane)
        all_pixels = [tuple(p) for c in comps for p in c]
        assert len(all_pixels) == len(set(all_pixels)) == int(plane.sum())


class TestMinAreaRect:
    def test_axis_aligned(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0], [1.0, 0.5]])
        center, extents, angle = min_area_rect(pts)
        assert sorted(extents) == pytest.approx([1.0, 2.0])
        assert center == pytest.approx([1.0, 0.5])

    def test_rotated_square(self):
        ang = 0.6
        c, s = math.cos(ang), math.sin(ang)
        base = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        pts = base @ np.array([[c, s], [-s, c]])
        _, extents, angle = min_area_rect(pts)
        assert sorted(extents) == pytest.approx([2.0, 2.0])
        assert abs(normalize_angle(angle - ang)) % (math.pi / 2) < 1e-9

    def test_degenerate_line_and_point(self):
        center, extents, _ = min_area_rect(np.array([[1.0, 1.0], [3.0, 1.0]]))
        assert center == pytest.approx([2.0, 1.0])
        assert sorted(extents) == pytest.approx([0.0, 2.0])
        center, extents, _ = min_area_rect(np.array([[5.0, 5.0]]))
        assert center == pytest.approx([5.0, 5.0])


class TestExtractAgents:
    def test_empty(self, straight_map):
        grid = render(simple_state([]), straight_map, center=Pose2(0, 0, 0))
        assert extract_from_channel(grid, "agents") == []

    def test_single_block_recovers_rectangle(self, straight_map):
        agent = AgentState(id="car", pose=Pose2(0, 0, 0), extent=(4.0, 2.0), speed=0)
        ego = AgentState(id="ego", pose=Pose2(-12, 0, 0), extent=(4, 2), speed=0)
        state = SimState(step_index=0, agents=(ego, agent), ego_id="ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.5, size_px=64)
        [ex] = extract_from_channel(grid, "agents")
        assert ex.pixel_count == 32
        assert math.hypot(ex.centroid[0], ex.centroid[1]) <= 0.5  # within 1 px * res
        assert 2 * ex.bbox.half_extents[0] == pytest.approx(4.0, abs=0.5)
        assert 2 * ex.bbox.half_extents[1] == pytest.approx(2.0, abs=0.5)

    def test_rotated_agent(self, straight_map):
        # the half-pixel box expansion biases oblique boxes high, so probe
        # at a raster fine enough for the 15% area tolerance to be fair
        yaw = math.radians(30)
        agent = AgentState(id="car", pose=Pose2(0, 0, yaw), extent=(4.0, 2.0), speed=0)
        ego = AgentState(id="ego", pose=Pose2(-12, 0, 0), extent=(4, 2), speed=0)
        state = SimState(step_index=0, agents=(ego, agent), ego_id="ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.125, size_px=96)
        [ex] = extract_from_channel(grid, "agents")
        yaw_err = abs(normalize_angle(ex.bbox.yaw - yaw))
        assert min(yaw_err, abs(yaw_err - math.pi)) < math.radians(5)
        area = 4 * ex.bbox.half_extents[0] * ex.bbox.half_extents[1]
        assert abs(area - 8.0) / 8.0 < 0.15

    def test_roundtrip_well_separated(self, straight_map):
        rng = np.random.default_rng(33)
        for _ in range(10):
            ego = AgentState(id="ego", pose=Pose2(0, -10, 0), extent=(4, 2), speed=0)
            agents = []
            xs = np.arange(-12, 13, 8.0)
            for i, x in enumerate(xs):
                agents.append(
                    AgentState(
                        id=f"a{i}",
                        pose=Pose2(x + rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-3, 3)),
                        extent=(4.0, 2.0),
                        speed=0,
                    )
                )
            state = SimState(step_index=0, agents=(ego, *agents), ego_id="ego")
            grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.5, size_px=96)
            extracted = extract_from_channel(grid, "agents")
            assert len(extracted) == len(agents)
            got = sorted((e.centroid for e in extracted), key=lambda p: p[0])
            want = sorted((a.center for a in agents), key=lambda p: p[0])
            for g, w in zip(got, want):
                assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 0.5



def eight_lanes(extra=0):
    """8 parallel 400 m lanes 3.5 m apart, plus `extra` 20-segment lanes
    at least 1.6 km from all of them."""
    lanes = [Lane(f"l{k}", np.array([[0.0, 3.5 * k], [400.0, 3.5 * k]]), 3.5) for k in range(8)]
    for k in range(extra):
        x0, y0 = 2000.0 + 50.0 * (k % 40), 2000.0 + 50.0 * (k // 40)
        pts = np.column_stack([x0 + 2.0 * np.arange(21), y0 + np.sin(np.arange(21))])
        lanes.append(Lane(f"far{k:04d}", pts, 3.5))
    return SemanticMap(lanes=tuple(lanes))


class TestRenderCost:
    """What a frame costs follows the shapes inside its window: counted in
    pixels handed to the band predicate and in traced bytes, not timed."""

    def test_distant_lanes_cost_no_pixels(self, monkeypatch):
        seen = []
        real = raster._mark_polyline_band

        def counting(plane, centers, pts, half_width):
            seen.append(plane.size)
            return real(plane, centers, pts, half_width)

        monkeypatch.setattr(raster, "_mark_polyline_band", counting)
        ego = AgentState(id="ego", pose=Pose2(100, 7, 0), extent=(4.5, 2), speed=0)
        cars = [AgentState(id=f"c{k}", pose=Pose2(80 + 9 * k, 3.5 * (k % 8), 0), extent=(4.5, 2), speed=0)
                for k in range(6)]
        state = simple_state(cars, ego=ego)
        pixels, planes = [], []
        for smap in (eight_lanes(), eight_lanes(extra=1000)):
            seen.clear()
            planes.append(render(state, smap, ego.pose, resolution=0.5, size_px=128).channels["lanes"])
            pixels.append(sum(seen))
        assert pixels[0] > 0
        assert pixels[1] == pixels[0]
        np.testing.assert_array_equal(planes[1], planes[0])

    def test_long_lane_frame_memory_is_bounded(self):
        # a full-grid band would allocate pixels x segments x 2 float64
        # values: about 2 GB here
        x = np.linspace(-70.0, 70.0, 2001)
        lane = Lane("wave", np.column_stack([x, 20.0 * np.sin(x / 9.0)]), 3.5)
        smap = SemanticMap(lanes=(lane,))
        state = simple_state([], ego=AgentState(id="ego", pose=Pose2(0, 0, 0), extent=(4.5, 2), speed=0))
        tracemalloc.start()
        try:
            grid = render(state, smap, Pose2(0, 0, 0.1), resolution=0.5, size_px=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.channels["lanes"].sum() > 0
        assert peak < 100 * 2**20
