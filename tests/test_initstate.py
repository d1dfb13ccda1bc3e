import math

import numpy as np
import pytest

from drivesim.core import AgentState, Episode, Lane, Pose2, SemanticMap, SimState, nearest_lane
from drivesim.engine import stream_rng
from drivesim.initstate import (
    ProceduralConfig,
    sample_location,
    sample_state_empirical,
    sample_state_procedural,
    state_from_raster,
)
from drivesim.raster import render


def car(agent_id, x, y=0.0, yaw=0.0, speed=0.0):
    return AgentState(id=agent_id, pose=Pose2(x, y, yaw), extent=(4.5, 2.0), speed=speed)


@pytest.fixture
def weighted_map():
    """Lane 'long' is 90 m, lane 'short' is 10 m."""
    long = Lane(id="long", centerline=np.array([[0.0, 0.0], [90.0, 0.0]]), width=3.5)
    short = Lane(id="short", centerline=np.array([[0.0, 50.0], [10.0, 50.0]]), width=3.5)
    return SemanticMap(lanes=(long, short), map_id="weighted")


class TestSampleLocation:
    def test_always_on_lane(self, straight_map):
        rng = stream_rng(0, "t")
        for _ in range(100):
            pose = sample_location(straight_map, rng)
            lane_id, _, lateral = nearest_lane(straight_map, (pose.x, pose.y))
            assert lane_id == "main"
            assert abs(lateral) < 1e-9

    def test_length_weighted(self, weighted_map):
        rng = stream_rng(1, "t")
        hits = sum(
            sample_location(weighted_map, rng).y < 25.0 for _ in range(10_000)
        )
        assert hits / 10_000 == pytest.approx(0.9, abs=0.03)

    def test_yaw_equals_tangent(self, weighted_map):
        rng = stream_rng(2, "t")
        for _ in range(50):
            pose = sample_location(weighted_map, rng)
            assert pose.yaw == pytest.approx(0.0)

    def test_empty_map(self):
        with pytest.raises(ValueError, match="no lanes"):
            sample_location(SemanticMap(lanes=()), stream_rng(0, "t"))


class TestSampleStateEmpirical:
    def make_dataset(self):
        s = SimState(
            0,
            (car("ego", 10.0, 0.0, 0.2, speed=3.0), car("a", 20.0, 1.0, 0.5, speed=5.0)),
            "ego",
        )
        return [Episode(dt=0.1, map_id="m", states=(s,), termination="external")]

    def test_single_state_reanchored(self):
        dataset = self.make_dataset()
        loc = Pose2(100.0, 50.0, 1.0)
        out = sample_state_empirical(dataset, loc, math.inf, stream_rng(0, "t"))
        assert out.ego.pose == loc
        assert out.step_index == 0

    def test_relative_offsets_preserved(self):
        # oracle: rigid transforms preserve pairwise displacement norms and
        # relative bearings
        dataset = self.make_dataset()
        src = dataset[0].states[0]
        loc = Pose2(-30.0, 12.0, -2.0)
        out = sample_state_empirical(dataset, loc, math.inf, stream_rng(0, "t"))
        for a_src, b_src in [(src.agents[0], src.agents[1])]:
            a, b = out.agent(a_src.id), out.agent(b_src.id)
            d_src = math.hypot(b_src.pose.x - a_src.pose.x, b_src.pose.y - a_src.pose.y)
            d_out = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert abs(d_src - d_out) < 1e-9
            rel_src = (b_src.pose.yaw - a_src.pose.yaw) % (2 * math.pi)
            rel_out = (b.pose.yaw - a.pose.yaw) % (2 * math.pi)
            assert abs(rel_src - rel_out) < 1e-9
            assert b.speed == b_src.speed and b.extent == b_src.extent

    def test_out_of_radius_errors(self):
        dataset = self.make_dataset()
        with pytest.raises(ValueError, match="no feasible states"):
            sample_state_empirical(dataset, Pose2(1000.0, 0.0, 0.0), 1.0, stream_rng(0, "t"))

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError, match="empty"):
            sample_state_empirical([], Pose2(0, 0, 0), 1.0, stream_rng(0, "t"))


class TestSampleStateProcedural:
    def test_zero_mean_gives_ego_only(self, straight_map):
        cfg = ProceduralConfig(agents_mean=0.0)
        s = sample_state_procedural(straight_map, Pose2(50, 0, 0), cfg, stream_rng(0, "t"))
        assert [a.id for a in s.agents] == ["ego"]

    def test_min_gap_larger_than_lane_gives_ego_only(self):
        lane = Lane(id="tiny", centerline=np.array([[0.0, 0.0], [20.0, 0.0]]), width=3.5)
        smap = SemanticMap(lanes=(lane,))
        cfg = ProceduralConfig(agents_mean=10.0, min_gap=25.0)
        s = sample_state_procedural(smap, Pose2(10, 0, 0), cfg, stream_rng(3, "t"))
        assert [a.id for a in s.agents] == ["ego"]

    def test_same_lane_gaps_respected(self, straight_map):
        # exhaustive check across 1000 sampled states
        cfg = ProceduralConfig(agents_mean=5.0, min_gap=8.0)
        rng = stream_rng(4, "t")
        for _ in range(1000):
            s = sample_state_procedural(straight_map, Pose2(100, 0, 0), cfg, rng)
            arcs = []
            for a in s.agents:
                lane_id, arc, lateral = nearest_lane(straight_map, a.center)
                assert abs(lateral) <= straight_map.lane(lane_id).width / 2.0
                arcs.append((arc, a.length))
            arcs.sort()
            for (s0, l0), (s1, l1) in zip(arcs, arcs[1:]):
                assert s1 - s0 - (l0 + l1) / 2.0 >= cfg.min_gap - 1e-9

    def test_agents_on_lane_with_tangent_yaw(self, straight_map):
        cfg = ProceduralConfig(agents_mean=6.0)
        s = sample_state_procedural(straight_map, Pose2(100, 0, 0), cfg, stream_rng(5, "t"))
        for a in s.agents:
            assert a.pose.yaw == pytest.approx(0.0)
            lo, hi = cfg.speed_range
            assert lo <= a.speed <= hi

    def test_distinct_seeds_distinct_states(self, straight_map):
        cfg = ProceduralConfig(agents_mean=5.0)
        seen = set()
        for seed in range(100):
            s = sample_state_procedural(straight_map, Pose2(100, 0, 0), cfg, stream_rng(seed, "t"))
            seen.add(tuple((a.id, a.pose.x, a.speed) for a in s.agents))
        assert len(seen) >= 99

    def test_deterministic_given_seed(self, straight_map):
        cfg = ProceduralConfig(agents_mean=5.0)
        s1 = sample_state_procedural(straight_map, Pose2(100, 0, 0), cfg, stream_rng(8, "t"))
        s2 = sample_state_procedural(straight_map, Pose2(100, 0, 0), cfg, stream_rng(8, "t"))
        assert s1 == s2


class TestStateFromRaster:
    def test_roundtrip_well_separated(self, straight_map):
        ego = car("ego", 0.0, speed=2.0)
        others = (car("x", -14.0, y=2.0, yaw=0.4), car("y", 0.0, y=-8.0, yaw=-1.0), car("z", 13.0, y=6.0))
        state = SimState(0, (ego, *others), "ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.5, size_px=96)
        out = state_from_raster(grid)
        assert out.ego_id == "ego"
        assert len(out.agents) == 4
        got = sorted((a.center for a in out.agents if a.id != "ego"), key=lambda p: p[0])
        want = sorted((a.center for a in others), key=lambda p: p[0])
        for g, w in zip(got, want):
            assert math.hypot(g[0] - w[0], g[1] - w[1]) <= 0.5
        for a in out.agents:
            if a.id != "ego":
                assert a.speed == 5.0

    def test_recovers_yaw_mod_pi(self, straight_map):
        ego = car("ego", -15.0)
        agent = car("a", 5.0, yaw=0.5)
        state = SimState(0, (ego, agent), "ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0), resolution=0.25, size_px=128)
        out = state_from_raster(grid)
        rec = out.agent("agent_1")
        err = abs(rec.pose.yaw - 0.5) % math.pi
        assert min(err, math.pi - err) < math.radians(5)

    def test_empty_agents_channel(self, straight_map):
        state = SimState(0, (car("ego", 0.0),), "ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0))
        out = state_from_raster(grid)
        assert [a.id for a in out.agents] == ["ego"]

    def test_two_ego_blobs_error(self, straight_map):
        state = SimState(0, (car("ego", 0.0),), "ego")
        grid = render(state, straight_map, center=Pose2(0, 0, 0))
        grid.channels["ego"][2:6, 2:6] = 1  # inject a second blob
        with pytest.raises(ValueError, match="ego"):
            state_from_raster(grid)
