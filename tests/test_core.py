import math

import numpy as np
import pytest

from drivesim.core import (
    AgentState,
    Episode,
    Lane,
    Obb,
    Pose2,
    SemanticMap,
    SimState,
    TrafficLight,
    advance_along_lanes,
    lane_chain,
    lane_pose_at,
    map_from_json,
    map_to_json,
    nearest_lane,
    normalize_angle,
    obb_overlap,
)

from conftest import obb_separation_margin, sample_obb_oracle


def random_obb(rng):
    return Obb(
        center=(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        half_extents=(rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
        yaw=rng.uniform(-math.pi, math.pi),
    )


class TestNormalizeAngle:
    def test_range(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, size=1000):
            t = normalize_angle(theta)
            assert -math.pi < t <= math.pi

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-50, 50, size=1000):
            t = normalize_angle(theta)
            assert normalize_angle(t) == t

    def test_period(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-20, 20, size=1000):
            a = normalize_angle(theta + 2 * math.pi)
            b = normalize_angle(theta)
            assert abs(math.remainder(a - b, 2 * math.pi)) < 1e-9

    def test_boundary(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi


class TestDomainTypes:
    def test_pose_normalizes_yaw(self):
        assert Pose2(0, 0, 3 * math.pi).yaw == pytest.approx(math.pi)

    def test_agent_validation(self):
        with pytest.raises(ValueError):
            AgentState(id="a", pose=Pose2(0, 0, 0), extent=(0.0, 2.0), speed=1.0)
        with pytest.raises(ValueError):
            AgentState(id="a", pose=Pose2(0, 0, 0), extent=(4.0, 2.0), speed=-1.0)
        with pytest.raises(ValueError):
            AgentState(id="a", pose=Pose2(0, 0, 0), extent=(4.0, 2.0), speed=1.0, kind="boat")

    def test_state_requires_ego_and_unique_ids(self):
        a = AgentState(id="a", pose=Pose2(0, 0, 0), extent=(4, 2), speed=0)
        with pytest.raises(ValueError):
            SimState(step_index=0, agents=(a,), ego_id="missing")
        with pytest.raises(ValueError):
            SimState(step_index=0, agents=(a, a), ego_id="a")

    def test_episode_contiguity_and_id_conservation(self):
        a = AgentState(id="a", pose=Pose2(0, 0, 0), extent=(4, 2), speed=0)
        b = AgentState(id="b", pose=Pose2(9, 0, 0), extent=(4, 2), speed=0)
        s0 = SimState(step_index=0, agents=(a, b), ego_id="a")
        s1 = SimState(step_index=1, agents=(a, b), ego_id="a")
        Episode(dt=0.1, map_id="m", states=(s0, s1))
        with pytest.raises(ValueError):
            Episode(dt=0.1, map_id="m", states=(s0, s0))
        s1_dropped = SimState(step_index=1, agents=(a,), ego_id="a")
        with pytest.raises(ValueError):
            Episode(dt=0.1, map_id="m", states=(s0, s1_dropped))


class TestObbOverlap:
    def test_axis_aligned_squares(self):
        a = Obb(center=(0, 0), half_extents=(1, 1), yaw=0)
        near = Obb(center=(1.0, 0), half_extents=(1, 1), yaw=0)
        far = Obb(center=(3.0, 0), half_extents=(1, 1), yaw=0)
        assert obb_overlap(a, near)
        assert not obb_overlap(a, far)

    def test_rotated_corner_case_matches_oracle(self):
        a = Obb(center=(0, 0), half_extents=(0.5, 0.5), yaw=0)
        b = Obb(center=(1.2, 0), half_extents=(0.5, 0.5), yaw=math.pi / 4)
        assert obb_overlap(a, b) == sample_obb_oracle(a, b)
        assert obb_overlap(a, b)  # the rotated corner pokes past x=0.5

    def test_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            a, b = random_obb(rng), random_obb(rng)
            assert obb_overlap(a, b) == obb_overlap(b, a)

    def test_agrees_with_sampling_oracle(self):
        rng = np.random.default_rng(4)
        disagreements = 0
        for _ in range(2000):
            a, b = random_obb(rng), random_obb(rng)
            if obb_overlap(a, b) != sample_obb_oracle(a, b):
                disagreements += 1
                assert abs(obb_separation_margin(a, b)) < 1e-3
        assert disagreements <= 2


class TestNearestLane:
    def test_orthogonal_projection(self, straight_map):
        lane_id, arc, lateral = nearest_lane(straight_map, (50.0, 1.0))
        assert lane_id == "main"
        assert arc == pytest.approx(50.0)
        assert lateral == pytest.approx(1.0)

    def test_on_centerline(self, straight_map):
        _, _, lateral = nearest_lane(straight_map, (30.0, 0.0))
        assert lateral == 0.0

    def test_tie_breaks_to_lowest_id(self, two_lane_map):
        # oracle: exhaustive projection on both lanes gives equal offsets
        from drivesim.core import project_to_polyline

        d_a = project_to_polyline(two_lane_map.lane("a").centerline, (50.0, 1.0))[0]
        d_b = project_to_polyline(two_lane_map.lane("b").centerline, (50.0, 1.0))[0]
        assert d_a == d_b
        lane_id, _, _ = nearest_lane(two_lane_map, (50.0, 1.0))
        assert lane_id == "a"

    def test_empty_map_errors(self):
        with pytest.raises(ValueError, match="no lanes"):
            nearest_lane(SemanticMap(lanes=()), (0.0, 0.0))

    def test_roundtrip_with_lane_pose(self, straight_map):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = (rng.uniform(0, 200), rng.uniform(-5, 5))
            lane_id, arc, lateral = nearest_lane(straight_map, p)
            pose = lane_pose_at(straight_map, lane_id, arc)
            # projected point = query shifted by lateral along the left normal
            nx, ny = -math.sin(pose.yaw), math.cos(pose.yaw)
            assert math.hypot(pose.x - (p[0] - lateral * nx), pose.y - (p[1] - lateral * ny)) < 1e-6


class TestLanePoseAt:
    def test_straight(self, straight_map):
        pose = lane_pose_at(straight_map, "main", 10.0)
        assert (pose.x, pose.y, pose.yaw) == pytest.approx((10.0, 0.0, 0.0))

    def test_zero_arclength(self, straight_map):
        pose = lane_pose_at(straight_map, "main", 0.0)
        assert (pose.x, pose.y, pose.yaw) == pytest.approx((0.0, 0.0, 0.0))

    def test_out_of_range(self, straight_map):
        with pytest.raises(ValueError):
            lane_pose_at(straight_map, "main", 201.0)
        with pytest.raises(ValueError):
            lane_pose_at(straight_map, "main", -1.0)

    def test_quarter_circle_against_closed_form(self):
        # radius-10 quarter circle, 100 vertices; the polyline is a hair
        # shorter than the 5*pi arc, so probe at mid-arc and at the end
        theta = np.linspace(0.0, math.pi / 2.0, 100)
        pts = np.stack([10.0 * np.cos(theta), 10.0 * np.sin(theta)], axis=1)
        smap = SemanticMap(lanes=(Lane(id="arc", centerline=pts, width=3.5),))
        length = smap.lane("arc").length

        mid = lane_pose_at(smap, "arc", 2.5 * math.pi)
        ang = 2.5 * math.pi / 10.0
        assert math.hypot(mid.x - 10 * math.cos(ang), mid.y - 10 * math.sin(ang)) < 0.05
        assert abs(normalize_angle(mid.yaw - (ang + math.pi / 2))) < 0.02

        end = lane_pose_at(smap, "arc", length)  # length ~= 5*pi
        assert math.hypot(end.x - 0.0, end.y - 10.0) < 0.05
        assert abs(normalize_angle(end.yaw - math.pi)) < 0.02


class TestLaneChain:
    def test_chain_and_advance(self, lit_map):
        chain = lane_chain(lit_map, "approach", 200.0)
        assert chain == [("approach", 0.0), ("crossing", 60.0)]
        lane_id, s = advance_along_lanes(lit_map, "approach", 50.0, 20.0)
        assert (lane_id, s) == ("crossing", pytest.approx(10.0))
        lane_id, s = advance_along_lanes(lit_map, "approach", 50.0, 500.0)
        assert (lane_id, s) == ("crossing", pytest.approx(30.0))  # clamped at the end


class TestLights:
    def test_color_schedule(self, lit_map):
        assert not lit_map.lane_red_at("crossing", 5.0)
        assert lit_map.lane_red_at("crossing", 15.0)
        assert not lit_map.lane_red_at("crossing", 25.0)  # uncovered -> green
        assert not lit_map.lane_red_at("approach", 15.0)  # no light

    def test_overlapping_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrafficLight(id="x", schedule=((0, 10, "red"), (5, 15, "green")))


class TestMapJson:
    def test_roundtrip(self, lit_map):
        doc = map_to_json(lit_map)
        again = map_from_json(doc)
        assert [l.id for l in again.lanes] == [l.id for l in lit_map.lanes]
        assert again.lane("approach").successors == ("crossing",)
        assert again.lane_red_at("crossing", 15.0)
        np.testing.assert_allclose(
            again.lane("approach").centerline, lit_map.lane("approach").centerline
        )

    def test_unknown_key_rejected(self, lit_map):
        doc = map_to_json(lit_map)
        doc["lanes"][0]["speed_limit"] = 13.0
        with pytest.raises(ValueError, match="speed_limit"):
            map_from_json(doc)

    def test_unresolved_successor_rejected(self):
        doc = {
            "lanes": [
                {"id": "a", "centerline": [[0, 0], [1, 0]], "width": 3.0, "successors": ["zz"]}
            ],
            "crosswalks": [],
            "lights": [],
        }
        with pytest.raises(ValueError, match="zz"):
            map_from_json(doc)
