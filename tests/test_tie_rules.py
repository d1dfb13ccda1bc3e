"""Tie and boundary rules, each pinned by a hand-built case where the rule
alone decides the result. Every assertion is exact: a rewrite of the lane
queries or the engine step that breaks a rule fails here even when no
random scene ever produces the tie."""
import math

import numpy as np
import pytest

from drivesim.core import (
    AgentState,
    Lane,
    Pose2,
    SemanticMap,
    SimState,
    advance_along_lanes,
    lane_chain,
    nearest_lane,
    project_to_polyline,
)
from drivesim.engine import SimConfig, assign_policies, step
from drivesim.policies import ConstantVelocityPolicy, lead_gap

from conftest import reference_project_to_polyline, reference_segment_d2


def car(agent_id, x, y=0.0, length=4.5):
    return AgentState(id=agent_id, pose=Pose2(x, y, 0.0), extent=(length, 2.0), speed=0.0)


CORNER = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])


class TestProjectionTies:
    def test_equidistant_segments_take_smaller_arclength(self):
        # (5, 5) is exactly 5 m from both legs of the corner: arclength 5 on
        # the first leg, 15 on the second.
        assert project_to_polyline(CORNER, (5.0, 5.0)) == (5.0, 5.0, 5.0)

    def test_within_lane_smaller_squared_distance_wins(self):
        # Found by search: the two segments' squared distances differ by one
        # ulp but their square roots round equal. The later segment is
        # nearer by squared distance, so it wins; ranking by the rounded
        # distance would pick the first segment (arclength 8.95).
        path = np.array([[0.0, 0.0], [10.0, 0.0], [12.0, 10.0]])
        point = (8.95, 1.2807940978544858)
        d2 = reference_segment_d2(path, point)
        assert d2[1] < d2[0] and math.sqrt(d2[1]) == math.sqrt(d2[0])
        dist, lateral, arc = project_to_polyline(path, point)
        assert (dist, arc) == (math.sqrt(d2[1]), 11.05)
        lane = Lane(id="bent", centerline=path, width=3.5)
        assert nearest_lane(SemanticMap(lanes=(lane,)), point) == ("bent", 11.05, lateral)

    def test_across_lanes_equal_distance_takes_lowest_id(self):
        # Found by search: lane "a" is farther by squared distance (one ulp)
        # but the distances round equal, so the lower id wins. Lane "b" is
        # listed first, so map order does not decide it either.
        a = np.array([[0.0, 0.0], [100.0, 0.0]])
        b = np.array([[0.0, 3.0], [100.0, 2.0]])
        point = (50.000000000000284, 1.249968751562401)
        d2_a, d2_b = reference_segment_d2(a, point)[0], reference_segment_d2(b, point)[0]
        assert d2_a > d2_b and math.sqrt(d2_a) == math.sqrt(d2_b)
        smap = SemanticMap(lanes=(Lane("b", b, 3.5), Lane("a", a, 3.5)))
        _, lateral, arc = reference_project_to_polyline(a, point)
        assert nearest_lane(smap, point) == ("a", arc, lateral)


class TestLeadGapTies:
    @pytest.mark.parametrize("first, second", [("z", "b"), ("b", "z")])
    def test_equal_gaps_go_to_first_in_state_order(self, straight_map, first, second):
        # both leaders project to arclength 44.5, within half a lane width
        leaders = {"z": car("z", 44.5, y=0.5), "b": car("b", 44.5, y=-0.5)}
        s = SimState(0, (car("ego", 150), car("f", 20), leaders[first], leaders[second]), "ego")
        gap, lead = lead_gap(s, "f", straight_map)
        assert (gap, lead.id) == (20.0, first)

    @pytest.mark.parametrize("first, second", [("near", "next"), ("next", "near")])
    def test_equal_gaps_across_chain_lanes(self, lit_map, first, second):
        # "near" ends its lane at gap 3.5; the longer "next" sits on the
        # successor lane at the same gap
        leaders = {"near": car("near", 58.0), "next": car("next", 62.0, length=12.5)}
        s = SimState(0, (car("ego", 85.0), car("f", 50.0), leaders[first], leaders[second]), "ego")
        gap, lead = lead_gap(s, "f", lit_map)
        assert (gap, lead.id) == (3.5, first)

    def test_longer_agent_behind_nearest_leader_wins(self, straight_map):
        # "near" is closest by arclength (gap 15.5), but the 12 m truck 2 m
        # farther reaches back to a 13.75 m gap
        s = SimState(0, (car("ego", 150), car("f", 20), car("near", 40), car("truck", 42, length=12.0)), "ego")
        gap, lead = lead_gap(s, "f", straight_map)
        assert (gap, lead.id) == (13.75, "truck")


class TestBoundaries:
    def test_agent_exactly_at_roi_radius_stays_active(self, straight_map):
        s = SimState(0, (car("ego", 0.0), car("edge", 50.0), car("out", 50.5)), "ego")
        cfg = SimConfig(dt=0.1, seed=0, roi_radius=50.0)
        out = step(s, assign_policies(s, ConstantVelocityPolicy()), straight_map, cfg, 1)
        assert out.agent("edge").active
        assert not out.agent("out").active

    def test_lane_chain_includes_successor_starting_at_max_length(self, lit_map):
        assert lane_chain(lit_map, "approach", 60.0) == [("approach", 0.0), ("crossing", 60.0)]
        assert lane_chain(lit_map, "approach", 59.5) == [("approach", 0.0)]

    def test_advance_to_exactly_lane_end_stays_on_lane(self, lit_map):
        assert advance_along_lanes(lit_map, "approach", 50.0, 10.0) == ("approach", 60.0)

    def test_light_phase_is_half_open(self, lit_map):
        light = lit_map.lights[0]
        assert [light.color_at(t) for t in (0.0, 10.0, 20.0)] == ["green", "red", "green"]
