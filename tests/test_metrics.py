import math

import numpy as np
import pytest

from drivesim.core import AgentState, Episode, Pose2, SimState
from drivesim.engine import SimConfig, assign_policies, unroll
from drivesim.metrics import (
    PlannerReport,
    RealismReport,
    classify_collision,
    constant_speed_log,
    make_static_lead_scene,
    planner_eval,
    reactivity,
    realism_report,
    simulate_against_logs,
    static_lead_suite,
    write_report,
)
from drivesim.policies import (
    BrakeToStopPolicy,
    ConstantVelocityPolicy,
    LogReplayPolicy,
    ReactiveFollowPolicy,
)


def car(agent_id, x, y=0.0, yaw=0.0, speed=0.0, extent=(4.5, 2.0)):
    return AgentState(id=agent_id, pose=Pose2(x, y, yaw), extent=extent, speed=speed)


def make_episode(offsets, dt=0.1, speed=5.0):
    """Ego fixed, agent 'a' translating at the given per-step x offsets."""
    states = []
    for t, off in enumerate(offsets):
        states.append(
            SimState(t, (car("ego", 0.0, y=-50.0), car("a", 10.0 + off, speed=speed)), "ego")
        )
    return Episode(dt=dt, map_id="m", states=tuple(states))


class TestDisplacementError:
    def test_identical_episodes_zero(self):
        gt = make_episode([0.5 * t for t in range(51)])
        report = realism_report([gt], [gt], [0.5, 1, 2, 3, 4, 5])
        assert report.mean_l2 == (0.0,) * 6
        assert report.n_scenes == 1

    def test_constant_one_meter_offset(self):
        gt = make_episode([0.5 * t for t in range(51)])
        sim = make_episode([0.5 * t + 1.0 for t in range(51)])
        sim = Episode(
            dt=sim.dt,
            map_id=sim.map_id,
            states=(gt.states[0],) + sim.states[1:],
            termination=sim.termination,
        )
        report = realism_report([sim], [gt], [0.5, 1, 2, 3, 4, 5])
        assert report.mean_l2 == pytest.approx((1.0,) * 6)

    def test_mismatched_start_errors(self):
        gt = make_episode([0.0] * 11)
        sim = make_episode([5.0] * 11)
        with pytest.raises(ValueError, match="initial state"):
            realism_report([sim], [gt], [0.5])

    def test_horizon_beyond_length_errors(self):
        gt = make_episode([0.0] * 11)
        with pytest.raises(ValueError, match="exceeds"):
            realism_report([gt], [gt], [5.0])

    def test_translation_invariance(self):
        gt = make_episode([0.5 * t for t in range(21)])
        sim = make_episode([0.5 * t + 0.8 for t in range(21)])
        sim = Episode(dt=0.1, map_id="m", states=(gt.states[0],) + sim.states[1:])

        def shift(ep, dx, dy):
            states = []
            for s in ep.states:
                agents = tuple(
                    AgentState(
                        id=a.id,
                        pose=Pose2(a.pose.x + dx, a.pose.y + dy, a.pose.yaw),
                        extent=a.extent,
                        speed=a.speed,
                        kind=a.kind,
                        active=a.active,
                    )
                    for a in s.agents
                )
                states.append(SimState(s.step_index, agents, s.ego_id))
            return Episode(dt=ep.dt, map_id=ep.map_id, states=tuple(states))

        r1 = realism_report([sim], [gt], [1.0, 2.0])
        r2 = realism_report([shift(sim, 40.0, -7.0)], [shift(gt, 40.0, -7.0)], [1.0, 2.0])
        assert r1.mean_l2 == pytest.approx(r2.mean_l2)

    def test_pooled_report(self):
        gt = make_episode([0.5 * t for t in range(21)])
        r = realism_report([gt, gt], [gt, gt], [1.0])
        assert r.n_scenes == 2
        assert r.mean_l2 == (0.0,)


class TestStaticLeadScene:
    def test_exact_bumper_gap(self, straight_map):
        s = make_static_lead_scene(20.0, 10.0, straight_map)
        lead, follower = s.agent("lead"), s.agent("follower")
        gap = (lead.pose.x - follower.pose.x) - (lead.length + follower.length) / 2.0
        assert gap == pytest.approx(20.0)
        assert s.ego_id == "lead"
        assert lead.speed == 0.0 and follower.speed == 10.0

    def test_rejects_zero_gap(self, straight_map):
        with pytest.raises(ValueError, match="gap"):
            make_static_lead_scene(0.0, 10.0, straight_map)

    def test_lane_too_short(self):
        from drivesim.core import Lane, SemanticMap

        short = SemanticMap(
            lanes=(Lane(id="s", centerline=np.array([[0.0, 0.0], [20.0, 0.0]]), width=3.5),)
        )
        with pytest.raises(ValueError, match="too short"):
            make_static_lead_scene(30.0, 10.0, short)

    def test_suite_seeded_and_reachable(self, straight_map):
        suite1 = static_lead_suite(straight_map, n_scenes=20, seed=7)
        suite2 = static_lead_suite(straight_map, n_scenes=20, seed=7)
        assert suite1 == suite2
        for scene in suite1:
            lead, follower = scene.agent("lead"), scene.agent("follower")
            gap = (lead.pose.x - follower.pose.x) - (lead.length + follower.length) / 2.0
            assert 10.0 <= gap <= 40.0
            assert 5.0 <= follower.speed <= 12.0
            assert gap + 2.0 <= follower.speed * 5.0

    def test_suite_rejects_unreachable_ranges(self, straight_map):
        # 100 m + 2 m margin can never be covered at 2 m/s in 5 s
        with pytest.raises(ValueError, match="reachable"):
            static_lead_suite(straight_map, gap_range=(100.0, 200.0), speed_range=(1.0, 2.0), horizon_s=5.0)


class TestReactivity:
    def test_non_reactive_replay_always_collides(self, straight_map):
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=1)
        suite = static_lead_suite(straight_map, n_scenes=20, seed=1)
        subject = lambda scene: LogReplayPolicy(constant_speed_log(scene, cfg, straight_map))
        report = reactivity(suite, subject, cfg, straight_map)
        assert report.reactivity == 0.0

    def test_reactive_follow_never_collides(self, straight_map):
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=1)
        suite = static_lead_suite(straight_map, n_scenes=20, seed=1)
        report = reactivity(suite, ReactiveFollowPolicy(dt=0.1, v0=12.0), cfg, straight_map)
        assert report.reactivity == 1.0

    def test_unreachable_lead_safe_for_any_policy(self, straight_map):
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=2)
        scenes = [make_static_lead_scene(60.0, 5.0, straight_map) for _ in range(5)]
        report = reactivity(scenes, ConstantVelocityPolicy(), cfg, straight_map)
        assert report.reactivity == 1.0

    def test_monotone_when_removing_colliding_scene(self, straight_map):
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=3)
        scenes = [
            make_static_lead_scene(15.0, 10.0, straight_map),  # reachable -> collision
            make_static_lead_scene(80.0, 5.0, straight_map),  # unreachable -> safe
        ]
        full = reactivity(scenes, ConstantVelocityPolicy(), cfg, straight_map)
        pruned = reactivity(scenes[1:], ConstantVelocityPolicy(), cfg, straight_map)
        assert pruned.reactivity >= full.reactivity


class TestClassifyCollision:
    def test_dead_ahead_touching_is_front(self):
        ego = car("ego", 0.0)
        other = car("a", 4.5)  # bumper to bumper contact
        assert classify_collision(ego, other) == "front"

    def test_rear_contact(self):
        ego = car("ego", 0.0)
        other = car("a", -4.5)
        assert classify_collision(ego, other) == "rear"

    def test_beam_contact_is_side(self):
        ego = car("ego", 0.0)
        other = car("a", 0.0, y=2.0, yaw=math.pi / 2)
        assert classify_collision(ego, other) == "side"

    def test_requires_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            classify_collision(car("ego", 0.0), car("a", 50.0))

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dx = rng.uniform(3.0, 5.0)
            dy = rng.uniform(-2.0, 2.0)
            ego = car("ego", 0.0)
            other = car("a", dx, y=dy, yaw=rng.uniform(-3, 3))
            from drivesim.core import agent_obb, obb_overlap

            if not obb_overlap(agent_obb(ego), agent_obb(other)):
                continue
            label = classify_collision(ego, other)
            # rotate + translate both agents by the same rigid transform
            ang = rng.uniform(-3, 3)
            c, s = math.cos(ang), math.sin(ang)

            def moved(a):
                x = c * a.pose.x - s * a.pose.y + 12.0
                y = s * a.pose.x + c * a.pose.y - 3.0
                return AgentState(
                    id=a.id, pose=Pose2(x, y, a.pose.yaw + ang), extent=a.extent, speed=a.speed
                )

            assert classify_collision(moved(ego), moved(other)) == label

    def test_partition_exactly_one_label(self):
        rng = np.random.default_rng(6)
        from drivesim.core import agent_obb, obb_overlap

        seen = 0
        while seen < 200:
            ego = car("ego", 0.0, yaw=rng.uniform(-3, 3))
            other = car("a", rng.uniform(-6, 6), y=rng.uniform(-4, 4), yaw=rng.uniform(-3, 3))
            if not obb_overlap(agent_obb(ego), agent_obb(other)):
                continue
            assert classify_collision(ego, other) in ("front", "side", "rear")
            seen += 1


class TestPlannerEval:
    def replay_reference(self, straight_map, n=50, speed=8.0):
        s = SimState(0, (car("ego", 10.0, speed=speed), car("t", 50.0, speed=0.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=n, seed=0, interrupt_on_ego_collision=False)
        policies = assign_policies(s, ConstantVelocityPolicy())
        return unroll(s, policies, straight_map, cfg)

    def test_exact_replay_no_events(self, straight_map):
        ref = self.replay_reference(straight_map, speed=3.0)
        report = planner_eval([ref], [ref])
        assert report == PlannerReport()

    def test_passive_ego_fires_passiveness(self, straight_map):
        # reference drives at 8 m/s with clear road; evaluated ego stays put
        ref_state = SimState(0, (car("ego", 10.0, speed=8.0),), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        ref = unroll(ref_state, {"ego": ConstantVelocityPolicy()}, straight_map, cfg)
        stopped = unroll(ref_state, {"ego": BrakeToStopPolicy(dt=0.1, decel=50.0)}, straight_map, cfg)
        report = planner_eval([stopped], [ref])
        assert report.passiveness == 1
        assert report.displacement_errors == 1  # 40 m short of the reference

    def test_no_passiveness_when_blocked(self, straight_map):
        # same stopped ego, but a car sits 6 m ahead: road is not clear
        ref_state = SimState(0, (car("ego", 10.0, speed=8.0), car("b", 20.5, speed=0.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0, interrupt_on_ego_collision=False)
        policies = {"ego": ConstantVelocityPolicy(), "b": ConstantVelocityPolicy()}
        ref = unroll(ref_state, policies, straight_map, cfg)
        stopped_state = SimState(0, (car("ego", 10.0, speed=0.0), car("b", 20.5, speed=0.0)), "ego")
        stopped = unroll(stopped_state, policies, straight_map, cfg)
        report = planner_eval([stopped], [ref])
        assert report.passiveness == 0

    def test_lateral_deviation_fires_distance_event(self, straight_map):
        ref = self.replay_reference(straight_map, speed=3.0)
        states = []
        for s in ref.states:
            ego = s.ego
            moved = AgentState(
                id=ego.id,
                pose=Pose2(ego.pose.x, ego.pose.y + 3.0, ego.pose.yaw),
                extent=ego.extent,
                speed=ego.speed,
            )
            others = tuple(a for a in s.agents if a.id != ego.id)
            states.append(SimState(s.step_index, (moved, *others), s.ego_id))
        sim = Episode(dt=ref.dt, map_id=ref.map_id, states=tuple(states))
        report = planner_eval([sim], [ref])
        assert report.distance_to_reference == 1

    def test_rear_collision_classified(self, straight_map):
        # trailing car plows into a stopped ego
        s = SimState(0, (car("ego", 30.0, speed=0.0), car("chaser", 10.0, speed=10.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        policies = assign_policies(s, ConstantVelocityPolicy())
        sim = unroll(s, policies, straight_map, cfg)
        assert sim.termination == "ego_collision"
        ref = unroll(s, policies, straight_map,
                     SimConfig(dt=0.1, horizon_steps=50, seed=0, interrupt_on_ego_collision=False))
        report = planner_eval([sim], [ref])
        assert report.rear_collisions == 1
        assert report.front_collisions == 0 and report.side_collisions == 0

    def test_pairing_mismatch_errors(self, straight_map):
        ref = self.replay_reference(straight_map)
        with pytest.raises(ValueError, match="pair"):
            planner_eval([ref], [])

    def test_at_most_one_event_per_category(self, straight_map):
        ref = self.replay_reference(straight_map, speed=8.0)
        stopped_state = SimState(0, tuple(ref.states[0].agents), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        stopped = unroll(
            stopped_state,
            {"t": ConstantVelocityPolicy(), "ego": BrakeToStopPolicy(dt=0.1, decel=50.0)},
            straight_map,
            cfg,
        )
        report = planner_eval([stopped, stopped], [ref, ref])
        for name in PlannerReport.CATEGORIES:
            assert getattr(report, name) <= 2


class TestRealismProtocol:
    def test_simulate_against_logs_pairs(self, straight_map):
        s = SimState(0, (car("ego", 60, speed=4.0), car("a", 10, speed=5.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=20, seed=2)
        policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
        gt = unroll(s, policies, straight_map, cfg)
        sims = simulate_against_logs(
            [gt],
            lambda s1, log: assign_policies(s1, LogReplayPolicy(log)),
            straight_map,
            cfg,
        )
        assert len(sims) == 1
        report = realism_report(sims, [gt], [0.5, 1.0, 2.0])
        assert report.mean_l2 == (0.0, 0.0, 0.0)


class TestReportFiles:
    def test_write_json_and_csv(self, tmp_path):
        report = RealismReport((0.5, 1.0), (0.1, 0.2), n_agents=3, n_scenes=2)
        write_report(report, tmp_path / "r.json", tmp_path / "r.csv")
        import csv as csvmod
        import json

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["mean_l2"] == [0.1, 0.2]
        rows = list(csvmod.reader((tmp_path / "r.csv").open()))
        assert rows[0] == ["horizon_s", "mean_l2_m"]
        assert len(rows) == 3
