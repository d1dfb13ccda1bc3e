import dataclasses

import numpy as np
import pytest

from drivesim import engine
from drivesim.core import AgentState, Pose2, SimState
from drivesim.engine import (
    SimConfig,
    agent_step_rng,
    assign_policies,
    run_mode,
    step,
    stream_rng,
    unroll,
)
from drivesim.policies import (
    BrakeToStopPolicy,
    ConstantVelocityPolicy,
    LogReplayPolicy,
    ReactiveFollowPolicy,
)


def car(agent_id, x, y=0.0, yaw=0.0, speed=0.0):
    return AgentState(id=agent_id, pose=Pose2(x, y, yaw), extent=(4.5, 2.0), speed=speed)


def cv_policies(state):
    return assign_policies(state, ConstantVelocityPolicy())


class TestRngStreams:
    def test_keyed_by_seed_agent_step(self):
        a = agent_step_rng(1, "x", 3).uniform()
        assert a == agent_step_rng(1, "x", 3).uniform()
        assert a != agent_step_rng(1, "x", 4).uniform()
        assert a != agent_step_rng(1, "y", 3).uniform()
        assert a != agent_step_rng(2, "x", 3).uniform()

    def test_rekeyed_stream_draws_as_a_fresh_one(self):
        for k in range(50):
            used = agent_step_rng(0, "warm", k)
            used.integers(0, 7, dtype=np.uint32)  # leaves a cached half-word
            used.standard_normal(k % 5 + 1)  # leaves a part-used block
            fresh = stream_rng(k, f"agent:a{k}", 3 * k)
            expected = (fresh.standard_normal(3), fresh.integers(0, 1 << 30, dtype=np.uint32, size=3))
            rekeyed = agent_step_rng(k, f"a{k}", 3 * k)
            drawn = (rekeyed.standard_normal(3), rekeyed.integers(0, 1 << 30, dtype=np.uint32, size=3))
            assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))

    def test_order_independent(self):
        values = {}
        for agent in ("a", "b", "c"):
            values[agent] = agent_step_rng(7, agent, 5).standard_normal()
        for agent in reversed(("a", "b", "c")):
            assert agent_step_rng(7, agent, 5).standard_normal() == values[agent]


class TestStep:
    def test_constant_velocity_translation(self, straight_map):
        s = SimState(0, (car("ego", 50, speed=0.0), car("a", 10, speed=6.0), car("b", 30, speed=3.0)), "ego")
        cfg = SimConfig(dt=0.1, seed=0)
        out = step(s, cv_policies(s), straight_map, cfg, 1)
        assert out.step_index == 1
        assert out.agent("a").pose.x == pytest.approx(10.6)
        assert out.agent("b").pose.x == pytest.approx(30.3)
        assert out.agent("ego").pose.x == pytest.approx(50.0)

    def test_agent_order_permutation_same_result(self, straight_map):
        agents = (car("ego", 50), car("a", 10, speed=6.0), car("b", 30, speed=3.0))
        cfg = SimConfig(dt=0.1, seed=3, control_noise=(0.05, 0.1))
        s1 = SimState(0, agents, "ego")
        s2 = SimState(0, agents[::-1], "ego")
        o1 = step(s1, cv_policies(s1), straight_map, cfg, 1)
        o2 = step(s2, cv_policies(s2), straight_map, cfg, 1)
        d1 = {a.id: a for a in o1.agents}
        d2 = {a.id: a for a in o2.agents}
        assert d1 == d2

    def test_no_read_after_write_within_step(self, straight_map):
        # two reactive agents, each reading the other's previous pose: the
        # result must match evaluating both against a frozen copy of prev
        pol = ReactiveFollowPolicy(dt=0.1)
        s = SimState(0, (car("ego", 150), car("a", 10, speed=8.0), car("b", 30, speed=2.0)), "ego")
        cfg = SimConfig(dt=0.1, seed=0)
        out = step(s, assign_policies(s, pol, {"ego": ConstantVelocityPolicy()}), straight_map, cfg, 1)
        from drivesim.kinematics import advance

        for agent_id in ("a", "b"):
            frozen_decision = pol.act(agent_id, s, straight_map)
            expected = advance(s.agent(agent_id), frozen_decision.control, 0.1)
            assert out.agent(agent_id) == expected

    def test_missing_policy_errors(self, straight_map):
        s = SimState(0, (car("ego", 50), car("a", 10, speed=6.0)), "ego")
        with pytest.raises(ValueError, match="no policy"):
            step(s, {}, straight_map, SimConfig(), 1)

    def test_roi_deactivation(self, straight_map):
        s = SimState(0, (car("ego", 0), car("far", 100, speed=10.0)), "ego")
        cfg = SimConfig(dt=0.1, seed=0, roi_radius=50.0)
        out = step(s, cv_policies(s), straight_map, cfg, 1)
        assert not out.agent("far").active
        # deactivated agents are carried unchanged afterwards
        out2 = step(out, cv_policies(s), straight_map, cfg, 2)
        assert out2.agent("far") == dataclasses.replace(out.agent("far"))

    def test_ego_policy_keeps_id_and_extent(self, straight_map):
        s = SimState(0, (car("ego", 0, speed=4.0), car("a", 30, speed=1.0)), "ego")
        log = unroll(s, cv_policies(s), straight_map, SimConfig(horizon_steps=5))
        ego_policies = (
            ConstantVelocityPolicy(),
            LogReplayPolicy(log),
            ReactiveFollowPolicy(dt=0.1),
            BrakeToStopPolicy(dt=0.1),
        )
        for ego_policy in ego_policies:
            policies = assign_policies(s, ConstantVelocityPolicy(), {"ego": ego_policy})
            out = step(s, policies, straight_map, SimConfig(), 1)
            assert out.ego.id == "ego"
            assert out.ego.extent == s.ego.extent


class TestUnroll:
    def test_static_scene_all_states_identical(self, straight_map):
        s = SimState(0, (car("ego", 50), car("a", 10), car("b", 30)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=20, seed=0)
        ep = unroll(s, cv_policies(s), straight_map, cfg)
        assert ep.termination == "completed"
        assert len(ep.states) == 21
        for state in ep.states[1:]:
            for agent in state.agents:
                assert agent.pose == s.agent(agent.id).pose

    def test_collision_truncates_at_step_20(self, straight_map):
        # ego closes a 20 m bumper gap at 1 m per step -> contact at step 20
        lead = car("lead", 20.0 + 4.5 + 20.0, speed=0.0)
        ego = car("ego", 20.0, speed=10.0)
        s = SimState(0, (ego, lead), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        ep = unroll(s, cv_policies(s), straight_map, cfg)
        assert ep.termination == "ego_collision"
        assert ep.states[-1].step_index == 20

    def test_reactive_follower_completes(self, straight_map):
        # same geometry, but the moving car is a reactive agent and the
        # static lead is the ego: no contact within the horizon
        lead = car("lead", 20.0 + 4.5 + 20.0, speed=0.0)
        follower = car("follower", 20.0, speed=10.0)
        s = SimState(0, (lead, follower), "lead")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        policies = {"lead": ConstantVelocityPolicy(), "follower": ReactiveFollowPolicy(dt=0.1)}
        ep = unroll(s, policies, straight_map, cfg)
        assert ep.termination == "completed"
        assert len(ep.states) == 51

    def test_shared_noise_stream_keeps_runs_repeatable(self, straight_map):
        # every noisy agent-step re-keys one shared generator: a run in
        # between, on another seed, must leave nothing behind in it
        def run(seed):
            cfg = SimConfig(dt=0.1, horizon_steps=30, seed=seed, control_noise=(0.02, 0.1))
            return unroll(s, policies, straight_map, cfg)

        s = SimState(
            0,
            (car("ego", 60, speed=2.0),)
            + tuple(car(f"a{i}", 5.0 + 12.0 * i, speed=3.0 + i) for i in range(6)),
            "ego",
        )
        policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
        first = run(11)
        other = run(12)
        assert run(11) == first
        assert other != first

    def test_noise_streams_only_when_drawn(self, straight_map, monkeypatch):
        calls = []
        rekey = engine.agent_step_rng
        monkeypatch.setattr(engine, "agent_step_rng", lambda *key: calls.append(key) or rekey(*key))
        s = SimState(
            0,
            (car("ego", 100, speed=2.0),) + tuple(car(f"a{i}", 5.0 + 12.0 * i, speed=3.0) for i in range(4)),
            "ego",
        )
        policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
        quiet = unroll(s, policies, straight_map, SimConfig(dt=0.1, horizon_steps=10, seed=1))
        assert calls == []
        # with noise on: one stream per noisy agent-step, none for the ego
        # or for an agent placed by a pose override
        policies["a0"] = LogReplayPolicy(quiet)
        cfg = SimConfig(dt=0.1, horizon_steps=10, seed=1, control_noise=(0.02, 0.1))
        ep = unroll(s, policies, straight_map, cfg)
        assert len(calls) == 3 * 10 == 3 * (len(ep.states) - 1)
        assert {agent_id for _, agent_id, _ in calls} == {"a1", "a2", "a3"}

    def test_identical_runs_bit_identical(self, straight_map):
        s = SimState(0, (car("ego", 60, speed=2.0), car("a", 10, speed=5.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=25, seed=5, control_noise=(0.1, 0.2))
        policies = assign_policies(s, ConstantVelocityPolicy())
        e1 = unroll(s, policies, straight_map, cfg)
        e2 = unroll(s, policies, straight_map, cfg)
        assert e1 == e2

    def test_ids_and_extents_conserved(self, straight_map):
        s = SimState(0, (car("ego", 60, speed=2.0), car("a", 10, speed=5.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=25, seed=5)
        ep = unroll(s, cv_policies(s), straight_map, cfg)
        for state in ep.states:
            assert {a.id for a in state.agents} == {"ego", "a"}
            for agent in state.agents:
                assert agent.extent == s.agent(agent.id).extent


class TestReplayClosure:
    def make_log(self, straight_map, n=30):
        s = SimState(
            0,
            (car("ego", 60, speed=4.0), car("a", 10, speed=5.0), car("b", 30, speed=2.0)),
            "ego",
        )
        cfg = SimConfig(dt=0.1, horizon_steps=n, seed=2)
        policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
        return unroll(s, policies, straight_map, cfg)

    def test_full_replay_reproduces_log_exactly(self, straight_map):
        log = self.make_log(straight_map)
        s1 = log.states[0]
        policies = assign_policies(s1, LogReplayPolicy(log))
        cfg = SimConfig(dt=0.1, horizon_steps=len(log.states) - 1, seed=99)
        replayed = unroll(s1, policies, straight_map, cfg)
        assert replayed.states == log.states

    def test_replay_displacement_is_zero(self, straight_map):
        log = self.make_log(straight_map)
        s1 = log.states[0]
        policies = assign_policies(s1, LogReplayPolicy(log))
        cfg = SimConfig(dt=0.1, horizon_steps=len(log.states) - 1, seed=99)
        replayed = unroll(s1, policies, straight_map, cfg)
        for rs, ls in zip(replayed.states, log.states):
            for agent in rs.agents:
                ref = ls.agent(agent.id)
                assert agent.pose == ref.pose


class TestRunMode:
    def test_scenario_replay_closure(self, straight_map):
        log = TestReplayClosure().make_log(straight_map)
        cfg = SimConfig(dt=0.1, horizon_steps=len(log.states) - 1, seed=0)
        ep = run_mode(
            "scenario",
            smap=straight_map,
            cfg=cfg,
            make_policies=lambda s: assign_policies(s, LogReplayPolicy(log)),
            s1=log.states[0],
        )
        assert ep.states == log.states

    def test_journey_different_seeds_different_states(self, straight_map):
        loc = Pose2(50.0, 0.0, 0.0)
        eps = []
        for seed in (1, 2):
            cfg = SimConfig(dt=0.1, horizon_steps=5, seed=seed)
            eps.append(
                run_mode(
                    "journey",
                    smap=straight_map,
                    cfg=cfg,
                    make_policies=cv_policies,
                    location=loc,
                )
            )
        s1, s2 = eps[0].states[0], eps[1].states[0]
        assert s1.ego.pose == loc and s2.ego.pose == loc
        assert s1 != s2

    def test_full_samples_location(self, straight_map):
        cfg = SimConfig(dt=0.1, horizon_steps=5, seed=4)
        ep = run_mode(
            "full",
            smap=straight_map,
            cfg=cfg,
            make_policies=cv_policies,
        )
        ego = ep.states[0].ego
        assert 0.0 <= ego.pose.x <= 200.0
        assert ego.pose.y == pytest.approx(0.0)

    def test_behaviour_forces_path(self, straight_map):
        # an agent forced onto a lane-change path tracks it within 0.5 m
        # while its speed still comes from its own (constant) policy
        path = np.array([[10.0, 0.0], [30.0, 0.0], [45.0, 3.0], [120.0, 3.0]])
        s1 = SimState(0, (car("ego", 150.0), car("a", 10.0, speed=8.0)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
        ep = run_mode(
            "behaviour",
            smap=straight_map,
            cfg=cfg,
            make_policies=cv_policies,
            s1=s1,
            forced_paths={"a": path},
        )
        from drivesim.core import project_to_polyline

        for state in ep.states[5:]:
            agent = state.agent("a")
            dist, _, _ = project_to_polyline(path, agent.center)
            assert dist < 0.5
            assert agent.speed == 8.0
        final = ep.states[-1].agent("a")
        assert final.pose.y == pytest.approx(3.0, abs=0.5)

    def test_behaviour_requires_paths(self, straight_map):
        s1 = SimState(0, (car("ego", 0), car("a", 10)), "ego")
        with pytest.raises(ValueError, match="path"):
            run_mode(
                "behaviour",
                smap=straight_map,
                cfg=SimConfig(),
                make_policies=cv_policies,
                    s1=s1,
            )

    def test_scenario_requires_state(self, straight_map):
        with pytest.raises(ValueError, match="initial state"):
            run_mode(
                "scenario",
                smap=straight_map,
                cfg=SimConfig(),
                make_policies=cv_policies,
                )


class TestEgoControllers:
    def test_brake_to_stop(self, straight_map):
        s = SimState(0, (car("ego", 0, speed=5.0), car("a", 100)), "ego")
        cfg = SimConfig(dt=0.1, horizon_steps=40, seed=0)
        policies = assign_policies(s, ConstantVelocityPolicy(), {"ego": BrakeToStopPolicy(dt=0.1, decel=2.5)})
        ep = unroll(s, policies, straight_map, cfg)
        speeds = [st.ego.speed for st in ep.states]
        assert speeds[0] == 5.0
        assert speeds[-1] == 0.0
        assert all(b <= a for a, b in zip(speeds, speeds[1:]))

    def test_policy_ego_matches_policy(self, straight_map):
        # the ego gets no control noise, while the other agents do
        pol = ReactiveFollowPolicy(dt=0.1)
        s = SimState(0, (car("ego", 10, speed=3.0), car("a", 60, speed=5.0)), "ego")
        cfg = SimConfig(dt=0.1, seed=3, control_noise=(0.05, 0.5))
        out = step(s, assign_policies(s, pol), straight_map, cfg, 1)
        from drivesim.kinematics import advance

        expected = advance(s.ego, pol.act("ego", s, straight_map).control, 0.1)
        assert out.ego == expected
        noiseless = advance(s.agent("a"), pol.act("a", s, straight_map).control, 0.1)
        assert out.agent("a") != noiseless

    def test_inactive_ego_is_rejected(self, straight_map):
        ego = dataclasses.replace(car("ego", 10, speed=3.0), active=False)
        s = SimState(0, (ego, car("a", 60, speed=5.0)), "ego")
        for ego_policy in (ConstantVelocityPolicy(), BrakeToStopPolicy(dt=0.1)):
            policies = assign_policies(s, ConstantVelocityPolicy(), {"ego": ego_policy})
            with pytest.raises(ValueError, match="'ego' is not active"):
                unroll(s, policies, straight_map, SimConfig())
