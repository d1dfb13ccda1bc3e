import math

import numpy as np
import pytest

from drivesim.core import AgentState, Episode, Pose2, SimState
from drivesim.kinematics import Control, advance
from drivesim.policies import (
    ConstantVelocityPolicy,
    FeatureExtractor,
    LogReplayPolicy,
    MlpPolicy,
    N_FEATURES,
    PathOverridePolicy,
    ReactiveFollowPolicy,
    TrainConfig,
    build_bc_dataset,
    init_mlp,
    lead_gap,
    load_mlp,
    mlp_forward,
    mlp_loss,
    mlp_loss_and_grads,
    mlp_train,
    policy_act,
    save_mlp,
)


def car(agent_id, x, y=0.0, yaw=0.0, speed=0.0):
    return AgentState(id=agent_id, pose=Pose2(x, y, yaw), extent=(4.5, 2.0), speed=speed)


def state_of(*agents, ego_id=None, step=0):
    return SimState(step_index=step, agents=tuple(agents), ego_id=ego_id or agents[0].id)


class TestPolicyAct:
    def test_constant_velocity(self, straight_map):
        s = state_of(car("ego", 0), car("a", 10, speed=7.0))
        d = policy_act(ConstantVelocityPolicy(), "a", s, straight_map)
        assert (d.control.phi, d.control.v) == (0.0, 7.0)
        assert d.pose_override is None

    def test_unknown_agent_errors(self, straight_map):
        s = state_of(car("ego", 0))
        with pytest.raises(ValueError, match="unknown agent"):
            policy_act(ConstantVelocityPolicy(), "ghost", s, straight_map)

    def test_markov_same_state_same_decision(self, straight_map):
        pol = ReactiveFollowPolicy()
        s = state_of(car("ego", 30, speed=0.0), car("a", 10, speed=5.0))
        d1 = policy_act(pol, "a", s, straight_map)
        d2 = policy_act(pol, "a", s, straight_map)
        assert d1 == d2


class TestLogReplay:
    def make_log(self, straight_map):
        states = []
        for t in range(5):
            states.append(state_of(car("ego", 0.0), car("a", 10.0 + 2.0 * t, speed=20.0), step=t))
        return Episode(dt=0.1, map_id=straight_map.map_id, states=tuple(states))

    def test_override_matches_recorded_pose(self, straight_map):
        log = self.make_log(straight_map)
        pol = LogReplayPolicy(log)
        d = policy_act(pol, "a", log.states[2], straight_map)
        assert d.pose_override == log.states[3].agent("a").pose
        assert d.control.v == log.states[3].agent("a").speed

    def test_freezes_past_end(self, straight_map):
        log = self.make_log(straight_map)
        pol = LogReplayPolicy(log)
        last = log.states[-1]
        d = policy_act(pol, "a", last, straight_map)
        assert d.pose_override == last.agent("a").pose


class TestLeadGap:
    def test_bumper_to_bumper(self, straight_map):
        s = state_of(car("ego", 100), car("f", 20, speed=5.0), car("l", 44.5))
        gap, lead = lead_gap(s, "f", straight_map)
        assert lead.id == "l"
        assert gap == pytest.approx(20.0)

    def test_clear_road_caps(self, straight_map):
        s = state_of(car("ego", 190), car("f", 20, speed=5.0))
        gap, lead = lead_gap(s, "f", straight_map, max_range=100.0)
        assert lead is None or lead.id == "ego"
        # ego at 190 is 165.5 m ahead bumper-to-bumper: beyond the cap
        assert gap == 100.0

    def test_ignores_agents_behind_and_off_corridor(self, two_lane_map):
        s = state_of(
            car("ego", 90, y=0),
            car("f", 50, y=0, speed=5.0),
            car("behind", 10, y=0),
            car("other_lane", 60, y=2.0),
        )
        gap, lead = lead_gap(s, "f", two_lane_map)
        assert lead.id == "ego"
        assert gap == pytest.approx(40.0 - 4.5)


class TestReactiveFollow:
    def test_free_road_acceleration_from_rest(self):
        pol = ReactiveFollowPolicy()
        a = pol.acceleration(0.0, 100.0, None)
        assert a == pytest.approx(1.5 * (1.0 - (2.0 / 100.0) ** 2), abs=1e-9)
        assert a == pytest.approx(1.4994, abs=1e-4)

    def test_standstill_at_jam_gap(self, straight_map):
        pol = ReactiveFollowPolicy()
        assert pol.acceleration(0.0, 2.0, 0.0) <= 0.0
        s = state_of(car("ego", 100), car("f", 20, speed=0.0), car("l", 26.5, speed=0.0))
        d = policy_act(pol, "f", s, straight_map)
        assert d.control.v == 0.0

    def test_holds_near_free_speed(self):
        pol = ReactiveFollowPolicy()
        a = pol.acceleration(10.0, 100.0, None)
        s_star = 2.0 + 10.0 * 1.5
        assert a == pytest.approx(-1.5 * (s_star / 100.0) ** 2, abs=1e-9)
        assert abs(a) < 0.05

    def test_brakes_behind_static_lead(self, straight_map):
        pol = ReactiveFollowPolicy()
        s = state_of(car("ego", 100), car("f", 20, speed=8.0), car("l", 29.5, speed=0.0))
        d = policy_act(pol, "f", s, straight_map)
        assert d.control.v < 8.0

    def test_no_lane_falls_back_to_constant(self):
        from drivesim.core import SemanticMap

        pol = ReactiveFollowPolicy()
        s = state_of(car("ego", 0), car("f", 10, speed=6.0))
        d = policy_act(pol, "f", s, SemanticMap(lanes=()))
        assert (d.control.phi, d.control.v) == (0.0, 6.0)

    def test_never_collides_with_safe_initial_gap(self, straight_map):
        # gap > v^2/(2b) + s0 guarantees no contact under the braking law
        from drivesim.core import agent_obb, obb_overlap

        pol = ReactiveFollowPolicy(dt=0.1)
        v = 8.0
        gap = v * v / (2 * pol.b) + pol.s0 + 1.0
        follower = car("f", 20, speed=v)
        lead = car("l", 20 + 4.5 + gap, speed=0.0)
        s = state_of(car("ego", 150), follower, lead)
        for t in range(1, 200):
            d = policy_act(pol, "f", s, straight_map)
            follower = advance(s.agent("f"), d.control, 0.1)
            s = SimState(step_index=t, agents=(s.agent("ego"), follower, lead), ego_id="ego")
            assert not obb_overlap(agent_obb(follower), agent_obb(lead))


class TestPathOverride:
    def test_straight_path_constant_inner(self, straight_map):
        path = np.array([[0.0, 0.0], [100.0, 0.0]])
        pol = PathOverridePolicy(ConstantVelocityPolicy(), path)
        s = state_of(car("ego", 90), car("a", 10, speed=5.0))
        d = policy_act(pol, "a", s, straight_map)
        assert d.control.phi == pytest.approx(0.0, abs=1e-9)
        assert d.control.v == 5.0

    def test_left_curve_steers_left(self, straight_map):
        path = np.array([[0.0, 0.0], [10.0, 0.0], [15.0, 3.0], [18.0, 8.0]])
        pol = PathOverridePolicy(ConstantVelocityPolicy(), path)
        s = state_of(car("ego", 90), car("a", 8.0, speed=5.0))
        d = policy_act(pol, "a", s, straight_map)
        assert d.control.phi > 0.0

    def test_beyond_end_holds_heading(self, straight_map):
        path = np.array([[0.0, 0.0], [10.0, 0.0]])
        pol = PathOverridePolicy(ConstantVelocityPolicy(), path)
        s = state_of(car("ego", 90), car("a", 15.0, speed=5.0))
        d = policy_act(pol, "a", s, straight_map)
        assert d.control.phi == 0.0 and d.control.v == 5.0

    def test_reactive_inner_decelerates_on_path(self, straight_map):
        path = np.array([[0.0, 0.0], [100.0, 0.0]])
        pol = PathOverridePolicy(ReactiveFollowPolicy(), path)
        s = state_of(car("ego", 100), car("a", 20, speed=8.0), car("l", 30.0, speed=0.0))
        d = policy_act(pol, "a", s, straight_map)
        assert d.control.v < 8.0  # braking decision passes through the wrapper
        assert abs(d.control.phi) < 1e-6


class TestFeatures:
    def test_shapes_and_caps(self, straight_map):
        fx = FeatureExtractor(dt=0.1)
        s = state_of(car("ego", 150), car("a", 10, y=0.8, yaw=0.1, speed=6.0))
        f = fx.features(s, "a", straight_map)
        assert f.shape == (N_FEATURES,)
        assert np.all(np.isfinite(f))
        assert f[0] == 6.0
        assert f[1] <= 100.0
        assert f[3] == pytest.approx(0.8)
        assert f[4] == pytest.approx(0.1)
        assert f[7] == 1.0

    def test_red_light_distance(self, lit_map):
        fx = FeatureExtractor(dt=1.0)
        agent = car("a", 40.0, speed=5.0)
        s = state_of(car("ego", 5.0), agent, step=15)  # t=15s: crossing is red
        f = fx.features(s, "a", lit_map)
        assert f[6] == pytest.approx(20.0)  # lane entry at arclength 60
        s_green = state_of(car("ego", 5.0), agent, step=5)  # t=5s: green
        f_green = fx.features(s_green, "a", lit_map)
        assert f_green[6] == 100.0


class TestMlpForward:
    def test_zero_weights_analytic(self):
        m = init_mlp((N_FEATURES, 4, 2), seed=0)
        for w in m.weights:
            w[:] = 0.0
        c = mlp_forward(m, np.zeros(N_FEATURES))
        assert c.phi == 0.0
        assert c.v == pytest.approx(m.v_max * 0.5)

    def test_matches_duplicate_implementation(self):
        rng = np.random.default_rng(17)
        m = init_mlp((N_FEATURES, 32, 32, 2), seed=3)
        for _ in range(50):
            f = rng.normal(size=N_FEATURES)
            # independent straightforward reimplementation
            h = f.copy()
            for k, (w, b) in enumerate(zip(m.weights, m.biases)):
                raw = np.array([sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])])
                h = np.tanh(raw) if k < len(m.weights) - 1 else raw
            want_phi = m.phi_max * math.tanh(h[0])
            want_v = m.v_max / (1.0 + math.exp(-h[1]))
            c = mlp_forward(m, f)
            assert c.phi == pytest.approx(want_phi, abs=1e-12)
            assert c.v == pytest.approx(want_v, abs=1e-12)

    def test_outputs_bounded(self):
        rng = np.random.default_rng(19)
        m = init_mlp(seed=5)
        for _ in range(200):
            c = mlp_forward(m, rng.normal(scale=50.0, size=N_FEATURES))
            assert abs(c.phi) <= m.phi_max
            assert 0.0 <= c.v <= m.v_max

    def test_rejects_bad_shapes_and_nonfinite(self):
        m = init_mlp(seed=0)
        with pytest.raises(ValueError):
            mlp_forward(m, np.zeros(3))
        m.weights[0][0, 0] = math.nan
        with pytest.raises(ValueError):
            mlp_forward(m, np.zeros(N_FEATURES))


class TestMlpTraining:
    def make_dataset(self, n=64, seed=23):
        rng = np.random.default_rng(seed)
        data = []
        for _ in range(n):
            f = rng.normal(size=N_FEATURES)
            data.append((f, Control(0.4 * math.tanh(f[0]), 5.0 + 2.0 * math.tanh(f[1]))))
        return data

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(29)
        m = init_mlp((N_FEATURES, 8, 8, 2), seed=7)
        x = rng.normal(size=(16, N_FEATURES))
        t = rng.normal(size=(16, 2))
        _, gw, gb = mlp_loss_and_grads(m, x, t)
        eps = 1e-5
        checks = 0
        while checks < 20:
            layer = int(rng.integers(len(m.weights)))
            if rng.random() < 0.8:
                i = int(rng.integers(m.weights[layer].shape[0]))
                j = int(rng.integers(m.weights[layer].shape[1]))
                analytic = gw[layer][i, j]
                m.weights[layer][i, j] += eps
                up = mlp_loss(m, x, t)
                m.weights[layer][i, j] -= 2 * eps
                down = mlp_loss(m, x, t)
                m.weights[layer][i, j] += eps
            else:
                j = int(rng.integers(m.biases[layer].shape[0]))
                analytic = gb[layer][j]
                m.biases[layer][j] += eps
                up = mlp_loss(m, x, t)
                m.biases[layer][j] -= 2 * eps
                down = mlp_loss(m, x, t)
                m.biases[layer][j] += eps
            numeric = (up - down) / (2 * eps)
            if abs(numeric) < 1e-12 and abs(analytic) < 1e-12:
                continue
            assert abs(analytic - numeric) / max(abs(numeric), abs(analytic)) < 1e-4
            checks += 1

    def test_single_sample_convergence(self):
        f = np.ones(N_FEATURES)
        data = [(f, Control(0.3, 6.0))] * 8
        losses = []
        m = mlp_train(data, TrainConfig(lr=1e-2, epochs=60, seed=1), on_epoch=lambda e, l: losses.append(l))
        assert losses[-1] < 1e-3
        first10 = losses[:10]
        assert all(b <= a + 1e-12 for a, b in zip(first10, first10[1:]))

    def test_loss_nonincreasing_small_lr(self):
        data = self.make_dataset()
        losses = []
        mlp_train(data, TrainConfig(lr=1e-3, epochs=20, seed=2), on_epoch=lambda e, l: losses.append(l))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_beats_all_zero_model_on_teacher_data(self, straight_map):
        # teacher-generated driving data: the trained model must fit better
        # than the all-zero baseline (phi=0, v=v_max/2)
        from drivesim.engine import SimConfig, assign_policies, unroll
        from drivesim.policies import controls_to_targets, init_mlp

        episodes = []
        for seed in range(8):
            s = state_of(
                car("ego", 120.0, speed=4.0),
                car("a", 10.0, speed=float(2 + seed % 5)),
                car("b", 40.0, speed=2.0),
            )
            cfg = SimConfig(dt=0.1, horizon_steps=30, seed=seed, interrupt_on_ego_collision=False)
            policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
            episodes.append(unroll(s, policies, straight_map, cfg))
        data = build_bc_dataset(episodes, straight_map)
        assert data
        model = mlp_train(data, TrainConfig(lr=1e-3, batch=64, epochs=30, seed=3))
        zero = init_mlp((N_FEATURES, 32, 32, 2), seed=0)
        for w in zero.weights:
            w[:] = 0.0
        x = np.asarray([f for f, _ in data])
        t = controls_to_targets([c for _, c in data], model.phi_max, model.v_max)
        assert mlp_loss(model, x, t) < mlp_loss(zero, x, t)

    def test_seeded_training_bit_identical(self):
        data = self.make_dataset()
        m1 = mlp_train(data, TrainConfig(epochs=5, seed=9))
        m2 = mlp_train(data, TrainConfig(epochs=5, seed=9))
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            mlp_train([])


class TestWeightsFile:
    def test_roundtrip(self, tmp_path):
        m = init_mlp(seed=31)
        path = tmp_path / "weights.json"
        save_mlp(m, path)
        again = load_mlp(path)
        assert again.layer_sizes == m.layer_sizes
        assert again.phi_max == m.phi_max and again.v_max == m.v_max
        for w1, w2 in zip(m.weights, again.weights):
            assert np.array_equal(w1, w2)

    def test_rejects_shape_mismatch(self, tmp_path):
        import json

        m = init_mlp(seed=31)
        path = tmp_path / "weights.json"
        save_mlp(m, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"] = doc["layers"][0]["weights"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_mlp(path)


class TestBcDataset:
    def straight_episode(self, n_frames, dt=0.1, speed=5.0, smap_id="straight"):
        states = []
        for t in range(n_frames):
            ego = car("ego", 100.0, y=-20.0)
            a = AgentState(
                id="a", pose=Pose2(10.0 + speed * dt * t, 0.0, 0.0), extent=(4.5, 2.0), speed=speed
            )
            states.append(SimState(step_index=t, agents=(ego, a), ego_id="ego"))
        return Episode(dt=dt, map_id=smap_id, states=tuple(states))

    def test_single_frame_gives_nothing(self, straight_map):
        ep = self.straight_episode(1)
        assert build_bc_dataset([ep], straight_map) == []

    def test_history_rule_counts(self, straight_map):
        # 21 frames at dt 0.1: agents need strictly more than 1 s of history,
        # so targets are steps 11..20 -> 10 samples per moving agent
        ep = self.straight_episode(21)
        data = build_bc_dataset([ep], straight_map)
        assert len(data) == 2 * 10  # ego and the one agent both qualify

    def test_constant_speed_labels(self, straight_map):
        ep = self.straight_episode(21, speed=5.0)
        data = build_bc_dataset([ep], straight_map)
        moving = [c for f, c in data if c.v > 1.0]
        assert len(moving) == 10
        for c in moving:
            assert c.phi == pytest.approx(0.0, abs=1e-9)
            assert c.v == pytest.approx(5.0, abs=1e-9)

    def test_mismatched_dt_errors(self, straight_map):
        e1 = self.straight_episode(3, dt=0.1)
        e2 = self.straight_episode(3, dt=0.2)
        with pytest.raises(ValueError):
            build_bc_dataset([e1, e2], straight_map)


class TestMlpPolicy:
    def test_rejects_infinite_weight_that_forward_hides(self):
        m = init_mlp((N_FEATURES, 4, 2), seed=41)
        m.weights[0][N_FEATURES - 1, 0] = math.inf  # fed by the constant bias feature
        # tanh saturates, so a forward pass still gives a finite control
        c = mlp_forward(m, np.ones(N_FEATURES))
        assert math.isfinite(c.phi) and math.isfinite(c.v)
        with pytest.raises(ValueError, match="non-finite"):
            MlpPolicy(m, FeatureExtractor(dt=0.1))

    @pytest.mark.parametrize("sizes", [(N_FEATURES, 4, 1), (N_FEATURES, 4, 3), (N_FEATURES - 1, 4, 2)])
    def test_rejects_wrong_layer_sizes(self, sizes):
        with pytest.raises(ValueError, match="layer sizes"):
            MlpPolicy(init_mlp(sizes, seed=41), FeatureExtractor(dt=0.1))

    def test_acts_with_bounded_controls(self, straight_map):
        pol = MlpPolicy(init_mlp(seed=41), FeatureExtractor(dt=0.1))
        s = state_of(car("ego", 50), car("a", 10, speed=4.0))
        d = policy_act(pol, "a", s, straight_map)
        assert abs(d.control.phi) <= pol.mlp.phi_max
        assert 0 <= d.control.v <= pol.mlp.v_max
