import math

import numpy as np
import pytest

from drivesim.core import AgentState, Pose2, normalize_angle
from drivesim.kinematics import DEFAULT_PHI_MAX, Control, advance, fit_controls


def make_agent(x=0.0, y=0.0, yaw=0.0, speed=0.0):
    return AgentState(id="a", pose=Pose2(x, y, yaw), extent=(4.5, 2.0), speed=speed)


class TestAdvance:
    def test_straight_line(self):
        out = advance(make_agent(), Control(0.0, 10.0), 0.1)
        assert (out.pose.x, out.pose.y, out.pose.yaw) == pytest.approx((1.0, 0.0, 0.0))
        assert out.speed == 10.0

    def test_rotate_in_place(self):
        out = advance(make_agent(), Control(1.0, 0.0), 0.1)
        assert (out.pose.x, out.pose.y) == (0.0, 0.0)
        assert out.pose.yaw == pytest.approx(0.1)

    def test_preserves_identity_fields(self):
        agent = make_agent(speed=3.0)
        out = advance(agent, Control(0.2, 4.0), 0.1)
        assert out.id == agent.id and out.extent == agent.extent and out.kind == agent.kind

    def test_displacement_magnitude_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            agent = make_agent(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3))
            c = Control(rng.uniform(-1.5, 1.5), rng.uniform(0, 15))
            dt = rng.uniform(0.05, 0.2)
            out = advance(agent, c, dt)
            d = math.hypot(out.pose.x - agent.pose.x, out.pose.y - agent.pose.y)
            assert d == pytest.approx(c.v * dt, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            Control(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Control(0.0, -1.0)

    def test_circular_arc_against_closed_form(self):
        # phi=0.5, v=5 -> continuous-time circle of radius v/phi = 10 m and
        # period 4*pi s; 126 steps of 0.1 s is one full turn and change
        agent = make_agent(yaw=0.3)
        start = agent.pose
        positions = []
        for _ in range(126):
            agent = advance(agent, Control(0.5, 5.0), 0.1)
            positions.append((agent.pose.x, agent.pose.y))
        assert math.hypot(agent.pose.x - start.x, agent.pose.y - start.y) < 0.35
        pts = np.asarray(positions)
        center = pts.mean(axis=0)
        radii = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
        assert abs(radii.mean() - 10.0) / 10.0 < 0.02


class TestFitControls:
    def test_straight(self):
        c = fit_controls(Pose2(0, 0, 0), Pose2(1, 0, 0), 0.1)
        assert (c.phi, c.v) == pytest.approx((0.0, 10.0))

    def test_identity(self):
        c = fit_controls(Pose2(2, 3, 0.4), Pose2(2, 3, 0.4), 0.1)
        assert (c.phi, c.v) == (0.0, 0.0)

    def test_phi_clamped(self):
        c = fit_controls(Pose2(0, 0, 0), Pose2(0, 0, 1.0), 0.1)
        assert c.phi == DEFAULT_PHI_MAX

    def test_roundtrip_control_recovery(self):
        # oracle is advance itself: fitting its output recovers the control
        rng = np.random.default_rng(11)
        for _ in range(1000):
            agent = make_agent(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-3, 3))
            c = Control(rng.uniform(-DEFAULT_PHI_MAX, DEFAULT_PHI_MAX), rng.uniform(0, 15))
            dt = 0.1
            out = advance(agent, c, dt)
            fitted = fit_controls(agent.pose, out.pose, dt)
            assert fitted.phi == pytest.approx(c.phi, abs=1e-9)
            assert fitted.v == pytest.approx(c.v, abs=1e-9)

    def test_roundtrip_pose_recovery(self):
        # reachable poses (displacement aligned with target yaw) come back exactly
        rng = np.random.default_rng(13)
        for _ in range(1000):
            frm = Pose2(rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3, 3))
            yaw = normalize_angle(frm.yaw + rng.uniform(-0.14, 0.14))
            dist = rng.uniform(0, 1.5)
            to = Pose2(frm.x + dist * math.cos(yaw), frm.y + dist * math.sin(yaw), yaw)
            agent = AgentState(id="a", pose=frm, extent=(4.5, 2.0), speed=0.0)
            replayed = advance(agent, fit_controls(frm, to, 0.1), 0.1)
            assert math.hypot(replayed.pose.x - to.x, replayed.pose.y - to.y) < 1e-9
            assert abs(normalize_angle(replayed.pose.yaw - to.yaw)) < 1e-9
