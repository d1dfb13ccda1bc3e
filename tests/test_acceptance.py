"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight shared
artifacts (teacher episodes, trained models) are module-scoped fixtures.
"""
import json
import math
import time

import numpy as np
import pytest

from drivesim.cli import main as cli_main
from drivesim.core import (
    AgentState,
    Lane,
    Obb,
    Pose2,
    SemanticMap,
    SimState,
    TrafficLight,
    obb_overlap,
    save_map,
)
from drivesim.engine import (
    SimConfig,
    assign_policies,
    run_mode,
    stream_rng,
    unroll,
)
from drivesim.initstate import ProceduralConfig, sample_location, sample_state_procedural
from drivesim.kinematics import DEFAULT_PHI_MAX, Control, advance, fit_controls
from drivesim.metrics import (
    constant_speed_log,
    planner_eval,
    reactivity,
    realism_report,
    simulate_against_logs,
    static_lead_suite,
)
from drivesim.policies import (
    BrakeToStopPolicy,
    ConstantVelocityPolicy,
    FeatureExtractor,
    LogReplayPolicy,
    MlpPolicy,
    ReactiveFollowPolicy,
    TrainConfig,
    build_bc_dataset,
    init_mlp,
    mlp_loss,
    mlp_loss_and_grads,
    mlp_train,
)
from drivesim.raster import connected_components, extract_from_channel, render

from conftest import obb_separation_margin, sample_obb_oracle
from test_raster import union_find_components

HORIZONS = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared worlds


@pytest.fixture(scope="module")
def straight_world():
    lane = Lane(id="main", centerline=np.array([[0.0, 0.0], [200.0, 0.0]]), width=3.5)
    return SemanticMap(lanes=(lane,), map_id="straight")


@pytest.fixture(scope="module")
def training_world():
    straight = Lane(id="s", centerline=np.array([[0.0, 0.0], [400.0, 0.0]]), width=3.5)
    theta = np.linspace(-math.pi / 2, 0.0, 60)
    arc_pts = np.stack([60.0 * np.cos(theta), 100.0 + 60.0 * np.sin(theta)], axis=1)
    arc = Lane(id="c", centerline=arc_pts, width=3.5)
    return SemanticMap(lanes=(straight, arc), map_id="training")


def teacher_episode(smap, seed, horizon=50):
    cfg = SimConfig(dt=0.1, horizon_steps=horizon, seed=seed, interrupt_on_ego_collision=False)
    loc = sample_location(smap, stream_rng(seed, "location"))
    proc = ProceduralConfig(agents_mean=6.0, min_gap=10.0, speed_range=(0.0, 10.0))
    s1 = sample_state_procedural(smap, loc, proc, stream_rng(seed, "initstate"))
    teacher = ReactiveFollowPolicy(dt=0.1)
    return unroll(s1, assign_policies(s1, teacher), smap, cfg)


@pytest.fixture(scope="module")
def teacher_episodes(training_world):
    return [teacher_episode(training_world, 1000 + k) for k in range(1000)]


@pytest.fixture(scope="module")
def held_out_episodes(training_world):
    return [teacher_episode(training_world, 9000 + k) for k in range(20)]


# ---------------------------------------------------------------------------
# 1. Log-replay realism: displacement exactly zero


def test_criterion_1_log_replay_realism(training_world, held_out_episodes):
    t0 = time.monotonic()
    sims = []
    for gt in held_out_episodes:
        cfg = SimConfig(dt=0.1, horizon_steps=len(gt.states) - 1, seed=0)
        sims.append(
            run_mode(
                "scenario",
                smap=training_world,
                cfg=cfg,
                make_policies=lambda s1, log=gt: assign_policies(s1, LogReplayPolicy(log)),
                s1=gt.states[0],
            )
        )
    rep = realism_report(sims, held_out_episodes, HORIZONS)
    elapsed = time.monotonic() - t0
    ok = all(d <= 1e-9 for d in rep.mean_l2) and elapsed < 5.0
    report(
        1,
        ok,
        f"scenario replay of 20 logs, displacement {max(rep.mean_l2):.2e} m "
        f"(tol 1e-9) at horizons 0.5-5 s in {elapsed:.1f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. Reactivity contrast on the 100-scene static-lead suite


def test_criterion_2_reactivity_contrast(straight_world):
    t0 = time.monotonic()
    cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
    suite = static_lead_suite(
        straight_world, n_scenes=100, gap_range=(10.0, 40.0), speed_range=(5.0, 12.0), seed=12345
    )
    non_reactive = reactivity(
        suite,
        lambda scene: LogReplayPolicy(constant_speed_log(scene, cfg, straight_world)),
        cfg,
        straight_world,
    )
    reactive = reactivity(suite, ReactiveFollowPolicy(dt=0.1), cfg, straight_world)
    elapsed = time.monotonic() - t0
    ok = non_reactive.reactivity <= 0.05 and reactive.reactivity >= 0.95 and elapsed < 30.0
    report(
        2,
        ok,
        f"log-replay follower {non_reactive.reactivity:.2f} (<= 0.05), "
        f"reactive follower {reactive.reactivity:.2f} (>= 0.95) on 100 scenes in {elapsed:.1f}s (< 30s)",
    )


# ---------------------------------------------------------------------------
# 3. Data-scaling trend for the cloned policy


def test_criterion_3_data_scaling_trend(training_world, teacher_episodes, held_out_episodes):
    t0 = time.monotonic()
    errors = {}
    for n in (10, 100, 1000):
        data = build_bc_dataset(teacher_episodes[:n], training_world)
        epochs = max(1, round(8000 * 128 / len(data)))
        model = mlp_train(data, TrainConfig(lr=1e-3, batch=128, epochs=epochs, seed=7))
        policy = MlpPolicy(model, FeatureExtractor(dt=0.1))
        sims = simulate_against_logs(
            held_out_episodes,
            lambda s1, log: assign_policies(s1, policy),
            training_world,
            SimConfig(dt=0.1, horizon_steps=50, seed=0),
        )
        errors[n] = realism_report(sims, held_out_episodes, [5.0]).mean_l2[0]
    elapsed = time.monotonic() - t0
    e10, e100, e1000 = errors[10], errors[100], errors[1000]
    ok = e10 >= e100 >= e1000 and e1000 < e10 and elapsed < 600.0
    report(
        3,
        ok,
        f"closed-loop displacement at 5 s: 10 eps {e10:.2f} m >= 100 eps {e100:.2f} m "
        f">= 1000 eps {e1000:.2f} m (strictly better than 10) in {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 4. Planner-evaluation discrepancy: rear collisions vs passiveness


def crossing_map():
    lanes = (
        Lane(id="ew_in", centerline=np.array([[-90.0, 0.0], [-6.0, 0.0]]), width=3.5,
             successors=("ew_cross",)),
        Lane(id="ew_cross", centerline=np.array([[-6.0, 0.0], [6.0, 0.0]]), width=3.5,
             successors=("ew_out",), light_id="l_ew"),
        Lane(id="ew_out", centerline=np.array([[6.0, 0.0], [90.0, 0.0]]), width=3.5),
        Lane(id="ns_in", centerline=np.array([[0.0, -90.0], [0.0, -6.0]]), width=3.5,
             successors=("ns_cross",)),
        Lane(id="ns_cross", centerline=np.array([[0.0, -6.0], [0.0, 6.0]]), width=3.5,
             successors=("ns_out",), light_id="l_ns"),
        Lane(id="ns_out", centerline=np.array([[0.0, 6.0], [0.0, 90.0]]), width=3.5),
    )
    lights = (
        TrafficLight(id="l_ew", schedule=((0.0, 3600.0, "green"),)),
        TrafficLight(id="l_ns", schedule=((0.0, 3600.0, "red"),)),
    )
    return SemanticMap(lanes=lanes, lights=lights, map_id="crossing")


def test_criterion_4_planner_discrepancy():
    t0 = time.monotonic()
    smap = crossing_map()
    rng = stream_rng(0, "planner-fixtures")
    scenes = []
    for _ in range(20):
        d0 = float(rng.uniform(25.0, 35.0))
        v = float(rng.uniform(7.0, 9.0))
        gap = float(rng.uniform(8.0, 14.0))
        ego_x = -6.0 - d0
        ego = AgentState(id="ego", pose=Pose2(ego_x, 0.0, 0.0), extent=(4.5, 2.0), speed=v)
        trailer = AgentState(
            id="trailer", pose=Pose2(ego_x - 4.5 - gap, 0.0, 0.0), extent=(4.5, 2.0), speed=v
        )
        scenes.append(SimState(0, (ego, trailer), "ego"))

    cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0)
    ref_cfg = SimConfig(dt=0.1, horizon_steps=50, seed=0, interrupt_on_ego_collision=False)
    stop_at_green = BrakeToStopPolicy(dt=0.1, decel=3.5)
    references, replay_runs, reactive_runs = [], [], []
    for scene in scenes:
        ref_policies = {"ego": ConstantVelocityPolicy(), "trailer": ReactiveFollowPolicy(dt=0.1)}
        ref = unroll(scene, ref_policies, smap, ref_cfg)
        references.append(ref)
        replay_runs.append(
            unroll(scene, {"ego": stop_at_green, "trailer": LogReplayPolicy(ref)}, smap, cfg)
        )
        reactive_runs.append(
            unroll(scene, {"ego": stop_at_green, "trailer": ReactiveFollowPolicy(dt=0.1)}, smap, cfg)
        )
    under_replay = planner_eval(replay_runs, references)
    under_reactive = planner_eval(reactive_runs, references)
    elapsed = time.monotonic() - t0
    ok = (
        under_replay.rear_collisions >= 10
        and under_reactive.rear_collisions == 0
        and under_reactive.passiveness > under_replay.passiveness
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"rear collisions {under_replay.rear_collisions} -> {under_reactive.rear_collisions} "
        f"(>= 10 -> 0), passiveness {under_replay.passiveness} -> {under_reactive.passiveness} "
        f"(strictly greater) over 20 fixtures in {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 5. Raster round trip and connected components vs union-find


def test_criterion_5_raster_round_trip(straight_world):
    rng = np.random.default_rng(555)
    slots = [(x, y) for x in (-20.0, -10.0, 0.0, 10.0, 20.0) for y in (-8.0, 0.0, 8.0)]
    failures = 0
    for scene_idx in range(50):
        k = int(rng.integers(3, 9))
        chosen = rng.choice(len(slots), size=k, replace=False)
        agents = []
        for i, slot in enumerate(chosen):
            x0, y0 = slots[slot]
            agents.append(
                AgentState(
                    id=f"a{i}",
                    pose=Pose2(
                        x0 + rng.uniform(-2.0, 2.0),
                        y0 + rng.uniform(-0.5, 0.5),
                        rng.uniform(-math.pi, math.pi),
                    ),
                    extent=(4.0, 2.0),
                    speed=0.0,
                )
            )
        ego = AgentState(id="ego", pose=Pose2(0.0, -16.0, 0.0), extent=(4.5, 2.0), speed=0.0)
        state = SimState(0, (ego, *agents), "ego")
        grid = render(state, straight_world, center=Pose2(0.0, 0.0, 0.0), resolution=0.5, size_px=128)

        comps = connected_components(grid.channels["agents"])
        got = set(frozenset(map(tuple, c)) for c in comps)
        if got != union_find_components(grid.channels["agents"]):
            failures += 1
            continue
        extracted = extract_from_channel(grid, "agents")
        if len(extracted) != len(agents):
            failures += 1
            continue
        # pair each blob with its nearest true agent (scenes are separated
        # by construction, so the match is unambiguous)
        for blob in extracted:
            nearest = min(
                math.hypot(blob.centroid[0] - a.pose.x, blob.centroid[1] - a.pose.y)
                for a in agents
            )
            if nearest > 0.5:
                failures += 1
                break

    rng2 = np.random.default_rng(556)
    for _ in range(20):
        plane = (rng2.random((32, 32)) < 0.35).astype(np.uint8)
        got = set(frozenset(map(tuple, c)) for c in connected_components(plane))
        if got != union_find_components(plane):
            failures += 1
    ok = failures == 0
    report(
        5,
        ok,
        f"50 random scenes: agent count exact, centroids within 1 px (0.5 m); "
        f"components match union-find on all planes ({failures} failures)",
    )


# ---------------------------------------------------------------------------
# 6. Kinematics closed forms and inversion round trip


def test_criterion_6_kinematics():
    agent = AgentState(id="a", pose=Pose2(0, 0, 0.3), extent=(4.5, 2.0), speed=0.0)
    start = agent.pose
    positions = []
    for _ in range(126):
        agent = advance(agent, Control(0.5, 5.0), 0.1)
        positions.append((agent.pose.x, agent.pose.y))
    pts = np.asarray(positions)
    center = pts.mean(axis=0)
    radius = float(np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1]).mean())
    closure = math.hypot(agent.pose.x - start.x, agent.pose.y - start.y)

    straight = advance(
        AgentState(id="b", pose=Pose2(0, 0, 0), extent=(4.5, 2.0), speed=0.0),
        Control(0.0, 10.0),
        0.1,
    )

    rng = np.random.default_rng(66)
    worst = 0.0
    for _ in range(1000):
        z = AgentState(
            id="z",
            pose=Pose2(rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(-3, 3)),
            extent=(4.5, 2.0),
            speed=0.0,
        )
        c = Control(rng.uniform(-DEFAULT_PHI_MAX, DEFAULT_PHI_MAX), rng.uniform(0, 15))
        out = advance(z, c, 0.1)
        fitted = fit_controls(z.pose, out.pose, 0.1)
        worst = max(worst, abs(fitted.phi - c.phi), abs(fitted.v - c.v))

    ok = (
        abs(radius - 10.0) / 10.0 < 0.02
        and closure < 0.35
        and math.hypot(straight.pose.x - 1.0, straight.pose.y) < 1e-12
        and worst < 1e-9
    )
    report(
        6,
        ok,
        f"arc radius {radius:.3f} m (within 2% of v/phi=10), closure {closure:.2f} m, "
        f"control round-trip worst error {worst:.1e} (< 1e-9) over 1000 cases",
    )


# ---------------------------------------------------------------------------
# 7. Training numerics: gradient check and bit-reproducibility


def test_criterion_7_training_numerics():
    rng = np.random.default_rng(77)
    m = init_mlp((8, 16, 16, 2), seed=3)
    x = rng.normal(size=(24, 8))
    t = rng.normal(size=(24, 2))
    _, gw, gb = mlp_loss_and_grads(m, x, t)
    eps = 1e-5
    worst = 0.0
    checks = 0
    while checks < 20:
        layer = int(rng.integers(len(m.weights)))
        i = int(rng.integers(m.weights[layer].shape[0]))
        j = int(rng.integers(m.weights[layer].shape[1]))
        analytic = gw[layer][i, j]
        m.weights[layer][i, j] += eps
        up = mlp_loss(m, x, t)
        m.weights[layer][i, j] -= 2 * eps
        down = mlp_loss(m, x, t)
        m.weights[layer][i, j] += eps
        numeric = (up - down) / (2 * eps)
        if abs(numeric) < 1e-12:
            continue
        worst = max(worst, abs(analytic - numeric) / max(abs(numeric), abs(analytic)))
        checks += 1

    data = [
        (rng.normal(size=8), Control(0.2 * math.tanh(v), 4.0 + abs(v)))
        for v in rng.normal(size=200)
    ]
    m1 = mlp_train(data, TrainConfig(epochs=5, seed=11))
    m2 = mlp_train(data, TrainConfig(epochs=5, seed=11))
    identical = all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights)) and all(
        np.array_equal(a, b) for a, b in zip(m1.biases, m2.biases)
    )
    ok = worst < 1e-4 and identical
    report(
        7,
        ok,
        f"gradients vs central differences: worst relative error {worst:.2e} (< 1e-4) "
        f"on 20 probes; fixed-seed training bit-identical: {identical}",
    )


# ---------------------------------------------------------------------------
# 8. Determinism under parallelism (CLI, 1 vs 8 workers)


def test_criterion_8_parallel_determinism(tmp_path, straight_world):
    save_map(straight_world, tmp_path / "map.json")
    rng = np.random.default_rng(88)
    mismatches = 0
    for k in range(10):
        doc = {
            "sim": {
                "dt": 0.1,
                "horizon": int(rng.integers(20, 41)),
                "seed": int(rng.integers(0, 10_000)),
                "noise": [float(rng.uniform(0, 0.05)), float(rng.uniform(0, 0.2))],
            },
            "mode": {
                "name": "journey" if rng.random() < 0.5 else "full",
                "map": "map.json",
                "location": [float(rng.uniform(20, 150)), 0.0, 0.0],
                "procedural": {
                    "agents_mean": float(rng.uniform(3, 8)),
                    "min_gap": 8.0,
                    "speed_range": [0.0, 10.0],
                },
            },
            "policies": {"default": "reactive_follow" if rng.random() < 0.7 else "constant"},
            "ego": {"controller": "constant"},
        }
        cfg_path = tmp_path / f"cfg_{k}.json"
        cfg_path.write_text(json.dumps(doc))
        outs = []
        for jobs in ("1", "8"):
            out = tmp_path / f"out_{k}_{jobs}.jsonl"
            rc = cli_main(
                ["simulate", "--config", str(cfg_path), "--jobs", jobs, "--out", str(out)]
            )
            assert rc == 0
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            mismatches += 1
    ok = mismatches == 0
    report(
        8,
        ok,
        f"10 random configs, 1 vs 8 workers: {10 - mismatches}/10 byte-identical episode logs",
    )


# ---------------------------------------------------------------------------
# 9. Collision oracle agreement


def test_criterion_9_collision_oracle():
    rng = np.random.default_rng(2024)
    n = 100_000
    disagreements = 0
    margins = []

    def random_obb():
        return Obb(
            center=(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            half_extents=(rng.uniform(0.25, 1.5), rng.uniform(0.25, 1.5)),
            yaw=rng.uniform(-math.pi, math.pi),
        )

    for _ in range(n):
        a, b = random_obb(), random_obb()
        got = obb_overlap(a, b)
        if got != sample_obb_oracle(a, b):
            # densify the sampling before declaring a disagreement
            if got != sample_obb_oracle(a, b, grid_n=300):
                disagreements += 1
                margins.append(abs(obb_separation_margin(a, b)))
    agreement = 1.0 - disagreements / n
    ok = agreement >= 0.999 and all(m < 1e-3 for m in margins)
    report(
        9,
        ok,
        f"agreement with the point-sampling oracle on {n} random pairs: {agreement:.5f} "
        f"(>= 0.999), {disagreements} disagreements, all within 1e-3 m of tangency",
    )
