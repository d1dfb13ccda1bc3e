"""The four benchmark workloads.

Each workload writes its inputs (maps, run configs, seed-state logs) from
the workload seed with the benchmark's own code, so the program only ever
receives generated files. An iteration is a fixed batch of operations
issued one after another by a single client (closed loop): CLI commands
through `drivesim.cli.main(argv)`, or, for the raster layer that no
command uses, library calls. Every operation's output is checked.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

JOBS = "2"  # every simulating command; equals nproc on the reference box
DT = 0.1
HORIZON = 50
VEHICLE = (4.5, 2.0)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Maps and seed states, generated without calling the program


def eight_lane_map() -> dict:
    """8 parallel 400 m lanes, 3.5 m apart."""
    lanes = [
        {"id": f"l{k}", "centerline": [[0.0, 3.5 * k], [400.0, 3.5 * k]], "width": 3.5, "successors": []}
        for k in range(8)
    ]
    return {"map_id": "eight_lane", "lanes": lanes, "crosswalks": [], "lights": []}


ARC_CENTER = (0.0, 100.0)
ARC_RADIUS = 60.0


def training_map() -> dict:
    """A 400 m straight lane plus a quarter-circle arc of 59 segments."""
    arc = []
    for k in range(60):
        theta = -math.pi / 2 + (math.pi / 2) * k / 59
        arc.append([ARC_CENTER[0] + ARC_RADIUS * math.cos(theta), ARC_CENTER[1] + ARC_RADIUS * math.sin(theta)])
    lanes = [
        {"id": "s", "centerline": [[0.0, 0.0], [400.0, 0.0]], "width": 3.5, "successors": []},
        {"id": "c", "centerline": arc, "width": 3.5, "successors": []},
    ]
    return {"map_id": "training", "lanes": lanes, "crosswalks": [], "lights": []}


def straight_map() -> dict:
    """One 200 m lane (the static-lead suite's road)."""
    lanes = [{"id": "main", "centerline": [[0.0, 0.0], [200.0, 0.0]], "width": 3.5, "successors": []}]
    return {"map_id": "straight", "lanes": lanes, "crosswalks": [], "lights": []}


def agent(agent_id: str, x: float, y: float, yaw: float, v: float) -> dict:
    return {
        "id": agent_id, "x": x, "y": y, "yaw": yaw, "length": VEHICLE[0], "width": VEHICLE[1],
        "v": v, "kind": "vehicle", "active": True,
    }


EGO_LANE, EGO_SLOT, SLOTS, SLOT_M = 3, 12, 25, 16.0
DENSE_LOCATION = [EGO_SLOT * SLOT_M + SLOT_M / 2, EGO_LANE * 3.5, 0.0]


def dense_state(rng: random.Random) -> list[dict]:
    """Ego plus 199 agents: one per 16 m slot on each of the 8 lanes, with
    jittered position, heading and speed. Same-lane bumper gaps stay
    above 7 m, so the count is exact and no one starts in contact."""
    agents = [agent("ego", *DENSE_LOCATION, 8.0)]
    for lane in range(8):
        for slot in range(SLOTS):
            if (lane, slot) == (EGO_LANE, EGO_SLOT):
                continue
            agents.append(agent(
                f"agent_{len(agents)}",
                round(slot * SLOT_M + SLOT_M / 2 + rng.uniform(-2.0, 2.0), 3),
                round(lane * 3.5 + rng.uniform(-0.3, 0.3), 3),
                round(rng.uniform(-0.03, 0.03), 4),
                round(rng.uniform(6.0, 10.0), 3),
            ))
    return agents


def arc_pose(theta: float) -> tuple[float, float, float]:
    return (
        ARC_CENTER[0] + ARC_RADIUS * math.cos(theta),
        ARC_CENTER[1] + ARC_RADIUS * math.sin(theta),
        theta + math.pi / 2,
    )


def training_scene(rng: random.Random, on_arc: bool) -> list[dict]:
    """Ego on the arc (or the straight near the arc's foot) with four
    agents on each lane around it, 12-16 m apart."""
    if on_arc:
        theta = rng.uniform(-1.2, -0.4)
        ego_pose = arc_pose(theta)
        x0 = rng.uniform(40.0, 60.0)
    else:
        x0 = rng.uniform(45.0, 70.0)
        ego_pose = (x0, 0.0, 0.0)
        theta = rng.uniform(-1.2, -0.8)
    agents = [agent("ego", *ego_pose, 6.0)]
    for k in (-2, -1, 1, 2):
        x, y, yaw = arc_pose(theta + k * rng.uniform(12.0, 16.0) / ARC_RADIUS)
        agents.append(agent(f"agent_{len(agents)}", x, y, yaw, round(rng.uniform(3.0, 9.0), 3)))
    for k in (-2, -1, 1, 2):
        x = x0 + k * rng.uniform(12.0, 16.0)
        agents.append(agent(f"agent_{len(agents)}", x, 0.0, 0.0, round(rng.uniform(3.0, 9.0), 3)))
    return agents


def seed_log(map_id: str, agents: list[dict]) -> str:
    """A one-frame episode log in the documented NDJSON format."""
    header = {"dt": DT, "ego_id": "ego", "map_id": map_id, "termination": "external", "version": 1}
    frame = {"t": 0, "agents": agents}
    return json.dumps(header, sort_keys=True) + "\n" + json.dumps(frame, sort_keys=True) + "\n"


def agent_steps(log: bytes) -> int:
    """Non-ego agents advanced: active non-ego agents in every frame but
    the last (the ego is always active and is the one record subtracted)."""
    frames = log.split(b"\n")[1:-1]
    return sum(line.count(b'"active":true') - 1 for line in frames[:-1])


# ---------------------------------------------------------------------------
# The client


class Client:
    """Issues operations one at a time and records their latency and the
    result of every output check."""

    def __init__(self, expected: dict | None):
        import drivesim.cli

        self.cli_module = drivesim.cli
        self.expected = expected  # file key -> sha256 at the default seed, or None
        self.observed: dict[str, str] = {}
        self.ops: list[dict] = []
        self.failures: list[str] = []

    def cli(self, argv: list[str]) -> tuple[int, float, str]:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = self.cli_module.main(argv)
            except Exception as exc:  # a traceback out of main is a failed op
                rc = -1
                err.write(f"{type(exc).__name__}: {exc}")
        return rc, time.perf_counter() - start, err.getvalue().strip()

    def digest(self, key: str, data: bytes) -> list[str]:
        """Compare an output with its first occurrence in this run and,
        at the default seed, with the stored digest."""
        got = sha256(data)
        problems = []
        if self.observed.setdefault(key, got) != got:
            problems.append(f"{key}: differs from its earlier output in this run")
        if self.expected is not None and self.expected.get(key) != got:
            problems.append(f"{key}: digest {got[:12]} != stored {str(self.expected.get(key))[:12]}")
        return problems

    def verify(self, checks):
        """Run an operation's output checks (their own span in the traced
        run, so the client's time outside the program is accounted for)."""
        return checks()

    def record(self, kind: str, seconds: float, units: int, problems: list[str]) -> None:
        self.ops.append({"kind": kind, "s": seconds, "units": units, "ok": not problems})
        self.failures.extend(f"{kind}: {p}" for p in problems)

    def command(self, kind: str, argv: list[str], outputs, units=lambda: 0, check=lambda: []):
        """Run one CLI command, then digest its output files and run its
        semantic checks. outputs: (key, path) pairs."""
        rc, seconds, err = self.cli(argv)
        if rc != 0:
            self.record(kind, seconds, 0, [f"exit {rc}: {err}"])
            return

        def checks():
            problems = []
            for key, path in outputs:
                problems += self.digest(key, Path(path).read_bytes())
            return units(), problems + check()

        n, problems = self.verify(checks)
        self.record(kind, seconds, n, problems)


class Workload:
    name = ""
    throughput_kind: tuple[str, ...] = ()  # op kinds whose units and time make up throughput
    latency_kind = ""  # the one op kind behind op_s_p50
    throughput_name = latency_name = ""  # what the report calls them for this workload
    warmup = False  # run one untimed iteration first (workloads with short iterations)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self) -> None:
        """Write the inputs (timed as part of setup_s)."""
        raise NotImplementedError

    def load(self) -> None:
        """Read inputs the client itself needs, before timing."""

    def iteration(self, client: Client) -> None:
        raise NotImplementedError

    def probe(self, client: Client) -> None:
        """Re-run one command at --jobs 1 and compare its bytes with the
        --jobs 2 output."""

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of the workload's largest raster frame."""
        return 0.0


# ---------------------------------------------------------------------------


class DenseTraffic(Workload):
    """200 reactive agents on 8 lanes: the only workload where per-agent x
    per-agent work (projection cache hashing, the lead_gap scan) leads."""

    name = "dense_traffic"
    throughput_kind = ("simulate",)
    latency_kind = "simulate"
    throughput_name, latency_name = "agent_steps_per_s", "episode_s"

    def prepare(self):
        write_json(self.work / "eight_lane.json", eight_lane_map())
        rng = random.Random(f"dense:{self.seed}")
        scene_dir = self.work / "scene"
        scene_dir.mkdir(parents=True, exist_ok=True)
        (scene_dir / "state.jsonl").write_text(seed_log("eight_lane", dense_state(rng)), encoding="utf-8")
        write_json(self.work / "dense.json", {
            "sim": {"dt": DT, "horizon": HORIZON, "seed": self.seed, "noise": [0.05, 0.5],
                    "interrupt_on_collision": False},
            "mode": {"name": "journey", "map": "eight_lane.json", "location": DENSE_LOCATION,
                     "dataset_dir": "scene"},
            "policies": {"default": "reactive_follow"},
            "ego": {"controller": "reactive_follow"},
        })

    def simulate(self, client, jobs=JOBS, kind="simulate"):
        out = self.work / "out" / f"dense_jobs{jobs}.jsonl"
        client.command(
            kind,
            ["simulate", "--config", str(self.work / "dense.json"), "--jobs", jobs, "--out", str(out)],
            [("dense.jsonl", out)],
            units=lambda: agent_steps(out.read_bytes()),
        )

    def iteration(self, client):
        self.simulate(client)

    def probe(self, client):
        self.simulate(client, jobs="1", kind="probe")


class BcPipeline(Workload):
    """The data-scaling loop in miniature: teacher episodes, behavioural
    cloning, learned re-simulation against the logs, realism."""

    name = "bc_pipeline"
    throughput_kind = ("teacher", "resim")
    latency_kind = "resim"
    throughput_name, latency_name = "agent_steps_per_s", "episode_s"
    EPISODES = 100
    EPOCHS = 5

    def prepare(self):
        write_json(self.work / "training.json", training_map())
        write_json(self.work / "teacher.json", {
            "sim": {"dt": DT, "horizon": HORIZON, "seed": self.seed * 1000, "interrupt_on_collision": False},
            "mode": {"name": "full", "map": "training.json", "episodes": self.EPISODES,
                     "procedural": {"agents_mean": 7.0, "min_gap": 10.0, "speed_range": [0.0, 10.0]}},
            "policies": {"default": "reactive_follow",
                         "train": {"epochs": self.EPOCHS, "batch": 64, "lr": 0.001, "hidden": [32, 32]}},
            "ego": {"controller": "reactive_follow"},
        })
        for k in range(self.EPISODES):
            write_json(self.work / "resim" / f"resim_{k:04d}.json", {
                "sim": {"dt": DT, "horizon": HORIZON, "seed": self.seed * 1000 + k,
                        "interrupt_on_collision": False},
                "mode": {"name": "scenario", "map": "../training.json",
                         "source_log": f"../teacher/episode_{k:04d}.jsonl"},
                "policies": {"default": "mlp", "weights": "../weights.json"},
                "ego": {"controller": "log_replay"},
            })

    def resim(self, client, k, jobs=JOBS, kind="resim"):
        out = self.work / "sim" / f"jobs{jobs}" / f"episode_{k:04d}.jsonl"
        client.command(
            kind,
            ["simulate", "--config", str(self.work / "resim" / f"resim_{k:04d}.json"), "--jobs", jobs,
             "--out", str(out)],
            [(f"sim/episode_{k:04d}.jsonl", out)],
            units=lambda: agent_steps(out.read_bytes()),
        )

    def iteration(self, client):
        w = self.work
        teacher = [(f"teacher/episode_{k:04d}.jsonl", w / "teacher" / f"episode_{k:04d}.jsonl")
                   for k in range(self.EPISODES)]
        client.command(
            "teacher",
            ["simulate", "--config", str(w / "teacher.json"), "--jobs", JOBS, "--out", str(w / "teacher")],
            teacher,
            units=lambda: sum(agent_steps(p.read_bytes()) for _, p in teacher),
        )
        client.command(
            "train",
            ["train", "--dataset", str(w / "teacher"), "--config", str(w / "teacher.json"), "--jobs", JOBS,
             "--out", str(w / "weights.json")],
            [("weights.json", w / "weights.json")],
        )
        for k in range(self.EPISODES):
            self.resim(client, k)
        report = w / "reports" / "realism.json"
        client.command(
            "eval",
            ["eval", "realism", "--config", str(w / "resim" / "resim_0000.json"), "--jobs", JOBS,
             "--sim", str(w / "sim" / f"jobs{JOBS}"), "--gt", str(w / "teacher"), "--out", str(report)],
            [("reports/realism.json", report), ("reports/realism.csv", report.with_suffix(".csv"))],
            check=lambda: self.check_realism(report),
        )

    def check_realism(self, report: Path) -> list[str]:
        doc = json.loads(report.read_text(encoding="utf-8"))
        if doc["n_scenes"] != self.EPISODES or not all(math.isfinite(v) for v in doc["mean_l2"]):
            return [f"realism report not finite over {self.EPISODES} scenes: {doc}"]
        return []

    def probe(self, client):
        self.resim(client, 0, jobs="1", kind="probe")


class ReactivitySuite(Workload):
    """eval reactivity on the 100-scene static-lead suite: two agents per
    scene and early ego-collision truncation."""

    name = "reactivity_suite"
    throughput_kind = ("eval_reactive_follow", "eval_constant", "eval_log_replay_constant")
    latency_kind = "eval_reactive_follow"
    warmup = True
    throughput_name, latency_name = "scenes_per_s", "reactive_follow_eval_s"
    SCENES = 100
    # subject -> (lowest, highest) reactivity a correct program produces
    SUBJECTS = {
        "reactive_follow": (0.95, 1.0),
        "constant": (0.0, 0.05),
        "log_replay_constant": (0.0, 0.05),
    }

    def prepare(self):
        write_json(self.work / "straight.json", straight_map())
        write_json(self.work / "suite.json", {
            "sim": {"dt": DT, "horizon": HORIZON, "seed": self.seed},
            "mode": {"name": "scenario", "map": "straight.json"},
            "metrics": {"suite": {"scenes": self.SCENES, "gap_range": [10, 40], "speed_range": [5, 12]}},
        })

    def evaluate(self, client, subject, jobs=JOBS, kind=None):
        out = self.work / "reports" / f"jobs{jobs}" / f"react_{subject}.json"
        lo, hi = self.SUBJECTS[subject]

        def check():
            value = json.loads(out.read_text(encoding="utf-8"))["reactivity"]
            return [] if lo <= value <= hi else [f"{subject} reactivity {value} outside [{lo}, {hi}]"]

        client.command(
            kind or f"eval_{subject}",
            ["eval", "reactivity", "--config", str(self.work / "suite.json"), "--subject", subject,
             "--jobs", jobs, "--out", str(out)],
            [(f"react_{subject}.json", out), (f"react_{subject}.csv", out.with_suffix(".csv"))],
            units=lambda: self.SCENES,
            check=check,
        )

    def iteration(self, client):
        for subject in self.SUBJECTS:
            self.evaluate(client, subject)

    def probe(self, client):
        self.evaluate(client, "reactive_follow", jobs="1", kind="probe")


class RasterRoundtrip(Workload):
    """render -> connected components -> state_from_raster at 64/128/256
    px on training-map and 8-lane scenes (library calls: no CLI command
    uses the raster layer)."""

    name = "raster_roundtrip"
    SCENES = ("arc", "straight", "dense")
    SIZES = (64, 128, 256)
    throughput_kind = tuple(f"frame_{px}" for px in SIZES)
    latency_kind = "frame_256"  # every scene: render cost is set by the window and the map, not the pose
    warmup = True
    throughput_name, latency_name = "frames_per_s", "frame_256_s"
    RESOLUTION = 0.5

    def prepare(self):
        rng = random.Random(f"raster:{self.seed}")
        scenes = {
            "arc": ("training", training_scene(rng, on_arc=True)),
            "straight": ("training", training_scene(rng, on_arc=False)),
            "dense": ("eight_lane", dense_state(rng)),
        }
        write_json(self.work / "training.json", training_map())
        write_json(self.work / "eight_lane.json", eight_lane_map())
        for name, (map_id, agents) in scenes.items():
            (self.work / f"{name}.jsonl").write_text(seed_log(map_id, agents), encoding="utf-8")

    def load(self):
        """Parse the generated inputs once, before timing."""
        from drivesim.cli.logs import read_episode_log
        from drivesim.core import load_map

        maps = {m: load_map(self.work / f"{m}.json") for m in ("training", "eight_lane")}
        self.scenes = []
        for name, map_id in (("arc", "training"), ("straight", "training"), ("dense", "eight_lane")):
            state = read_episode_log(self.work / f"{name}.jsonl").states[0]
            self.scenes.append((name, state, maps[map_id]))

    def frame(self, client, name, state, smap, px):
        from drivesim import initstate, raster

        start = time.perf_counter()
        grid = raster.render(state, smap, state.ego.pose, resolution=self.RESOLUTION, size_px=px)
        back = initstate.state_from_raster(grid)
        seconds = time.perf_counter() - start
        key = f"{name}_{px}"

        def checks():
            blob = b"".join(grid.channels[c].tobytes() for c in raster.CHANNEL_NAMES)
            record = [[a.id, a.pose.x, a.pose.y, a.pose.yaw, a.extent[0], a.extent[1]] for a in back.agents]
            return client.digest(key, blob + json.dumps(record).encode("utf-8")) + self.check_frame(
                key, state, back, px)

        client.record(f"frame_{px}", seconds, 1, client.verify(checks))

    def check_frame(self, key, state, back, px) -> list[str]:
        """The ego comes back where it was; the agent count lies between the
        agents wholly inside the window and those whose box reaches it."""
        ego, got = state.ego, back.agent("ego")
        if math.hypot(got.pose.x - ego.pose.x, got.pose.y - ego.pose.y) > 0.5:
            return [f"{key}: ego recovered {got.pose} vs {ego.pose}"]
        half = px * self.RESOLUTION / 2.0
        c, s = math.cos(ego.pose.yaw), math.sin(ego.pose.yaw)
        inside = reach = 0
        for a in state.agents:
            if a.id == ego.id or not a.active:
                continue
            dx, dy = a.pose.x - ego.pose.x, a.pose.y - ego.pose.y
            u, v = abs(c * dx + s * dy), abs(-s * dx + c * dy)
            radius = math.hypot(*a.extent) / 2.0
            inside += u + radius < half and v + radius < half
            reach += u - radius < half and v - radius < half
        n = len(back.agents) - 1
        return [] if inside <= n <= reach else [f"{key}: {n} agents extracted, expected {inside}..{reach}"]

    def iteration(self, client):
        for name, state, smap in self.scenes:
            for px in self.SIZES:
                self.frame(client, name, state, smap, px)

    def peak_alloc_mb(self) -> float:
        """tracemalloc peak of one 256 px render on the arc scene, outside
        the timed loop (tracemalloc slows every allocation)."""
        import tracemalloc

        from drivesim import raster

        name, state, smap = self.scenes[0]
        tracemalloc.start()
        try:
            raster.render(state, smap, state.ego.pose, resolution=self.RESOLUTION, size_px=256)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


WORKLOADS = {w.name: w for w in (DenseTraffic, BcPipeline, ReactivitySuite, RasterRoundtrip)}
