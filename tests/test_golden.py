"""Golden corpus: sha256 of the CLI outputs for a fixed set of small runs.

The runs together cover all four modes; the constant, reactive_follow,
log_replay and mlp policies, and mlp agents mixed with a reactive override
over two episodes; all four ego controllers; control noise on and off;
--jobs 1 and 2; sample-state; eval reactivity with a log-replay subject and
with a tuned reactive_follow subject; eval planner; and, with the config
keys left out, eval realism at the default horizons and train at the
default training settings, so a default that changes value or type (a
horizon of 1 written for 1.0) moves a digest here.
A refactor must leave every digest unchanged. A change that moves one is
a behaviour change and has to say why.

Every input is written by the test itself (map and run configs as JSON,
weights from a seeded init_mlp), and later runs read the logs that
earlier runs wrote, so only the CLI is exercised.
"""
import hashlib
import json

import pytest

from drivesim.cli import main
from drivesim.policies import init_mlp, save_mlp

MAP = {
    "map_id": "golden",
    "lanes": [
        {"id": "east", "centerline": [[0, 0], [300, 0]], "width": 3.5, "successors": []},
        {"id": "east2", "centerline": [[0, 3.5], [300, 3.5]], "width": 3.5, "successors": []},
        {"id": "bend_in", "centerline": [[0, 30], [80, 30]], "width": 3.5, "successors": ["bend_out"]},
        {
            "id": "bend_out",
            "centerline": [[80, 30], [120, 50], [180, 60]],
            "width": 3.5,
            "successors": [],
            "light_id": "l1",
        },
    ],
    "crosswalks": [[[140, -3], [144, -3], [144, 3], [140, 3]]],
    "lights": [{"id": "l1", "schedule": [{"start_s": 1.0, "end_s": 2.0, "color": "red"}]}],
}

# A hand-written scene: a faster car closes on the ego from behind, a
# second one drives alongside in the next lane.
CRASH_LOG = [
    {"dt": 0.1, "ego_id": "ego", "map_id": "golden", "termination": "external", "version": 1},
    {
        "t": 0,
        "agents": [
            {"id": name, "x": x, "y": y, "yaw": 0.0, "length": 4.5, "width": 2.0, "v": v,
             "kind": "vehicle", "active": True}
            for name, x, y, v in (("ego", 60.0, 0.0, 8.0), ("tail", 45.0, 0.0, 12.0),
                                  ("side", 70.0, 3.5, 8.0))
        ],
    },
]

NOISE = [0.02, 0.3]
PROCEDURAL = {"agents_mean": 4.0, "min_gap": 8.0, "speed_range": [2.0, 10.0]}


def _config(name, sim=None, mode=None, policies=None, ego=None, metrics=None):
    doc = {
        "sim": {"dt": 0.1, "horizon": 30, "seed": 11, **(sim or {})},
        "mode": {"map": "map.json", **(mode or {})},
        "policies": policies or {"default": "constant"},
        "ego": ego or {"controller": "constant"},
    }
    if metrics is not None:
        doc["metrics"] = metrics
    return name, doc


CONFIGS = dict(
    [
        _config(
            "full_reactive",
            sim={"noise": NOISE},
            mode={"name": "full", "episodes": 2, "procedural": PROCEDURAL},
            policies={"default": "reactive_follow"},
        ),
        _config(
            "full_brake",
            sim={"noise": NOISE},
            mode={"name": "full", "episodes": 2, "procedural": PROCEDURAL},
            policies={"default": "constant"},
            ego={"controller": "brake_stop", "params": {"decel": 3.0}},
        ),
        _config(
            "journey_ego_reactive",
            mode={"name": "journey", "location": [60.0, 0.0, 0.0], "procedural": PROCEDURAL},
            policies={"default": "constant", "overrides": {"agent_1": "reactive_follow"}},
            ego={"controller": "reactive_follow"},
        ),
        _config(
            "scenario_replay",
            sim={"noise": NOISE},
            mode={"name": "scenario", "source_log": "journey_ego_reactive.jsonl", "source_frame": 5},
            policies={"default": "log_replay"},
            ego={"controller": "log_replay"},
        ),
        _config(
            "scenario_mlp",
            sim={"noise": NOISE},
            mode={"name": "scenario", "source_log": "journey_ego_reactive.jsonl"},
            policies={"default": "mlp", "weights": "weights.json"},
            ego={"controller": "brake_stop"},
        ),
        _config(
            "scenario_ego_reactive_noisy",
            sim={"noise": NOISE},
            mode={"name": "scenario", "source_log": "journey_ego_reactive.jsonl"},
            policies={"default": "reactive_follow"},
            ego={"controller": "reactive_follow"},
        ),
        _config(
            "behaviour",
            sim={"noise": NOISE},
            mode={
                "name": "behaviour",
                "source_log": "journey_ego_reactive.jsonl",
                "paths": {"agent_1": [[0.0, 0.0], [150.0, 3.5], [300.0, 3.5]]},
            },
            policies={"default": "reactive_follow"},
        ),
        _config(
            "crash_brake",
            sim={"noise": NOISE},
            mode={"name": "scenario", "source_log": "crash.jsonl"},
            ego={"controller": "brake_stop", "params": {"decel": 4.0}},
        ),
        _config(
            "crash_reference",
            sim={"interrupt_on_collision": False},
            mode={"name": "scenario", "source_log": "crash.jsonl"},
            policies={"default": "reactive_follow"},
        ),
        _config(
            "reactivity",
            metrics={"suite": {"scenes": 6, "gap_range": [10, 30], "speed_range": [6, 12]}},
        ),
        _config(
            "full_mlp_mixed",
            sim={"noise": NOISE},
            mode={"name": "full", "episodes": 2, "procedural": PROCEDURAL},
            policies={"default": "mlp", "weights": "weights.json", "overrides": {"agent_1": "reactive_follow"}},
        ),
        # Weak braking and a short headway: 3 of the 6 scenes collide, where
        # the default parameters keep all 6 clean, so the digest shows that
        # policies.reactive reaches the eval subject.
        _config(
            "reactivity_tuned",
            policies={
                "default": "constant",
                "reactive": {"a_max": 0.1, "b": 200.0, "s0": 0.2, "t_headway": 0.1, "v0": 12.0},
            },
            metrics={"suite": {"scenes": 6, "gap_range": [10, 30], "speed_range": [6, 12]}},
        ),
        # 5 s episodes, as long as the longest default realism horizon; the
        # noise and the policy tell the two apart
        _config(
            "journey_5s",
            sim={"horizon": 50, "interrupt_on_collision": False},
            mode={"name": "journey", "location": [60.0, 0.0, 0.0], "procedural": PROCEDURAL},
        ),
        _config(
            "journey_5s_reactive",
            sim={"horizon": 50, "interrupt_on_collision": False, "noise": NOISE},
            mode={"name": "journey", "location": [60.0, 0.0, 0.0], "procedural": PROCEDURAL},
            policies={"default": "reactive_follow"},
        ),
    ]
)

# (run name, command, config name, extra argv, output is a directory).
# Later runs read the outputs of earlier ones: "@run" in the extra argv
# names that run's output path.
RUNS = (
    ("full_reactive_jobs1", "simulate", "full_reactive", ["--jobs", "1"], True),
    ("full_reactive_jobs2", "simulate", "full_reactive", ["--jobs", "2"], True),
    ("full_brake", "simulate", "full_brake", [], True),
    ("journey_ego_reactive", "simulate", "journey_ego_reactive", [], False),
    ("sample_state_journey", "sample-state", "journey_ego_reactive", [], False),
    ("sample_state_full", "sample-state", "full_reactive", [], False),
    ("scenario_replay", "simulate", "scenario_replay", [], False),
    ("scenario_mlp", "simulate", "scenario_mlp", ["--jobs", "2"], False),
    ("scenario_ego_reactive_noisy", "simulate", "scenario_ego_reactive_noisy", [], False),
    ("behaviour", "simulate", "behaviour", [], False),
    ("crash_brake", "simulate", "crash_brake", [], False),
    ("crash_reference", "simulate", "crash_reference", [], False),
    (
        "eval_reactivity_log_replay_constant",
        "eval reactivity",
        "reactivity",
        ["--subject", "log_replay_constant"],
        False,
    ),
    ("full_mlp_mixed", "simulate", "full_mlp_mixed", [], True),
    ("eval_reactivity_reactive_follow", "eval reactivity", "reactivity_tuned", [], False),
    (
        "eval_planner",
        "eval planner",
        "full_reactive",
        ["--episodes", "@full_brake", "--references", "@full_reactive_jobs1"],
        False,
    ),
    (
        "eval_planner_crash",
        "eval planner",
        "crash_brake",
        ["--episodes", "@crash_brake", "--references", "@crash_reference"],
        False,
    ),
    # no metrics.horizons and no policies.train: the last two runs pin the
    # default realism horizons and the TrainConfig and history_s defaults;
    # the two before them are the realism inputs, not pinned themselves
    ("journey_5s", "simulate", "journey_5s", [], False),
    ("journey_5s_reactive", "simulate", "journey_5s_reactive", [], False),
    (
        "eval_realism_default_horizons",
        "eval realism",
        "journey_5s",
        ["--sim", "@journey_5s_reactive", "--gt", "@journey_5s"],
        False,
    ),
    ("train_defaults", "train", "full_reactive", ["--dataset", "@full_reactive_jobs1"], False),
)

GOLDEN = {
    "full_reactive_jobs1": "2d280a5f78ad06f153f654c77e31dbb4e2520343791474adb8d77b65325a39e8",
    "full_reactive_jobs2": "2d280a5f78ad06f153f654c77e31dbb4e2520343791474adb8d77b65325a39e8",
    "full_brake": "37244d729d57392481a8409e80a4a307a4919ee01352563aefb157d514362858",
    "journey_ego_reactive": "274d22016f042865e36857be5afa2b13d34dc73a87ae6761e03a6753764c869d",
    "sample_state_journey": "7632e6c06507035216a95985465a6c6a2c782e7bf00c2eb4970f4b8a6b925f2c",
    "sample_state_full": "bee9dc2bac5b6707a80c362485b2f2e46c8a9800687816ca0361b9de9e8ef77f",
    "scenario_replay": "ce8bbea71f449ec156e907f1258f9526b453d61989b47e5c3d179ccabb7dbd8d",
    "scenario_mlp": "f35f94402ffbea91492a0eedc01aa5d0615cc79cafd4238f2bf779aae5158318",
    "scenario_ego_reactive_noisy": "5e8d310bf281c688fd334461603b18bd8e8764aa2b7fa3d7c28ce2ca35fe1bd0",
    "behaviour": "37e62b5b27a7ec3b194a7213de4b26ba2ea7dad51fc5005f7d50c43f504f630c",
    "crash_brake": "49dfe20970deba2b05d40556c35dbd7e5769defe8dec0ff5922f182a86f08be6",
    "crash_reference": "7d63b1725a464f1af56f8ee47122dd94d8034e29b471606090b9e5a96e6d5fe2",
    "eval_reactivity_log_replay_constant": "57a4d0f91a50dfae2a569cbc84c0b87eecac8eaefb4bf475a9c3e153191221c2",
    "full_mlp_mixed": "6fa4feae48b050c45d66f3ef0cd3c143a0e437a829ec42f7b473b2c85ffa17b9",
    "eval_reactivity_reactive_follow": "de76b5a0726eedfdf99ab6ffef27edc24bf3e62e0839099bcdf9c57b7af6c530",
    "eval_planner": "27d808848a544d123a393008d9c5a552accbee54efef705d72ac1143005d4f28",
    "eval_planner_crash": "a625d57de507416504cee07b8138736266b2726263974604c59468788cb2719c",
    "eval_realism_default_horizons": "547fdacc13836991936b87529223e54e38b171e78ebb7de2fadddb11e340f1c4",
    "train_defaults": "8b7c653b7c477ea63d64980f477fcb04da064025f305053b8b119b0e349c5c35",
}


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def golden_digests(tmp_path_factory):
    ws = tmp_path_factory.mktemp("golden")
    (ws / "map.json").write_text(json.dumps(MAP))
    (ws / "crash.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in CRASH_LOG))
    save_mlp(init_mlp(seed=3), ws / "weights.json")
    for name, doc in CONFIGS.items():
        (ws / f"{name}.json").write_text(json.dumps(doc))
    digests, outs = {}, {}
    for run, command, config, extra, is_dir in RUNS:
        out = outs[run] = ws / (run if is_dir else f"{run}.jsonl")
        argv = command.split() + ["--config", str(ws / f"{config}.json"), "--out", str(out)]
        argv += [str(outs[a[1:]]) if a.startswith("@") else a for a in extra]
        assert main(argv) == 0, run
        if command.startswith("eval"):
            outputs = [out.with_suffix(".json"), out.with_suffix(".csv")]
        else:
            outputs = sorted(out.iterdir()) if is_dir else [out]
        digests[run] = _digest(outputs)
    return digests


@pytest.mark.parametrize("run", list(GOLDEN))
def test_output_digest_is_pinned(golden_digests, run):
    assert golden_digests[run] == GOLDEN[run]


def test_jobs_do_not_change_bytes(golden_digests):
    assert golden_digests["full_reactive_jobs1"] == golden_digests["full_reactive_jobs2"]
