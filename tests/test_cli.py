import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from drivesim.cli import main
from drivesim.cli.logs import (
    parse_episode,
    read_episode_log,
    serialize_episode,
    write_episode_log,
)
from drivesim.core import AgentState, Episode, Pose2, SimState, save_map
from drivesim.engine import SimConfig, assign_policies, unroll
from drivesim.policies import ConstantVelocityPolicy, ReactiveFollowPolicy


def car(agent_id, x, y=0.0, yaw=0.0, speed=0.0):
    return AgentState(id=agent_id, pose=Pose2(x, y, yaw), extent=(4.5, 2.0), speed=speed)


def make_log(straight_map, n=30, seed=2):
    s = SimState(
        0,
        (car("ego", 60, speed=4.0), car("a", 10, speed=5.0), car("b", 30, speed=2.0)),
        "ego",
    )
    cfg = SimConfig(dt=0.1, horizon_steps=n, seed=seed)
    policies = assign_policies(s, ReactiveFollowPolicy(dt=0.1), {"ego": ConstantVelocityPolicy()})
    return unroll(s, policies, straight_map, cfg)


@pytest.fixture
def workspace(tmp_path, straight_map):
    save_map(straight_map, tmp_path / "map.json")
    log = make_log(straight_map)
    write_episode_log(log, tmp_path / "source.jsonl")
    return tmp_path


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _one_output(doc):
    last = doc["layers"][-1]
    last["weights"] = last["weights"][:: last["cols"]]
    last["bias"] = last["bias"][:1]
    last["cols"] = 1


def _infinite_weight(doc):
    doc["layers"][1]["weights"][0] = float("inf")


# Weights files that load_mlp or MlpPolicy reject, each by a different error.
BAD_WEIGHTS = {
    "no_layers": lambda doc: doc.pop("layers"),  # KeyError
    "layers_not_a_list": lambda doc: doc.update(layers=5),  # TypeError
    "one_output": _one_output,
    "shape_mismatch": lambda doc: doc["layers"][0]["weights"].pop(),
    "infinite_weight": _infinite_weight,
}


def _edit_log_line(ws, number, edit):
    path = ws / "source.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[number - 1])
    edit(rec)
    lines[number - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _edit_map(ws, edit):
    doc = json.loads((ws / "map.json").read_text())
    edit(doc)
    (ws / "map.json").write_text(json.dumps(doc))


def _duplicate_agent(rec):
    rec["agents"].append(dict(rec["agents"][0]))


# One record of the source log or the map broken, each by a different error:
# (file, the record the message names, corrupt(workspace)).
BAD_RECORDS = {
    "frame_without_t": ("source.jsonl", "line 4", lambda ws: _edit_log_line(ws, 4, lambda rec: rec.pop("t"))),
    "agent_x_null": (
        "source.jsonl",
        "line 2",
        lambda ws: _edit_log_line(ws, 2, lambda rec: rec["agents"][1].update(x=None)),
    ),
    "agent_x_nan": (
        "source.jsonl",
        "line 3",
        lambda ws: _edit_log_line(ws, 3, lambda rec: rec["agents"][0].update(x=float("nan"))),
    ),
    "duplicate_agent_ids": ("source.jsonl", "line 5", lambda ws: _edit_log_line(ws, 5, _duplicate_agent)),
    "header_without_ego_id": (
        "source.jsonl",
        "line 1",
        lambda ws: _edit_log_line(ws, 1, lambda rec: rec.pop("ego_id")),
    ),
    "lane_without_id": ("map.json", "lanes[0]", lambda ws: _edit_map(ws, lambda doc: doc["lanes"][0].pop("id"))),
    "one_point_centerline": (
        "map.json",
        "lanes[0]",
        lambda ws: _edit_map(ws, lambda doc: doc["lanes"][0].update(centerline=[[0.0, 0.0]])),
    ),
    "lane_width_text": (
        "map.json",
        "lanes[0]",
        lambda ws: _edit_map(ws, lambda doc: doc["lanes"][0].update(width="wide")),
    ),
    "map_is_a_list": (
        "map.json",
        "the map document must be an object",
        lambda ws: (ws / "map.json").write_text("[]"),
    ),
}


class TestEpisodeLog:
    def test_roundtrip_equality(self, straight_map):
        log = make_log(straight_map)
        assert parse_episode(serialize_episode(log)) == log

    def test_roundtrip_with_inactive_agents(self, straight_map):
        log = make_log(straight_map)
        last = log.states[-1]
        deactivated = SimState(
            last.step_index + 1,
            tuple(
                a if a.id == last.ego_id else AgentState(
                    id=a.id, pose=a.pose, extent=a.extent, speed=a.speed, kind=a.kind, active=False
                )
                for a in last.agents
            ),
            last.ego_id,
        )
        ep = Episode(dt=log.dt, map_id=log.map_id, states=log.states + (deactivated,),
                     termination="external")
        assert parse_episode(serialize_episode(ep)) == ep

    def test_serialization_is_canonical(self, straight_map):
        log = make_log(straight_map)
        assert serialize_episode(log) == serialize_episode(log)

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            parse_episode('{"dt":0.1,"map_id":"m","ego_id":"e","termination":"completed","version":9}\n')


class TestSimulateCommand:
    def scenario_config(self, ws, seed=0):
        return {
            "sim": {"dt": 0.1, "horizon": 30, "seed": seed},
            "mode": {"name": "scenario", "map": "map.json", "source_log": "source.jsonl"},
            "policies": {"default": "log_replay"},
            "ego": {"controller": "log_replay"},
        }

    def test_replay_closure_byte_identical(self, workspace):
        cfg_path = write_config(workspace / "run.json", self.scenario_config(workspace))
        out = workspace / "out.jsonl"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_bytes() == (workspace / "source.jsonl").read_bytes()

    def test_same_config_twice_byte_identical(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 20, "seed": 42, "noise": [0.05, 0.1]},
            "mode": {
                "name": "journey",
                "map": "map.json",
                "location": [50.0, 0.0, 0.0],
                "procedural": {"agents_mean": 4.0, "min_gap": 8.0, "speed_range": [0.0, 8.0]},
            },
            "policies": {"default": "reactive_follow"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        outs = []
        for name in ("o1.jsonl", "o2.jsonl"):
            out = workspace / name
            assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_multi_episode_output_dir(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 10, "seed": 1},
            "mode": {
                "name": "full",
                "map": "map.json",
                "episodes": 3,
                "procedural": {"agents_mean": 2.0},
            },
            "policies": {"default": "constant"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        out_dir = workspace / "episodes"
        assert main(["simulate", "--config", cfg_path, "--out", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.glob("*.jsonl"))
        assert files == ["episode_0000.jsonl", "episode_0001.jsonl", "episode_0002.jsonl"]
        eps = [read_episode_log(out_dir / f) for f in files]
        assert len({e.states[0] for e in eps}) == 3  # distinct seeds, distinct states

    def test_seed_flag_overrides_config(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 10, "seed": 1},
            "mode": {"name": "journey", "map": "map.json", "location": [50.0, 0.0, 0.0]},
            "policies": {"default": "constant"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        a, b = workspace / "a.jsonl", workspace / "b.jsonl"
        assert main(["simulate", "--config", cfg_path, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--seed", "9", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_unknown_config_key_exit_1(self, workspace, capsys):
        doc = {"sim": {"dt": 0.1, "velocity": 3}}
        cfg_path = write_config(workspace / "bad.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(workspace / "x.jsonl")]) == 1
        assert "sim.velocity" in capsys.readouterr().err

    def test_missing_map_exit_1(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 5, "seed": 0},
            "mode": {"name": "journey", "map": "nope.json", "location": [0, 0, 0]},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(workspace / "x.jsonl")]) == 1

    def test_usage_error_exit_1(self):
        assert main(["simulate"]) == 1  # --config/--out missing

    def test_workers_flag_byte_identical(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 20, "seed": 3, "noise": [0.02, 0.05]},
            "mode": {
                "name": "journey",
                "map": "map.json",
                "location": [60.0, 0.0, 0.0],
                "procedural": {"agents_mean": 5.0},
            },
            "policies": {"default": "reactive_follow"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        a, b = workspace / "w1.jsonl", workspace / "w8.jsonl"
        assert main(["simulate", "--config", cfg_path, "--jobs", "1", "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg_path, "--jobs", "8", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sim", "horizon", "abc"),
            ("mode", "location", [50.0, 0.0]),
            ("sim", "noise", [0.1, 0.1, 0.1]),
            ("sim", "noise", [-0.1, 0.0]),
            ("sim", "noise", [0.0, -1e-9]),
            ("mode", "episodes", 0),
            ("mode", "episodes", -3),
            # counts must be whole numbers, not truncated ones
            ("mode", "episodes", 2.7),
            ("mode", "source_frame", 1.5),
            ("sim", "horizon", 5.5),
            ("sim", "seed", 0.5),
            ("sim", "horizon", float("inf")),
            ("policies", "train.batch", 32.5),
            ("policies", "train.epochs", 2.7),
            ("policies", "train.hidden", [16, 8.5]),
            ("metrics", "suite.scenes", 10.1),
            # every number is finite and none is a JSON boolean
            ("sim", "roi_radius", float("nan")),
            ("sim", "roi_radius", float("inf")),
            ("sim", "dt", float("inf")),
            ("sim", "noise", [float("inf"), 0.0]),
            ("mode", "episodes", True),
            ("mode", "location", [50.0, float("nan"), 0.0]),
            ("policies", "reactive.v0", float("inf")),
            # the reactive law divides by v0 and sqrt(a_max * b)
            ("policies", "reactive.v0", 0),
            ("policies", "reactive.a_max", -1),
            ("policies", "reactive.b", 0.0),
            ("policies", "reactive.s0", -0.5),
            ("policies", "reactive.t_headway", -1),
            # paths are strings, and overrides an object of names
            ("mode", "map", 5),
            ("mode", "source_log", ["source.jsonl"]),
            ("mode", "dataset_dir", 7),
            ("policies", "weights", 5),
            ("policies", "overrides", ["agent_1", "constant"]),
            ("policies", "overrides", {"agent_1": 3}),
            # a flag is a JSON boolean, not anything bool() accepts
            ("sim", "interrupt_on_collision", "no"),
            ("sim", "interrupt_on_collision", 0),
            # a forced path is >= 2 finite [x, y] points, no zero-length segment
            ("mode", "paths", [1, 2]),
            ("mode", "paths", {"a": "abc"}),
            ("mode", "paths", {"a": [[0, 0], [60, 0], [60, 0]]}),
            ("mode", "paths", {"a": [[0, 0], [float("nan"), 0]]}),
            ("mode", "paths", {"a": [[0, 0]]}),
            # ego.params has its keys checked like every other section
            ("ego", "params.decle", 9),
            ("ego", "params", [2.5]),
            ("ego", "params.decel", -1),
            ("ego", "params.decel", 0),
            # one of the four modes
            ("mode", "name", "bogus"),
            # ranges: zero or negative where a value must be positive, a
            # reversed or negative speed range
            ("sim", "dt", 0),
            ("sim", "horizon", 0),
            ("sim", "roi_radius", -1),
            ("mode", "procedural.min_gap", 0),
            ("mode", "procedural.speed_range", [5, 1]),
            ("mode", "procedural.speed_range", [-1, 2]),
            ("mode", "procedural.agents_mean", -1),
            ("mode", "anchor_radius", True),
            ("policies", "train.lr", -1e-3),
            ("policies", "train.batch", 0),
            ("policies", "train.hidden", [0]),
            ("metrics", "suite.scenes", 0),
            ("metrics", "suite.gap_range", [40, 10]),
            ("metrics", "suite.speed_range", [-5, 12]),
            ("mode", "anchor_radius", -1),
            # realism horizons are a non-empty list of times > 0
            ("metrics", "horizons", [-1]),
            ("metrics", "horizons", []),
            # planner thresholds are >= 0, the passiveness window > 0
            ("metrics", "d_thresh", -1),
            ("metrics", "window_s", 0),
            ("metrics", "kappa", -1),
            ("metrics", "g_free", -1),
            ("metrics", "l_thresh", -1),
            ("policies", "train.epochs", -3),
            ("policies", "train.history_s", -1),
        ],
    )
    def test_config_type_error_exit_1_names_key(self, workspace, capsys, section, key, value):
        doc = {
            "sim": {"dt": 0.1, "horizon": 5, "seed": 0},
            "mode": {"name": "journey", "map": "map.json", "location": [50.0, 0.0, 0.0]},
        }
        if key in ("source_frame", "source_log"):  # read only in scenario mode
            doc["mode"] = {"name": "scenario", "map": "map.json", "source_log": "source.jsonl"}
        if key == "paths":  # the mode that steers agents along them
            doc["mode"] = {"name": "behaviour", "map": "map.json", "source_log": "source.jsonl"}
        if section == "ego":  # the controller that reads ego.params
            doc["ego"] = {"controller": "brake_stop"}
        *parents, leaf = key.split(".")
        node = doc.setdefault(section, {})
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
        # each section is read by the command that uses it
        command = {
            "policies": ["train", "--dataset", str(workspace)],
            "metrics": ["eval", "reactivity"],
        }.get(section, ["simulate"])
        # read when simulate builds its policy table
        default = {"reactive": "reactive_follow", "weights": "mlp", "overrides": "constant"}.get(key.split(".")[0])
        if section == "policies" and default:
            doc["policies"]["default"] = default
            command = ["simulate"]
        cfg_path = write_config(workspace / "run.json", doc)
        out = workspace / "x.jsonl"
        assert main(command + ["--config", cfg_path, "--out", str(out)]) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, section, key, value, message",
        [
            ("simulate", "metrics", "kappa", "abc", "metrics.kappa"),
            ("simulate", "policies", "train", {"lr": "abc"}, "policies.train.lr"),
            ("sample-state", "policies", "default", "teleport", "unknown policy 'teleport'"),
        ],
    )
    def test_unread_section_checked_at_load(self, workspace, capsys, command, section, key, value, message):
        # every key is checked when the config is loaded, whether or not
        # the command reads it
        doc = {
            "sim": {"dt": 0.1, "horizon": 5, "seed": 0},
            "mode": {"name": "journey", "map": "map.json", "location": [50.0, 0.0, 0.0]},
            section: {key: value},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        out = workspace / "x.jsonl"
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_whole_number_floats_are_counts(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "horizon": 5.0, "seed": 1.0},
            "mode": {"name": "journey", "map": "map.json", "location": [50.0, 0.0, 0.0], "episodes": 2.0},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        out = workspace / "episodes"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["episode_0000.jsonl", "episode_0001.jsonl"]
        assert len(read_episode_log(out / "episode_0001.jsonl").states) == 6

    def test_dataset_read_once_per_run(self, workspace, straight_map, monkeypatch):
        from drivesim.cli import logs

        d = workspace / "dataset"
        d.mkdir()
        for k in range(4):
            write_episode_log(make_log(straight_map, n=5, seed=k), d / f"ep_{k}.jsonl")
        calls = []

        def counting_parse(text):
            calls.append(len(text))
            return parse_episode(text)

        monkeypatch.setattr(logs, "parse_episode", counting_parse)
        doc = {
            "sim": {"dt": 0.1, "horizon": 5, "seed": 1},
            "mode": {"name": "full", "map": "map.json", "episodes": 3, "dataset_dir": "dataset"},
            "policies": {"default": "constant"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(workspace / "episodes")]) == 0
        assert len(calls) == 4

    def test_agents_of_one_name_share_one_policy(self, workspace):
        from drivesim.cli.config import RunSetup

        doc = {
            "mode": {"name": "scenario", "map": "map.json"},
            "policies": {"default": "reactive_follow", "overrides": {"b": "constant", "e": "constant"}},
            "ego": {"controller": "reactive_follow"},
        }
        make = RunSetup(doc, base_dir=workspace).policies_factory()
        state = SimState(0, tuple(car(name, 10.0 * k) for k, name in enumerate("abcde")) + (car("ego", 60),), "ego")
        table, again = make(state), make(state)
        assert table["a"] is table["c"] is table["d"] is table["ego"] is again["a"]
        assert table["b"] is table["e"] is again["b"]
        assert isinstance(table["a"], ReactiveFollowPolicy) and isinstance(table["b"], ConstantVelocityPolicy)

    def test_mlp_weights_loaded_once_per_run(self, workspace, monkeypatch):
        from drivesim.cli import config
        from drivesim.policies import init_mlp, load_mlp, save_mlp

        save_mlp(init_mlp(seed=2), workspace / "weights.json")
        calls = []

        def counting_load(path):
            calls.append(path)
            return load_mlp(path)

        monkeypatch.setattr(config, "load_mlp", counting_load)
        doc = {
            "sim": {"dt": 0.1, "horizon": 5, "seed": 1},
            "mode": {"name": "full", "map": "map.json", "episodes": 2, "procedural": {"agents_mean": 6.0}},
            "policies": {"default": "mlp", "weights": "weights.json"},
            "ego": {"controller": "constant"},
        }
        cfg_path = write_config(workspace / "run.json", doc)
        out = workspace / "episodes"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        assert len(list(out.iterdir())) == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("corrupt", list(BAD_WEIGHTS.values()), ids=list(BAD_WEIGHTS))
    def test_bad_weights_file_exit_1(self, workspace, capsys, corrupt):
        from drivesim.policies import init_mlp, save_mlp

        weights = workspace / "weights.json"
        save_mlp(init_mlp(seed=2), weights)
        doc = json.loads(weights.read_text())
        corrupt(doc)
        weights.write_text(json.dumps(doc))
        run = self.scenario_config(workspace)
        run["policies"] = {"default": "mlp", "weights": "weights.json"}
        cfg_path = write_config(workspace / "run.json", run)
        out = workspace / "x.jsonl"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "policies.weights" in err and str(weights) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", list(BAD_RECORDS))
    def test_malformed_record_exit_1(self, workspace, capsys, name):
        file, record, corrupt = BAD_RECORDS[name]
        corrupt(workspace)
        cfg_path = write_config(workspace / "run.json", self.scenario_config(workspace))
        out = workspace / "x.jsonl"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{workspace / file}: {record}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("policies", "default", "brake_stop", "unknown policy 'brake_stop'"),
            ("policies", "default", "teleport", "unknown policy 'teleport'"),
            ("ego", "controller", "mlp", "unknown ego controller 'mlp'"),
        ],
    )
    def test_unknown_policy_name_exit_1(self, workspace, capsys, section, key, value, message):
        doc = self.scenario_config(workspace)
        doc[section][key] = value
        cfg_path = write_config(workspace / "run.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(workspace / "x.jsonl")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("controller", ["constant", "log_replay", "reactive_follow", "brake_stop"])
    def test_inactive_ego_exit_2(self, workspace, straight_map, capsys, controller):
        # every ego controller is a policy, and a policy never drives an
        # inactive agent
        log = make_log(straight_map, n=5)
        states = tuple(
            SimState(
                s.step_index,
                tuple(dataclasses.replace(a, active=False) if a.id == "ego" else a for a in s.agents),
                s.ego_id,
            )
            for s in log.states
        )
        write_episode_log(dataclasses.replace(log, states=states), workspace / "no_ego.jsonl")
        doc = self.scenario_config(workspace)
        doc["mode"]["source_log"] = "no_ego.jsonl"
        doc["ego"]["controller"] = controller
        cfg_path = write_config(workspace / "run.json", doc)
        assert main(["simulate", "--config", cfg_path, "--out", str(workspace / "x.jsonl")]) == 2
        assert "agent 'ego' is not active" in capsys.readouterr().err


class TestTrainCommand:
    def make_dataset_dir(self, workspace, straight_map, n=6):
        d = workspace / "dataset"
        d.mkdir()
        for k in range(n):
            write_episode_log(make_log(straight_map, n=25, seed=100 + k), d / f"ep_{k:03d}.jsonl")
        return d

    def test_train_writes_weights(self, workspace, straight_map, capsys):
        d = self.make_dataset_dir(workspace, straight_map)
        doc = {
            "sim": {"dt": 0.1, "seed": 5},
            "mode": {"map": "map.json"},
            "policies": {"train": {"epochs": 3, "batch": 32}},
        }
        cfg_path = write_config(workspace / "train.json", doc)
        out = workspace / "weights.json"
        assert main(["train", "--dataset", str(d), "--config", cfg_path, "--out", str(out)]) == 0
        assert "final train loss" in capsys.readouterr().out
        from drivesim.policies import load_mlp

        m = load_mlp(out)
        assert m.layer_sizes == (8, 32, 32, 2)

    def test_train_reproducible_bytes(self, workspace, straight_map):
        d = self.make_dataset_dir(workspace, straight_map)
        doc = {
            "sim": {"dt": 0.1, "seed": 5},
            "mode": {"map": "map.json"},
            "policies": {"train": {"epochs": 2}},
        }
        cfg_path = write_config(workspace / "train.json", doc)
        w1, w2 = workspace / "w1.json", workspace / "w2.json"
        assert main(["train", "--dataset", str(d), "--config", cfg_path, "--out", str(w1)]) == 0
        assert main(["train", "--dataset", str(d), "--config", cfg_path, "--out", str(w2)]) == 0
        assert w1.read_bytes() == w2.read_bytes()

    def test_empty_dataset_exit_2(self, workspace):
        d = workspace / "empty"
        d.mkdir()
        doc = {"sim": {"dt": 0.1}, "mode": {"map": "map.json"}}
        cfg_path = write_config(workspace / "train.json", doc)
        assert main(["train", "--dataset", str(d), "--config", cfg_path, "--out", str(workspace / "w.json")]) == 2


class TestEvalCommand:
    def test_realism_zero_for_identical(self, workspace, capsys):
        doc = {"sim": {"dt": 0.1}, "mode": {"map": "map.json"}, "metrics": {"horizons": [0.5, 1.0, 2.0]}}
        cfg_path = write_config(workspace / "eval.json", doc)
        out = workspace / "realism"
        rc = main([
            "eval", "realism", "--config", cfg_path,
            "--sim", str(workspace / "source.jsonl"),
            "--gt", str(workspace / "source.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((workspace / "realism.json").read_text())
        assert doc["mean_l2"] == [0.0, 0.0, 0.0]
        assert (workspace / "realism.csv").exists()

    def test_reactivity_subjects_disagree(self, workspace, capsys):
        doc = {
            "sim": {"dt": 0.1, "horizon": 50, "seed": 2},
            "mode": {"map": "map.json"},
            "metrics": {"suite": {"scenes": 10}},
        }
        cfg_path = write_config(workspace / "eval.json", doc)
        scores = {}
        for subject in ("log_replay_constant", "reactive_follow"):
            out = workspace / f"react_{subject}"
            rc = main([
                "eval", "reactivity", "--config", cfg_path, "--subject", subject, "--out", str(out),
            ])
            assert rc == 0
            scores[subject] = json.loads(out.with_suffix(".json").read_text())["reactivity"]
        assert scores["log_replay_constant"] == 0.0
        assert scores["reactive_follow"] == 1.0

    def test_planner_mismatch_exit_2(self, workspace):
        doc = {"sim": {"dt": 0.1}, "mode": {"map": "map.json"}}
        cfg_path = write_config(workspace / "eval.json", doc)
        d1 = workspace / "sims"
        d2 = workspace / "refs"
        d1.mkdir(), d2.mkdir()
        write_episode_log(make_log(read_map(workspace)), d1 / "a.jsonl")
        rc = main([
            "eval", "planner", "--config", cfg_path,
            "--episodes", str(d1), "--references", str(d2),
            "--out", str(workspace / "planner"),
        ])
        assert rc == 2


def read_map(workspace):
    from drivesim.core import load_map

    return load_map(workspace / "map.json")


class TestRenderCommand:
    def test_frame_count_and_overview(self, workspace, straight_map):
        log = make_log(straight_map, n=49)  # 50 states
        write_episode_log(log, workspace / "fifty.jsonl")
        out = workspace / "render"
        rc = main([
            "render", "--log", str(workspace / "fifty.jsonl"),
            "--map", str(workspace / "map.json"),
            "--every-n", "10", "--out", str(out),
        ])
        assert rc == 0
        frames = sorted(p.name for p in out.glob("frame_*.svg"))
        assert len(frames) == 5
        assert (out / "overview.svg").exists()

    def test_deterministic_bytes(self, workspace):
        out1, out2 = workspace / "r1", workspace / "r2"
        for out in (out1, out2):
            rc = main([
                "render", "--log", str(workspace / "source.jsonl"),
                "--map", str(workspace / "map.json"), "--out", str(out),
            ])
            assert rc == 0
        for p1 in sorted(out1.glob("*.svg")):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_render_without_map(self, workspace):
        out = workspace / "nomap"
        rc = main(["render", "--log", str(workspace / "source.jsonl"), "--out", str(out)])
        assert rc == 0
        assert (out / "overview.svg").exists()

    def test_missing_log_exit_1(self, workspace):
        rc = main(["render", "--log", str(workspace / "absent.jsonl"), "--out", str(workspace / "x")])
        assert rc == 1


class TestSampleStateCommand:
    def test_writes_single_frame_log(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "seed": 6},
            "mode": {
                "name": "journey",
                "map": "map.json",
                "location": [100.0, 0.0, 0.0],
                "procedural": {"agents_mean": 4.0},
            },
        }
        cfg_path = write_config(workspace / "sample.json", doc)
        out = workspace / "state.jsonl"
        assert main(["sample-state", "--config", cfg_path, "--out", str(out)]) == 0
        ep = read_episode_log(out)
        assert len(ep.states) == 1
        assert ep.states[0].ego.pose.x == pytest.approx(100.0)

    def test_unknown_mode_exit_1(self, workspace, capsys):
        doc = {"sim": {"dt": 0.1, "seed": 6}, "mode": {"name": "bogus", "map": "map.json", "location": [100.0, 0.0, 0.0]}}
        cfg_path = write_config(workspace / "sample.json", doc)
        out = workspace / "state.jsonl"
        assert main(["sample-state", "--config", cfg_path, "--out", str(out)]) == 1
        assert "mode.name" in capsys.readouterr().err
        assert not out.exists()

    def test_usable_as_scenario_source(self, workspace):
        doc = {
            "sim": {"dt": 0.1, "seed": 6},
            "mode": {
                "name": "journey",
                "map": "map.json",
                "location": [100.0, 0.0, 0.0],
                "procedural": {"agents_mean": 3.0},
            },
        }
        cfg_path = write_config(workspace / "sample.json", doc)
        state_path = workspace / "state.jsonl"
        assert main(["sample-state", "--config", cfg_path, "--out", str(state_path)]) == 0
        run_doc = {
            "sim": {"dt": 0.1, "horizon": 10, "seed": 0},
            "mode": {"name": "scenario", "map": "map.json", "source_log": "state.jsonl"},
            "policies": {"default": "reactive_follow"},
            "ego": {"controller": "constant"},
        }
        run_path = write_config(workspace / "run.json", run_doc)
        out = workspace / "rollout.jsonl"
        assert main(["simulate", "--config", run_path, "--out", str(out)]) == 0
        ep = read_episode_log(out)
        assert len(ep.states) == 11


def test_cli_import_leaves_scipy_out():
    # no command needs scipy, so importing the CLI must not pay for it
    import drivesim

    src = str(Path(drivesim.__file__).resolve().parents[1])
    code = "import sys; import drivesim.cli; print('scipy.ndimage' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _key_tree(block: str) -> dict:
    """The nested keys of a JSON-with-comments block whose values may be
    placeholders such as [x, y, yaw]: a key maps to None, or to the tree of
    the object it opens."""
    text = re.sub(r"//[^\n]*", "", block)
    root: dict = {}
    stack, key = [root], None
    for token in re.finditer(r'"([^"]*)"\s*:|[{}]', text):
        if token.group(1) is not None:
            key = token.group(1)
            stack[-1][key] = None
        elif token.group(0) == "}":
            stack.pop()
        elif key is not None:  # the "{" that opens the value of key
            stack[-1][key] = {}
            stack.append(stack[-1][key])
            key = None
    return root


def _prune(tree: dict, schema: dict) -> dict:
    """tree without what lies below the schema's plain keys: an object
    there (mode.paths) is a value, not a section."""
    return {
        k: _prune(v, schema[k]) if isinstance(v, dict) and isinstance(schema.get(k), dict) else None
        for k, v in tree.items()
    }


def _schema_keys(schema: dict) -> dict:
    """The schema's key tree: a key maps to None, a section to its tree."""
    return {k: _schema_keys(v) if isinstance(v, dict) else None for k, v in schema.items()}


def test_readme_config_block_names_the_schema():
    # the README documents exactly the keys that SCHEMA declares
    from drivesim.cli.config import SCHEMA

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    assert _prune(_key_tree(blocks[0]), SCHEMA) == _schema_keys(SCHEMA)
