"""Command-line interface.

Commands: simulate, train, eval, render, sample-state. Exit codes: 0 ok,
1 usage / parse / IO error, 2 domain error (simulation, mismatched or
empty inputs).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .. import metrics
from ..core import Episode, FormatError
from ..engine import run_mode, sample_initial_state
from ..policies import LogReplayPolicy, build_bc_dataset, mlp_loss, mlp_train, save_mlp, controls_to_targets
from .config import ConfigError, RunSetup, load_run_config
from .logs import read_episode_dir, read_episode_log, write_episode_log

import numpy as np


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        raise _UsageError(message)


def _common_flags(parser: argparse.ArgumentParser, config_required: bool = True) -> None:
    parser.add_argument("--config", required=config_required, help="run configuration (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--jobs", type=int, default=1, help="no effect: episodes run one by one in this process")
    parser.add_argument("--out", required=True, help="output file or directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drivesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run episodes in the configured mode")
    _common_flags(p)

    p = sub.add_parser("train", help="behavioral-cloning training from episode logs")
    _common_flags(p)
    p.add_argument("--dataset", required=True, help="directory of episode logs")

    p = sub.add_parser("eval", help="compute a metric report")
    p.add_argument("kind", choices=("realism", "reactivity", "planner"))
    _common_flags(p)
    p.add_argument("--sim", help="simulated log file/dir (realism)")
    p.add_argument("--gt", help="ground-truth log file/dir (realism)")
    p.add_argument("--episodes", help="evaluated log dir (planner)")
    p.add_argument("--references", help="reference log dir (planner)")
    p.add_argument(
        "--subject",
        choices=("reactive_follow", "constant", "log_replay_constant"),
        default="reactive_follow",
        help="follower policy for reactivity",
    )

    p = sub.add_parser("render", help="write SVG snapshots of an episode log")
    p.add_argument("--log", required=True, help="episode log to draw")
    p.add_argument("--map", default=None, help="semantic map (JSON), optional")
    p.add_argument("--every-n", type=int, default=10, help="frame sampling stride")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sample-state", help="sample an initial state, write a 1-frame log")
    _common_flags(p)
    return parser


def _setup(args) -> RunSetup:
    path = Path(args.config)
    return RunSetup(load_run_config(path), base_dir=path.parent, seed_override=args.seed)


def cmd_simulate(args) -> int:
    setup = _setup(args)
    n_episodes = setup.episode_count()
    out = Path(args.out)
    # everything but the seed is the same for every episode of the run
    inputs = dict(
        smap=setup.smap,
        make_policies=setup.policies_factory(),
        s1=setup.initial_state(),
        forced_paths=setup.forced_paths(),
        **setup.sampler_inputs(),
    )
    cfg = setup.sim_config
    episodes = [
        run_mode(setup.mode_name, cfg=dataclasses.replace(cfg, seed=cfg.seed + k), **inputs)
        for k in range(n_episodes)
    ]
    if n_episodes == 1:
        out.parent.mkdir(parents=True, exist_ok=True)
        write_episode_log(episodes[0], out)
    else:
        out.mkdir(parents=True, exist_ok=True)
        for k, episode in enumerate(episodes):
            write_episode_log(episode, out / f"episode_{k:04d}.jsonl")
    for k, episode in enumerate(episodes):
        print(f"episode {k}: {len(episode.states)} states, termination={episode.termination}")
    return 0


def cmd_train(args) -> int:
    setup = _setup(args)
    cfg, dataset_args = setup.training()
    episodes = read_episode_dir(args.dataset)
    if not episodes:
        raise ValueError(f"no episode logs under {args.dataset}")
    dataset = build_bc_dataset(episodes, setup.smap, **dataset_args)
    if not dataset:
        raise ValueError("dataset produced no training samples (histories too short?)")
    model = mlp_train(dataset, cfg)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_mlp(model, args.out)
    x = np.asarray([f for f, _ in dataset])
    t = controls_to_targets([c for _, c in dataset], model.phi_max, model.v_max)
    print(f"trained on {len(dataset)} samples from {len(episodes)} episodes")
    print(f"final train loss: {mlp_loss(model, x, t):.6f}")
    return 0


def cmd_eval(args) -> int:
    setup = _setup(args)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = out.with_suffix(".json") if out.suffix != ".json" else out
    csv_path = json_path.with_suffix(".csv")

    if args.kind == "realism":
        if not args.sim or not args.gt:
            raise _UsageError("eval realism needs --sim and --gt")
        sims = read_episode_dir(args.sim)
        gts = read_episode_dir(args.gt)
        report = metrics.realism_report(sims, gts, setup.horizons())
        metrics.write_report(report, json_path, csv_path)
        print("horizon_s  mean_l2_m")
        for h, d in zip(report.horizons, report.mean_l2):
            print(f"{h:9.1f}  {d:.6f}")
        return 0

    if args.kind == "reactivity":
        suite = metrics.static_lead_suite(setup.smap, **setup.suite_params())
        if args.subject == "log_replay_constant":
            subject = lambda scene: LogReplayPolicy(
                metrics.constant_speed_log(scene, setup.sim_config, setup.smap)
            )
        else:
            subject = setup.policy(args.subject)
        report = metrics.reactivity(suite, subject, setup.sim_config, setup.smap)
        metrics.write_report(report, json_path, csv_path)
        print(
            f"reactivity: {report.reactivity:.3f} "
            f"({report.scenes_without_collision}/{report.scenes_total} scenes collision-free)"
        )
        return 0

    # planner
    if not args.episodes or not args.references:
        raise _UsageError("eval planner needs --episodes and --references")
    episodes = read_episode_dir(args.episodes)
    references = read_episode_dir(args.references)
    report = metrics.planner_eval(episodes, references, setup.planner_thresholds())
    metrics.write_report(report, json_path, csv_path)
    print("category                count")
    for name in report.CATEGORIES:
        print(f"{name:22s}  {getattr(report, name):5d}")
    return 0


def cmd_render(args) -> int:
    from ..core import load_map
    from .svg import write_episode_svgs

    episode = read_episode_log(args.log)
    smap = load_map(args.map) if args.map else None
    if args.every_n < 1:
        raise _UsageError("--every-n must be >= 1")
    paths = write_episode_svgs(episode, args.out, every_n=args.every_n, smap=smap)
    print(f"wrote {len(paths)} SVG files to {args.out}")
    return 0


def cmd_sample_state(args) -> int:
    setup = _setup(args)
    cfg = setup.sim_config
    location, state = sample_initial_state(setup.mode_name, setup.smap, cfg, **setup.sampler_inputs())
    episode = Episode(dt=cfg.dt, map_id=setup.smap.map_id, states=(state,), termination="external")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    write_episode_log(episode, args.out)
    print(f"sampled state with {len(state.agents)} agents at ({location.x:.1f}, {location.y:.1f})")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "eval": cmd_eval,
    "render": cmd_render,
    "sample-state": cmd_sample_state,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError, FormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
