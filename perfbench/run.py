"""drivesim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a drivesim checkout; the program is imported from
./src. One client issues the workload's operations one after another for
S seconds (whole iterations, at least one), checks every output, and
prints a report line followed by the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 repeats the same
iterations with every layer wrapped in spans and reports per-layer
metrics. See perfbench/README.md for what each workload and metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine so far, from
    /proc/stat; None where there is no such file. Steal is time the
    hypervisor gave this machine's CPUs to someone else."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def steal_frac(before, after) -> float | None:
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:  # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "drivesim").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup(workload_cls, seed: int, base: Path):
    """Median over fresh interpreters of importing drivesim, plus writing
    this workload's inputs. Returns (setup_s, samples, prepared workload)."""
    probe = f"import sys; sys.path.insert(0, {str(SRC)!r}); import drivesim.cli, drivesim.raster"
    samples = []
    workload = None
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], check=True, timeout=120)
        imported = time.perf_counter()
        work = base / f"inputs_{r}"
        workload = workload_cls(work, seed)
        workload.prepare()
        samples.append(imported - start + time.perf_counter() - imported)
        if r < SETUP_REPEATS - 1:
            shutil.rmtree(work)
    return statistics.median(samples), samples, workload


def run_loop(workload, client, seconds: float, iterations: int | None = None) -> tuple[int, float, list[float]]:
    """Whole iterations until `seconds` have passed (at least one), or
    exactly `iterations`. Returns (iterations, wall seconds, per-iteration
    summed op seconds)."""
    start = time.perf_counter()
    per_iteration = []
    i = 0
    while (iterations is None and (i == 0 or time.perf_counter() - start < seconds)) or (
        iterations is not None and i < iterations
    ):
        first = len(client.ops)
        workload.iteration(client)
        per_iteration.append(sum(op["s"] for op in client.ops[first:]))
        i += 1
    return i, time.perf_counter() - start, per_iteration


def metric(value, unit, samples=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    return out


def end_to_end(workload, ops, per_iteration, setup_s, setup_samples) -> tuple[dict, dict]:
    """The end-to-end metrics over the timed ops, and the same figures
    under the workload's own names (plus bc_pipeline's p90 and train_s)
    for the report."""
    from spans import percentile

    through = [op for op in ops if op["kind"] in workload.throughput_kind]
    latency = [op["s"] for op in ops if op["kind"] == workload.latency_kind]
    e2e = {
        "throughput_per_s": metric(sum(op["units"] for op in through) / sum(op["s"] for op in through), "1/s",
                                   len(through)),
        "op_s_p50": metric(statistics.median(latency), "s", len(latency)),
        "iteration_s": metric(statistics.median(per_iteration), "s", len(per_iteration)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_s": metric(setup_s, "s", setup_samples),
    }
    detail = {
        workload.throughput_name: e2e["throughput_per_s"],
        f"{workload.latency_name}_p50": e2e["op_s_p50"],
    }
    if workload.name == "bc_pipeline":
        detail["episode_s_p90"] = metric(percentile(latency, 0.9), "s", len(latency))
        train = [op["s"] for op in ops if op["kind"] == "train"]
        detail["train_s"] = metric(statistics.median(train), "s", len(train))
    return e2e, detail


def traced_pass(workload, client, iterations: int, untraced_wall: float) -> dict:
    from spans import SpanRecorder, layer_metrics, summarize
    from workloads import Client

    recorder = SpanRecorder()
    recorder.install()
    recorder.patch(Client, "verify", "bench.checks")  # the client's own work between operations
    try:
        _, wall, _ = run_loop(workload, client, 0.0, iterations)
    finally:
        recorder.restore()
    summary = summarize(recorder.spans, threading.get_ident(), wall)
    per_layer = {k: metric(v, unit) for k, (v, unit) in layer_metrics(summary).items()}
    per_layer["trace.overhead_frac"] = metric(wall / untraced_wall - 1.0, "ratio")
    per_layer["trace.unattributed_frac"] = metric(summary["unattributed_frac"], "ratio")
    per_layer["raster.render.px256.peak_alloc_mb"] = metric(workload.peak_alloc_mb(), "MB")
    accounting = {
        "traced_wall_s": wall,
        "spans": summary["spans"],
        "client_self_frac": summary["client_self_frac"],
        "unattributed_frac": summary["unattributed_frac"],
        "pool_self_frac": summary["pool_self_frac"],
    }
    return per_layer, accounting


def load_expected(name: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return doc["workloads"].get(name, {})


def record_digests(name: str, observed: dict) -> None:
    doc = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    doc.setdefault("seed", DEFAULT_SEED)
    doc.setdefault("workloads", {})[name] = dict(sorted(observed.items()))
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's output digests (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    if not (SRC / "drivesim" / "__init__.py").is_file():
        print(f"error: no drivesim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Client

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (one of {sorted(WORKLOADS)})", file=sys.stderr)
        return 1
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: digests are stored for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 1

    env = environment(args.seed)
    base = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, setup_samples, workload = measure_setup(WORKLOADS[args.workload], args.seed, base)
        workload.load()
        expected = None if args.record_digests else load_expected(args.workload, args.seed)
        client = Client(expected)
        if workload.warmup:  # checked like every op, but not timed
            workload.iteration(client)
        timed_from = len(client.ops)
        ticks = cpu_ticks()
        iterations, wall, per_iteration = run_loop(workload, client, args.seconds)
        steal = steal_frac(ticks, cpu_ticks())
        e2e, detail = end_to_end(workload, client.ops[timed_from:], per_iteration, setup_s, setup_samples)
        per_layer, accounting = traced_pass(workload, client, iterations, wall) if args.trace else (None, None)
        workload.probe(client)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()  # fails while another run still uses it
        except OSError:
            pass

    failed = sum(1 for op in client.ops if not op["ok"])
    detail["failed_ops_frac"] = metric(failed / len(client.ops), "ratio", len(client.ops))
    if args.record_digests:
        record_digests(args.workload, client.observed)
    report = {
        "workload": args.workload,
        "iterations": iterations,
        "timed_wall_s": wall,
        # host contention during the timed loop: a run with a high share reads slow
        "steal_frac": steal,
        "env": env,
        "end_to_end": e2e,
        "trace": accounting,
        "detail": detail,
        "failures": client.failures[:20],
        # stored digests no output of this run was checked against: a stale digests.json
        "digests_unseen": sorted(set(expected or {}) - set(client.observed)),
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(client.ops),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in (per_layer or e2e).items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
