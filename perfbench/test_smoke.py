"""One-iteration smoke run of every benchmark workload, with output checks
(stored digests at the default seed, semantic bounds, --jobs 1 vs 2) on.

    python -m pytest perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_iteration_is_correct(workload):
    proc = run(ROOT, workload)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["digests_unseen"] == []  # every stored digest was checked: none is stale
    assert result["attempted"] >= 2  # at least one timed op plus the --jobs 1 probe
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = run(ROOT, "raster_roundtrip", trace=1)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"], report["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # no root span: the named spans themselves must cover the client's traced wall time
    assert 0.95 <= report["trace"]["client_self_frac"] <= 1.0
    assert result["metrics"]["trace.unattributed_frac"]["value"] < 0.05
    assert result["metrics"]["raster.render.calls"]["value"] == 9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"])
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_stale_digests_are_caught(tmp_path):
    (tmp_path / "src").symlink_to(ROOT / "src")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "perfbench" / "digests.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    stored = doc["workloads"]["raster_roundtrip"]
    stored["arc_64"] = "0" * 64
    stored["arc_512"] = "0" * 64
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = run(tmp_path, "raster_roundtrip")
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    # the arc_64 frame of the untimed warm-up iteration and of the one timed iteration
    assert not result["correct"] and result["failed"] == 2
    assert report["digests_unseen"] == ["arc_512"]
