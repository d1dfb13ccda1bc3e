"""Outside data is checked where it enters: the map, log, config and weights
files of the README's worked example, each broken in one place, either run,
exit 2 on a domain error, or exit 1 with a message that names the file or
the config key. main never raises."""
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from drivesim.cli import main
from drivesim.policies import init_mlp, save_mlp

README = Path(__file__).resolve().parents[1] / "README.md"
DELETE = object()  # removes the value from its parent; at the root, empties the file
# A mutation deletes one value or puts one of these in its place: null, a
# value of the wrong type, NaN, or a negative number.
VALUES = (DELETE, None, "abc", 5, [], {}, math.nan, -1)


def _write(path: Path, doc) -> None:
    if doc is DELETE:
        text = ""
    elif path.suffix == ".jsonl" and isinstance(doc, list):  # one record per line
        text = "".join(json.dumps(rec) + "\n" for rec in doc)
    else:
        text = json.dumps(doc)
    path.write_text(text)


@pytest.fixture(scope="module")
def example_files(tmp_path_factory):
    """The worked example's map.json and run.json, the episode log that
    run.json simulates, a weights file, and mlp_run.json, which replays
    that log with mlp agents: {file name: its JSON document}."""
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    smap, run = (json.loads(block) for block in blocks[:2])
    base = tmp_path_factory.mktemp("worked_example")
    _write(base / "map.json", smap)
    _write(base / "run.json", run)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(base / "run.json"), "--out", str(base / "logs")]) == 0
    save_mlp(init_mlp(seed=0), base / "weights.json")
    log = [json.loads(line) for line in (base / "logs" / "episode_0000.jsonl").read_text().splitlines()]
    mlp_run = {
        "sim": run["sim"],
        "mode": {"name": "scenario", "map": "map.json", "source_log": "log.jsonl"},
        "policies": {"default": "mlp", "weights": "weights.json"},
        "ego": {"controller": "log_replay"},
    }
    weights = json.loads((base / "weights.json").read_text())
    return {"map.json": smap, "log.jsonl": log, "mlp_run.json": mlp_run, "weights.json": weights}


@st.composite
def mutations(draw, files):
    """(file name, path to a value in its document, replacement value)."""
    name = draw(st.sampled_from(sorted(files)))
    node, path = files[name], []
    for _ in range(draw(st.integers(0, 6))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return name, tuple(path), draw(st.sampled_from(VALUES))


def _mutated(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _keys(doc: dict, prefix: str = ""):
    """The dotted name of every key in a config document."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _keys(value, f"{prefix}{key}.")


def _names_its_source(err: str, base: Path, name: str, doc, path: tuple) -> bool:
    """Whether an error message names the broken file, or for the config a
    key at, above or below the broken place."""
    if str(base / name) in err:
        return True
    broken = ".".join(path)
    return name == "mlp_run.json" and any(
        key in err for key in _keys(doc) if key.startswith(broken) or broken.startswith(key)
    )


def _check(files, name, path, value):
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp)
        for file, doc in files.items():
            _write(base / file, _mutated(doc, path, value) if file == name else doc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["simulate", "--config", str(base / "mlp_run.json"), "--out", str(base / "out.jsonl")])
        assert code in (0, 1, 2)
        if code == 1:
            assert _names_its_source(err.getvalue(), base, name, files[name], path), err.getvalue()


def test_mutated_example_files_exit_cleanly(example_files):
    @settings(
        max_examples=150, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(mutations(example_files))
    # the probed faults: lists given as null, a number or text, an unknown
    # successor, an infinite layer size
    @example(("map.json", ("crosswalks",), None))
    @example(("map.json", ("lanes",), 5))
    @example(("map.json", ("lanes", 1, "successors"), "abc"))
    @example(("map.json", ("lanes", 1, "successors", 0), -1))
    @example(("weights.json", ("layers", 0, "rows"), math.inf))
    def run(mutation):
        _check(example_files, *mutation)

    run()


def test_the_unmutated_example_runs(example_files):
    with tempfile.TemporaryDirectory() as tmp:
        for file, doc in example_files.items():
            _write(Path(tmp) / file, doc)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", f"{tmp}/mlp_run.json", "--out", f"{tmp}/out.jsonl"]) == 0
