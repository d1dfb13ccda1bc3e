"""Line-delimited JSON episode logs.

First line is a header record (dt, map_id, ego_id, termination, version),
then one record per frame. Serialization is canonical (sorted keys, fixed
separators, full-precision floats) so identical episodes produce identical
bytes and logs round-trip losslessly.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

from ..core import (
    AGENT_KINDS, RECORD_ERRORS, TERMINATIONS, AgentState, Episode, FormatError, Pose2, SimState, error_detail,
)

LOG_VERSION = 1


def _agent_record(agent: AgentState) -> dict:
    return {
        "id": agent.id,
        "x": agent.pose.x,
        "y": agent.pose.y,
        "yaw": agent.pose.yaw,
        "length": agent.extent[0],
        "width": agent.extent[1],
        "v": agent.speed,
        "kind": agent.kind,
        "active": agent.active,
    }


def _agent_from_record(rec: dict) -> AgentState:
    agent_id = str(rec["id"])
    x, y, yaw = float(rec["x"]), float(rec["y"]), float(rec["yaw"])
    length, width, v = float(rec["length"]), float(rec["width"]), float(rec["v"])
    kind = str(rec["kind"])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(yaw)):
        raise ValueError(f"agent {agent_id}: non-finite pose ({x}, {y}, {yaw})")
    if not (0 < length < math.inf and 0 < width < math.inf):
        raise ValueError(f"agent {agent_id}: length and width must be finite and > 0, got {length}, {width}")
    if not 0 <= v < math.inf:
        raise ValueError(f"agent {agent_id}: speed must be finite and >= 0, got {v}")
    if kind not in AGENT_KINDS:
        raise ValueError(f"agent {agent_id}: unknown kind {kind!r}")
    return AgentState(agent_id, Pose2(x, y, yaw), (length, width), v, kind, bool(rec["active"]))


def _dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def serialize_episode(episode: Episode) -> str:
    lines = [
        _dumps(
            {
                "dt": episode.dt,
                "map_id": episode.map_id,
                "ego_id": episode.ego_id,
                "termination": episode.termination,
                "version": LOG_VERSION,
            }
        )
    ]
    for state in episode.states:
        lines.append(
            _dumps({"t": state.step_index, "agents": [_agent_record(a) for a in state.agents]})
        )
    return "\n".join(lines) + "\n"


def _frame(rec: dict, ego_id: str, states: list) -> SimState:
    """The state of one frame record, which follows states."""
    agents = tuple(_agent_from_record(a) for a in rec["agents"])
    t = rec["t"]
    if type(t) is not int or t < 0:
        raise ValueError(f"t must be a whole number >= 0, got {t!r}")
    if states and t != states[-1].step_index + 1:
        raise ValueError(f"t is {t}, expected {states[-1].step_index + 1}: frames must be contiguous")
    ids = {a.id for a in agents}
    if len(ids) != len(agents):
        raise ValueError("agent ids must be pairwise distinct")
    if ego_id not in ids:
        raise ValueError(f"ego id {ego_id!r} not present among agents")
    if states and ids != {a.id for a in states[0].agents}:
        raise ValueError("agent id set differs from the first frame")
    return SimState(step_index=t, agents=agents, ego_id=ego_id)


def parse_episode(text: str) -> Episode:
    """The episode of a log's text. The log is checked here, once, for
    everything the engine takes for granted; a FormatError names the line
    at fault."""
    lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise FormatError("empty episode log")
    number = lines[0][0]
    try:
        header = json.loads(lines[0][1])
        if header.get("version") != LOG_VERSION:
            raise ValueError(f"unsupported log version {header.get('version')!r}")
        ego_id = str(header["ego_id"])
        dt, map_id = float(header["dt"]), str(header["map_id"])
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        termination = str(header.get("termination", "external"))
        if termination not in TERMINATIONS:
            raise ValueError(f"unknown termination {termination!r}")
        if len(lines) == 1:
            raise ValueError("the log has no frame")
        states: list[SimState] = []
        for number, line in lines[1:]:
            states.append(_frame(json.loads(line), ego_id, states))
    except RECORD_ERRORS as exc:
        raise FormatError(f"line {number}: {error_detail(exc)}") from None
    return Episode(dt=dt, map_id=map_id, states=tuple(states), termination=termination)


def write_episode_log(episode: Episode, path: str | Path) -> None:
    Path(path).write_text(serialize_episode(episode), encoding="utf-8", newline="\n")


def read_episode_log(path: str | Path) -> Episode:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_episode(text)
    except FormatError as exc:
        raise FormatError(f"episode log {path}: {exc}") from None


def read_episode_dir(path: str | Path) -> list[Episode]:
    """All *.jsonl logs under a directory (or the single file), sorted by
    name for determinism."""
    p = Path(path)
    if p.is_file():
        return [read_episode_log(p)]
    files = sorted(p.glob("*.jsonl"))
    return [read_episode_log(f) for f in files]
