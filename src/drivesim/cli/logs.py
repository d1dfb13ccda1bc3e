"""Line-delimited JSON episode logs.

First line is a header record (dt, map_id, ego_id, termination, version),
then one record per frame. Serialization is canonical (sorted keys, fixed
separators, full-precision floats) so identical episodes produce identical
bytes and logs round-trip losslessly.
"""
from __future__ import annotations

import json
from pathlib import Path

from ..core import RECORD_ERRORS, AgentState, Episode, FormatError, Pose2, SimState, error_detail

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
    return AgentState(
        id=str(rec["id"]),
        pose=Pose2(float(rec["x"]), float(rec["y"]), float(rec["yaw"])),
        extent=(float(rec["length"]), float(rec["width"])),
        speed=float(rec["v"]),
        kind=str(rec["kind"]),
        active=bool(rec["active"]),
    )


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


def parse_episode(text: str) -> Episode:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty episode log")
    states = None  # None while the header is read
    try:
        header = json.loads(lines[0])
        if header.get("version") != LOG_VERSION:
            raise ValueError(f"unsupported log version {header.get('version')!r}")
        ego_id = str(header["ego_id"])
        dt, map_id = float(header["dt"]), str(header["map_id"])
        termination = str(header.get("termination", "external"))
        states = []
        for line in lines[1:]:
            rec = json.loads(line)
            states.append(
                SimState(
                    step_index=int(rec["t"]),
                    agents=tuple(_agent_from_record(a) for a in rec["agents"]),
                    ego_id=ego_id,
                )
            )
    except RECORD_ERRORS as exc:
        record = 0 if states is None else len(states) + 1
        line_number = [n for n, line in enumerate(text.splitlines(), 1) if line.strip()][record]
        raise FormatError(f"line {line_number}: {error_detail(exc)}") from None
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
