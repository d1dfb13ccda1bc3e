"""Unicycle pose integration and its inverse for control-label extraction.

The transition applies the yaw rate first, then translates along the new
heading, so a recorded pose pair maps back to exactly one (yaw rate, speed)
pair whenever the displacement is aligned with the target yaw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import AgentState, Pose2, normalize_angle

DEFAULT_PHI_MAX = 1.5  # rad/s cap on commanded yaw rate


@dataclass(frozen=True)
class Control:
    """One step of commanded motion: yaw rate phi (rad/s), speed v (m/s)."""

    phi: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.v)):
            raise ValueError(f"non-finite control ({self.phi!r}, {self.v!r})")
        if self.v < 0:
            raise ValueError(f"speed must be >= 0, got {self.v}")


def advance(agent: AgentState, control: Control, dt: float) -> AgentState:
    """Integrate one step: yaw first, then move control.v * dt along the new
    heading. Extent, id, and kind are unchanged; speed becomes control.v."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    yaw = normalize_angle(agent.pose.yaw + control.phi * dt)
    step = control.v * dt
    pose = Pose2(agent.pose.x + step * math.cos(yaw), agent.pose.y + step * math.sin(yaw), yaw)
    return replace(agent, pose=pose, speed=control.v)


def fit_controls(frm: Pose2, to: Pose2, dt: float) -> Control:
    """Recover the control that maps `frm` to `to` in one step.

    Exact inverse of `advance` on its reachable set (displacement aligned
    with to.yaw); lossy otherwise. The yaw rate is clamped to +-DEFAULT_PHI_MAX.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    phi = normalize_angle(to.yaw - frm.yaw) / dt
    phi = min(max(phi, -DEFAULT_PHI_MAX), DEFAULT_PHI_MAX)
    v = math.hypot(to.x - frm.x, to.y - frm.y) / dt
    return Control(phi, v)
