"""drivesim: closed-loop traffic simulation for evaluating self-driving
control policies.

A state holds every traffic participant's pose/extent/speed; per-agent
policies advance each participant, the ego included, one step at a time
off the frozen previous state; metrics score the resulting episodes for
realism, reactivity, and planner failures.
"""
from .core import (
    AgentState,
    Episode,
    Lane,
    Obb,
    Pose2,
    SemanticMap,
    SimState,
    TrafficLight,
    agent_obb,
    lane_pose_at,
    load_map,
    nearest_lane,
    normalize_angle,
    obb_overlap,
    save_map,
)
from .engine import SimConfig, run_mode, step, unroll
from .kinematics import Control, advance, fit_controls
from .policies import (
    BrakeToStopPolicy,
    ConstantVelocityPolicy,
    FeatureExtractor,
    LogReplayPolicy,
    Mlp,
    MlpPolicy,
    PathOverridePolicy,
    PolicyDecision,
    ReactiveFollowPolicy,
    build_bc_dataset,
    mlp_forward,
    mlp_train,
    policy_act,
)
from .raster import Grid, connected_components, extract_from_channel, render

__version__ = "0.1.0"
