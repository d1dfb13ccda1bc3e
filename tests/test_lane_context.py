"""The batched lane queries against the scalar loops they replaced
(tests/conftest.py), compared with ==, and the engine's independence from
the order of agents in a state."""
import numpy as np
from hypothesis import given, settings, strategies as st

from drivesim.core import AgentState, Lane, Pose2, SemanticMap, SimState, nearest_lane, project_to_polyline
from drivesim.engine import SimConfig, assign_policies, unroll
from drivesim.policies import ConstantVelocityPolicy, ReactiveFollowPolicy, lead_gap

from conftest import reference_lead_gap, reference_nearest_lane, reference_project_to_polyline

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True)

# Small integers make exact ties across segments and lanes common; the
# micrometre grid gives generic positions.
coord = st.one_of(
    st.integers(-6, 6).map(float),
    st.integers(-50_000_000, 50_000_000).map(lambda k: k / 1e6),
)
point = st.tuples(coord, coord)
polyline = st.lists(point, min_size=2, max_size=6).filter(
    lambda pts: all(p != q for p, q in zip(pts, pts[1:]))
).map(np.array)


def as_rows(dist, lateral, arclength):
    return list(zip(dist.tolist(), lateral.tolist(), arclength.tolist()))


@PROPERTY
@given(path=polyline, points=st.lists(point, min_size=1, max_size=5))
def test_projection_matches_reference(path, points):
    expected = [reference_project_to_polyline(path, p) for p in points]
    assert [project_to_polyline(path, p) for p in points] == expected
    assert as_rows(*project_to_polyline(path, np.array(points))) == expected


@PROPERTY
@given(
    paths=st.lists(polyline, min_size=1, max_size=4),
    ids=st.permutations("abcd"),
    points=st.lists(point, min_size=1, max_size=5),
)
def test_nearest_lane_matches_reference(paths, ids, points):
    smap = SemanticMap(lanes=tuple(Lane(i, p, 3.5) for i, p in zip(ids, paths)))
    expected = [reference_nearest_lane(smap, p) for p in points]
    assert [nearest_lane(smap, p) for p in points] == expected
    lane_ids, arclength, lateral = nearest_lane(smap, np.array(points))
    assert list(zip(lane_ids, arclength.tolist(), lateral.tolist())) == expected


def junction_map():
    """A corridor a -> b -> d with a branch a -> c and a parallel lane p."""
    lane = lambda i, pts, succ=(): Lane(i, np.array(pts, dtype=float), 3.5, successors=succ)
    return SemanticMap(
        lanes=(
            lane("a", [[0, 0], [40, 0]], ("c", "b")),
            lane("b", [[40, 0], [80, 0]], ("d",)),
            lane("c", [[40, 0], [70, 15]]),
            lane("d", [[80, 0], [120, 0]]),
            lane("p", [[0, 3.5], [120, 3.5]]),
        )
    )


JUNCTION = junction_map()
agent_spec = st.tuples(
    st.one_of(st.integers(0, 240).map(lambda k: k / 2.0), st.floats(0.0, 120.0)),
    st.sampled_from((-1.0, 0.0, 0.8, 2.0, 3.5, 5.0)),
    st.sampled_from((3.0, 4.5, 12.0)),
    st.booleans(),
)


def build_state(specs):
    agents = [
        AgentState(id=f"v{k}", pose=Pose2(x, y, 0.0), extent=(length, 2.0), speed=5.0, active=active or k == 0)
        for k, (x, y, length, active) in enumerate(specs)
    ]
    return SimState(0, tuple(agents), "v0")


@PROPERTY
@given(specs=st.lists(agent_spec, min_size=1, max_size=12), max_range=st.sampled_from((15.0, 100.0)))
def test_lead_gap_matches_reference(specs, max_range):
    state = build_state(specs)
    for a in state.agents:
        if a.active:
            assert lead_gap(state, a.id, JUNCTION, max_range) == reference_lead_gap(state, a.id, JUNCTION, max_range)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    xs=st.lists(st.floats(0.0, 110.0), min_size=2, max_size=9, unique=True),
    ys=st.lists(st.sampled_from((0.0, 0.5, 3.5)), min_size=9, max_size=9),
    order=st.permutations(range(9)),
)
def test_agent_order_does_not_change_trajectories(xs, ys, order):
    # distinct x on straight lanes: distinct same-lane arclengths, so no
    # lead_gap tie lets state order decide
    agents = [
        AgentState(id=f"v{k}", pose=Pose2(x, y, 0.0), extent=(4.5, 2.0), speed=4.0 + k % 3)
        for k, (x, y) in enumerate(zip(xs, ys))
    ]
    cfg = SimConfig(dt=0.1, horizon_steps=8, seed=5, control_noise=(0.02, 0.1))
    runs = []
    for perm in (range(len(agents)), [k for k in order if k < len(agents)]):
        s1 = SimState(0, tuple(agents[k] for k in perm), "v0")
        policies = assign_policies(s1, ReactiveFollowPolicy(dt=0.1), {"v0": ConstantVelocityPolicy()})
        episode = unroll(s1, policies, JUNCTION, cfg)
        runs.append((episode.termination, [{a.id: a for a in s.agents} for s in episode.states]))
    assert runs[0] == runs[1]
