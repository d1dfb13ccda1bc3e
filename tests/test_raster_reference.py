"""The clipped raster against the full-grid one it replaced
(tests/conftest.py), compared bit for bit: random windows over lanes,
crosswalks and agent boxes that straddle, touch or just miss the grid."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from drivesim.core import AgentState, Lane, Pose2, SemanticMap, SimState, TrafficLight
from drivesim.raster import CHANNEL_NAMES, connected_components, render

from conftest import reference_connected_components, reference_render

# Dyadic resolutions and integer centers keep an axis-aligned window's
# pixel centers exact, so a lane placed tangent to a pixel row is tangent
# to the bit; the float draws give generic windows.
resolution = st.one_of(st.sampled_from((0.125, 0.25, 0.5, 1.0)), st.floats(0.125, 1.0))
size_px = st.one_of(st.sampled_from((1, 2, 17, 32)), st.integers(1, 40))
yaw = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi))
# Where a shape's edge sits against a grid edge, in pixels: -0.5 is the
# outermost row of pixel centers, 0 the grid boundary, > 0 outside it.
edge_offset = st.one_of(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)), st.floats(-3.0, 3.0))
SIDES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def to_world(center, u, v):
    c, s = math.cos(center.yaw), math.sin(center.yaw)
    return center.x + c * u - s * v, center.y + s * u + c * v


@st.composite
def scenes(draw):
    res, size = draw(resolution), draw(size_px)
    center = Pose2(float(draw(st.integers(-50, 50))), float(draw(st.integers(-50, 50))), draw(yaw))
    half = size * res / 2.0
    lanes = []
    # straight lanes parallel to a grid edge, their band edge placed
    # against it; some split into collinear segments
    for k in range(draw(st.integers(0, 3))):
        (nu, nv), off = draw(st.sampled_from(SIDES)), draw(edge_offset)
        width = draw(st.sampled_from((3.5, 2.0, 0.5)))
        dist = half + width / 2.0 + off * res
        reach = half + draw(st.floats(0.5 - half, 10.0))
        cuts = draw(st.integers(1, 3))
        along = [-reach + 2.0 * reach * i / cuts for i in range(cuts + 1)]
        pts = [to_world(center, nu * dist - nv * a, nv * dist + nu * a) for a in along]
        lanes.append(Lane(f"s{k}", np.array(pts), width))
    # multi-segment arcs anywhere near the window
    for k in range(draw(st.integers(0, 2))):
        cu, cv = draw(st.floats(-2 * half - 5, 2 * half + 5)), draw(st.floats(-2 * half - 5, 2 * half + 5))
        radius, start = draw(st.floats(1.0, 30.0)), draw(st.floats(-math.pi, math.pi))
        sweep, n = draw(st.floats(0.3, 2 * math.pi - 0.1)), draw(st.integers(2, 12))
        angles = [start + sweep * i / n for i in range(n + 1)]
        pts = [to_world(center, cu + radius * math.cos(a), cv + radius * math.sin(a)) for a in angles]
        lanes.append(Lane(f"c{k}", np.array(pts), draw(st.sampled_from((3.5, 1.0)))))
    lights, sim_time = (), draw(st.sampled_from((5.0, 15.0)))
    if lanes and draw(st.booleans()):
        lit = draw(st.integers(0, len(lanes) - 1))
        lanes[lit] = Lane(lanes[lit].id, lanes[lit].centerline, lanes[lit].width, light_id="light")
        lights = (TrafficLight("light", ((0.0, 10.0, "red"),)),)
    if not lanes:
        lanes.append(Lane("far", np.array([[1e4, 1e4], [1e4 + 5.0, 1e4]]), 3.5))
    crosswalks = []
    for _ in range(draw(st.integers(0, 2))):
        cu, cv = draw(st.floats(-half - 4, half + 4)), draw(st.floats(-half - 4, half + 4))
        n = draw(st.integers(3, 5))
        radii = draw(st.lists(st.floats(0.3, 4.0), min_size=n, max_size=n))
        angles = [2 * math.pi * i / n for i in range(n)]
        crosswalks.append([to_world(center, cu + r * math.cos(a), cv + r * math.sin(a)) for a, r in zip(angles, radii)])
    # agent boxes inside, straddling or just beyond an edge
    agents = []
    for k in range(draw(st.integers(1, 6))):
        length, width = draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 3.0))
        if draw(st.booleans()):
            (nu, nv), off = draw(st.sampled_from(SIDES)), draw(edge_offset)
            dist, slide = half + length / 2.0 + off * res, draw(st.floats(-half, half))
            u, v = nu * dist - nv * slide, nv * dist + nu * slide
            heading = center.yaw + math.atan2(nv, nu) + draw(st.sampled_from((0.0, 0.0, 0.3)))
        else:
            u, v = draw(st.floats(-half - 3, half + 3)), draw(st.floats(-half - 3, half + 3))
            heading = draw(st.floats(-math.pi, math.pi))
        x, y = to_world(center, u, v)
        agents.append(AgentState(id=f"a{k}", pose=Pose2(x, y, heading), extent=(length, width), speed=0.0,
                                 active=k == 0 or draw(st.integers(0, 4)) > 0))
    smap = SemanticMap(lanes=tuple(lanes), crosswalks=tuple(crosswalks), lights=lights)
    return SimState(0, tuple(agents), "a0"), smap, center, res, size, sim_time


def assert_same_components(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scene=scenes())
def test_render_and_components_match_reference(scene):
    state, smap, center, res, size, sim_time = scene
    got = render(state, smap, center, resolution=res, size_px=size, sim_time=sim_time)
    want = reference_render(state, smap, center, res, size, sim_time)
    for name in CHANNEL_NAMES:
        assert got.channels[name].dtype == want.channels[name].dtype
        np.testing.assert_array_equal(got.channels[name], want.channels[name], err_msg=name)
        assert_same_components(
            connected_components(got.channels[name]), reference_connected_components(want.channels[name])
        )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.tuples(st.integers(1, 24), st.integers(1, 24)),
    density=st.sampled_from((0.05, 0.3, 0.6, 0.95)),
    seed=st.integers(0, 2**32 - 1),
)
def test_components_match_reference_on_noise(shape, density, seed):
    plane = (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)
    assert_same_components(connected_components(plane), reference_connected_components(plane))
