import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volent.errors import BadThickness, NonHyperbolic
from volent.hypgeom import (HPoint, dist, geodesic_through, invert,
                            regular_polygon)
from volent.measures import lower_bound_2d, santalo_closed_form

points = st.builds(HPoint,
                   st.floats(-5.0, 5.0),
                   st.floats(0.05, 20.0))


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (math.inf, 1.0),
                                  (0.0, math.inf), (0.0, math.nan),
                                  (0.0, 0.0), (0.0, -1.0)])
def test_point_refuses_bad_coordinates(x, y):
    # a non-finite point would reach the tracer, which reports it as a
    # numerical VertexHit, not as the input error it is
    with pytest.raises(ValueError):
        HPoint(x, y)


def test_vertical_distance_is_log_ratio():
    assert dist(HPoint(0, 1), HPoint(0, math.e)) == pytest.approx(1.0)


@given(points, points)
def test_dist_symmetry(a, b):
    assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)


@given(points, points, points)
@settings(max_examples=60)
def test_triangle_inequality(a, b, c):
    assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9


@given(points, points, st.floats(-3.0, 3.0), st.floats(0.2, 3.0))
@settings(max_examples=200)
def test_reflection_is_an_involution(a, b, cx, r):
    # the inversion in the wall circle (cx, r) is an isometry, its own
    # inverse, and fixes the topmost point of the wall
    fa, fb = (HPoint.from_complex(complex(invert(p.z, cx, r)))
              for p in (a, b))
    assert dist(fa, fb) == pytest.approx(dist(a, b), rel=1e-9, abs=1e-6)
    assert complex(invert(fa.z, cx, r)) == pytest.approx(a.z, rel=1e-9)
    top = complex(cx, r)
    assert complex(invert(top, cx, r)) == pytest.approx(top, rel=1e-12)


def test_geodesic_through_endpoints_on_curve():
    # based at a with a unit tangent; the circle (or vertical line) that
    # tangent defines passes through b, and a short step along it gets
    # closer to b
    c1, c2 = HPoint(-1.0, 1.0), HPoint(2.0, 0.5)
    v1, v2 = HPoint(0.3, 1.0), HPoint(0.3, 2.5)
    for a, b in ((c1, c2), (c2, c1), (v1, v2), (v2, v1)):
        g = geodesic_through(a, b)
        dx, dy = g.tangent
        assert g.basepoint == a
        assert math.hypot(dx, dy) == pytest.approx(1.0, abs=1e-15)
        if a.x == b.x:
            assert (dx, dy) == (0.0, 1.0 if b.y > a.y else -1.0)
        else:
            c = a.x + a.y * dy / dx
            assert math.hypot(b.x - c, b.y) == pytest.approx(
                math.hypot(a.x - c, a.y), rel=1e-12)
        step = HPoint(a.x + 1e-3 * dx, a.y + 1e-3 * dy)
        assert dist(step, b) < dist(a, b)


def test_pentagon_closed_form_values(pentagon_q1):
    poly = pentagon_q1
    assert poly.area == pytest.approx(math.pi / 2, abs=1e-12)
    assert poly.edge_length == pytest.approx(1.0612750619, abs=1e-9)
    assert poly.inradius == pytest.approx(0.6268696629, abs=1e-9)
    assert poly.diameter == pytest.approx(2 * 0.8424820815, abs=1e-8)


def test_edge_lengths_match_wall_parameter():
    # wall k of the record runs from vertex k to vertex k+1: both lie on
    # its circle, its arclength range is their distance and the edge
    # length, the center is inside every wall and each vertex is on its
    # two walls
    for args in [(5, 2, (1,) * 5), (6, 2, (2, 3) * 3), (4, 3, (2,) * 4),
                 (3, 7, (1, 2, 3))]:
        poly = regular_polygon(*args)
        w, p = poly.walls, poly.p
        assert w.log_q.tolist() == [math.log(v) for v in poly.q]
        assert not w.log_q.flags.writeable
        center_side = w.side(poly.center.z)
        assert center_side.shape == (p,) and np.all(center_side > 0.0)
        vert_side = w.side(np.array([v.z for v in poly.vertices]))
        for k in range(p):
            a, b = poly.vertices[k], poly.vertices[(k + 1) % p]
            for v in (a, b):
                assert abs(math.hypot(v.x - w.cx[k], v.y) - w.r[k]) <= 1e-12
            ell = w.s_hi[k] - w.s_lo[k]
            assert ell == pytest.approx(dist(a, b), rel=1e-9)
            assert ell == pytest.approx(poly.edge_length, rel=1e-9)
            assert abs(vert_side[k, k]) <= 1e-12
            assert abs(vert_side[k, (k - 1) % p]) <= 1e-12


def test_polygon_contains_center_but_not_far_points(pentagon_q2):
    side = pentagon_q2.walls.side
    assert np.all(side(pentagon_q2.center.z) >= 0.0)
    assert not np.all(side(HPoint(0.0, 8.0).z) >= 0.0)
    verts = np.array([v.z for v in pentagon_q2.vertices])
    assert np.all(side(verts) >= -1e-9)


def test_hexagon_and_m3_construct():
    regular_polygon(6, 2, (2,) * 6)
    regular_polygon(5, 3, (2,) * 5)


def test_non_hyperbolic_rejected():
    with pytest.raises(NonHyperbolic):
        regular_polygon(4, 2, (1, 1, 1, 1))


def test_bad_thickness_rejected():
    with pytest.raises(BadThickness):
        regular_polygon(5, 2, (1, 1, 0, 1, 1))
    with pytest.raises(BadThickness):
        regular_polygon(5, 2, (1, 1, 1))
    # each q_i is a finite real number >= 1, not a bool or a string
    for bad in (float("nan"), float("inf"), 10 ** 400, 0.5, True, "2"):
        with pytest.raises(BadThickness):
            regular_polygon(5, 2, (2, 2, bad, 2, 2))


def test_real_thickness_keeps_its_log():
    # q is a real >= 1, never truncated: q = 1.001 gives a bound above
    # the thin building's 1, and q = 2.5 weighs its walls by ln 2.5
    near_thin = regular_polygon(5, 2, (1.001,) * 5)
    assert near_thin.q == (1.001,) * 5
    assert near_thin.walls.log_q.tolist() == [math.log(1.001)] * 5
    assert lower_bound_2d(near_thin).derived_constant_bound > 1.0
    poly = regular_polygon(5, 2, (2.5, 2, 2, 2, 2))
    assert poly.q == (2.5, 2, 2, 2, 2)
    assert poly.walls.log_q[0] == math.log(2.5)
    assert santalo_closed_form(poly) == pytest.approx(
        2.0 * (math.log(2.5) + 4 * math.log(2)) * poly.edge_length,
        rel=1e-12)
