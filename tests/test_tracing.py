import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from volent.hypgeom import regular_polygon
from volent.measures import santalo_monte_carlo
from volent.tracing import (BLOCK, OK, _chords, backend,
                            batch_first_crossing, launch, trace)


def test_perpendicular_midpoint_crossing(pentagon_q1, table_q1):
    # straight down the inradius: hits the bottom wall at its midpoint,
    # perpendicularly
    poly = pentagon_q1
    best = int(np.argmin(poly.walls.side(poly.center.z)))
    j, t, u, th, flag = trace(
        table_q1, poly.center.x, poly.center.y,
        *_dir_toward_wall(poly, best), 1e6, max_steps=1)
    assert flag == OK
    assert list(j) == [best]
    # tolerances limited by the ternary search locating the foot
    assert t[0] == pytest.approx(poly.inradius, abs=1e-6)
    assert u[0] == pytest.approx(poly.edge_length / 2, abs=1e-6)
    assert th[0] == pytest.approx(math.pi / 2, abs=1e-6)


def _dir_toward_wall(poly, k):
    # direction at the polygon center of the geodesic hitting wall k
    # perpendicularly: ternary search for the closest wall point
    from volent.hypgeom import HPoint, dist, geodesic_through

    cx, r = float(poly.walls.cx[k]), float(poly.walls.r[k])

    def pt(s):
        psi = 2.0 * math.atan(math.exp(s))
        return HPoint(cx + r * math.cos(psi), r * math.sin(psi))

    lo, hi = float(poly.walls.s_lo[k]), float(poly.walls.s_hi[k])
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if dist(poly.center, pt(m1)) < dist(poly.center, pt(m2)):
            hi = m2
        else:
            lo = m1
    g = geodesic_through(poly.center, pt(0.5 * (lo + hi)))
    return g.tangent


def test_trace_gaps_bounded_by_diameter(pentagon_q2, table_q2):
    rng = np.random.default_rng(3)
    for _ in range(30):
        ang = rng.uniform(0, 2 * math.pi)
        j, t, u, th, flag = trace(table_q2, rng.uniform(-0.1, 0.1),
                                  rng.uniform(0.9, 1.1),
                                  math.cos(ang), math.sin(ang), 40.0)
        assert flag == OK
        gaps = np.diff(t)
        assert gaps.min() > 0
        assert gaps.max() <= pentagon_q2.diameter + 1e-9
        assert np.all((th > 0) & (th < math.pi))
        assert np.all((u >= 0) & (u <= pentagon_q2.edge_length))


def test_crossing_count_in_measured_bounds(pentagon_q2, table_q2):
    # over time 50 the crossing count is bounded by diameter below and
    # the observed minimal gap above
    rng = np.random.default_rng(11)
    ang = rng.uniform(0, 2 * math.pi)
    j, t, u, th, flag = trace(table_q2, 0.02, 1.01,
                              math.cos(ang), math.sin(ang), 50.0)
    assert flag == OK
    n = len(j)
    assert n >= 50.0 / pentagon_q2.diameter - 1
    min_gap = np.diff(t).min()
    assert n <= 50.0 / min_gap + 1


def test_launch_round_trip(pentagon_q2, table_q2):
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 5, 200)
    us = rng.uniform(0.05, pentagon_q2.edge_length - 0.05, 200)
    ths = rng.uniform(0.2, math.pi - 0.2, 200)
    x, y, dx, dy = launch(table_q2, edges, us, ths)
    # launched vectors sit on their wall with the requested section
    # coordinates; flowing them returns coordinates of the NEXT wall
    j, t, u, th, flag = batch_first_crossing(table_q2, x, y, dx, dy,
                                             prev=edges)
    good = flag == OK
    assert good.mean() > 0.95
    assert np.all(t[good] > 0)
    assert np.all(t[good] <= pentagon_q2.diameter + 1e-9)


def test_determinism(table_q2):
    a = trace(table_q2, 0.03, 1.0, 0.6, 0.8, 30.0)
    b = trace(table_q2, 0.03, 1.0, 0.6, 0.8, 30.0)
    for x, y in zip(a[:4], b[:4]):
        assert np.array_equal(x, y)


def _rays(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.1, 0.1, n)
    y = rng.uniform(0.9, 1.1, n)
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    return x, y, np.cos(a), np.sin(a)


def test_batch_block_boundaries(table_q2):
    # 3 full blocks and a partial one, exact vertical rays and a prev
    # array; results must not depend on how the rays are split
    n = 3 * BLOCK + 17
    x, y, dx, dy = _rays(n, 13)
    vert = np.r_[0, 5, BLOCK - 1, BLOCK, 2 * BLOCK + 3, n - 1]
    dx[vert] = 0.0
    dy[vert] = np.where(np.arange(vert.size) % 2, 1.0, -1.0)
    prev = np.random.default_rng(14).integers(-1, 5, n)
    prev[vert] = -1
    whole = batch_first_crossing(table_q2, x, y, dx, dy, prev=prev)
    assert np.all(whole[4][vert] == OK)
    cuts = [0, 1, 8, n]
    parts = [batch_first_crossing(table_q2, x[a:b], y[a:b], dx[a:b],
                                  dy[a:b], prev=prev[a:b])
             for a, b in zip(cuts, cuts[1:])]
    for k, arr in enumerate(whole):
        assert np.array_equal(arr, np.concatenate([p[k] for p in parts]))


def test_chords_equal_two_batch_steps(table_q2):
    # the Santalo chord selects both directions from one candidate stage;
    # it must reproduce the forward and backward batch steps bit for bit,
    # exact vertical rays at the block edges included, however the rays
    # are split
    n = 3 * BLOCK + 17
    x, y, dx, dy = _rays(n, 19)
    vert = np.r_[0, 5, BLOCK - 1, BLOCK, 2 * BLOCK + 3, n - 1]
    dx[vert] = 0.0
    dy[vert] = np.where(np.arange(vert.size) % 2, 1.0, -1.0)
    entry, length, ok = _chords(table_q2, x, y, dx, dy)
    _, tf, _, _, ff = batch_first_crossing(table_q2, x, y, dx, dy)
    jb, tb, _, _, fb = batch_first_crossing(table_q2, x, y, -dx, -dy)
    assert np.array_equal(entry, jb)
    assert np.array_equal(length, tf + tb)
    assert np.array_equal(ok, (ff == OK) & (fb == OK))
    assert np.all(ok[vert])
    cuts = [0, 1, 8, BLOCK + 1, n]
    parts = [_chords(table_q2, x[a:b], y[a:b], dx[a:b], dy[a:b])
             for a, b in zip(cuts, cuts[1:])]
    for k, arr in enumerate((entry, length, ok)):
        assert np.array_equal(arr, np.concatenate([p[k] for p in parts]))


def _chord(walls, *ray):
    # _chords on the one ray (x, y, dx, dy)
    entry, length, ok = _chords(walls, *(np.array([v]) for v in ray))
    return entry[0], length[0], ok[0]


def test_chord_through_center_oracle(pentagon_q2):
    # the chord through the center toward the nearest wall is the two
    # scalar first legs end to end, and the shorter leg, which meets that
    # wall perpendicularly, is the inradius
    poly = pentagon_q2
    tab, c = poly.walls, poly.center
    best = int(np.argmin(tab.side(c.z)))
    dx, dy = _dir_toward_wall(poly, best)
    entry, length, ok = _chord(tab, c.x, c.y, dx, dy)
    _, tf, _, _, _ = trace(tab, c.x, c.y, dx, dy, 10.0, max_steps=1)
    jb, tb, _, _, _ = trace(tab, c.x, c.y, -dx, -dy, 10.0, max_steps=1)
    assert ok and entry == jb[0]
    assert tab.log_q[entry] == math.log(2)
    assert length == pytest.approx(tf[0] + tb[0], abs=1e-12)
    assert min(tf[0], tb[0]) == pytest.approx(poly.inradius, abs=1e-6)


def test_chord_thin_polygon_weight_vanishes(table_q1):
    entry, length, ok = _chord(table_q1, 0.02, 1.0, math.cos(1.1),
                               math.sin(1.1))
    assert ok and table_q1.log_q[entry] == 0.0 and length > 0.0


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_batch_memory_bounded(table_q2):
    # the outputs take 8 MB; the (n, p) temporaries of an unblocked
    # numpy step would add about 140 MB at this size
    rays = _rays(200_000, 5)
    peak = _traced_peak_mb(lambda: batch_first_crossing(table_q2, *rays))
    assert peak <= 24.0


def test_santalo_memory_bounded(pentagon_q2):
    peak = _traced_peak_mb(
        lambda: santalo_monte_carlo(pentagon_q2, samples=200_000, seed=0))
    assert peak <= 64.0


# Outputs of the seed-7 rays and the fixed trace below on the right-angled
# pentagon, stored from the numpy path of commit f13c6a5, before tracing
# was reduced to one backend; both step geometries must keep reproducing
# them.
_REFERENCE = pathlib.Path(__file__).parent / "data" / "tracing_reference.json"


def _assert_matches(out, ref):
    j, t, u, th, flag = out
    assert j.tolist() == ref["j"]
    assert np.asarray(flag).tolist() == ref["flag"]
    for got, key in ((t, "t"), (u, "u"), (th, "theta")):
        assert got.shape == (len(ref[key]),)
        assert np.allclose(got, ref[key], rtol=0.0, atol=1e-12)


def test_matches_stored_reference():
    ref = json.loads(_REFERENCE.read_text())
    table = regular_polygon(5, 2, (2, 2, 2, 2, 2)).walls
    rng = np.random.default_rng(7)
    n = 300
    x = rng.uniform(-0.1, 0.1, n)
    y = rng.uniform(0.9, 1.1, n)
    a = rng.uniform(0, 2 * math.pi, n)
    _assert_matches(batch_first_crossing(table, x, y, np.cos(a), np.sin(a)),
                    ref["batch"])
    _assert_matches(trace(table, 0.03, 1.0, 0.6, 0.8, 30.0), ref["trace"])


@pytest.mark.parametrize("poly_args", [(5, 2, (2, 3, 2, 3, 4)),
                                       (4, 3, (2, 2, 2, 2))])
def test_single_ray_and_batch_geometries_agree(poly_args):
    # trace's scalar step and the batch kernel are two copies of one
    # geometry; their first crossings must agree ray by ray
    poly = regular_polygon(*poly_args)
    table = poly.walls
    n = 1200
    rng = np.random.default_rng(17)
    c = poly.center
    x = c.x + c.y * rng.uniform(-0.05, 0.05, n)
    y = c.y * np.exp(rng.uniform(-0.05, 0.05, n))
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    dx, dy = np.cos(a), np.sin(a)
    dx[:8] = 0.0
    dy[:8] = np.where(np.arange(8) % 2, 1.0, -1.0)
    bj, bt, bu, bth, bflag = batch_first_crossing(table, x, y, dx, dy)
    assert np.all(bflag[:8] == OK)
    for i in range(n):
        j, t, u, th, flag = trace(table, x[i], y[i], dx[i], dy[i], 1e6,
                                  max_steps=1)
        assert flag == bflag[i]
        if flag != OK:
            continue
        assert j[0] == bj[i]
        assert abs(t[0] - bt[i]) <= 1e-12
        assert abs(u[0] - bu[i]) <= 1e-12
        assert abs(th[0] - bth[i]) <= 1e-12


def test_backend_name_is_reported():
    assert backend() == "numpy"
