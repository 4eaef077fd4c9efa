import hashlib
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.optimize import brentq

from volent import symbolic
from volent.errors import BracketFailed
from volent.hypgeom import HGeodesic, HPoint, geodesic_through, regular_polygon
from volent.symbolic import (CROSSING, CuttingSequence,
                             birkhoff_f_integral, birkhoff_lq_integral,
                             build_cross_section, cutting_sequence,
                             pressure_curve, pressure_log_radius,
                             refined_root, solve_entropy,
                             thickness_log_product, with_refinement,
                             _solve_root)
from volent.tracing import (NEAR_VERTEX, OK, batch_first_crossing, launch,
                            trace)


def _random_geodesic(poly, rng, t0, t1):
    """(geodesic, its cutting sequence over (t0, t1])."""
    from volent.errors import VertexHit
    while True:
        ang = rng.uniform(0, 2 * math.pi)
        p = HPoint(rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1))
        target = HPoint(p.x + 0.5 * math.cos(ang), p.y + 0.5 * math.sin(ang))
        try:
            g = geodesic_through(p, target)
            return g, cutting_sequence(g, (t0, t1), poly)
        except (VertexHit, ValueError):
            continue


def _random_sequence(poly, rng, t0, t1):
    return _random_geodesic(poly, rng, t0, t1)[1]


def test_short_span_inside_one_chamber_is_empty(pentagon_q2):
    g = geodesic_through(HPoint(0.0, 1.0), HPoint(0.05, 1.02))
    seq = cutting_sequence(g, (0.0, 0.05), pentagon_q2)
    assert seq.crossings.dtype == CROSSING and seq.crossings.size == 0


def test_crossings_ordered_with_bounded_gaps(pentagon_q2):
    rng = np.random.default_rng(1)
    seq = _random_sequence(pentagon_q2, rng, -5.0, 25.0)
    ts = seq.crossings["t"]
    assert np.all(np.diff(ts) > 0)
    assert np.diff(ts).max() <= pentagon_q2.diameter + 1e-9
    n = len(ts)
    assert n >= 30.0 / pentagon_q2.diameter - 1


def test_padded_sandwich_holds_everywhere(pentagon_q2):
    # the rigorous form: integrals over [0, T] vs the product over the
    # 1-padded window vs the integral over the 2-padded window
    rng = np.random.default_rng(7)
    for _ in range(40):
        T = 12.0
        seq = _random_sequence(pentagon_q2, rng, -3.5, T + 3.5)
        lhs = birkhoff_f_integral(seq, 0.0, T)
        mid = thickness_log_product(seq, -1.0, T + 1.0)
        rhs = birkhoff_f_integral(seq, -2.0, T + 2.0)
        assert lhs <= mid + 1e-9
        assert mid <= rhs + 1e-9


def test_tent_integral_against_quadrature(pentagon_q2):
    rng = np.random.default_rng(3)
    seq = _random_sequence(pentagon_q2, rng, -2.0, 8.0)
    ts = np.linspace(0.0, 6.0, 20001)
    dense = np.zeros_like(ts)
    for c in seq.crossings:
        dense += math.log(pentagon_q2.q[c["edge_label"]]) * np.maximum(
            0.0, 1.0 - np.abs(ts - c["t"]))
    quad = np.trapezoid(dense, ts)
    assert birkhoff_f_integral(seq, 0.0, 6.0) == pytest.approx(quad, abs=1e-5)


@pytest.fixture(scope="module")
def pentagon_mixed():
    # unequal q, so a row pairing a crossing with the wrong q shows
    return regular_polygon(5, 2, (2, 3, 2, 3, 4))


@pytest.mark.parametrize("span", [(-5.0, 20.0), (2.5, 20.0), (-6.0, -1.5)])
def test_crossings_are_the_traced_arrays(pentagon_mixed, span):
    # forward rows are trace's arrays with t > t0; backward rows are the
    # reversed ray's arrays with -t <= t1, reversed, times negated
    poly, (t0, t1) = pentagon_mixed, span
    table = poly.walls
    g, seq = _random_geodesic(poly, np.random.default_rng(11), t0, t1)
    x, y = g.basepoint.x, g.basepoint.y
    dx, dy = g.tangent
    cols = []
    if t0 < 0.0:
        j, t, u, th, _ = trace(table, x, y, -dx, -dy, -t0)
        k = -t <= t1
        cols.append((-t[k][::-1], j[k][::-1], u[k][::-1], th[k][::-1]))
    if t1 > 0.0:
        j, t, u, th, _ = trace(table, x, y, dx, dy, t1)
        k = t > t0
        cols.append((t[k], j[k], u[k], th[k]))
    t, j, u, th = (np.concatenate(c) for c in zip(*cols))
    rows = seq.crossings
    assert isinstance(seq, CuttingSequence) and rows.dtype == CROSSING
    assert rows.size >= 3
    for name, want in (("t", t), ("edge_label", j), ("u", u), ("theta", th),
                       ("log_q", table.log_q[j])):
        assert rows[name].tobytes() == want.tobytes(), name


# sha256 of the CROSSING row bytes of cutting_sequence over (-3.5, 33.5)
# and the repr of the four Birkhoff sums of the padded sandwich at T = 30,
# on 200 seeded geodesics through the mixed pentagon, recorded on x86-64
# (glibc libm) at commit 0c64570, before the step loop scanned the walls
# by meeting point and before the rows were built from Python rows.
_SEQUENCE_DIGEST = ("46980a5d6061282a4422d727b380007b"
                    "a6fe89596fecd8b52050185a4f88b254")


def _sequence_digest(poly) -> str:
    from volent.errors import VertexHit
    rng = np.random.default_rng(31)
    n, T = 200, 30.0
    x = rng.uniform(-0.1, 0.1, n)
    y = rng.uniform(0.9, 1.1, n)
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    digest = hashlib.sha256()
    for i in range(n):
        g = geodesic_through(HPoint(x[i], y[i]),
                             HPoint(x[i] + 0.5 * math.cos(a[i]),
                                    y[i] + 0.5 * math.sin(a[i])))
        try:
            seq = cutting_sequence(g, (-3.5, T + 3.5), poly)
        except VertexHit:
            digest.update(b"VertexHit")
            continue
        digest.update(seq.crossings.tobytes())
        digest.update(repr((birkhoff_f_integral(seq, 0.0, T),
                            thickness_log_product(seq, -1.0, T + 1.0),
                            birkhoff_f_integral(seq, -2.0, T + 2.0),
                            birkhoff_lq_integral(seq, T))).encode())
    return digest.hexdigest()


def test_cutting_sequences_and_sums_bit_exact(pentagon_mixed):
    assert _sequence_digest(pentagon_mixed) == _SEQUENCE_DIGEST


def test_lq_integral_against_quadrature(pentagon_mixed):
    # ln q / l is piecewise constant: on [t_i, t_i+1) it is ln q_i over
    # the gap, with q_i the entry crossing's. The trapezoid rule misses
    # at most half a grid step times each jump.
    rng = np.random.default_rng(4)
    for T in (6.0, 15.0):
        seq = _random_sequence(pentagon_mixed, rng, -2.0, T + 2.0)
        ts, dt = np.linspace(0.0, T, 400001, retstep=True)
        dense = np.zeros_like(ts)
        rows = seq.crossings
        values = []
        for lo, hi, j in zip(rows["t"][:-1], rows["t"][1:],
                             rows["edge_label"][:-1]):
            values.append(math.log(pentagon_mixed.q[j]) / (hi - lo))
            dense[(ts >= lo) & (ts < hi)] = values[-1]
        quad = np.trapezoid(dense, ts)
        jumps = np.abs(np.diff(values)).sum()
        assert abs(birkhoff_lq_integral(seq, T) - quad) <= 0.5 * dt * jumps


def test_log_product_against_direct_count(pentagon_mixed):
    # count the crossings of each wall in [a, b], ends included
    rng = np.random.default_rng(6)
    seq = _random_sequence(pentagon_mixed, rng, -3.0, 20.0)
    rows = seq.crossings
    ts = rows["t"]
    for a, b in ((-1.0, 12.0), (ts[3], ts[20]), (ts[7], ts[7]), (5.0, 4.0)):
        count = [0] * pentagon_mixed.p
        for c in rows:
            if a <= c["t"] <= b:
                count[c["edge_label"]] += 1
        want = sum(n * math.log(q) for n, q in zip(count, pentagon_mixed.q))
        assert thickness_log_product(seq, a, b) == pytest.approx(want,
                                                                 abs=1e-12)


def test_cohomology_gap_bounded_in_T(pentagon_q2):
    # |S_T(ln q / l) - S_T f| stays bounded as T grows
    rng = np.random.default_rng(5)
    worst = {}
    for T in (10.0, 20.0, 40.0):
        gaps = []
        for _ in range(15):
            seq = _random_sequence(pentagon_q2, rng, -3.0, T + 3.0)
            a = birkhoff_lq_integral(seq, T)
            b = birkhoff_f_integral(seq, 0.0, T)
            gaps.append(abs(a - b))
        worst[T] = max(gaps)
    # bounded: no growth proportional to T
    assert worst[40.0] < worst[10.0] + 2.0


def test_model_masses_are_stochastic(pentagon_q2):
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    sums = np.bincount(m.src, weights=m.mass, minlength=m.n_states)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(m.mean_L > 0)
    assert np.all(m.mean_L <= pentagon_q2.diameter + 1e-9)


def test_return_map_reverses_exactly():
    # time reversal of the wall-to-wall map that build_cross_section
    # samples: a vector launched at (j0, u, theta) that lands at
    # (j, u2, theta2), relaunched from (j, u2, pi - theta2), lands back on
    # j0 at (u, pi - theta) after the same flight time
    rng = np.random.default_rng(23)
    n = 20_000
    for args in ((5, 2, (2,) * 5), (4, 3, (2,) * 4)):
        poly = regular_polygon(*args)
        walls = poly.walls
        edge = rng.integers(0, poly.p, n)
        u = rng.random(n) * poly.edge_length
        th = rng.random(n) * math.pi
        j, t, u2, th2, flag = batch_first_crossing(
            walls, *launch(walls, edge, u, th), prev=edge)
        ok = flag == OK
        assert np.count_nonzero(ok) > 0.99 * n
        jr, tr, ur, thr, fr = batch_first_crossing(
            walls, *launch(walls, j[ok], u2[ok], math.pi - th2[ok]),
            prev=j[ok])
        assert np.all(fr == OK)
        assert np.array_equal(jr, edge[ok])
        assert np.abs(tr - t[ok]).max() <= 1e-5
        assert np.abs(ur - u[ok]).max() <= 1e-5
        assert np.abs(thr - (math.pi - th[ok])).max() <= 1e-5


def test_pressure_monotone_in_h(pentagon_q2):
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    vals = [pressure_log_radius(m, h) for h in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_thin_model_root_is_one(pentagon_q1):
    m = build_cross_section(pentagon_q1, (16, 16), 2, seed=0)
    h, _, _ = _solve_root(m, (0.5, 4.0), 1e-6)
    assert h == pytest.approx(1.0, abs=1e-3)


def test_solve_entropy_thick_exceeds_thin(pentagon_q1, pentagon_q2):
    h1 = solve_entropy(build_cross_section(pentagon_q1, (16, 16), 2, seed=0),
                       refine=False)
    h2 = solve_entropy(build_cross_section(pentagon_q2, (16, 16), 2, seed=0),
                       refine=False)
    assert h2.value > h1.value
    assert h1.err >= 0 and h2.err >= 0


def test_doubling_q_increases_entropy(pentagon_q2):
    poly4 = regular_polygon(5, 2, (4,) * 5)
    h2 = _solve_root(build_cross_section(pentagon_q2, (16, 16), 2, seed=0),
                     (0.5, 4.0), 1e-5)[0]
    h4 = _solve_root(build_cross_section(poly4, (16, 16), 2, seed=0),
                     (0.5, 4.0), 1e-5)[0]
    assert h4 > h2


def test_bracket_failure_reported(pentagon_q2):
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    with pytest.raises(BracketFailed):
        _solve_root(m, (3.0, 4.0), 1e-4)


def test_build_determinism(pentagon_q2):
    a = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    b = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.mean_L, b.mean_L)


def test_cross_section_refuses_bad_counts(pentagon_q2):
    # K = 1.5 once ran, with 1.5^2 samples per cell, and K = True as K = 1
    # grid = 5 raised TypeError and a grid of 1 or 3 sides an unpacking
    # ValueError that named neither input
    for grid, K, name in (((8, 8), 1.5, "K"), ((8, 8), True, "K"),
                          ((8.0, 8.0), 2, "grid"), ((8, 3), 2, "grid"),
                          (5, 2, "grid"), ((8,), 2, "grid"),
                          ((8, 8, 8), 2, "grid")):
        with pytest.raises(ValueError, match=name):
            build_cross_section(pentagon_q2, grid, K, seed=3)
    with pytest.raises(ValueError, match="seed"):
        build_cross_section(pentagon_q2, (8, 8), 2, seed=1.5)
    # numpy ints are integers: the model is the one of Python ints
    a = build_cross_section(pentagon_q2, (np.int64(8),) * 2, np.int64(2), 3)
    b = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.mass, b.mass)
    # the root solve refuses a tol beyond the float range
    with pytest.raises(ValueError, match="tol"):
        solve_entropy(b, tol=10 ** 400, refine=False)
    # h = NaN once ran 20,000 power steps into PowerIterationStalled, and
    # h = 10**400 raised OverflowError
    for h in (10 ** 400, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="h must"):
            pressure_log_radius(b, h)
        with pytest.raises(ValueError, match="h must"):
            pressure_curve(b, [1.0, h])


def test_span_refuses_bad_ends(pentagon_q2):
    # an infinite span once traced until killed, (0, 10**400) raised
    # OverflowError and (True, 5) ran as (1, 5); the cases that ran are
    # first, so the unchecked code fails here instead of hanging; a bare
    # number raised TypeError and one or three ends an unpacking error
    g = geodesic_through(HPoint(0.01, 1.0), HPoint(0.3, 1.2))
    for span in ((True, 5.0), (0.0, 10 ** 400), (math.nan, 1.0),
                 (-math.inf, 1.0), (0.0, math.inf), 5.0, (0.0,),
                 (0.0, 1.0, 2.0)):
        with pytest.raises(ValueError, match="t_span"):
            cutting_sequence(g, span, pentagon_q2)
    for t_max in (0.0, True, -1.0, 10 ** 400, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_max"):
            trace(pentagon_q2.walls, 0.01, 1.0, 0.6, 0.8, t_max)
    # max_steps = 2.5 once returned 3 crossings and True ran as 1
    for max_steps in (2.5, True, -1):
        with pytest.raises(ValueError, match="max_steps"):
            trace(pentagon_q2.walls, 0.01, 1.0, 0.6, 0.8, 5.0, max_steps)
    # the ray went unchecked: y = -1 raised a bare "math domain error", a
    # NaN x or dy returned flag LOST (so cutting_sequence raised VertexHit)
    # and the zero tangent traced 6 crossings as a downward vertical ray
    for ray, name in (((0.01, -1.0, 0.6, 0.8), "y"),
                      ((0.01, 0.0, 0.6, 0.8), "y"),
                      ((0.01, math.inf, 0.6, 0.8), "y"),
                      ((math.nan, 1.0, 0.6, 0.8), "x"),
                      ((True, 1.0, 0.6, 0.8), "x"),
                      ((0.01, 1.0, 0.6, math.nan), "tangent"),
                      ((0.01, 1.0, math.inf, 0.8), "tangent"),
                      ((0.01, 1.0, 0.0, 0.0), "tangent"),
                      ((0.01, 1.0, -0.0, 0.0), "tangent")):
        with pytest.raises(ValueError, match=f"^{name} must"):
            trace(pentagon_q2.walls, *ray, 5.0)
    for tangent in ((0.6, math.nan), (0.0, 0.0)):
        bad = HGeodesic(HPoint(0.01, 1.0), tangent)
        with pytest.raises(ValueError, match="^tangent must"):
            cutting_sequence(bad, (-1.0, 5.0), pentagon_q2)
    # the Birkhoff sums took their numbers unchecked: thickness(nan, 5)
    # returned 0.0, f(nan, 5) and lq(nan) NaN, and the product over
    # (-1, 40) on a span ending at 15.5 returned 19.30
    seq = _random_sequence(pentagon_q2, np.random.default_rng(6), -3.5, 15.5)
    for fn in (birkhoff_f_integral, thickness_log_product):
        for bad in (math.nan, math.inf, True, "0", 10 ** 400):
            with pytest.raises(ValueError, match="^a must"):
                fn(seq, bad, 5.0)
            with pytest.raises(ValueError, match="^b must"):
                fn(seq, 0.0, bad)
    for bad in (math.nan, -math.inf, True, "5"):
        with pytest.raises(ValueError, match="^T must"):
            birkhoff_lq_integral(seq, bad)
    for a, b in ((-1.0, 40.0), (-3.5, 5.0), (-4.0, 5.0), (0.0, 15.6)):
        with pytest.raises(ValueError, match="span too short"):
            thickness_log_product(seq, a, b)
    assert thickness_log_product(seq, 5.0, 4.0) == 0.0
    # an empty window: f(5, 1) returned the oriented integral, -4.79
    assert birkhoff_f_integral(seq, 5.0, 1.0) == 0.0
    assert birkhoff_lq_integral(seq, -2.0) == 0.0


def _period(model) -> int:
    """Period of the (strongly connected) transition graph: the gcd of
    level(a) + 1 - level(b) over its edges a -> b, levels by BFS."""
    out = [[] for _ in range(model.n_states)]
    for a, b in zip(model.src.tolist(), model.dst.tolist()):
        out[a].append(b)
    level = {0: 0}
    todo = deque([0])
    while todo:
        a = todo.popleft()
        for b in out[a]:
            if b not in level:
                level[b] = level[a] + 1
                todo.append(b)
    g = 0
    for a, b in zip(model.src.tolist(), model.dst.tolist()):
        g = math.gcd(g, level[a] + 1 - level[b])
    return g


def _dense_root(model, hi: float = 4.0) -> float:
    """Root of rho(B(h)) = 1 in [0.5, hi] from dense eigenvalues."""
    n = model.n_states
    w = model.mass * model.q_of_state(model.dst)

    def log_rho(h):
        B = np.zeros((n, n))
        B[model.src, model.dst] = w * np.exp((1.0 - h) * model.mean_L)
        return math.log(np.abs(np.linalg.eigvals(B)).max())

    return brentq(log_rho, 0.5, hi, xtol=1e-12)


def test_thick_uniform_root_solves():
    # q = 1e5 on every wall: a warm start from a distant h puts the first
    # bracket's midpoint far above rho, and the shift, once fixed at a
    # quarter of it, left the power iteration stalled
    model = build_cross_section(regular_polygon(5, 2, (100_000,) * 5),
                                (8, 8), 2, 0)
    est = solve_entropy(model, refine=False)
    assert est.value == pytest.approx(_dense_root(model, 20.0), abs=est.err)


@pytest.mark.parametrize("q", [10 ** 18, 10 ** 20])
def test_root_above_50_solves(q):
    # the entropy grows like ln q, and these roots (about 52.4 and 58.2)
    # lie above 50; the upper end doubles up to 1 + ln(max q) / min mean_L,
    # beyond which every row of B(h) sums to less than 1
    model = build_cross_section(regular_polygon(5, 2, (q,) * 5), (8, 8), 2, 0)
    est = solve_entropy(model, refine=False)
    assert est.value > 50.0
    assert est.value == pytest.approx(_dense_root(model, 100.0), abs=est.err)


def test_period_stalled_pressure_model_solves(pentagon_q2, capsys):
    # a 4x4, K=1 model whose transition graph defeats two-step ratio
    # averaging; the shifted iteration solves it
    from volent.cli import main
    assert main(["pressure", "--n-u", "4", "--n-theta", "4", "--k", "1",
                 "--no-refine"]) == 0
    h = float(re.search(r"h = ([0-9.]+)", capsys.readouterr().out).group(1))
    model = build_cross_section(pentagon_q2, (4, 4), 1, 0)
    assert _period(model) > 2
    assert h == pytest.approx(_dense_root(model), abs=2e-4)


def _flag_rays(monkeypatch, flag_later: bool) -> list:
    """Record the launches of build_cross_section and mark every 97th
    ray of the first crossing batch NEAR_VERTEX; with flag_later, also
    every ray of each later batch. A marked ray's foot and angle become
    NaN, as a lost ray's may be. Returns the (edge, u, theta) list."""
    launches = []
    real_launch = symbolic.launch
    real_cross = symbolic.batch_first_crossing

    def launch(table, edges, us, ths):
        launches.append((edges.copy(), us.copy(), ths.copy()))
        return real_launch(table, edges, us, ths)

    def cross(*args, **kwargs):
        out = real_cross(*args, **kwargs)
        marked = np.zeros(out[4].size, dtype=bool)
        if len(launches) == 1:
            marked[::97] = True
        elif flag_later:
            marked[:] = True
        out[4][marked] = NEAR_VERTEX
        out[2][marked] = out[3][marked] = math.nan
        return out

    monkeypatch.setattr(symbolic, "launch", launch)
    monkeypatch.setattr(symbolic, "batch_first_crossing", cross)
    return launches


def _stratum(model, poly, edges, us, ths):
    k, n_u, n_th = model.k, model.n_u, model.n_theta
    return (edges, np.floor(us / poly.edge_length * n_u * k).astype(int),
            np.floor(ths / math.pi * n_th * k).astype(int))


# a flagged sample's NaN foot is never cast to a cell: no RuntimeWarning
@pytest.mark.filterwarnings("error")
def test_grazing_samples_redrawn_in_their_stratum(pentagon_q2, monkeypatch):
    launches = _flag_rays(monkeypatch, flag_later=False)
    a = build_cross_section(pentagon_q2, (8, 8), 3, seed=0)
    first, redraw = launches
    flagged = np.arange(first[0].size)[::97]
    assert flagged.size == 30 and redraw[0].size == 30
    # the same 30 samples, in sample order, each within its own stratum
    old = _stratum(a, pentagon_q2, *(arr[flagged] for arr in first))
    new = _stratum(a, pentagon_q2, *redraw)
    for x, y in zip(old, new):
        assert np.array_equal(x, y)
    assert not np.array_equal(first[1][flagged], redraw[1])
    assert a.diagnostics["discarded_samples"] == 0

    launches.clear()
    b = build_cross_section(pentagon_q2, (8, 8), 3, seed=0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.mass, b.mass)
    assert np.array_equal(a.mean_L, b.mean_L)

    monkeypatch.undo()
    c = build_cross_section(pentagon_q2, (8, 8), 3, seed=0)
    assert not (np.array_equal(a.src, c.src)
                and np.array_equal(a.dst, c.dst)
                and np.array_equal(a.mean_L, c.mean_L))


@pytest.mark.filterwarnings("error")
def test_samples_discarded_after_retries(pentagon_q2, monkeypatch):
    launches = _flag_rays(monkeypatch, flag_later=True)
    m = build_cross_section(pentagon_q2, (8, 8), 3, seed=0)
    assert len(launches) == 1 + symbolic._MAX_RETRIES
    assert all(edges.size == 30 for edges, _, _ in launches[1:])
    assert m.diagnostics["discarded_samples"] == 30
    assert m.diagnostics["total_samples"] == 2880
    sums = np.bincount(m.src, weights=m.mass, minlength=m.n_states)
    assert np.allclose(sums, 1.0, atol=1e-12)


def _model_digest(model) -> str:
    h = hashlib.sha256()
    for arr in (model.states, model.src, model.dst, model.mass,
                model.mean_L):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("args,grid,k,seed,digest,diagnostics", [
    # the bench_tracing.py cross_section task: 45 slices of 4095 samples
    ((5, 2, (2,) * 5), (64, 64), 3, 0,
     "004fc1b8e23ff167531210f6a15bf596f92f19a72508c445b9b88a86ed095847",
     {"discarded_samples": 0, "total_samples": 184320, "scc_states": 19218,
      "grid_states": 20480, "n_components": 1263}),
    ((5, 4, (2, 3, 2, 3, 4)), (12, 20), 3, 1,
     "98a5c35b0d6b1e2677da5780151080338f5c14671b4d271ca5b79d7708f450cf",
     {"discarded_samples": 0, "total_samples": 10800, "scc_states": 1144,
      "grid_states": 1200, "n_components": 57}),
])
def test_cross_section_bit_exact(args, grid, k, seed, digest, diagnostics):
    # digests recorded before the build was sliced; slicing may not move
    # a bit
    model = build_cross_section(regular_polygon(*args), grid, k, seed)
    assert _model_digest(model) == digest
    assert model.diagnostics == diagnostics


@pytest.mark.parametrize("args,grid,k,seed", [
    ((4, 3, (2,) * 4), (6, 8), 2, 3),           # m = 3
    ((5, 2, (2, 3, 2, 3, 4)), (10, 12), 2, 0),   # mixed q
    ((5, 2, (2,) * 5), (4, 4), 1, 5),            # the smallest grid
    ((5, 4, (2, 3, 2, 3, 4)), (12, 20), 3, 1),
])
def test_cross_section_components_match_csgraph(monkeypatch, args, grid, k,
                                                seed):
    # the transition graph handed to strong_components, split by scipy:
    # the same component count, and the kept states are its largest
    # component
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    calls = []

    def spy(src, dst, n):
        calls.append((src.copy(), dst.copy(), n))
        return real(src, dst, n)

    real = symbolic.strong_components
    monkeypatch.setattr(symbolic, "strong_components", spy)
    model = build_cross_section(regular_polygon(*args), grid, k, seed)
    (src, dst, n), = calls
    adj = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    n_ref, labels = connected_components(adj, directed=True,
                                         connection="strong")
    sizes = np.bincount(labels)
    assert np.count_nonzero(sizes == sizes.max()) == 1
    assert model.diagnostics["n_components"] == n_ref
    assert model.diagnostics["scc_states"] == sizes.max()
    n_u, n_th = grid
    state = (model.states[:, 0] * n_u + model.states[:, 1]) * n_th \
        + model.states[:, 2]
    assert np.array_equal(state, np.flatnonzero(labels == np.argmax(sizes)))


@pytest.mark.parametrize("block", [7, 100, 3 * 4096])
def test_cross_section_block_invariance(monkeypatch, block):
    # rays flagged by their own launch point, so the same samples are
    # redrawn whatever the slices; with blocks of 7 each slice is one
    # cell of K^2 = 9 samples
    real_cross = symbolic.batch_first_crossing
    flagged = []

    def cross(table, x, y, dx, dy, prev):
        out = real_cross(table, x, y, dx, dy, prev=prev)
        marked = np.floor(x * 1e9) % 53 == 0
        out[4][marked] = NEAR_VERTEX
        flagged.append(np.count_nonzero(marked))
        return out

    monkeypatch.setattr(symbolic, "batch_first_crossing", cross)
    poly = regular_polygon(5, 4, (2, 3, 2, 3, 4))
    ref = build_cross_section(poly, (12, 20), 3, 1)
    assert sum(flagged) > 100
    monkeypatch.setattr(symbolic, "BLOCK", block)
    got = build_cross_section(poly, (12, 20), 3, 1)
    for name in ("states", "src", "dst", "mass", "mean_L"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert got.diagnostics == ref.diagnostics


def test_cross_section_memory_bounded(pentagon_q2):
    # 184,320 samples keep 17 bytes each (3 MB) beside their first
    # uniforms (3 MB); the build that held every draw, launch and
    # crossing at once peaked at 31.7 MiB
    build_cross_section(pentagon_q2, (4, 4), 1, 0)  # warm-up, untraced
    tracemalloc.start()
    try:
        build_cross_section(pentagon_q2, (64, 64), 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_root_solve_counters(pentagon_q2):
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    est = solve_entropy(m, refine=False)
    d = est.diagnostics
    # each evaluated sign takes at least one power step, and each sign
    # the bisection reads is evaluated or read from the root enclosure
    assert d["power_iters"] >= d["sign_brackets"] > 0
    assert (d["sign_brackets"] + d["skipped_signs"]
            >= 2 + d["bracket_widened"] + d["bisection_iters"])
    assert d["bracket_width"] >= 0.0
    # the curve warm-starts point to point and agrees with single calls
    hs = np.linspace(est.value - 0.5, est.value + 0.5, 5)
    _assert_within_cold_brackets(m, pressure_curve(m, hs))


def test_refinement_apart_is_refine_true(pentagon_q2):
    # the refined root and the fold, run apart as `volent entropy` runs
    # them, give solve_entropy(refine=True) bit for bit
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    whole = solve_entropy(m, tol=1e-3)
    h_fine = refined_root(pentagon_q2, (8, 8), 2, 3, 1e-3)
    fine = build_cross_section(pentagon_q2, (16, 16), 2, seed=3)
    assert h_fine == _solve_root(fine, (0.5, 4.0), 1e-3)[0]
    coarse = solve_entropy(m, tol=1e-3, refine=False)
    assert with_refinement(coarse, h_fine) == whole
    assert whole.err == 1e-3 + abs(h_fine - whole.value)
    assert whole.diagnostics["h_refined"] == h_fine
    assert "h_refined" not in coarse.diagnostics
    # its grid is refused as build_cross_section refuses it, by name,
    # before any sampling
    for grid, name in (((8, 3), "grid"), (("ab", 8), "grid N_u")):
        with pytest.raises(ValueError, match=name):
            refined_root(pentagon_q2, grid, 2, 3)


def _assert_within_cold_brackets(m, curve):
    """Each curve point's radius lies in the certified bracket of a cold
    evaluation at its h, widened by half the curve's widest bracket: both
    brackets hold the radius, and the point is its bracket's midpoint."""
    assert curve.max_bracket_width > 0.0
    slack = 0.5 * curve.max_bracket_width
    for h, p in curve:
        lo, hi = symbolic._pressure_rho(m).bracket(h)
        assert (lo - slack) * (1 - 1e-14) <= math.exp(p)
        assert math.exp(p) <= (hi + slack) * (1 + 1e-14)


@pytest.mark.parametrize("p,m,q", [(5, 2, (2,) * 5), (4, 3, (3,) * 4)])
def test_pressure_matrix_in_model_order(p, m, q):
    # slot s of B holds the model's transition entries[s], renumbered
    # into B's state order, with its mean length as data and its
    # mass * q(dst) as weight; each row's slots keep the model's order
    model = build_cross_section(regular_polygon(p, m, q), (16, 16), 2, 0)
    rho = symbolic._pressure_rho(model)
    B, k = rho.B, rho.B.entries
    assert np.array_equal(np.sort(k), np.arange(model.src.size))
    assert rho.length.tobytes() == model.mean_L[k].tobytes()
    weight = model.mass * model.q_of_state(model.dst)
    assert rho.weight.tobytes() == weight[k].tobytes()
    row = np.concatenate([np.arange(b - a) for a, b in B.blocks])
    assert np.array_equal(B.order[row], model.src[k])
    assert np.array_equal(B.order[B.cols], model.dst[k])
    by_row = np.argsort(row, kind="stable")
    assert np.all((np.diff(k[by_row]) > 0) | (np.diff(row[by_row]) > 0))


def test_pressure_curve_repeated_and_unordered_h(pentagon_q2):
    # a repeated h would make a Lagrange node difference zero, and a
    # non-monotone sequence extrapolates backwards; neither may give a
    # NaN, a division by zero or a value outside the certified bracket
    m = build_cross_section(pentagon_q2, (8, 8), 2, seed=3)
    hs = [1.2, 1.5, 1.5, 1.0, 1.8, 1.5, 1.2, 1.2, 2.4, 0.7]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        curve = pressure_curve(m, hs)
    assert [h for h, _ in curve] == hs
    assert all(math.isfinite(p) for _, p in curve)
    _assert_within_cold_brackets(m, curve)


def test_pressure_curve_fewer_steps_than_cold_starts():
    # deterministic kernel-step counts on the default 32x32 model: the
    # extrapolated starts need under half the steps of cold starts
    # (706 against 1879 when this was written; a plain warm start from
    # the previous point's iterate takes 1545)
    m = build_cross_section(regular_polygon(5, 2, (2,) * 5), (32, 32), 3, 0)
    hs = np.linspace(1.26, 2.26, 21)
    cold = 0
    for h in hs:
        rho = symbolic._pressure_rho(m)
        rho.bracket(h)
        cold += rho.steps
    curve = pressure_curve(m, hs)
    assert len(curve) == 21
    assert 0 < 2 * curve.power_iters < cold
