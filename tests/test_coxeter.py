import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from volent import coxeter, svg
from volent.coxeter import (ChamberSet, GrowthTable, ball_growth,
                            enumerate_chambers, growth_slope,
                            weighted_ball_growth)
from volent.errors import FrontierTooClose, ResourceLimit, WindowTooNarrow
from volent.hypgeom import invert, regular_polygon


def _depth_counts(cs):
    return collections.Counter(cs.depths.tolist())


def test_depth_zero_and_one(pentagon_q1):
    cs = enumerate_chambers(pentagon_q1, max_depth=0)
    assert len(cs) == 1
    cs = enumerate_chambers(pentagon_q1, max_depth=1)
    assert _depth_counts(cs) == {0: 1, 1: 5}


def _brute_force_ball(poly, depth):
    """Every element of length <= depth as (matrix, length parity), from
    all words over the reflections, deduplicated by matrix up to sign.

    The reflection in the wall (cx, r) is z -> cx + r^2/(conj(z) - cx),
    the matrix [[cx, r^2 - cx^2], [1, -cx]] acting on conj(z), scaled to
    |det| = 1; a word of odd length acts on conj(z)."""
    gens = [np.array([[cx, r ** 2 - cx ** 2], [1.0, -cx]]) / r
            for cx, r in zip(poly.walls.cx.tolist(), poly.walls.r.tolist())]

    def key(m):
        v = m.ravel()
        lead = next(x for x in v if abs(x) > 1e-9)
        if lead < 0:
            v = -v
        return tuple(np.round(v, 9))

    seen = {key(np.eye(2)): (np.eye(2), 0)}
    frontier = [np.eye(2)]
    for k in range(1, depth + 1):
        nxt = []
        for mat in frontier:
            for g in gens:
                child = mat @ g
                if key(child) not in seen:
                    seen[key(child)] = (child, k % 2)
                    nxt.append(child)
        frontier = nxt
    return list(seen.values())


def test_depth_three_count_matches_brute_force(pentagon_q1):
    cs = enumerate_chambers(pentagon_q1, max_depth=3)
    assert len(cs) == len(_brute_force_ball(pentagon_q1, 3))
    # the depth-2 shell: 25 words, 5 collapse to identity, 5 commuting
    # pairs coincide
    assert _depth_counts(cs)[2] == 15


@pytest.mark.parametrize("p, m, q, n", [
    (5, 2, (1,) * 5, 166),
    (5, 3, (2,) * 5, 381),
    (6, 2, (2, 3) * 3, 457),
])
def test_points_match_brute_force_centers(p, m, q, n):
    # the ball is closed under inverses, so its orbit points w^-1(z0)
    # are its chamber centers w(z0)
    poly = regular_polygon(p, m, q)
    cs = enumerate_chambers(poly, max_depth=4)
    z0 = complex(poly.center.x, poly.center.y)
    centers = []
    for mat, odd in _brute_force_ball(poly, 4):
        (a, b), (c, d) = mat
        z = np.conjugate(z0) if odd else z0
        centers.append((a * z + b) / (c * z + d))

    def rounded(z):
        return {(round(w.real, 8), round(w.imag, 8)) for w in z}

    assert len(cs) == len(centers) == n
    assert rounded(cs.points) == rounded(centers)


def test_dedup_separation(pentagon_q1):
    cs = enumerate_chambers(pentagon_q1, max_depth=3)
    z = cs.points
    d2 = np.abs(z[:, None] - z[None, :]) ** 2
    ch = 1.0 + d2 / (2.0 * np.outer(z.imag, z.imag))
    dist = np.arccosh(np.maximum(ch, 1.0))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > pentagon_q1.inradius / 2


def test_multiplicity_uniform_q(pentagon_q2):
    cs = enumerate_chambers(pentagon_q2, max_depth=4)
    expected = cs.depths * math.log(2.0)
    assert np.allclose(cs.log_mult, expected, atol=1e-12)


def test_multiplicity_mixed_q():
    poly = regular_polygon(5, 2, (2, 3, 2, 2, 2))
    cs = enumerate_chambers(poly, max_depth=2)
    # one depth-2 chamber per unordered adjacent pair {0,1} carries 2*3
    mults = np.exp(cs.log_mult[cs.depths == 2])
    assert {round(v) for v in mults} <= {4, 6, 9}
    assert (np.round(mults) == 6).sum() >= 2


def test_determinism(pentagon_q2):
    a = enumerate_chambers(pentagon_q2, max_depth=4)
    b = enumerate_chambers(pentagon_q2, max_depth=4)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.log_mult, b.log_mult)


def test_growth_table_monotone(pentagon_q1):
    cs = enumerate_chambers(pentagon_q1, radius_cut=8.0)
    tab = weighted_ball_growth(cs, 1.0, 6.0, 12)
    assert np.all(np.diff(tab.log_weight) >= 0)


def test_frontier_too_close(pentagon_q1):
    cs = enumerate_chambers(pentagon_q1, radius_cut=8.0)
    with pytest.raises(FrontierTooClose):
        weighted_ball_growth(cs, 1.0, 7.5)


def test_nan_radius_refused(pentagon_q1):
    # a NaN radius cut leaves a NaN reach, which certifies nothing
    cs = enumerate_chambers(pentagon_q1, radius_cut=8.0)
    with pytest.raises(FrontierTooClose):
        weighted_ball_growth(cs, 1.0, float("nan"))
    # a NaN, non-positive or infinite cut is refused by the enumeration
    for cut in (float("nan"), -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="radius_cut"):
            enumerate_chambers(pentagon_q1, radius_cut=cut)
        with pytest.raises(ValueError, match="radius_cut"):
            ball_growth(pentagon_q1, cut, 1.0, 6.0)
    # so is a negative, fractional or bool depth
    for depth in (-3, 2.5, True):
        with pytest.raises(ValueError, match="max_depth"):
            enumerate_chambers(pentagon_q1, max_depth=depth)


def test_ball_growth_frontier_checked_first(pentagon_q1, monkeypatch):
    # the reach is checked before the walk starts
    def no_walk(*args):
        pytest.fail("ball_growth walked before checking its window")
    monkeypatch.setattr(coxeter, "_walk", no_walk)
    with pytest.raises(FrontierTooClose):
        ball_growth(pentagon_q1, 50.0, 1.0, 60.0)
    with pytest.raises(FrontierTooClose):
        ball_growth(pentagon_q1, 8.0, 1.0, float("nan"))
    with pytest.raises(ValueError, match="r_min"):
        ball_growth(pentagon_q1, 8.0, 5.0, 4.0)


def test_ball_sums_edges_and_rescale():
    # a radius on a grid point counts in that row; each batch whose top
    # weight exceeds the running shift rescales the sums, and exp(710)
    # alone would overflow
    sums = coxeter._BallSums(np.array([1.0, 2.0, 3.0]))
    sums.add(np.array([1.0, 2.5, 3.5]), np.array([700.0, 700.0, 0.0]))
    sums.add(np.array([2.0, 0.5]), np.array([710.0, 0.0]))
    sums.add(np.array([4.0]), np.array([900.0]))
    want = [700.0, 710.0 + math.log1p(math.exp(-10.0)),
            710.0 + math.log1p(2.0 * math.exp(-10.0))]
    assert np.allclose(sums.table().log_weight, want, rtol=0, atol=1e-12)


def test_synthetic_exact_exponential(pentagon_q1):
    r = np.linspace(2.0, 8.0, 16)
    tab = GrowthTable(radii=r, log_weight=2.0 * r + 0.7)
    slope, err = growth_slope(tab, pentagon_q1.diameter)
    assert slope == pytest.approx(2.0, abs=1e-9)
    assert err >= 0


def test_window_too_narrow(pentagon_q1):
    tab = GrowthTable(radii=np.array([1.0, 2.0]),
                      log_weight=np.array([0.0, 1.0]))
    with pytest.raises(WindowTooNarrow):
        growth_slope(tab, pentagon_q1.diameter)


def test_apartment_volume_tracks_disk_area(pentagon_q1):
    # with q = 1 the weighted volume is chamber count x area and must
    # stay within a constant factor of the hyperbolic disk area
    cs = enumerate_chambers(pentagon_q1, radius_cut=10.0)
    tab = weighted_ball_growth(cs, 4.0, 8.0, 9)
    vol = np.exp(tab.log_weight) * pentagon_q1.area
    disk = 2.0 * math.pi * (np.cosh(tab.radii) - 1.0)
    ratio = vol / disk
    assert ratio.min() > 0.5 and ratio.max() < 2.0


def test_slope_monotone_in_q():
    slopes = {}
    for qv in (2, 3):
        poly = regular_polygon(5, 2, (qv,) * 5)
        cs = enumerate_chambers(poly, radius_cut=10.0)
        tab = weighted_ball_growth(cs, 3.0, 8.0)
        slopes[qv], _ = growth_slope(tab, poly.diameter)
    assert slopes[3] > slopes[2]


def _inverse_series(a, n):
    """First n coefficients of 1/a(t) for a power series with a[0] = 1."""
    b = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        b[k] = -sum(a[j] * b[k - j] for j in range(1, min(k, len(a) - 1) + 1))
    return b


def _steinberg_growth(p, m, q, n):
    """Per-length weighted counts sum_{l(w)=k} q_w, k < n, from Steinberg's
    formula 1/W(t) = sum_{J finite} (-1)^|J| t^l(w_J) q_{w_J} / W_J(t).

    The finite parabolic subgroups of a compact hyperbolic polygon group
    are the trivial one, the p reflections and the p dihedral groups of
    order 2m at the vertices.
    """
    inv_w = [Fraction(1)] + [Fraction(0)] * (n - 1)

    def add(sign, numerator_shift, weight, poincare):
        series = _inverse_series(poincare, n)
        for k in range(numerator_shift, n):
            inv_w[k] += sign * weight * series[k - numerator_shift]

    for i in range(p):
        qa, qb = q[i], q[(i + 1) % p]
        add(-1, 1, qa, [Fraction(1), Fraction(qa)])
        if m % 2:
            assert qa == qb, "odd m makes adjacent generators conjugate"
        # alternating words of length k starting with a, and with b
        dihedral = [Fraction(1)] + [
            Fraction(qa ** ((k + 1) // 2) * qb ** (k // 2)
                     + qb ** ((k + 1) // 2) * qa ** (k // 2))
            for k in range(1, m)]
        longest = qa ** ((m + 1) // 2) * qb ** (m // 2)
        add(+1, m, longest, dihedral + [Fraction(longest)])
    return _inverse_series(inv_w, n)


@pytest.mark.parametrize("p, m, q", [
    (5, 2, (1,) * 5),
    (6, 2, (1,) * 6),
    (5, 3, (1,) * 5),
    (4, 3, (1,) * 4),
    (5, 2, (2, 3, 2, 3, 4)),
    (6, 2, (2, 3) * 3),
    (5, 3, (2,) * 5),
])
def test_growth_series_matches_steinberg(p, m, q):
    depth = 9
    cs = enumerate_chambers(regular_polygon(p, m, q), max_depth=depth)
    expected = _steinberg_growth(p, m, q, depth + 1)
    assert all(c.denominator == 1 for c in expected)
    weights = np.exp(cs.log_mult)
    got = [round(float(weights[cs.depths == k].sum()))
           for k in range(depth + 1)]
    assert got == [int(c) for c in expected]


@pytest.mark.parametrize("p, m, q, depth, cuts", [
    (5, 2, (2, 3, 2, 3, 4), 12, (5.0, 7.5)),
    (5, 3, (2,) * 5, 9, (4.0, 5.5)),
])
def test_radius_cut_matches_depth_enumeration(p, m, q, depth, cuts):
    poly = regular_polygon(p, m, q)
    full = enumerate_chambers(poly, max_depth=depth)

    def rows(cs, mask):
        return collections.Counter(zip(
            cs.depths[mask].tolist(),
            np.round(cs.radii[mask], 9).tolist(),
            np.round(cs.log_mult[mask], 9).tolist()))

    for cut in cuts:
        # every chamber within the cut is certified present in `full`
        assert cut <= full.reach
        cs = enumerate_chambers(poly, radius_cut=cut)
        assert rows(cs, slice(None)) == rows(full, full.radii <= cut)


_FIELDS = ("parent", "wall", "points", "radii", "depths", "log_mult")


@pytest.mark.parametrize("kw", [{"radius_cut": 9.0}, {"max_depth": 6}])
def test_block_size_invariance(monkeypatch, kw):
    # slices of 7 candidates split every level many times over, and must
    # keep each level in the order of the unsliced candidate list
    poly = regular_polygon(5, 2, (2, 3, 2, 3, 4))
    ref = enumerate_chambers(poly, **kw)
    monkeypatch.setattr(coxeter, "BLOCK", 7)
    cs = enumerate_chambers(poly, **kw)
    for name in _FIELDS:
        a, b = getattr(ref, name), getattr(cs, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cs.reach == ref.reach


@pytest.mark.parametrize("kw", [{"radius_cut": 9.0}, {"max_depth": 6}])
def test_rows_form_the_walk_tree(kw):
    # row i is its parent's row one level up, its point the parent's
    # inverted in base wall wall[i]: the step the walk takes and svg
    # repeats on wall arcs
    poly = regular_polygon(5, 2, (2, 3, 2, 3, 4))
    cs = enumerate_chambers(poly, **kw)
    assert (cs.parent[0], cs.wall[0], cs.depths[0]) == (-1, -1, 0)
    child = np.arange(1, len(cs))
    parent, wall = cs.parent[child], cs.wall[child]
    assert np.all(parent < child)
    assert np.array_equal(cs.depths[parent], cs.depths[child] - 1)
    cx, r = poly.walls.cx, poly.walls.r
    assert np.array_equal(invert(cs.points[parent], cx[wall], r[wall]),
                          cs.points[child])


def test_svg_arcs_surround_orbit_points():
    # svg moves wall arcs along the same tree, so row i's arcs bound the
    # chamber around its orbit point: every arc end is a vertex at the
    # circumradius from that point
    poly = regular_polygon(5, 3, (2,) * 5)
    cs = enumerate_chambers(poly, max_depth=4)
    ends = svg._chamber_arcs(poly, cs)[:, :, [0, -1]].reshape(len(cs), -1)
    u = cs.points[:, None]
    d = np.arccosh(1.0 + np.abs(ends - u) ** 2 / (2.0 * ends.imag * u.imag))
    assert np.max(np.abs(d - poly.circumradius)) <= 1e-9


def test_cap_names_depth(pentagon_q2):
    # 441 chambers up to depth 5 and 1161 up to depth 6, so depth 6
    # crosses the cap
    with pytest.raises(ResourceLimit, match="cap=1000 at depth 6"):
        enumerate_chambers(pentagon_q2, max_depth=10, cap=1000)


def test_enumeration_memory_bounded(pentagon_q2):
    # the outputs take 6.7 MB; the walk's last two levels beside the
    # slices, then each field's slices beside its concatenation, peak
    # near 8.4 MiB
    tracemalloc.start()
    try:
        cs = enumerate_chambers(pentagon_q2, radius_cut=11.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = sum(getattr(cs, name).nbytes for name in _FIELDS)
    assert peak <= 2 * out


def _reference_radii(poly, depth):
    """Orbit-point radii d(w^-1(z0), z0) per word length, from a 50-digit
    breadth-first walk over the float polygon's walls: each new point is
    an earlier one inverted in a wall, and points reached before are
    dropped."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    walls = [(mp.mpf(cx), mp.mpf(r) ** 2)
             for cx, r in zip(poly.walls.cx.tolist(), poly.walls.r.tolist())]
    z0 = mp.mpc(poly.center.x, poly.center.y)

    def cell(z):
        return (int(mp.floor(z.real * 10 ** 8)),
                int(mp.floor(z.imag * 10 ** 8)))

    def known(z):
        # the float walls meet at their angles to about 1e-16, so two
        # words for one element land up to about 1e-9 apart, while two
        # chambers' points stay over 1e-4 apart out to depth 8
        i, j = cell(z)
        return any((i + di, j + dj) in seen
                   for di in (-1, 0, 1) for dj in (-1, 0, 1))

    def dist(z):
        return mp.acosh(1 + abs(z - z0) ** 2 / (2 * z.imag * z0.imag))

    seen = {cell(z0)}
    level = [z0]
    radii = [[0.0]]
    for _ in range(depth):
        nxt = []
        for u in level:
            for c, r2 in walls:
                v = c + r2 / mp.conj(u - c)
                if not known(v):
                    seen.add(cell(v))
                    nxt.append(v)
        level = nxt
        radii.append(sorted(float(dist(v)) for v in level))
    return radii


@pytest.mark.parametrize("p, m, q", [
    (5, 2, (2, 3, 2, 3, 4)),
    (5, 3, (2,) * 5),
])
def test_orbit_point_radii_match_reference(p, m, q):
    poly = regular_polygon(p, m, q)
    depth = 6
    cs = enumerate_chambers(poly, max_depth=depth)
    ref = _reference_radii(poly, depth)
    for k in range(depth + 1):
        got = np.sort(cs.radii[cs.depths == k])
        assert got.shape[0] == len(ref[k])
        assert np.max(np.abs(got - ref[k])) <= 1e-13, k


_STREAM_CASES = [
    (5, 2, (2,) * 5), (5, 2, (2, 3, 2, 3, 4)), (5, 3, (3,) * 5),
    (6, 2, (2,) * 6), (6, 2, (2, 3) * 3), (6, 3, (2,) * 6),
    (7, 2, (3,) * 7), (7, 2, (2, 3, 2, 3, 4, 2, 5)), (7, 3, (2,) * 7),
]


@pytest.mark.parametrize("p, m, q", _STREAM_CASES)
def test_ball_growth_matches_chamber_set(p, m, q):
    # weighted_ball_growth sorts the whole set and sums prefixes, so it
    # checks the streamed fold's binning and rescaling
    poly = regular_polygon(p, m, q)
    cut = 9.0
    cs = enumerate_chambers(poly, radius_cut=cut)
    r_max = cs.reach
    ref = weighted_ball_growth(cs, 1.0, r_max, 16)
    bg = ball_growth(poly, cut, 1.0, r_max, 16)
    assert np.array_equal(bg.table.radii, ref.radii)
    assert np.max(np.abs(bg.table.log_weight - ref.log_weight)) <= 1e-13
    assert bg.chambers_per_depth == np.bincount(cs.depths).tolist()
    assert bg.chambers == len(cs)
    assert bg.reach == cs.reach


def test_ball_growth_radius_on_grid_point(pentagon_q1):
    # with q = 1 each row is the count of chambers with radius <= its
    # grid point; r_min and r_max are chamber radii, so both end rows
    # hold a chamber exactly on the grid
    cut = 8.0
    cs = enumerate_chambers(pentagon_q1, radius_cut=cut)
    r = np.unique(cs.radii)
    r_min, r_max = r[r > 1.0][0], r[r <= cs.reach][-1]
    bg = ball_growth(pentagon_q1, cut, r_min, r_max, 7)
    ref = weighted_ball_growth(cs, r_min, r_max, 7)
    assert bg.table.radii[0] == r_min and bg.table.radii[-1] == r_max
    want = (cs.radii[:, None] <= bg.table.radii).sum(axis=0)
    assert np.array_equal(np.rint(np.exp(bg.table.log_weight)), want)
    assert np.array_equal(np.rint(np.exp(ref.log_weight)), want)
    assert np.max(np.abs(bg.table.log_weight - ref.log_weight)) <= 1e-13


def test_ball_growth_block_invariance(monkeypatch):
    # slices of 7 fold the same chambers in more, smaller sums
    poly = regular_polygon(5, 2, (2, 3, 2, 3, 4))
    ref = ball_growth(poly, 9.0, 2.0, 7.0, 12)
    monkeypatch.setattr(coxeter, "BLOCK", 7)
    bg = ball_growth(poly, 9.0, 2.0, 7.0, 12)
    assert np.max(np.abs(bg.table.log_weight - ref.table.log_weight)) <= 1e-13
    assert bg.chambers_per_depth == ref.chambers_per_depth
    assert (bg.chambers, bg.reach) == (ref.chambers, ref.reach)


def test_ball_growth_memory_bounded(pentagon_q2):
    # the default growth stage (655,371 chambers) holds one level of
    # orbit points and the candidates of one slice, not the ball; the
    # ChamberSet path peaks near 55 MiB on the same input
    tracemalloc.start()
    try:
        bg = ball_growth(pentagon_q2, 12.7, 4.0, 11.0, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bg.chambers == 655_371
    assert peak <= 24 * 2 ** 20
