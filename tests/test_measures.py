import math

import numpy as np
import pytest

from volent import measures
from volent.hypgeom import HPoint, dist, regular_polygon
from volent.measures import (_VERTEX_SHARE, FLUX_CONSTANT_2D, _Sectors,
                             _sample_in_polygon, lower_bound_2d,
                             lower_bound_plugin, santalo_closed_form,
                             santalo_monte_carlo, strictness_report)
from volent.symbolic import EntropyEstimate


def test_closed_form_arithmetic(pentagon_q2):
    ell = pentagon_q2.edge_length
    assert santalo_closed_form(pentagon_q2) == pytest.approx(
        2.0 * 5 * math.log(2.0) * ell, rel=1e-12)
    assert santalo_closed_form(pentagon_q2) == pytest.approx(7.3562, abs=2e-3)


def test_closed_form_vanishes_thin(pentagon_q1):
    assert santalo_closed_form(pentagon_q1) == 0.0


def test_closed_form_additive_in_single_wall(pentagon_q2):
    # raising one wall from q=2 to q=4 adds exactly 2 * ell * ln 2
    bumped = regular_polygon(5, 2, (4, 2, 2, 2, 2))
    delta = santalo_closed_form(bumped) - santalo_closed_form(pentagon_q2)
    assert delta == pytest.approx(2.0 * pentagon_q2.edge_length * math.log(2),
                                  rel=1e-12)


def test_monte_carlo_matches_closed_form(pentagon_q2):
    res = santalo_monte_carlo(pentagon_q2, samples=200_000, seed=0)
    assert abs(res.monte_carlo - res.closed_form) <= 4.0 * res.mc_stderr
    assert res.c_constant_used == pytest.approx(
        FLUX_CONSTANT_2D, abs=3.0 * res.mc_stderr / (res.closed_form / 2.0))
    assert res.resampled < res.samples * 0.01


def test_monte_carlo_ci_coverage(pentagon_q2):
    # the 4-sigma interval should cover the closed form in nearly every
    # seed; 2-sigma coverage should be high but not perfect
    hits2 = 0
    for seed in range(20):
        r = santalo_monte_carlo(pentagon_q2, samples=20_000, seed=seed)
        assert abs(r.monte_carlo - r.closed_form) <= 5.0 * r.mc_stderr
        if abs(r.monte_carlo - r.closed_form) <= 2.0 * r.mc_stderr:
            hits2 += 1
    assert hits2 >= 17


# Santalo estimates on the mixed-q pentagon at 20,000 samples, seed 3,
# stored from commit 9e8a375, before both chord crossings came from one
# candidate stage: as is (no sample grazes a vertex), and with the
# vertex margin widened to 0.05 so that the redraw rounds run. With the
# vertex share at 0 the mixture estimator is the uniform one bit for bit.
@pytest.mark.parametrize("eps_vertex,monte_carlo,mc_stderr,resampled", [
    (None, 10.672214440191938, 0.11123537827200489, 0),
    (0.05, 10.328489800005523, 0.057035675794780825, 3201),
])
def test_monte_carlo_matches_stored_reference(monkeypatch, eps_vertex,
                                              monte_carlo, mc_stderr,
                                              resampled):
    monkeypatch.setattr("volent.measures._VERTEX_SHARE", 0.0)
    if eps_vertex is not None:
        monkeypatch.setattr("volent.tracing.EPS_VERTEX", eps_vertex)
    r = santalo_monte_carlo(regular_polygon(5, 2, (2, 3, 2, 3, 4)),
                            samples=20_000, seed=3)
    assert r.monte_carlo == monte_carlo
    assert r.mc_stderr == mc_stderr
    assert r.resampled == resampled
    assert r.vertex_samples == 0


# The same runs with the defensive vertex mixture (share 0.3), stored
# when it was introduced.
@pytest.mark.parametrize("eps_vertex,monte_carlo,mc_stderr,resampled", [
    (None, 10.556611675745653, 0.04532204389328732, 0),
    (0.05, 11.009635480996646, 0.042076839051787746, 5629),
])
def test_mixture_matches_stored_reference(monkeypatch, eps_vertex,
                                          monte_carlo, mc_stderr, resampled):
    if eps_vertex is not None:
        monkeypatch.setattr("volent.tracing.EPS_VERTEX", eps_vertex)
    r = santalo_monte_carlo(regular_polygon(5, 2, (2, 3, 2, 3, 4)),
                            samples=20_000, seed=3)
    assert r.monte_carlo == monte_carlo
    assert r.mc_stderr == mc_stderr
    assert r.resampled == resampled
    assert r.vertex_samples == 6000


def test_mixture_density_normalised(pentagon_q2):
    # over mixture base points, E[1 / (A g)] = (1/A) * area(P) = 1
    # exactly when g integrates to 1 over P; every sector point lies in
    # P and within r0 of its vertex
    poly = pentagon_q2
    sectors = _Sectors.from_polygon(poly)
    rng = np.random.default_rng(11)
    n = 200_000
    n2 = round(_VERTEX_SHARE * n)
    xu, yu = _sample_in_polygon(poly, n - n2, rng)
    xv, yv = sectors.sample(n2, rng)
    x, y = np.concatenate((xu, xv)), np.concatenate((yu, yv))
    inv = 1.0 / ((n - n2) / n + n2 / n * poly.area * sectors.density(x, y))
    assert abs(inv.mean() - 1.0) <= 4.0 * inv.std(ddof=1) / math.sqrt(n)
    assert np.all(poly.walls.side(xv[:2000] + 1j * yv[:2000]) >= 0.0)
    for a, b in zip(xv[:2000], yv[:2000]):
        pt = HPoint(a, b)
        assert min(dist(pt, v) for v in poly.vertices) < sectors.r0


def test_mixture_tail_bounded(monkeypatch, pentagon_q2):
    # the largest weighted sample stays within 10x the mean; uniform
    # base points (vertex share 0) read far above it
    mass = 2.0 * math.pi * pentagon_q2.area
    r = santalo_monte_carlo(pentagon_q2, samples=200_000, seed=0)
    assert r.max_value <= 10.0 * r.monte_carlo / mass
    monkeypatch.setattr("volent.measures._VERTEX_SHARE", 0.0)
    u = santalo_monte_carlo(pentagon_q2, samples=200_000, seed=0)
    assert u.max_value > 50.0 * u.monte_carlo / mass


@pytest.mark.parametrize("p,m", [(5, 2), (6, 2), (7, 2), (4, 3), (3, 7)])
def test_sector_radius_meets_only_incident_walls(p, m):
    # on the hyperbolic circle of radius r0 about each vertex, every
    # point is strictly inside each wall not incident to the vertex, and
    # the arc inside both incident walls is the interior wedge pi/m
    poly = regular_polygon(p, m, (2,) * p)
    sectors = _Sectors.from_polygon(poly)
    r0 = sectors.r0
    alpha = np.linspace(0.0, 2.0 * math.pi, 20_000, endpoint=False)
    for k, v in enumerate(poly.vertices):
        den = math.cosh(r0) - math.sinh(r0) * np.sin(alpha)
        pts = (v.x + v.y * math.sinh(r0) * np.cos(alpha) / den
               + 1j * (v.y / den))
        assert dist(HPoint.from_complex(pts[0]), v) == pytest.approx(
            r0, rel=1e-9)
        side = poly.walls.side(pts)
        incident = [(k - 1) % p, k]
        for j in range(p):
            if j not in incident:
                assert side[:, j].min() > 0.0
        inside = np.count_nonzero(np.all(side[:, incident] > 0.0, axis=1))
        assert inside / len(pts) == pytest.approx(1.0 / (2 * m), abs=1e-3)


def test_monte_carlo_sample_floor(pentagon_q2):
    with pytest.raises(ValueError):
        santalo_monte_carlo(pentagon_q2, samples=100)


def test_lower_bounds_values(pentagon_q2):
    s = 5 * math.log(2.0) * pentagon_q2.edge_length
    rep = lower_bound_2d(pentagon_q2)
    assert rep.paper_literal_bound == pytest.approx(
        1.0 + s / pentagon_q2.area, rel=1e-12)
    assert rep.derived_constant_bound == pytest.approx(
        1.0 + s / (math.pi * pentagon_q2.area), rel=1e-12)
    assert rep.derived_constant_bound < rep.paper_literal_bound


def test_plugin_bound_examples():
    # hyperbolic n = 2 with the pentagon data reproduces lower_bound_2d
    poly = regular_polygon(5, 2, (2,) * 5)
    faces = list(zip((poly.walls.s_hi - poly.walls.s_lo).tolist(), poly.q))
    v = lower_bound_plugin(2, poly.area, faces)
    assert v == pytest.approx(lower_bound_2d(poly).paper_literal_bound,
                              rel=1e-12)
    # euclidean unit segment with branching 4 at both endpoints
    assert lower_bound_plugin(1, 1.0, [(1.0, 4), (1.0, 1)],
                              euclidean=True) == pytest.approx(2 * math.log(2))
    with pytest.raises(ValueError):
        lower_bound_plugin(2, 0.0, faces)
    with pytest.raises(ValueError):
        lower_bound_plugin(2, 1.0, [(1.0, 0)])
    # non-finite data gave nan (or 1.0 for vol_P = inf) instead of an error
    for vol_P, bad in ((math.nan, faces), (math.inf, faces),
                       (1.0, [(math.nan, 2)]), (1.0, [(math.inf, 2)]),
                       (1.0, [(1.0, math.nan)]), (1.0, [(1.0, math.inf)])):
        with pytest.raises(ValueError):
            lower_bound_plugin(2, vol_P, bad)
    # a dimension that is not an integer >= 1 gave -0.307, -3.307, 2.193
    # and 0.693 instead of an error
    for n in (0, -3, 2.5, True):
        with pytest.raises(ValueError):
            lower_bound_plugin(n, poly.area, faces)


@pytest.mark.parametrize("block", [997, 3 * 4096])
def test_santalo_independent_of_block_size(monkeypatch, block):
    # the draws are made at full length and every operation on them is
    # per sample, so the block size cannot move the estimate
    poly = regular_polygon(5, 2, (2, 3, 2, 3, 4))
    ref = [santalo_monte_carlo(poly, samples=20_000, seed=s) for s in (0, 3)]
    monkeypatch.setattr(measures, "BLOCK", block)
    got = [santalo_monte_carlo(poly, samples=20_000, seed=s) for s in (0, 3)]
    assert list(map(repr, got)) == list(map(repr, ref))


def test_strictness_pass(pentagon_q2):
    est = EntropyEstimate(value=1.76, err=0.01, method="test")
    rep = strictness_report(pentagon_q2, [est])
    assert rep.flag == "PASS"
    assert rep.strictness_margin == pytest.approx(
        1.75 - rep.derived_constant_bound, rel=1e-9)


def test_strictness_equality(pentagon_q1):
    est = EntropyEstimate(value=1.001, err=0.02, method="test")
    rep = strictness_report(pentagon_q1, [est])
    assert rep.derived_constant_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.flag == "EQUALITY"


def test_strictness_fail_synthetic(pentagon_q2):
    est = EntropyEstimate(value=1.2, err=0.01, method="test")
    rep = strictness_report(pentagon_q2, [est])
    assert rep.flag == "FAIL"
    with pytest.raises(ValueError):
        strictness_report(pentagon_q2, [])


def test_closed_form_scales_with_geometry():
    # more walls and larger q both increase the integral
    a = santalo_closed_form(regular_polygon(5, 2, (2,) * 5))
    b = santalo_closed_form(regular_polygon(6, 2, (2,) * 6))
    c = santalo_closed_form(regular_polygon(5, 2, (3,) * 5))
    assert b > a
    assert c > a
