import math

import numpy as np
import pytest

from volent.hypgeom import regular_polygon
from volent.measures import (FLUX_CONSTANT_2D, lower_bound_2d,
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
# vertex margin widened to 0.05 so that the redraw rounds run.
@pytest.mark.parametrize("eps_vertex,monte_carlo,mc_stderr,resampled", [
    (None, 10.672214440191938, 0.11123537827200489, 0),
    (0.05, 10.328489800005523, 0.057035675794780825, 3201),
])
def test_monte_carlo_matches_stored_reference(monkeypatch, eps_vertex,
                                              monte_carlo, mc_stderr,
                                              resampled):
    if eps_vertex is not None:
        monkeypatch.setattr("volent.tracing.EPS_VERTEX", eps_vertex)
    r = santalo_monte_carlo(regular_polygon(5, 2, (2, 3, 2, 3, 4)),
                            samples=20_000, seed=3)
    assert r.monte_carlo == monte_carlo
    assert r.mc_stderr == mc_stderr
    assert r.resampled == resampled


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
    faces = [(e.length, q) for e, q in zip(poly.edges, poly.q)]
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
