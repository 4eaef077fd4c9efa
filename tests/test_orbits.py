import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volent.errors import Degenerate
from volent.orbits import affine_deviation, family_rows, geodesic_lengths

PIN_B = np.array([[1.0, 1.0], [1.0, 2.0]])


def test_two_computations_agree():
    fam = geodesic_lengths(2.0, PIN_B, 12)
    assert np.max(np.abs(fam.length - fam.length_formula)
                  / np.abs(fam.length)) <= 1e-9


def test_first_length_closed_value():
    # k = 1: lambda^2 (a^2+b^2) + lambda^-2 (c^2+d^2) = 4*2 + 5/4 = 9.25
    fam = geodesic_lengths(2.0, PIN_B, 3)
    assert fam.trace[0] == pytest.approx(9.25, rel=1e-12)
    assert fam.length[0] == pytest.approx(math.acosh(4.625), rel=1e-12)


def test_identity_B_is_exactly_affine():
    fam = geodesic_lengths(2.0, np.eye(2), 10)
    assert fam.degenerate
    # l(A^k) = 2 k ln(lambda) exactly
    assert np.allclose(fam.length, 2.0 * fam.k * math.log(2.0), atol=1e-9)
    _, worst = affine_deviation(fam)
    assert worst < 1e-9


def test_generic_family_not_affine():
    fam = geodesic_lengths(2.0, PIN_B, 10)
    assert not fam.degenerate
    second, worst = affine_deviation(fam)
    assert worst > 1e-9
    # the deviation decays geometrically with k
    mags = np.abs(second)
    assert mags[0] > 0.05
    assert np.all(mags[1:] < 0.2 * mags[:-1] + 1e-15)


def test_asymptote_convergence():
    fam = geodesic_lengths(2.0, PIN_B, 15)
    dev = np.abs(fam.length - fam.asymptote())
    assert np.all(np.diff(dev) <= 1e-15)
    assert dev[-1] < 1e-9


@given(st.floats(0.05, 1.2))
@settings(max_examples=40)
def test_rotation_conjugation_preserves_lengths(theta):
    # A^k (R B) and A^k B have equal lengths when R is a rotation
    # fixing i only if R commutes past A; instead check the invariance
    # that defines the length: conjugating g_k by a rotation about i
    # preserves tr(g g^t), since rotations are orthogonal
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    A = np.array([[2.0, 0.0], [0.0, 0.5]])
    g = A @ A @ PIN_B
    h = R @ g @ R.T
    assert np.trace(h @ h.T) == pytest.approx(np.trace(g @ g.T), rel=1e-12)


def test_family_rows_shape():
    fam = geodesic_lengths(2.0, PIN_B, 5)
    rows = family_rows(fam)
    assert len(rows) == 5
    ks, ls, lfs, devs = zip(*rows)
    assert ks == (1, 2, 3, 4, 5)
    assert all(abs(a - b) < 1e-9 for a, b in zip(ls, lfs))


def test_input_validation():
    with pytest.raises(ValueError):
        geodesic_lengths(0.9, PIN_B, 5)
    with pytest.raises(ValueError):
        geodesic_lengths(2.0, [[1.0, 0.0], [0.0, 2.0]], 5)  # det != 1
    with pytest.raises(ValueError):
        geodesic_lengths(2.0, PIN_B, 0)
    with pytest.raises(ValueError, match="k_max"):
        geodesic_lengths(2.0, np.eye(2), 3.5)
    with pytest.raises(ValueError, match="lam"):
        geodesic_lengths(10 ** 400, PIN_B, 5)
    with pytest.raises(Degenerate):
        affine_deviation(geodesic_lengths(2.0, PIN_B, 2))


def test_near_orthogonal_boundary():
    # tr(M M^t) >= 2 det(M) with equality only for orthogonal M, so a
    # rotation B at lambda -> 1 gives lengths near but above zero
    c, s = math.cos(1.2), math.sin(1.2)
    R = np.array([[c, -s], [s, c]])
    fam = geodesic_lengths(1.0001, R, 3)
    assert np.all(fam.length >= 0.0)
    assert fam.length[0] < 1e-3


@given(st.floats(1.1, 3.0), st.integers(3, 12))
@settings(max_examples=30)
def test_formula_matches_products_generic(lam, k_max):
    fam = geodesic_lengths(lam, PIN_B, k_max)
    assert np.allclose(fam.length, fam.length_formula, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("lam,B", [(math.nan, PIN_B),
                                   (2.0, [[math.nan, 1.0], [1.0, 2.0]])])
def test_nan_inputs_refused(lam, B):
    with pytest.raises(ValueError):
        geodesic_lengths(lam, B, 5)
