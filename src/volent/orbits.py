"""The closed-geodesic family g_k = A^k B and its length asymptotics.

With A = diag(lambda, 1/lambda) and B in SL(2, R), the translation
length of g_k on the hyperbolic plane is

    l(g_k) = arccosh( tr( (A^k B)(A^k B)^t ) / 2 ),

which expands to arccosh((lambda^{2k}(a^2 + b^2)
+ lambda^{-2k}(c^2 + d^2)) / 2) for B = [[a, b], [c, d]]. The sequence
approaches the affine asymptote 2 k ln(lambda) + ln(a^2 + b^2) but is
not itself affine in k unless (a^2 + b^2)(c^2 + d^2) = 1; the contrast
with an exactly affine log-multiplicity is what drives the strictness
argument in the surface case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NonHyperbolic

_DEG_TOL = 1e-12


@dataclass(frozen=True)
class OrbitFamily:
    lam: float
    B: np.ndarray
    k: np.ndarray
    trace: np.ndarray          # tr((A^k B)(A^k B)^t)
    length: np.ndarray         # arccosh(trace / 2), by matrix products
    length_formula: np.ndarray  # same, by the closed form
    degenerate: bool

    def asymptote(self) -> np.ndarray:
        """The affine asymptote 2 k ln(lambda) + ln(a^2 + b^2)."""
        a, b = self.B[0, 0], self.B[0, 1]
        return 2.0 * self.k * math.log(self.lam) + math.log(a * a + b * b)


def geodesic_lengths(lam: float, B, k_max: int) -> OrbitFamily:
    """Lengths of g_k for k = 1 .. k_max, computed two independent ways.

    The direct way multiplies matrices; the closed form evaluates the
    lambda-power expansion. Raises ValueError, naming k_max and lambda,
    if either way overflows float, and NonHyperbolic if any g_k fails
    tr/2 >= 1. The family is flagged degenerate (exactly affine
    lengths) when (a^2+b^2)(c^2+d^2) = 1, e.g. B = identity.
    """
    if not lam > 1.0:
        raise ValueError("need lambda > 1")
    B = np.asarray(B, dtype=float)
    if (B.shape != (2, 2) or not np.isfinite(B).all()
            or not abs(np.linalg.det(B) - 1.0) <= 1e-12):
        raise ValueError("B must be 2x2 with det 1")
    if k_max < 1:
        raise ValueError("need k_max >= 1")
    a, b = B[0, 0], B[0, 1]
    c, d = B[1, 0], B[1, 1]
    degenerate = abs((a * a + b * b) * (c * c + d * d) - 1.0) <= _DEG_TOL

    ks = np.arange(1, k_max + 1)
    A = np.array([[lam, 0.0], [0.0, 1.0 / lam]])
    traces = np.empty(k_max)
    M = B.copy()
    # overflow is reported below, by k, rather than warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(k_max):
            M = A @ M
            traces[i] = float(np.trace(M @ M.T))
            if not math.isfinite(traces[i]):   # so is every later trace
                break
        closed = (lam ** (2.0 * ks) * (a * a + b * b)
                  + lam ** (-2.0 * ks) * (c * c + d * d))
    bad = ~(np.isfinite(traces) & np.isfinite(closed))
    if bad.any():
        raise ValueError(
            f"k_max = {k_max} with lambda = {lam:g}: tr(g_k g_k^t) "
            f"overflows float from k = {ks[bad][0]}")
    if np.any(traces / 2.0 < 1.0 - 1e-12):
        raise NonHyperbolic("some g_k is not a hyperbolic element")
    length = np.arccosh(np.maximum(traces / 2.0, 1.0))
    length_formula = np.arccosh(np.maximum(closed / 2.0, 1.0))
    return OrbitFamily(lam=float(lam), B=B, k=ks, trace=traces,
                       length=length, length_formula=length_formula,
                       degenerate=degenerate)


def affine_deviation(family: OrbitFamily) -> tuple:
    """Second differences of l(g_k) and their maximal absolute value.

    An exactly affine sequence gives all zeros; the generic family does
    not, which is the computable face of the length-vs-multiplicity
    contrast.
    """
    ls = family.length
    if ls.shape[0] < 3:
        raise Degenerate("need at least 3 lengths for second differences")
    second = ls[2:] - 2.0 * ls[1:-1] + ls[:-2]
    return second, float(np.max(np.abs(second)))


def monotone_from(family: OrbitFamily) -> int:
    """Smallest k0 such that l(g_k) is strictly increasing for k >= k0."""
    ls = family.length
    k0 = int(family.k[0])
    for i in range(ls.shape[0] - 1):
        if ls[i + 1] <= ls[i]:
            k0 = int(family.k[i + 1])
    return k0


def family_rows(family: OrbitFamily) -> list:
    """(k, length, length_formula, deviation from asymptote) rows."""
    dev = family.length - family.asymptote()
    return [(int(k), float(l), float(lf), float(dv))
            for k, l, lf, dv in zip(family.k, family.length,
                                    family.length_formula, dev)]
