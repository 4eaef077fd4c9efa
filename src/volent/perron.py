"""Certified Perron roots: the power iteration and the bisection shared
by the graph and pressure entropy solvers.

Both look for the h at which a nonnegative irreducible matrix B(h),
entrywise strictly decreasing in h, has spectral radius one. For any
positive v the Collatz-Wielandt bracket min(Bv/v) <= rho(B) <= max(Bv/v)
holds, so a sign of rho - 1 read once the bracket excludes 1 is
certified. Iterating on B + alpha*I, which has the same Perron vector
and rho(B) + alpha as root, removes the oscillation of periodic B.
"""

from __future__ import annotations

import numpy as np

from .errors import BracketFailed, PowerIterationStalled


def perron_bracket(B, v=None, rtol: float = 1e-13, target=None,
                   max_iter: int = 200_000) -> tuple:
    """Collatz-Wielandt bracket (lo, hi, v, steps) of rho(B).

    B is a nonnegative square matrix, v an optional positive start
    (e.g. the iterate returned for a nearby matrix). alpha is the
    midpoint of the first bracket. Stops when hi - lo <= rtol * hi or,
    given a target, once the bracket excludes it; lo + hi > 2 * target
    is then the sign of rho - target. An all-zero B gives (0, 0). If
    neither stop holds while lo is not positive (0 or NaN: rows of B
    underflowed to zero) and hi > 0, PowerIterationStalled is raised at
    once instead of after max_iter steps, since a zero row keeps lo at 0.
    """
    v = np.ones(B.shape[0]) if v is None else v
    for step in range(1, max_iter + 1):
        w = B @ v
        ratio = w / v
        lo, hi = float(ratio.min()), float(ratio.max())
        if step == 1:
            alpha = 0.5 * (lo + hi)
        if (hi - lo <= rtol * hi
                or target is not None and (lo > target or hi < target)):
            return lo, hi, v, step
        if hi > 0.0 and not lo > 0.0:
            raise PowerIterationStalled(
                f"entries of B underflowed to zero (bracket [{lo:g}, "
                f"{hi:g}]); the lower bound can never exceed 0")
        v = w + alpha * v
        v /= v.max()
    raise PowerIterationStalled(
        f"spectral radius iteration did not converge in {max_iter} steps")


class WarmPerron:
    """Brackets of rho(B(h)), B(h).data = weight * exp((shift - h) * length)
    on the fixed pattern of B, each warm-started from the iterate of the
    previous h. steps counts kernel steps; width is the last bracket's."""

    def __init__(self, B, weight, length, shift: float, rtol: float,
                 max_iter: int):
        self.B, self.weight, self.length = B, weight, length
        self.shift, self.rtol, self.max_iter = shift, rtol, max_iter
        self.v, self.steps, self.width = None, 0, 0.0

    def bracket(self, h: float, target=None) -> tuple:
        self.B.data = self.weight * np.exp((self.shift - h) * self.length)
        lo, hi, self.v, n = perron_bracket(self.B, self.v, self.rtol, target,
                                           self.max_iter)
        self.steps, self.width = self.steps + n, hi - lo
        return lo, hi

    def above(self, h: float) -> bool:
        """Certified rho(B(h)) > 1."""
        lo, hi = self.bracket(h, target=1.0)
        return lo + hi > 2.0


def bisect_root(above, lo: float, hi: float, tol: float,
                hi_cap: float) -> tuple:
    """Root (h, iters, widened) of a decreasing sign function above(h).

    BracketFailed unless above(lo). The upper end doubles, clamped at
    hi_cap, while above(hi); above(hi_cap) raises BracketFailed. Then
    [lo, hi] is halved to width tol, or until no float lies between.
    """
    if not above(lo):
        raise BracketFailed(f"not above the root at the lower end h = {lo:g}")
    widened = 0
    while above(hi):
        if hi >= hi_cap:
            raise BracketFailed(f"still above the root at h = {hi_cap:g}")
        hi = min(2.0 * hi, hi_cap)
        widened += 1
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters, widened
