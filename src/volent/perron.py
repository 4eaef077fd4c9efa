"""Certified Perron roots: the power iteration and the bisection shared
by the graph and pressure entropy solvers.

Both look for the h at which a nonnegative irreducible matrix B(h),
entrywise strictly decreasing in h, has spectral radius one. For any
positive v the Collatz-Wielandt bracket min(Bv/v) <= rho(B) <= max(Bv/v)
holds, so a sign of rho - 1 read once the bracket excludes 1 is
certified, and so is a value read once the bracket is narrow, whatever
the start vector was.

Iterating on B + alpha*I, which has the same Perron vector and
rho(B) + alpha as root, removes the oscillation of periodic B: for
period d and alpha = c*rho, the peripheral eigenvalue rho*e^(2 pi i/d)
moves to modulus |e^(2 pi i/d) + c| / (1 + c) < 1 relative to the root,
for every c > 0. A large shift slows the interior spectrum instead: a
positive eigenvalue lambda < rho converges at the ratio
(lambda + alpha) / (rho + alpha), which grows with alpha. So alpha is
_SHIFT = 1/4 of the first bracket's midpoint, about rho/4, and is taken
again from the current midpoint whenever that falls below alpha: a warm
start from a distant matrix can make the first midpoint overshoot rho by
orders of magnitude, and alpha >> rho then contracts by about
1 - rho/alpha per step.

A value-mode evaluation of a curve h -> rho(B(h)) starts from the
cubic Lagrange extrapolation, in h, of ln v over the last _HISTORY = 4
evaluations: the Perron vector is smooth in h, so the start is close to
the answer and the bracket narrows in far fewer steps.

A root solve (WarmPerron.root) bisects with bisect_root on signs read
through WarmPerron.above, and each sign bracket [lo, hi] at h also
bounds the root r of rho(B(h)) = 1. Every entry of B(h) carries the
factor exp(-h * length), so d ln rho / dh lies in [-lmax, -lmin], the
extremes of length (mean_L > 0 for an Ulam model, the edge lengths for
a graph), and r lies in [h + ln lo / (lmax if lo >= 1 else lmin),
h + ln hi / (lmin if hi >= 1 else lmax)]. The solver keeps the
intersection [low, high] of these enclosures, each end widened by the
margin (_ROUNDING * (1 + |h|) + 2 * rtol) / lmin: the rounding of B(h)
and of a bracket is far below _ROUNDING in ln rho, and where
|ln rho| > 2 * rtol a sign bracket excludes 1 before its rtol stop. So
at an h outside [low, high] any sign bracket, from any warm start,
certifies the sign the enclosure gives, and above(h) reads it without
one. bisect_root keeps its loop and its midpoints, so h, its iteration
count and its widenings are those of a bisection that evaluates every
sign, bit for bit whenever that bisection's signs were all certified.
(A midpoint within the margin of the root is evaluated on both paths,
from different warm starts; a bracket that stops at rtol with 1 inside
reads its midpoint, so there the two may differ, within tol and the
margins.) When h falls inside, the solver first probes the secant root
r' of the last two sign brackets' ln rho at r' -+ d, d = max(tol / 4,
margin), each probe only if it lies more than the margin inside [low,
high]: once r' is within d of the root, the probes leave an enclosure
of width about 2d, and the bisection's later midpoints fall outside it.
A sign bracket stops as soon as it excludes 1, so its midpoint places
r' only to a fraction of the distance to the root; where the operator
gives a left Perron vector (a metric graph's does), ln rho is read from
the quotient u.Bv / u.v of the bracket's own last product Bv instead,
whose error is second order.

WarmPerron.root returns the root record (h, err, counters) both solvers
report; its power_iters counts the products B @ v the iteration ran.
Only a sign within the margin of the root can be wrong, and the last
bracket is at most tol wide, so err = max(tol, tol / 2 + margin(h)):
tol at every default, above 0 at tol = 0.

An Ulam model's matrix is a SparseRows: its product adds each row's
terms in the same order as a CSR product, so the two agree bit for bit,
with numpy alone. A metric graph's operator keeps its own bincount
product (graphs._NonBacktracking).

Both roots are taken on an irreducible matrix. strong_components finds
the strongly connected components of a sparsity pattern with numpy
alone, so that an Ulam model keeps its largest one; a metric graph's
operator needs no such step (see strong_components).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (BracketFailed, PowerIterationStalled, _at_least,
                     _is_finite, _require)

# alpha as a fraction of a bracket's midpoint: the first one's, then any
# later one's that alpha exceeds.
_SHIFT = 0.25
# Value-mode iterates kept for the start extrapolation: four points,
# a cubic in h.
_HISTORY = 4
# Relative rounding of B(h) and of its brackets allowed for, in ln rho,
# by the ends of WarmPerron's root enclosure.
_ROUNDING = 1e-12


def perron_bracket(B, v=None, rtol: float = 1e-13, target=None,
                   max_iter: int = 200_000) -> tuple:
    """Collatz-Wielandt bracket (lo, hi, v, w, steps) of rho(B), with the
    last iterate v and its product w = B @ v, the bracket's.

    B is a nonnegative square matrix: anything with .shape and a product
    B @ v. v is an optional positive start (e.g. the iterate returned
    for a nearby matrix), copied, not changed. alpha is _SHIFT
    times the first bracket's midpoint, re-taken from the midpoint of
    any later bracket it exceeds. Stops when hi - lo <= rtol * hi
    or, given a target, once the bracket excludes it; lo + hi > 2 *
    target is then the sign of rho - target. An all-zero B gives (0, 0). If
    neither stop holds while lo is not positive (0 or NaN: rows of B
    underflowed to zero) and hi > 0, PowerIterationStalled is raised at
    once instead of after max_iter steps, since a zero row keeps lo at 0.
    """
    v = np.ones(B.shape[0]) if v is None else np.array(v, dtype=float)
    ratio = np.empty_like(v)
    for step in range(1, max_iter + 1):
        w = B @ v
        np.divide(w, v, out=ratio)
        lo, hi = float(ratio.min()), float(ratio.max())
        if step == 1 or alpha > 0.5 * (lo + hi):
            alpha = _SHIFT * 0.5 * (lo + hi)
        if (hi - lo <= rtol * hi
                or target is not None and (lo > target or hi < target)):
            return lo, hi, v, w, step
        if hi > 0.0 and not lo > 0.0:
            raise PowerIterationStalled(
                f"entries of B underflowed to zero (bracket [{lo:g}, "
                f"{hi:g}]); the lower bound can never exceed 0")
        v *= alpha
        v += w
        v /= v.max()
    raise PowerIterationStalled(
        f"spectral radius iteration did not converge in {max_iter} steps")


class WarmPerron:
    """Brackets of rho(B(h)), B(h).data = weight * exp((shift - h) * length)
    on the fixed pattern of B, with length the data B is built with and
    weight in the order of B.data. B may be anything with .shape, .data
    (a float array, rewritten in place) and a product B @ v: a
    SparseRows for an Ulam model, graphs._NonBacktracking for a metric
    graph; B.left(v), if B has it, maps a right Perron vector to a left
    one (see _rho). The iterates v are in B's state order, which the brackets do
    not depend on: every step on them is elementwise or a min/max. A
    sign (given a target) is warm-started from the last iterate; a
    value (no target) from the extrapolation of the last _HISTORY
    value-mode iterates to h. steps counts the products B @ v the
    brackets ran; w is the last one and width the last bracket's.

    Every sign bracket also narrows [low, high], an enclosure of the
    root of rho(B(h)) = 1 that above reads (see the module docstring;
    every length must be > 0); signs counts the sign brackets and
    skipped the signs read from the enclosure alone."""

    def __init__(self, B, weight, shift: float, rtol: float, max_iter: int):
        self.B, self.weight, self.length = B, weight, B.data.copy()
        self.shift, self.rtol, self.max_iter = shift, rtol, max_iter
        self.v, self.w, self.steps, self.width = None, None, 0, 0.0
        self.history = []   # (h, ln v) of the last value-mode brackets
        self.lmin = float(self.length.min())
        self.lmax = float(self.length.max())
        self.low, self.high = -math.inf, math.inf
        self.signs = self.skipped = 0
        self.tol = 0.0
        self.last = []      # (h, ln rho) of the last two sign brackets

    def bracket(self, h: float, target=None) -> tuple:
        data = self.B.data
        np.multiply(self.length, self.shift - h, out=data)
        np.exp(data, out=data)
        data *= self.weight
        v = self.v if target is not None else self._extrapolate(h)
        lo, hi, self.v, self.w, n = perron_bracket(self.B, v, self.rtol,
                                                   target, self.max_iter)
        self.steps, self.width = self.steps + n, hi - lo
        if target is None:
            # a repeated h replaces its older entry, so the nodes of the
            # Lagrange weights stay distinct
            kept = [(g, y) for g, y in self.history if g != h]
            self.history = (kept + [(h, np.log(self.v))])[-_HISTORY:]
        return lo, hi

    def _extrapolate(self, h: float):
        """exp of the Lagrange polynomial through the stored (h, ln v),
        evaluated at h and scaled to max 1; the last iterate when fewer
        than two are stored or the result is not positive and finite."""
        if len(self.history) < 2:
            return self.v
        hs = [g for g, _ in self.history]
        y = sum(math.prod((h - hk) / (hj - hk) for hk in hs if hk != hj) * yj
                for hj, yj in self.history)
        v = np.exp(y - y.max())
        return v if np.all(v > 0.0) else self.v

    def root(self, lo: float, hi: float, tol: float, hi_cap: float) -> tuple:
        """The root record (h, err, counters) of bisect_root(above, lo, hi,
        tol, hi_cap), whose check of tol comes before the probes use it;
        err = max(tol, tol / 2 + _margin(h)) (see the module docstring)."""
        self.tol = tol
        h, iters, widened = bisect_root(self.above, lo, hi, tol, hi_cap)
        err = max(tol, 0.5 * tol + self._margin(h))
        return h, err, {"bisection_iters": iters, "bracket_widened": widened,
                        "power_iters": self.steps,
                        "bracket_width": self.width,
                        "sign_brackets": self.signs,
                        "skipped_signs": self.skipped}

    def above(self, h: float) -> bool:
        """Certified rho(B(h)) > 1: read from [low, high] when h lies
        outside it, after the probes if need be, else from a sign bracket
        at h."""
        if self.low <= h <= self.high:
            self._probe()
        if self.low <= h <= self.high:
            return self._sign(h)
        self.skipped += 1
        return h < self.low

    def _sign(self, h: float) -> bool:
        """The sign of rho(B(h)) - 1 from a sign bracket, which narrows
        [low, high]: by d ln rho / dh in [-lmax, -lmin], the root lies in
        [h + ln lo / (lmax if lo >= 1 else lmin),
         h + ln hi / (lmin if hi >= 1 else lmax)],
        widened by _margin(h) at each end."""
        lo, hi = self.bracket(h, target=1.0)
        self.signs += 1
        m = self._margin(h)
        if 0.0 < lo < math.inf:
            a = math.log(lo) / (self.lmax if lo >= 1.0 else self.lmin)
            self.low = max(self.low, h + a - m)
        if 0.0 < hi < math.inf:
            b = math.log(hi) / (self.lmin if hi >= 1.0 else self.lmax)
            self.high = min(self.high, h + b + m)
            self.last = (self.last + [(h, math.log(self._rho(lo, hi)))])[-2:]
        return lo + hi > 2.0

    def _rho(self, lo: float, hi: float) -> float:
        """rho(B(h)) read from the last sign bracket [lo, hi]: its midpoint,
        first order in the error of the iterate v, or, when B gives a left
        Perron vector u = B.left(v), the quotient u.w / u.v, second order,
        if it lies in [lo, hi], w = B @ v the bracket's last product."""
        mid = 0.5 * (lo + hi)
        if not hasattr(self.B, "left"):
            return mid
        u = self.B.left(self.v)
        r = float(np.dot(u, self.w) / np.dot(u, self.v))
        return r if lo <= r <= hi else mid

    def _margin(self, h: float) -> float:
        """Distance in h beyond which every sign bracket certifies: at
        least _ROUNDING * (1 + |h|) + 2 * rtol in ln rho, by slope lmin."""
        return (_ROUNDING * (1.0 + abs(h)) + 2.0 * self.rtol) / self.lmin

    def _probe(self) -> None:
        """Sign brackets at r -+ max(tol / 4, margin) that lie more than the
        margin inside [low, high], r the secant root of the last two sign
        brackets' ln rho."""
        if len(self.last) < 2:
            return
        (h0, y0), (h1, y1) = self.last
        if y0 == y1:
            return
        r = h1 - y1 * (h1 - h0) / (y1 - y0)
        m = self._margin(r)
        d = max(0.25 * self.tol, m)
        for p in (r - d, r + d):
            if self.low + m < p < self.high - m:
                self._sign(p)


class SparseRows:
    """The n x n matrix with entries at (rows[k], cols[k]), k = 0 .. m-1
    (a pair may repeat), in its own state order: states are renumbered
    longest row first (stable), order[i] is the input state of state i,
    and B @ v takes and returns vectors in that order.

    Entries are stored term-major: block j of the slots holds the j-th
    entry (in input order) of every row with more than j entries, row 0
    first, so it covers rows 0 .. len(block j) - 1. entries[s] is the
    input index k of slot s, and data (zeros until set) holds one value
    per slot. B @ v adds block after block into 0.0, so each row adds
    its terms data[s] * v[cols[s]] in input order, exactly as a CSR
    product on rows grouped in input order does.
    """

    def __init__(self, rows, cols, n: int):
        rows = np.asarray(rows, dtype=np.int64)
        deg = np.bincount(rows, minlength=n)
        self.order = np.argsort(-deg, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[self.order] = np.arange(n)
        # entry k is term j = term[k] of its row, so it sits in block j
        # at the row's new number
        term = np.empty(rows.size, dtype=np.int64)
        term[np.argsort(rows, kind="stable")] = np.arange(rows.size)
        term -= (np.cumsum(deg) - deg)[rows]
        size = np.bincount(term)
        ends = np.cumsum(size)
        self.entries = np.empty(rows.size, dtype=np.int64)
        self.entries[(ends - size)[term] + rank[rows]] = np.arange(rows.size)
        self.cols = rank[np.asarray(cols, dtype=np.int64)[self.entries]]
        ends = ends.tolist()
        self.blocks = list(zip([0] + ends, ends))
        self.data = np.zeros(rows.size)
        self.shape = (n, n)

    def __matmul__(self, v):
        x = v.take(self.cols)
        x *= self.data
        acc = np.zeros(self.shape[0])
        for a, b in self.blocks:
            acc[:b - a] += x[a:b]
        return acc


def _rows(ptr, deg, nbr, rows):
    """Concatenated neighbour lists nbr[ptr[r]:ptr[r] + deg[r]] of rows."""
    cnt = deg[rows]
    end = np.cumsum(cnt)
    idx = np.repeat(ptr[rows] - end + cnt, cnt)
    idx += np.arange(idx.size)
    return nbr[idx]


def _lists(a, b, n: int) -> tuple:
    """(ptr, deg, nbr) of the edges a -> b: the b's grouped by a. Edges
    that come grouped by a, as an Ulam model's transitions do, keep
    their order; others are grouped by one in-place sort of packed
    (a, b) keys."""
    deg = np.bincount(a, minlength=n)
    if np.any(a[1:] < a[:-1]):
        nbr = a << 32
        nbr |= b
        nbr.sort()
        nbr &= 0xFFFFFFFF
    else:
        nbr = b
    return np.cumsum(deg) - deg, deg, nbr


def _reach(ptr, deg, nbr, start: int, allowed):
    """Mask of the states that paths from start through allowed states
    reach along the lists (ptr, deg, nbr); start must be allowed. One
    frontier per level."""
    free = allowed.copy()
    free[start] = False
    front = np.array([start])
    while front.size:
        new = np.zeros(free.size, dtype=bool)
        new[_rows(ptr, deg, nbr, front)] = True
        new &= free
        free ^= new
        front = np.flatnonzero(new)
    return allowed & ~free


def strong_components(src, dst, n: int) -> tuple:
    """(n_comp, labels) of the strongly connected components of the
    directed graph on states 0 .. n-1 (n < 2**31) with edges
    src[k] -> dst[k]; self-loops and repeated edges are allowed.

    Trim: a state with no edge from, or no edge to, another state still
    in play lies on no cycle through others, so it is a component of
    its own and leaves play; the trim repeats on the neighbours of
    every state that leaves. Forward-backward: when no state can be
    trimmed, the states a pivot reaches (forward, through states in
    play) and, among those, the states that reach it (backward) are the
    pivot's component, which then leaves play in turn. The pivot is the
    state in play with the largest product of in- and out-degree: in an
    Ulam model, whose trim leaves its giant component and little else,
    one forward-backward pass usually ends the work. Every level of
    either search gathers the edge lists of its frontier at once.

    Components are numbered in the order of their lowest state, so
    labels do not depend on the pivots, and np.argmax of the component
    sizes (the component build_cross_section keeps) takes, of the
    largest components, the one holding the lowest state.

    The operator of a metric graph needs no such step: when the
    graph's minimum degree is >= 2 and it is not a union of cycles, its
    non-backtracking operator is irreducible if and only if the graph
    is connected (Glover and Kempton, Linear Algebra Appl. 618, 2021),
    so graph_entropy counts the graph's connected components instead.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    fwd, bwd = _lists(src, dst, n), _lists(dst, src, n)
    out_n, in_n = fwd[1], bwd[1]
    loops = np.bincount(src[src == dst], minlength=n)
    out_deg, in_deg = out_n - loops, in_n - loops
    score = out_deg * in_deg
    labels = np.empty(n, dtype=np.int64)
    live = np.ones(n, dtype=bool)
    firsts = []     # lowest state of each component, in found order
    left = n
    gone = np.flatnonzero((out_deg == 0) | (in_deg == 0))
    while left:
        if gone.size:
            labels[gone] = np.arange(len(firsts), len(firsts) + gone.size)
            firsts += gone.tolist()
        else:
            cand = np.flatnonzero(live)
            pivot = int(cand[np.argmax(score[cand])])
            gone = np.flatnonzero(_reach(*bwd, pivot,
                                         _reach(*fwd, pivot, live)))
            labels[gone] = len(firsts)
            firsts.append(int(gone[0]))
        live[gone] = False
        left -= gone.size
        if left:
            heads = _rows(*fwd, gone)
            tails = _rows(*bwd, gone)
            in_deg -= np.bincount(heads, minlength=n)
            out_deg -= np.bincount(tails, minlength=n)
            near = np.zeros(n, dtype=bool)
            near[heads] = True
            near[tails] = True
            near &= live & ((in_deg == 0) | (out_deg == 0))
            gone = np.flatnonzero(near)
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    return len(firsts), rank[labels]


def bisect_root(above, lo: float, hi: float, tol: float,
                hi_cap: float) -> tuple:
    """Root (h, iters, widened) of a decreasing sign function above(h).

    BracketFailed unless above(lo). The upper end doubles, clamped at
    hi_cap, while above(hi); above(hi_cap) raises BracketFailed. Then
    [lo, hi] is halved to width tol, or until no float lies between
    (tol = 0 halves to float resolution). ValueError, before any sign is
    read, unless tol is a finite number >= 0, so a NaN or negative tol
    cannot pass as a width, and unless lo < hi are finite with hi > 0,
    since an upper end <= 0 never grows by doubling.
    """
    _require("tol", tol, *_at_least(0.0))
    if not (_is_finite(lo) and _is_finite(hi) and lo < hi and hi > 0.0):
        raise ValueError(f"need finite lo < hi with hi > 0, got lo = {lo!r}, "
                         f"hi = {hi!r}")
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
