"""Chamber enumeration for the reflection group of a Coxeter polygon.

Chambers of the tessellation are in bijection with group elements; we
enumerate them breadth first by word length, multiplying generators on
the right. Each element is generated exactly once, from its canonical
parent, chosen by right descent sets (Bjorner-Brenti, Combinatorics of
Coxeter Groups, sections 1.6 and 7.1): the right descent set D_R(w) is
the set of base walls separating w^-1(z0) from the base chamber center
z0, a sign test whose margin is at least the inradius. It is the
polygon's one wall-side test, poly.walls.side, and the inversions read
the same wall record. No chamber is ever compared with another, so no
deduplication is needed.

One point per chamber drives the walk: its orbit point u = w^-1(z0).
The radius d(z0, w(z0)) = d(u, z0) and the descent set D_R(w) are both
read off u, and the child w*s has (w*s)^-1(z0) = s(u), one inversion of
u in the base wall s. The orbit point and the walk's own tree (each
chamber's parent and last wall) are the whole chamber record: no group
element is ever held as a matrix.

Each chamber also carries a weight, the product of the branching
parameters q_i over the letters of the word that reaches it. Summing
these weights over a ball gives the ball volume upstairs in the building
rather than in the bare tessellation, and the exponential growth rate of
that sum is the quantity the spectral solver must reproduce.
ball_growth folds each slice of the walk into those sums as it is
generated, so the growth stage holds one level, never the whole ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CHAMBER_CAP
from .errors import (FrontierTooClose, ResourceLimit, WindowTooNarrow,
                     _above, _int, _is_finite, _require)
from .hypgeom import CoxeterPolygon, invert
from .tracing import BLOCK

@dataclass(frozen=True)
class ChamberSet:
    """Result of a breadth-first chamber enumeration, one row per
    element w, the base chamber first and each level after the last.

    parent and wall are the walk's tree: row i is w = parent's element
    times the reflection in base wall wall[i] (-1 for the base row), and
    parent indexes an earlier row. points are the orbit points w^-1(z0)
    as complex numbers, so row i's point is its parent's inverted in base
    wall wall[i]. radii are hyperbolic distances from the base chamber
    center; log_mult is the log of the branching weight (0 everywhere
    when q is identically 1). reach is the radius up to which the
    enumeration is guaranteed complete: every chamber whose center lies
    within reach is present.
    """

    parent: np.ndarray
    wall: np.ndarray
    points: np.ndarray
    radii: np.ndarray
    depths: np.ndarray
    log_mult: np.ndarray
    reach: float

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class GrowthTable:
    """Cumulative weighted chamber counts on a grid of radii."""

    radii: np.ndarray
    log_weight: np.ndarray


@dataclass(frozen=True)
class BallGrowth:
    """A streamed growth table with the counters of the walk behind it:
    the chambers within the window top and their count per depth."""

    table: GrowthTable
    chambers: int
    chambers_per_depth: list


def _hyp_dist(z: np.ndarray, w: complex) -> np.ndarray:
    num = np.abs(z - w) ** 2
    return np.arccosh(1.0 + num / (2.0 * z.imag * w.imag))


def _walk(poly: CoxeterPolygon, limit: float, max_depth: int | None,
          cap: int):
    """Yield the chambers of the canonical-parent walk, level by level,
    one slice at a time.

    Level k holds the elements of length k whose orbit points lie within
    limit of z0, each reached once, from its canonical parent: the child
    w*s of a kept w is generated only if s is not in D_R(w), and kept
    only if s = min D_R(ws). Candidates come generator-major, each
    generator's in consecutive slices of BLOCK parents, so the (n, p)
    temporaries stay BLOCK rows long. Each nonempty slice of kept
    children is yielded as (depth, parent, s, points, radii, log_mult):
    parent indexes the previous level, in the order its slices were
    yielded (the base chamber alone for depth 1), s is the wall of the
    last letter and points are the children's orbit points.

    The walk holds the orbit points, log weights and descent sets of one
    level and the kept part of the next. Raises ResourceLimit, naming
    the depth, once more than cap chambers (the base included) are kept.
    """
    walls = poly.walls
    z0 = complex(poly.center.x, poly.center.y)

    u = np.array([z0])
    log_mult = np.zeros(1)
    desc = np.zeros((1, poly.p), dtype=bool)
    total = 1
    depth = 0
    while max_depth is None or depth < max_depth:
        depth += 1
        kept = []
        for s in range(poly.p):
            parents = np.flatnonzero(~desc[:, s])
            for a in range(0, parents.shape[0], BLOCK):
                pa = parents[a:a + BLOCK]
                # (w*s)^-1(z0) = s(w^-1(z0)): u inverted in base wall s
                v = invert(u[pa], walls.cx[s], walls.r[s])
                r = _hyp_dist(v, z0)
                sel = np.flatnonzero(r <= limit)
                pa, v, r = pa[sel], v[sel], r[sel]
                # D_R(w*s): the base walls with v on their outer side
                d = walls.side(v) < 0.0
                sel = np.flatnonzero(d.argmax(axis=1) == s)
                if not sel.size:
                    continue
                # a level exceeds the cap iff some prefix of it does
                total += sel.shape[0]
                if total > cap:
                    raise ResourceLimit(
                        f"chamber enumeration exceeded cap={cap} "
                        f"at depth {depth}")
                pa, v = pa[sel], v[sel]
                lm = log_mult[pa] + walls.log_q[s]
                kept.append((v, lm, d[sel]))
                yield depth, pa, s, v, r[sel], lm
        if not kept:
            return
        # one field at a time, each freeing its pieces as it goes
        fields = [list(f) for f in zip(*kept)]
        del kept
        u, log_mult, desc = (_concat(f) for f in fields)


def _concat(pieces: list) -> np.ndarray:
    out = np.concatenate(pieces)
    pieces.clear()
    return out


class _BallSums:
    """Weighted chamber counts on a fixed radius grid, folded one batch
    of chambers at a time.

    sums[j] is the weight, scaled by exp(-shift), of the chambers whose
    radius lies in (grid[j-1], grid[j]]; shift is the largest log weight
    folded in so far, so no term overflows.

    Every batch must be nonempty with every radius at most grid[-1], as
    in ball_growth, which walks only to the window top; a radius beyond
    it makes bincount one row too long and add raises. Radii below
    grid[0] count in row 0.
    """

    def __init__(self, grid: np.ndarray):
        self.grid = grid
        self.sums = np.zeros(grid.shape[0])
        self.shift = -math.inf

    def add(self, radii: np.ndarray, log_mult: np.ndarray) -> None:
        row = np.searchsorted(self.grid, radii)
        top = float(log_mult.max())
        if top > self.shift:
            self.sums *= math.exp(self.shift - top)
            self.shift = top
        self.sums += np.bincount(row, weights=np.exp(log_mult - self.shift),
                                 minlength=self.sums.shape[0])

    def table(self) -> GrowthTable:
        log_weight = self.shift + np.log(np.cumsum(self.sums))
        return GrowthTable(radii=self.grid, log_weight=log_weight)


def _growth_grid(r_min: float, r_max: float, n_rows: int) -> np.ndarray:
    _require("r_min", r_min, *_above())
    _require("r_max", r_max, lambda v: _is_finite(v) and v > r_min,
             "a finite number > r_min")
    _require("n_rows", n_rows, *_int(1))
    return np.linspace(r_min, r_max, n_rows)


def enumerate_chambers(poly: CoxeterPolygon,
                       radius_cut: float | None = None,
                       max_depth: int | None = None,
                       cap: int = CHAMBER_CAP) -> ChamberSet:
    """Breadth-first enumeration of chambers around the base chamber.

    Exactly one of radius_cut and max_depth must be given; a radius_cut
    must be positive and finite, a max_depth a non-negative integer
    (not a bool). Level k holds the elements of length k (see _walk).

    With a radius_cut, children whose centers land beyond the cut are
    pruned, and the set is every chamber within the cut: reach =
    radius_cut. Pruning loses none of them. The canonical parent of v is
    v*t with t = min D_R(v); the wall between v and v*t separates v(z0)
    from z0 and is the perpendicular bisector of v(z0) and v*t(z0), so
    the parent lies strictly closer to z0 than its child. By induction
    on length, every ancestor of a chamber inside the cut lies inside it
    and was kept.

    The rows are the walk's slices in the order it yields them.
    """
    if (radius_cut is None) == (max_depth is None):
        raise ValueError("give exactly one of radius_cut, max_depth")
    if radius_cut is not None:
        _require("radius_cut", radius_cut, *_above())
    else:
        _require("max_depth", max_depth, *_int(0))

    z0 = complex(poly.center.x, poly.center.y)
    limit = math.inf if radius_cut is None else radius_cut

    # per-slice pieces of parent, wall, points, radii, depths and
    # log_mult, the base chamber first
    parts = [[np.array([-1])], [np.array([-1])], [np.array([z0])],
             [np.zeros(1)], [np.zeros(1, dtype=np.int64)], [np.zeros(1)]]
    for depth, parent, s, points, radii, log_mult in _walk(
            poly, limit, max_depth, cap):
        n = parent.shape[0]
        new = (parent, np.full(n, s), points, radii,
               np.full(n, depth, dtype=np.int64), log_mult)
        for pieces, x in zip(parts, new):
            pieces.append(x)

    parent, wall, points, radii, depths, log_mult = (
        _concat(pieces) for pieces in parts)
    # the walk's parents index the level above; offset them to rows
    level_start = np.searchsorted(depths, np.arange(depths[-1]))
    parent[1:] += level_start[depths[1:] - 1]
    if radius_cut is not None:
        reach = radius_cut
    else:
        frontier = radii[depths == depths.max()]
        reach = float(frontier.min()) - poly.diameter
    return ChamberSet(parent=parent, wall=wall, points=points, radii=radii,
                      depths=depths, log_mult=log_mult, reach=reach)


def ball_growth(poly: CoxeterPolygon,
                r_min: float,
                r_max: float,
                n_rows: int = 24) -> BallGrowth:
    """Weighted ball growth on a uniform radius grid, streamed from the
    chamber walk.

    The walk is pruned at the window top r_max, which makes it the whole
    ball of radius r_max (see enumerate_chambers). Equals
    weighted_ball_growth(enumerate_chambers(poly, radius_cut=r_max),
    r_min, r_max, n_rows) up to summation order, but folds each slice of
    the walk into the row sums as it is generated, so it holds one level
    at a time. The window is checked before the walk starts; the walk
    raises ResourceLimit past CHAMBER_CAP chambers.
    """
    sums = _BallSums(_growth_grid(r_min, r_max, n_rows))
    sums.add(np.zeros(1), np.zeros(1))
    per_depth = [1]
    for depth, _, _, _, radii, log_mult in _walk(poly, r_max, None,
                                                 CHAMBER_CAP):
        if depth == len(per_depth):
            per_depth.append(0)
        per_depth[depth] += radii.shape[0]
        sums.add(radii, log_mult)
    return BallGrowth(table=sums.table(), chambers=sum(per_depth),
                      chambers_per_depth=per_depth)


def weighted_ball_growth(chambers: ChamberSet,
                         r_min: float,
                         r_max: float,
                         n_rows: int = 24) -> GrowthTable:
    """Cumulative weighted chamber count on a uniform radius grid.

    The reference for ball_growth, computed from the whole set at once:
    radii sorted, weights shifted by their one maximum and summed as
    prefixes, each row reading the prefix of radii <= its grid point.
    Raises FrontierTooClose when the enumeration cannot certify
    completeness out to r_max.
    """
    # first, so that NaN, like any r_max beyond the reach, certifies
    # nothing: FrontierTooClose
    if not r_max <= chambers.reach:
        raise FrontierTooClose(
            f"r_max={r_max!r} exceeds certified reach {chambers.reach:.3f}")
    grid = _growth_grid(r_min, r_max, n_rows)
    order = np.argsort(chambers.radii)
    lm = chambers.log_mult[order]
    top = float(lm.max())
    prefix = np.concatenate(([0.0], np.cumsum(np.exp(lm - top))))
    counts = np.searchsorted(chambers.radii[order], grid, side="right")
    return GrowthTable(radii=grid, log_weight=top + np.log(prefix[counts]))


def growth_slope(table: GrowthTable, diameter: float) -> tuple[float, float]:
    """Least-squares slope of log ball weight against radius.

    Returns (slope, err). The error combines the regression standard
    error with a systematic term diameter / window width, since the ball
    count is only determined up to boundary layers one diameter thick.
    """
    r = table.radii
    lw = table.log_weight
    if r.shape[0] < 3:
        raise WindowTooNarrow("need at least 3 growth rows")
    width = float(r[-1] - r[0])
    if width <= 0:
        raise WindowTooNarrow("zero-width radius window")
    coef, residuals, *_ = np.polyfit(r, lw, 1, full=True)
    slope = float(coef[0])
    dof = r.shape[0] - 2
    if dof > 0 and residuals.size:
        s2 = float(residuals[0]) / dof
        stderr = math.sqrt(s2 / float(np.sum((r - r.mean()) ** 2)))
    else:
        stderr = 0.0
    return slope, stderr + diameter / width
