"""Chamber enumeration for the reflection group of a Coxeter polygon.

Chambers of the tessellation are in bijection with group elements; we
enumerate them breadth first by word length, multiplying generators on
the right. Each element is generated exactly once, from its canonical
parent, chosen by right descent sets (Bjorner-Brenti, Combinatorics of
Coxeter Groups, sections 1.6 and 7.1): the right descent set D_R(w) is
the set of base walls separating w^-1(z0) from the base chamber center
z0, a sign test whose margin is at least the inradius. No chamber is
ever compared with another, so no deduplication is needed.

Each chamber also carries a weight, the product of the branching
parameters q_i over the letters of the word that reaches it. Summing
these weights over a ball gives the ball volume upstairs in the building
rather than in the bare tessellation, and the exponential growth rate of
that sum is the quantity the spectral solver must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .constants import CHAMBER_CAP
from .errors import FrontierTooClose, ResourceLimit, WindowTooNarrow
from .hypgeom import CoxeterPolygon, reflect
from .tracing import BLOCK

@dataclass(frozen=True)
class ChamberSet:
    """Result of a breadth-first chamber enumeration.

    centers are upper half-plane points as complex numbers; radii are
    hyperbolic distances from the base chamber center; log_mult is the
    log of the branching weight (0 everywhere when q is identically 1).
    reach is the radius up to which the enumeration is guaranteed
    complete: every chamber whose center lies within reach is present.
    """

    matrices: np.ndarray
    reversing: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    depths: np.ndarray
    log_mult: np.ndarray
    reach: float
    diameter: float

    def __len__(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class GrowthTable:
    """Cumulative weighted chamber counts on a grid of radii."""

    radii: np.ndarray
    log_weight: np.ndarray


def _apply_centers(mats: np.ndarray, rev: np.ndarray, z0: complex) -> np.ndarray:
    zin = np.where(rev, np.conjugate(z0), z0)
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    return (a * zin + b) / (c * zin + d)


def _hyp_dist(z: np.ndarray, w: complex) -> np.ndarray:
    num = np.abs(z - w) ** 2
    return np.arccosh(1.0 + num / (2.0 * z.imag * w.imag))


def _children(level, gen_mats, logq, walls, z0, limit):
    """Yield the canonical children of one level, BLOCK candidates at a
    time.

    The candidates are the length-increasing children w*s (s not in
    D_R(w)), generator-major. They are processed in consecutive slices of
    BLOCK, so the (n, p) temporaries stay BLOCK rows long; each yield is
    the kept children of one slice, in candidate order, as (matrices,
    reversing, centers, radii, log_mult, desc).
    """
    level_mats, level_rev, _, _, level_logm, level_desc = level
    wall_cx, wall_r, wall_sign = walls
    gen, par = np.nonzero(~level_desc.T)
    for a in range(0, gen.shape[0], BLOCK):
        g = gen[a:a + BLOCK]
        pa = par[a:a + BLOCK]
        cand_m = level_mats[pa] @ gen_mats[g]
        cand_rev = ~level_rev[pa]
        cand_z = _apply_centers(cand_m, cand_rev, z0)
        cand_r = _hyp_dist(cand_z, z0)
        sel = np.flatnonzero(cand_r <= limit)

        # D_R(v) for each child v: the base walls with v^-1(z0) on their
        # outer side, v^-1 being the adjugate with the same reversing flag.
        m = cand_m[sel]
        inv = np.stack([m[:, 1, 1], -m[:, 0, 1], -m[:, 1, 0], m[:, 0, 0]],
                       axis=1).reshape(-1, 2, 2)
        u = _apply_centers(inv, cand_rev[sel], z0)
        desc = wall_sign * (np.abs(u[:, None] - wall_cx) - wall_r) < 0.0
        canonical = desc.argmax(axis=1) == g[sel]
        sel = sel[canonical]
        yield (cand_m[sel], cand_rev[sel], cand_z[sel], cand_r[sel],
               level_logm[pa[sel]] + logq[g[sel]], desc[canonical])


def enumerate_chambers(poly: CoxeterPolygon,
                       radius_cut: float | None = None,
                       max_depth: int | None = None,
                       cap: int = CHAMBER_CAP) -> ChamberSet:
    """Breadth-first enumeration of chambers around the base chamber.

    Exactly one of radius_cut and max_depth must be given. Level k holds
    the elements of length k, each reached once, from its canonical
    parent: the child w*s of a kept w is generated only if s is not in
    D_R(w), and kept only if s = min D_R(ws).

    With a radius_cut, children whose centers land beyond the cut are
    pruned and the set is complete out to reach = radius_cut - diameter
    (any missing chamber is linked to the base by a gallery of chambers
    whose centers all stay within one diameter of the connecting
    geodesic). Pruning loses no chamber inside the cut: for t in D_R(v)
    the wall between v and v*t separates v(z0) from z0 and is the
    perpendicular bisector of v(z0) and v*t(z0), so every parent lies
    strictly closer to z0 than its child, and by induction the canonical
    parent of each chamber inside the cut was kept.

    Beyond the outputs, the working set is one level and the
    temporaries of one slice of BLOCK candidates.
    """
    if (radius_cut is None) == (max_depth is None):
        raise ValueError("give exactly one of radius_cut, max_depth")

    gen_mats = np.stack([reflect(e.geodesic).m for e in poly.edges])
    logq = np.log(np.asarray(poly.q, dtype=float))
    z0 = complex(poly.center.x, poly.center.y)
    walls = (np.array([e.cx for e in poly.edges]),
             np.array([e.r for e in poly.edges]),
             np.array([e.n_sign for e in poly.edges]))
    limit = np.inf if radius_cut is None else radius_cut

    # A level is (matrices, reversing, centers, radii, log_mult, desc);
    # parts holds the per-level pieces of its first five arrays and of
    # the depths.
    level = (np.eye(2)[None, :, :], np.zeros(1, dtype=bool), np.array([z0]),
             np.zeros(1), np.zeros(1),
             np.zeros((1, len(poly.edges)), dtype=bool))
    parts = [[a] for a in level[:5]] + [[np.zeros(1, dtype=np.int64)]]
    total = 1
    depth = 0

    while level[0].shape[0] > 0:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        kept = []
        for piece in _children(level, gen_mats, logq, walls, z0, limit):
            # a level exceeds the cap iff some prefix of it does
            total += piece[0].shape[0]
            if total > cap:
                raise ResourceLimit(
                    f"chamber enumeration exceeded cap={cap} at depth {depth}")
            kept.append(piece)
        level = tuple(np.concatenate(f) for f in zip(*kept))
        del kept
        for out, new in zip(parts, level[:5]):
            out.append(new)
        parts[5].append(np.full(level[0].shape[0], depth, dtype=np.int64))
    del level

    # One field at a time, so the per-level parts and their
    # concatenation are never all alive together.
    fields = []
    for out in parts:
        fields.append(np.concatenate(out))
        out.clear()
    matrices, reversing, centers, all_r, log_mult, all_d = fields
    if radius_cut is not None:
        reach = radius_cut - poly.diameter
    else:
        frontier = all_r[all_d == all_d.max()]
        reach = (float(frontier.min()) - poly.diameter
                 if frontier.size else float(all_r.max()))
    return ChamberSet(
        matrices=matrices,
        reversing=reversing,
        centers=centers,
        radii=all_r,
        depths=all_d,
        log_mult=log_mult,
        reach=reach,
        diameter=poly.diameter,
    )


def weighted_ball_growth(chambers: ChamberSet,
                         r_min: float,
                         r_max: float,
                         n_rows: int = 24) -> GrowthTable:
    """Cumulative weighted chamber count on a uniform radius grid.

    Raises FrontierTooClose when the enumeration cannot certify
    completeness out to r_max.
    """
    if not r_max <= chambers.reach:
        raise FrontierTooClose(
            f"r_max={r_max:.3f} exceeds certified reach {chambers.reach:.3f}")
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    grid = np.linspace(r_min, r_max, n_rows)
    order = np.argsort(chambers.radii)
    r_sorted = chambers.radii[order]
    lm_sorted = chambers.log_mult[order]
    counts = np.searchsorted(r_sorted, grid, side="right")
    logw = np.array([logsumexp(lm_sorted[:c]) for c in counts])
    return GrowthTable(radii=grid, log_weight=logw)


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
