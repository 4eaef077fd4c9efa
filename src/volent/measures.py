"""Santalo integral of ln q / l and the entropy lower bounds.

The integrand at a unit tangent vector is ln q / l, where l is the
length of the wall-to-wall geodesic segment through the vector and q
the branching parameter of the segment's entry wall. Its integral over
the unit tangent bundle of the polygon has the closed form
2 * sum_i ln(q_i) * ell_i, and a Monte Carlo evaluation in interior
coordinates (uniform hyperbolic base point, uniform direction) serves
as an independent oracle for the flux constant 2. Its random draws are
made up front, each round at full length, and the geometry on them is
evaluated in blocks of ``tracing.BLOCK`` samples, so the random stream
and the estimate do not depend on the block size. Each sample's chord,
its entry wall and its length, comes from ``tracing._chords``: one
candidate pass selected forward and backward, bit for bit the two
``batch_first_crossing`` calls it replaces at about half their cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import VertexHit
from .hypgeom import CoxeterPolygon
from .tracing import BLOCK, WallTable, _chords

FLUX_CONSTANT_2D = 2.0


@dataclass(frozen=True)
class SantaloResult:
    closed_form: float
    monte_carlo: float
    mc_stderr: float
    c_constant_used: float
    samples: int
    seed: int
    resampled: int


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds next to entropy estimates, with a strictness verdict.

    paper_literal_bound keeps the constant exactly as printed in the
    source corollary; derived_constant_bound uses the internally
    verified flux constant. strictness_margin is the minimum over the
    estimates of (value - err - derived_constant_bound); flag is
    EQUALITY for the thin (all q = 1) case, PASS when the margin is
    positive, FAIL otherwise.
    """

    paper_literal_bound: float
    derived_constant_bound: float
    entropy_estimates: tuple = ()
    strictness_margin: float = float("nan")
    flag: str = ""


def santalo_closed_form(poly: CoxeterPolygon) -> float:
    """2 * sum of ln(q_i) * edge_length over the polygon walls."""
    return FLUX_CONSTANT_2D * sum(
        math.log(q) * e.length for q, e in zip(poly.q, poly.edges))


def _sample_in_polygon(poly: CoxeterPolygon, table: WallTable, n: int,
                       rng: np.random.Generator):
    """n points uniform for hyperbolic area in P, by disk rejection.

    Each round draws all its u and phi up front, then maps and tests
    them in blocks of BLOCK, keeping the first accepted points in draw
    order.
    """
    z0 = complex(poly.center.x, poly.center.y)
    R = poly.circumradius * (1.0 + 1e-9)
    xs = np.empty(n)
    ys = np.empty(n)
    have = 0
    while have < n:
        m = int((n - have) * 2.2) + 16
        u_all = rng.random(m)
        phi_all = rng.random(m)
        for a in range(0, m, BLOCK):
            if have == n:
                break
            u = u_all[a:a + BLOCK]
            d = np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
            phi = phi_all[a:a + BLOCK] * (2.0 * math.pi)
            # rotate z -> about the center, then push distance d up the
            # vertical geodesic through it
            c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
            zt = 1j * np.exp(d)
            z = (c * zt + s) / (-s * zt + c)
            # recentering the rotation from i to the polygon center is
            # the identity here since the polygon is built with center i
            z = z.real * z0.imag + z0.real + 1j * (z.imag * z0.imag)
            inside = np.ones(z.shape[0], dtype=bool)
            for j in range(table.cx.shape[0]):
                dj = np.hypot(z.real - table.cx[j], z.imag) - table.r[j]
                inside &= table.n_sign[j] * dj > 0.0
            z = z[inside][: n - have]
            xs[have:have + z.shape[0]] = z.real
            ys[have:have + z.shape[0]] = z.imag
            have += z.shape[0]
    return xs, ys


def santalo_monte_carlo(poly: CoxeterPolygon, samples: int = 1_000_000,
                        seed: int = 0) -> SantaloResult:
    """Monte Carlo estimate of the unnormalized ln q / l integral.

    Base points are uniform for hyperbolic area in P and directions
    uniform on the circle, so the sample mean times the Liouville mass
    2 pi area(P) estimates the integral. Vertex-grazing samples are
    redrawn; their count is reported. All draws of a round are made up
    front; the chords and ln q / l are then evaluated in blocks of BLOCK
    samples, so the working set beyond the per-sample arrays does not
    grow with the sample count.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    table = WallTable.from_polygon(poly)
    rng = np.random.default_rng(seed)
    x, y = _sample_in_polygon(poly, table, samples, rng)
    ang = rng.random(samples) * (2.0 * math.pi)
    dx, dy = np.cos(ang), np.sin(ang)
    vals = np.empty(samples)
    todo = np.arange(samples)
    resampled = 0
    for _ in range(64):
        redo = []
        for k in range(0, todo.size, BLOCK):
            idx = todo[k:k + BLOCK]
            entry, length, good = _chords(table, x[idx], y[idx], dx[idx],
                                          dy[idx])
            lnq = np.log(table.q[entry[good]].astype(float))
            vals[idx[good]] = lnq / length[good]
            redo.append(idx[~good])
        todo = np.concatenate(redo)
        if todo.size == 0:
            break
        resampled += todo.size
        xr, yr = _sample_in_polygon(poly, table, todo.size, rng)
        x[todo], y[todo] = xr, yr
        a = rng.random(todo.size) * (2.0 * math.pi)
        dx[todo], dy[todo] = np.cos(a), np.sin(a)
    else:
        raise VertexHit("persistent vertex-grazing samples")
    mass = 2.0 * math.pi * poly.area
    mc = float(vals.mean()) * mass
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples) * mass
    base = sum(math.log(q) * e.length for q, e in zip(poly.q, poly.edges))
    c_used = mc / base if base > 0.0 else float("nan")
    return SantaloResult(
        closed_form=santalo_closed_form(poly), monte_carlo=mc,
        mc_stderr=stderr, c_constant_used=c_used, samples=samples,
        seed=seed, resampled=resampled)


def lower_bound_2d(poly: CoxeterPolygon) -> BoundReport:
    """The dimension-2 entropy lower bounds from the Santalo integral.

    paper_literal_bound: 1 + (1/area) * sum ln(q_i) ell_i, the printed
    corollary. derived_constant_bound: 1 + (1/(pi area)) * sum, the
    variational bound carrying the internally verified flux constant
    (integral / Liouville mass = 2 sum / (2 pi area)).
    """
    s = sum(math.log(q) * e.length for q, e in zip(poly.q, poly.edges))
    return BoundReport(
        paper_literal_bound=1.0 + s / poly.area,
        derived_constant_bound=1.0 + s / (math.pi * poly.area),
    )


def lower_bound_plugin(n: int, vol_P: float, faces, euclidean: bool = False) -> float:
    """Literal bound arithmetic for user-supplied n-dimensional data.

    faces is a list of (vol_F, q) pairs; returns
    (n - 1 if hyperbolic else 0) + (1/vol_P) * sum ln(q) vol_F.
    """
    if vol_P <= 0.0:
        raise ValueError("vol_P must be positive")
    s = 0.0
    for vol_F, q in faces:
        if vol_F <= 0.0 or q < 1:
            raise ValueError("need vol_F > 0 and q >= 1")
        s += math.log(q) * vol_F
    return (0.0 if euclidean else float(n - 1)) + s / vol_P


_EQUALITY_TOL = 0.05


def strictness_report(poly: CoxeterPolygon, estimates) -> BoundReport:
    """Assemble bounds, estimates, and the strictness verdict."""
    if not estimates:
        raise ValueError("need at least one entropy estimate")
    base = lower_bound_2d(poly)
    margin = min(e.value - e.err - base.derived_constant_bound
                 for e in estimates)
    if all(q == 1 for q in poly.q):
        flag = "EQUALITY" if abs(margin) <= _EQUALITY_TOL else "FAIL"
    else:
        flag = "PASS" if margin > 0.0 else "FAIL"
    return BoundReport(
        paper_literal_bound=base.paper_literal_bound,
        derived_constant_bound=base.derived_constant_bound,
        entropy_estimates=tuple(estimates),
        strictness_margin=margin,
        flag=flag,
    )
