"""Santalo integral of ln q / l and the entropy lower bounds.

The integrand at a unit tangent vector is ln q / l, where l is the
length of the wall-to-wall geodesic segment through the vector and q
the branching parameter of the segment's entry wall. Its integral over
the unit tangent bundle of the polygon has the closed form
2 * sum_i ln(q_i) * ell_i, and a Monte Carlo evaluation in interior
coordinates (base point, uniform direction) serves as an independent
oracle for the flux constant 2.

Under uniform base points the Monte Carlo's variance is infinite:
chords that cut a right-angled corner have P(l < eps) ~ eps^2, so
E[(ln q / l)^2] diverges and the sample variance never settles. The
base points are therefore drawn from a defensive mixture: a share
1 - w uniform for hyperbolic area in P, and a share w from geodesic
sectors of radius r0 about the vertices (vertex uniform, radius
uniform on (0, r0), direction uniform in the interior wedge of angle
pi/m). The sector density with respect to area is
g_V(x) = sum over vertices v within r0 of x of
1 / (p * r0 * (pi/m) * sinh d(x, v)). r0 is the lesser of 0.3 and half
the least distance from a vertex to a wall not incident to it, so each
r0-disk meets P in exactly its wedge and g_V integrates to 1 over P
with no estimated constant. Each sample is weighted by 1 / (A g) for
the combined density g = (n1/n) / A + (n2/n) g_V (the balance
heuristic), which cancels the 1/l blow-up near a vertex: every
weighted sample is bounded. With w = 0 the weights are exactly 1 and
the estimator is the uniform one bit for bit.

The random draws are made up front, each round at full length; the
geometry on them runs in blocks of ``tracing.BLOCK`` samples, the only
block loop over chords, so the stream and the estimate do not depend on
the block size. ``tracing._chords`` gives each sample's entry wall and
chord length in one candidate pass per call, selected both ways.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import VertexHit
from .hypgeom import CoxeterPolygon
from .tracing import BLOCK, _chords

FLUX_CONSTANT_2D = 2.0

# Santalo samples of `volent entropy` and `volent santalo`: the least
# count whose median standard error on the right-angled pentagon with
# q = 2 is at most that of 1e6 uniform samples (0.01125).
DEFAULT_SAMPLES = 125_000

# Share w of the base points drawn from the vertex sectors, and the cap
# on the sector radius r0.
_VERTEX_SHARE = 0.3
_SECTOR_RADIUS_CAP = 0.3


@dataclass(frozen=True)
class SantaloResult:
    """A Santalo Monte Carlo run. vertex_samples is the number of base
    points drawn from the vertex sectors and max_value the largest
    weighted sample (ln q / l times its weight), whose ratio to the
    mean shows that the tail is bounded."""

    closed_form: float
    monte_carlo: float
    mc_stderr: float
    c_constant_used: float
    samples: int
    seed: int
    resampled: int
    vertex_samples: int
    max_value: float


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds and the strictness verdict of entropy estimates.

    paper_literal_bound keeps the constant exactly as printed in the
    source corollary; derived_constant_bound uses the internally
    verified flux constant. strictness_margin is the minimum over the
    estimates of (value - err - derived_constant_bound); flag is
    EQUALITY for the thin (all q = 1) case, PASS when the margin is
    positive, FAIL otherwise.
    """

    paper_literal_bound: float
    derived_constant_bound: float
    strictness_margin: float = float("nan")
    flag: str = ""


def _log_q_length(poly: CoxeterPolygon) -> float:
    """sum of ln(q_i) * ell_i over the polygon walls."""
    walls = poly.walls
    ell = (walls.s_hi - walls.s_lo).tolist()
    return sum(lq * e for lq, e in zip(walls.log_q.tolist(), ell))


def santalo_closed_form(poly: CoxeterPolygon) -> float:
    """2 * sum of ln(q_i) * edge_length over the polygon walls."""
    return FLUX_CONSTANT_2D * _log_q_length(poly)


def _sample_in_polygon(poly: CoxeterPolygon, n: int,
                       rng: np.random.Generator):
    """n points uniform for hyperbolic area in P, by disk rejection.

    Each round draws all its u and phi up front, then maps them in
    blocks of BLOCK and keeps, in draw order, the first points on the
    inner side of every wall (poly.walls.side).
    """
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
            # push distance d up the vertical geodesic through the
            # center i, then rotate by phi about it
            c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
            zt = 1j * np.exp(d)
            z = (c * zt + s) / (-s * zt + c)
            z = z[np.all(poly.walls.side(z) > 0.0, axis=1)][: n - have]
            xs[have:have + z.shape[0]] = z.real
            ys[have:have + z.shape[0]] = z.imag
            have += z.shape[0]
    return xs, ys


@dataclass(frozen=True)
class _Sectors:
    """The geodesic sectors of radius r0 about the vertices of P: vertex
    coordinates vx, vy, and the direction angle at which each interior
    wedge, of angle width = pi/m, starts counterclockwise."""

    vx: np.ndarray
    vy: np.ndarray
    start: np.ndarray
    width: float
    r0: float

    @staticmethod
    def from_polygon(poly: CoxeterPolygon) -> "_Sectors":
        """r0 is the lesser of _SECTOR_RADIUS_CAP and half the least
        distance from a vertex to a wall not incident to it, so that each
        r0-disk meets P in exactly its wedge."""
        p = poly.p
        cx, r = poly.walls.floats[:2]
        gap = math.inf
        start = np.empty(p)
        for k, v in enumerate(poly.vertices):
            # vertex k is where wall k-1 ends and wall k starts
            ends = {(k - 1) % p: poly.vertices[k - 1],
                    k: poly.vertices[(k + 1) % p]}
            for j in range(p):
                if j not in ends:
                    # sinh of the distance from v to the wall's geodesic
                    sinh_d = abs((v.x - cx[j]) ** 2 + v.y ** 2 - r[j] ** 2) / (
                        2.0 * r[j] * v.y)
                    gap = min(gap, math.asinh(sinh_d))
            # the tangent of each incident wall at v, pointing along it
            # into P (toward the wall's other vertex)
            angles = []
            for j, far in ends.items():
                tx, ty = -v.y, v.x - cx[j]
                if tx * (far.x - v.x) + ty * (far.y - v.y) < 0.0:
                    tx, ty = -tx, -ty
                angles.append(math.atan2(ty, tx))
            a, b = angles
            start[k] = a if (b - a) % (2.0 * math.pi) < math.pi else b
        return _Sectors(
            vx=np.array([v.x for v in poly.vertices]),
            vy=np.array([v.y for v in poly.vertices]),
            start=start, width=math.pi / poly.m,
            r0=min(_SECTOR_RADIUS_CAP, 0.5 * gap))

    def sample(self, n: int, rng: np.random.Generator):
        """n points from the sectors: a vertex uniform among the p, the
        geodesic radius uniform on (0, r0) and the direction uniform in
        the vertex's interior wedge. A size-0 call draws nothing."""
        k = rng.integers(0, self.vx.size, n)
        r = rng.random(n) * self.r0
        alpha = self.start[k] + rng.random(n) * self.width
        # the point at distance r from (vx, vy) in direction alpha
        den = np.cosh(r) - np.sinh(r) * np.sin(alpha)
        return (self.vx[k] + self.vy[k] * np.sinh(r) * np.cos(alpha) / den,
                self.vy[k] / den)

    def density(self, x, y):
        """The density g_V of sample() with respect to hyperbolic area at
        the points (x, y) of P."""
        g = np.zeros(x.shape[0])
        cosh_r0 = math.cosh(self.r0)
        norm = self.vx.size * self.r0 * self.width
        for vx, vy in zip(self.vx, self.vy):
            # cosh d(x, v) - 1
            delta = ((x - vx) ** 2 + (y - vy) ** 2) / (2.0 * y * vy)
            near = delta < cosh_r0 - 1.0
            dn = delta[near]
            g[near] += 1.0 / (norm * np.sqrt(dn * (2.0 + dn)))
        return g


def santalo_monte_carlo(poly: CoxeterPolygon, samples: int = DEFAULT_SAMPLES,
                        seed: int = 0) -> SantaloResult:
    """Monte Carlo estimate of the unnormalized ln q / l integral.

    n2 = round(w * samples) base points come from the vertex sectors and
    n1 = samples - n2 are uniform for hyperbolic area in P; directions
    are uniform on the circle. Each ln q / l is weighted by
    1 / (n1/n + (n2/n) * A * g_V), so the sample mean times the
    Liouville mass 2 pi A estimates the integral, and the standard
    error is the sample standard deviation over sqrt(samples).

    The stream draws the uniform base points, then the sector base
    points, then every direction. Vertex-grazing samples are redrawn
    from their own component, in the same order (uniform, sector,
    directions), and their count is reported. With w = 0 no sector draw
    touches the stream and every weight is 1.0, which is the uniform
    estimator bit for bit. The chords and weighted values are evaluated
    in blocks of BLOCK samples, so the working set beyond the per-sample
    arrays does not grow with the sample count.
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    walls = poly.walls
    sectors = _Sectors.from_polygon(poly)
    rng = np.random.default_rng(seed)
    n2 = round(_VERTEX_SHARE * samples)
    n1 = samples - n2

    def base_points(n_uniform, n_vertex):
        xu, yu = _sample_in_polygon(poly, n_uniform, rng)
        xv, yv = sectors.sample(n_vertex, rng)
        return np.concatenate((xu, xv)), np.concatenate((yu, yv))

    x, y = base_points(n1, n2)
    ang = rng.random(samples) * (2.0 * math.pi)
    dx, dy = np.cos(ang), np.sin(ang)
    vals = np.empty(samples)
    todo = np.arange(samples)
    resampled = 0
    for _ in range(64):
        redo = []
        for k in range(0, todo.size, BLOCK):
            idx = todo[k:k + BLOCK]
            entry, length, good = _chords(walls, x[idx], y[idx], dx[idx],
                                          dy[idx])
            weight = 1.0 / (n1 / samples + n2 / samples * poly.area
                            * sectors.density(x[idx], y[idx]))
            lnq = walls.log_q[entry[good]]
            vals[idx[good]] = lnq / length[good] * weight[good]
            redo.append(idx[~good])
        todo = np.concatenate(redo)
        if todo.size == 0:
            break
        resampled += todo.size
        # todo is sorted, so its uniform-component indices come first
        n_uniform = int(np.count_nonzero(todo < n1))
        x[todo], y[todo] = base_points(n_uniform, todo.size - n_uniform)
        a = rng.random(todo.size) * (2.0 * math.pi)
        dx[todo], dy[todo] = np.cos(a), np.sin(a)
    else:
        raise VertexHit("persistent vertex-grazing samples")
    mass = 2.0 * math.pi * poly.area
    mc = float(vals.mean()) * mass
    stderr = float(vals.std(ddof=1)) / math.sqrt(samples) * mass
    base = _log_q_length(poly)
    c_used = mc / base if base > 0.0 else float("nan")
    return SantaloResult(
        closed_form=santalo_closed_form(poly), monte_carlo=mc,
        mc_stderr=stderr, c_constant_used=c_used, samples=samples,
        seed=seed, resampled=resampled, vertex_samples=n2,
        max_value=float(vals.max()))


def lower_bound_2d(poly: CoxeterPolygon) -> BoundReport:
    """The dimension-2 entropy lower bounds from the Santalo integral.

    paper_literal_bound: 1 + (1/area) * sum ln(q_i) ell_i, the printed
    corollary. derived_constant_bound: 1 + (1/(pi area)) * sum, the
    variational bound carrying the internally verified flux constant
    (integral / Liouville mass = 2 sum / (2 pi area)).
    """
    s = _log_q_length(poly)
    return BoundReport(
        paper_literal_bound=1.0 + s / poly.area,
        derived_constant_bound=1.0 + s / (math.pi * poly.area),
    )


def lower_bound_plugin(n: int, vol_P: float, faces, euclidean: bool = False) -> float:
    """Literal bound arithmetic for user-supplied n-dimensional data.

    n is an integer >= 1 and faces a list of (vol_F, q) pairs; returns
    (n - 1 if hyperbolic else 0) + (1/vol_P) * sum ln(q) vol_F.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    if not (math.isfinite(vol_P) and vol_P > 0.0):
        raise ValueError(f"vol_P must be finite and positive, got {vol_P!r}")
    s = 0.0
    for vol_F, q in faces:
        if not (math.isfinite(vol_F) and math.isfinite(q)
                and vol_F > 0.0 and q >= 1):
            raise ValueError(f"need finite vol_F > 0 and q >= 1, got "
                             f"({vol_F!r}, {q!r})")
        s += math.log(q) * vol_F
    return (0.0 if euclidean else float(n - 1)) + s / vol_P


_EQUALITY_TOL = 0.05


def strictness_report(poly: CoxeterPolygon, estimates) -> BoundReport:
    """Assemble the bounds and the strictness verdict of estimates."""
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
        strictness_margin=margin,
        flag=flag,
    )
