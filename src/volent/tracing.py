"""Geodesic tracing through the reflection tessellation.

A geodesic in the tessellated plane is traced entirely inside the base
polygon: whenever the ray exits through a wall, it is folded back by the
reflection in that wall. The sequence of (wall, flight time, foot
position, incidence angle) records is exactly the geodesic's cutting
sequence after quotienting by the reflection group.

Every entry point takes the polygon's one wall record, ``poly.walls``
(a ``hypgeom.WallTable``, built once with the polygon), as its first
argument; nothing here rebuilds wall arrays.

The step geometry exists twice, one copy per call shape. ``trace``
steps a single ray in its own loop, ``_steps``, on plain Python floats
(``symbolic.cutting_sequence`` runs the same loop and builds its rows
from the loop's lists); ``batch_first_crossing`` steps many rays at once
with the numpy kernel ``_batch_step_numpy``. Both stay because each is
the cheap one for its call shape. On a 2-CPU x86-64 host (Python 3.11,
numpy 2.4) one step of ``trace`` takes about 3.0 us and one kernel call
on a single ray about 90 us, so the kernel would make single-ray traces
many times slower; on a batch of 2e5 rays the kernel takes about 0.6 us
per ray.

The scalar step selects its exit wall by meeting point, not by flight
time. On a geodesic circle centered (gcx, 0) the point at angle psi has
x = gcx + gr cos(psi), which falls strictly as psi and the arclength
s = log tan(psi/2) rise. So the walls met ahead come in the
same order by key = sig * (x - xs), where xs is the meeting point's x
and sig the direction of s, as by flight time t = sig * (s(xs) - s(x)),
and the key takes only rational operations. The loop evaluates atan2,
tan and log only for a candidate with 0 <= key < the best key so far,
and accepts it only if t > EPS_STEP, the flight-time scan's test. The
order is exact: key and the computed t are both monotone in xs, so they
can rank two walls differently only where the two meeting points lie
within rounding error of each other. Non-adjacent walls of a Coxeter
polygon never meet, so that is a vertex, and either wall then gives a
foot within EPS_VERTEX of its end: the step stops NEAR_VERTEX before
recording anything. A vertical ray still computes every flight time.

The kernel runs in three stages. ``_candidates`` finds where each ray's
geodesic meets every wall circle, as signed distances along the
geodesic; ``_pick`` selects the first crossing in one direction and
flags it; the fold then reflects the direction in the crossed wall.
Reversing a ray only negates the tangent component the candidate stage
returns, so the Santalo Monte Carlo's ``_chords`` runs that stage once
per chord and picks twice, forward and backward, with no fold: one
geometry pass per chord instead of two full steps. Santalo does not
call ``batch_first_crossing``.

``batch_first_crossing`` works in blocks of ``BLOCK`` rays, so its
working set stays fixed; every operation is per ray, so the outputs do
not depend on the block size. ``_chords`` is one pass per call, and
Santalo's loop over ``BLOCK`` samples is the only block loop over
chords. ``benchmarks/bench_tracing.py`` times the batch kernel, long
traces and the Santalo Monte Carlo.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import EPS_STEP, EPS_VERTEX
from .errors import _above, _int, _is_finite, _require
from .hypgeom import WallTable


def backend() -> str:
    """Name of the tracing backend; numpy is the only one."""
    return "numpy"


# Rays per call of the numpy batch kernel, whose (BLOCK, p) float
# temporaries then take a few MB. On 1e6 rays (2-CPU host) 2048-8192
# were fastest; 1024 and 65536 were 10-30% slower.
BLOCK = 4096

# Step flags.
OK = 0
NEAR_VERTEX = 1
LOST = 2  # no forward crossing found (should not happen from the interior)


def _candidates(walls: WallTable, x, y, dx, dy):
    """Candidate stage of a batch step: every wall a ray's geodesic meets.

    Returns (a, xs, ys, proj, gcx, vertical). Each ray's geodesic is the
    circle centered (gcx, 0) through its base point, or the vertical line
    through it where vertical; s is its arclength parameter,
    log tan(psi/2) on the circle and log y on the line. a is (n, p): the
    signed parameter distance s(meeting point) - s(base point) to each
    wall circle, nan where the two do not meet, with the meeting points
    in xs, ys. proj is the direction's component along the tangent of
    increasing s, so the flight time toward wall k is sig * a[:, k] with
    sig = +1 where proj > 0 and -1 otherwise. Nothing here depends on
    the ray's orientation beyond proj, which the reversed ray negates
    exactly, so both directions of a chord share one candidate stage.
    Its (n, p) temporaries make it the caller's job to keep n small (see
    BLOCK).
    """
    cx, rr = walls.cx, walls.r
    vertical = np.abs(dx) < 1e-13 * np.abs(dy)
    safe_dx = np.where(vertical, 1.0, dx)
    gcx = x + y * dy / safe_dx
    gr = np.hypot(x - gcx, y)
    psi0 = np.arctan2(y, x - gcx)
    s0 = np.log(np.tan(0.5 * psi0))
    proj = dx * (-np.sin(psi0)) + dy * np.cos(psi0)

    # circular-ray candidates, shape (n, p)
    denom = cx[None, :] - gcx[:, None]
    bad = np.abs(denom) < 1e-13
    denom = np.where(bad, 1.0, denom)
    xs = (gr[:, None] ** 2 - rr[None, :] ** 2 + cx[None, :] ** 2
          - gcx[:, None] ** 2) / (2.0 * denom)
    xs_rel = xs - gcx[:, None]
    h2 = gr[:, None] ** 2 - xs_rel ** 2
    ok = (~bad) & (h2 > 0.0)
    ys = np.sqrt(np.where(ok, h2, 1.0))
    psis = np.arctan2(ys, xs_rel)
    a = np.where(ok, np.log(np.tan(0.5 * psis)) - s0[:, None], np.nan)

    # vertical-ray candidates, only for the (rare) vertical rows
    iv = np.flatnonzero(vertical)
    if iv.size:
        dxc = x[iv, None] - cx[None, :]
        h2_v = rr[None, :] ** 2 - dxc ** 2
        ok_v = h2_v > 0.0
        ys_v = np.sqrt(np.where(ok_v, h2_v, 1.0))
        a[iv] = np.where(ok_v, np.log(ys_v) - np.log(y[iv, None]), np.nan)
        xs[iv] = x[iv, None]
        ys[iv] = ys_v
        proj[iv] = dy[iv]
    return a, xs, ys, proj, gcx, vertical


def _pick(walls: WallTable, sig, a, xs, ys, prev):
    """Selection stage of a batch step: the first wall crossed along sig.

    Takes the least flight time t = sig * a above EPS_STEP, skipping the
    wall in prev where prev >= 0 (prev may be None). Returns (j, t, xb,
    yb, psiw, u, flag): the wall (-1 and t = inf if LOST), the flight
    time, the crossing point, its angle on the wall circle, the foot
    position from the wall's s_lo end and the step flag.
    """
    t = sig[:, None] * a
    t = np.where(t > EPS_STEP, t, np.inf)
    if prev is not None:
        has_prev = prev >= 0
        t[np.flatnonzero(has_prev), prev[has_prev]] = np.inf
    jj = np.argmin(t, axis=1)
    idx = np.arange(t.shape[0])
    tbest = t[idx, jj]
    xb = xs[idx, jj]
    yb = ys[idx, jj]
    lost = ~np.isfinite(tbest)
    psiw = np.arctan2(yb, xb - walls.cx[jj])
    u = np.log(np.tan(0.5 * psiw)) - walls.s_lo[jj]
    ell = walls.s_hi[jj] - walls.s_lo[jj]
    flag = np.where(lost, LOST,
                    np.where((u < EPS_VERTEX) | (u > ell - EPS_VERTEX),
                             NEAR_VERTEX, OK))
    return np.where(lost, -1, jj), tbest, xb, yb, psiw, u, flag


def _batch_step_numpy(walls: WallTable, x, y, dx, dy, prev):
    """Vectorized single-step kernel for batches of rays: the candidate
    stage, the selection along the ray's own direction, then the fold.

    Returns (j, t, u, theta, flag) arrays.
    """
    a, xs, ys, proj, gcx, vertical = _candidates(walls, x, y, dx, dy)
    sig = np.where(proj > 0.0, 1.0, -1.0)
    j, tbest, xb, yb, psiw, u, flag = _pick(walls, sig, a, xs, ys, prev)
    jj = np.where(j < 0, 0, j)

    # Transport the direction along the ray to the crossing point; on a
    # vertical ray sig is the sign of dy.
    psib = np.arctan2(yb, xb - gcx)
    da = np.where(vertical, 0.0, sig * (-np.sin(psib)))
    db = np.where(vertical, sig, sig * np.cos(psib))

    # Fold the direction across the wall and measure its incidence angle.
    c2 = np.cos(2.0 * psiw)
    s2 = np.sin(2.0 * psiw)
    dxr = -(c2 * da + s2 * db)
    dyr = -(s2 * da - c2 * db)
    nx = walls.n_sign[jj] * np.cos(psiw)
    ny = walls.n_sign[jj] * np.sin(psiw)
    wx, wy = ny, -nx
    theta = np.arctan2(wx * dyr - wy * dxr, wx * dxr + wy * dyr)
    return j.astype(np.int64), tbest, u, theta, flag.astype(np.int64)


def _ray(x, y, dx, dy) -> tuple:
    """(x, y, dx, dy) as Python floats. ValueError, naming x, y or the
    tangent, unless x is a finite number, y one > 0 and (dx, dy) a finite
    nonzero vector. Four Python (or numpy) floats take a fast path."""
    if (isinstance(x, float) and isinstance(y, float)
            and isinstance(dx, float) and isinstance(dy, float)
            and math.isfinite(x) and 0.0 < y < math.inf
            and math.isfinite(dx) and math.isfinite(dy) and (dx or dy)):
        return float(x), float(y), float(dx), float(dy)
    _require("x", x, _is_finite, "a finite number")
    _require("y", y, *_above())
    _require("tangent", (dx, dy),
             lambda v: _is_finite(v[0]) and _is_finite(v[1]) and any(v),
             "a finite nonzero vector (dx, dy)")
    return float(x), float(y), float(dx), float(dy)


def _steps(walls: WallTable, x: float, y: float, dx: float, dy: float,
           t_max: float, max_steps=None) -> tuple:
    """The step loop of trace, on Python floats from _ray: (js, ts, us,
    ths, flag), the crossings as four Python lists and trace's flag."""
    atan2, cos, hypot, log, sin, sqrt, tan = (
        math.atan2, math.cos, math.hypot, math.log, math.sin, math.sqrt,
        math.tan)
    cx, rr, slo, shi, nsign = walls.floats
    rr2 = tuple(r * r for r in rr)
    cx2 = tuple(c * c for c in cx)
    wall_ids = range(len(cx))
    js, ts, us, ths = [], [], [], []
    t_acc = 0.0
    flag = OK
    prev = -1
    while max_steps is None or len(js) < max_steps:
        best_t = 1e300
        best_j = -1
        if abs(dx) < 1e-13 * abs(dy):
            # vertical geodesic: arclength is log y
            ly = log(y)
            up = 1.0 if dy > 0 else -1.0
            for j in wall_ids:
                if j == prev:
                    continue
                dxc = x - cx[j]
                h2 = rr2[j] - dxc * dxc
                if h2 <= 0.0:
                    continue
                ys = sqrt(h2)
                t = (log(ys) - ly) * up
                if EPS_STEP < t < best_t:
                    best_t, best_j, best_y = t, j, ys
            best_x = x
            da, db = 0.0, up
        else:
            # geodesic circle centered (gcx, 0); arclength log tan(psi/2).
            # x falls as s rises, so the ray runs toward rising s (sig =
            # 1) exactly when dx < 0, and a wall's key = sig * (x - xs),
            # how far ahead in x it is met, ranks it as its flight time
            # does (see the module docstring): t is computed only for a
            # candidate that would beat the best so far.
            gcx = x + y * dy / dx
            gr = hypot(x - gcx, y)
            gr2 = gr * gr
            gcx2 = gcx * gcx
            sig = -1.0 if dx > 0.0 else 1.0
            s0 = None
            best_key = math.inf
            for j in wall_ids:
                if j == prev:
                    continue
                denom = cx[j] - gcx
                if -1e-13 < denom < 1e-13:
                    continue
                xs = (gr2 - rr2[j] + cx2[j] - gcx2) / (2.0 * denom)
                key = sig * (x - xs)
                if not 0.0 <= key < best_key:
                    continue
                h2 = gr2 - (xs - gcx) * (xs - gcx)
                if h2 <= 0.0:
                    continue
                ys = sqrt(h2)
                psis = atan2(ys, xs - gcx)
                if s0 is None:
                    s0 = log(tan(0.5 * atan2(y, x - gcx)))
                t = sig * (log(tan(0.5 * psis)) - s0)
                if t > EPS_STEP:
                    best_key, best_t, best_j, best_psi = key, t, j, psis
                    best_x, best_y = xs, ys
            if best_j >= 0:
                # the direction transported to the crossing point
                da = sig * (-sin(best_psi))
                db = sig * cos(best_psi)
        if best_j < 0:
            flag = LOST
            break
        j = best_j
        t_acc += best_t
        if t_acc > t_max:
            break
        psiw = atan2(best_y, best_x - cx[j])
        u = log(tan(0.5 * psiw)) - slo[j]
        if u < EPS_VERTEX or u > shi[j] - slo[j] - EPS_VERTEX:
            flag = NEAR_VERTEX
            break
        # fold by the reflection in the wall circle: v' = -e^{2 i psiw}
        # conj(v); theta is the angle of v' from the wall tangent
        c2 = cos(2.0 * psiw)
        s2 = sin(2.0 * psiw)
        dxr = -(c2 * da + s2 * db)
        dyr = -(s2 * da - c2 * db)
        nx = nsign[j] * cos(psiw)
        ny = nsign[j] * sin(psiw)
        wx = ny
        wy = -nx
        js.append(j)
        ts.append(t_acc)
        us.append(u)
        ths.append(atan2(wx * dyr - wy * dxr, wx * dxr + wy * dyr))
        x, y, dx, dy, prev = best_x, best_y, dxr, dyr, j
    return js, ts, us, ths, flag


def trace(walls: WallTable, x, y, dx, dy, t_max, max_steps=None):
    """Trace a ray forward for hyperbolic time t_max.

    Returns (j, t, u, theta) arrays of crossings with 0 < t <= t_max, at
    most max_steps of them, and a status flag: NEAR_VERTEX as soon as a
    crossing foot comes within EPS_VERTEX of a wall endpoint, LOST if a
    step finds no crossing, OK otherwise. ValueError unless x is a
    finite number, y one > 0, (dx, dy) a finite nonzero vector, t_max a
    finite number > 0 and max_steps None or an integer >= 0.

    Each step is the scalar copy of the batch kernel's geometry on
    Python floats: the first wall crossed (least flight time above
    EPS_STEP, skipping the wall just crossed, found by meeting point as
    the module docstring says), the direction transported to the
    crossing point, then folded back inward by the reflection in that
    wall. The wall columns are the tuples WallTable.floats.
    """
    x, y, dx, dy = _ray(x, y, dx, dy)
    _require("t_max", t_max, *_above())
    if max_steps is not None:
        _require("max_steps", max_steps, *_int(0))
    js, ts, us, ths, flag = _steps(walls, x, y, dx, dy, float(t_max),
                                   max_steps)
    return (np.array(js, dtype=np.int64), np.array(ts), np.array(us),
            np.array(ths), flag)


def batch_first_crossing(walls: WallTable, x, y, dx, dy, prev=None):
    """Batched single step. Returns (j, t, u, theta, flag) arrays.

    prev, when given, holds the wall each ray just crossed; that wall is
    excluded from the step (a folded ray meets it again only at its
    current base point).
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    dx = np.ascontiguousarray(dx, dtype=float)
    dy = np.ascontiguousarray(dy, dtype=float)
    if prev is None:
        prev = np.full(x.shape[0], -1, dtype=np.int64)
    else:
        prev = np.ascontiguousarray(prev, dtype=np.int64)
    n = x.shape[0]
    out_j = np.empty(n, dtype=np.int64)
    out_t = np.empty(n)
    out_u = np.empty(n)
    out_th = np.empty(n)
    out_flag = np.empty(n, dtype=np.int64)
    for a in range(0, n, BLOCK):
        b = slice(a, a + BLOCK)
        (out_j[b], out_t[b], out_u[b], out_th[b],
         out_flag[b]) = _batch_step_numpy(walls, x[b], y[b], dx[b], dy[b],
                                          prev[b])
    return out_j, out_t, out_u, out_th, out_flag


def _chords(walls: WallTable, x, y, dx, dy):
    """The wall-to-wall chord through each tangent vector, for Santalo.

    Returns (entry, l, ok): the wall the chord enters through (the
    first crossing backward along (-dx, -dy)), its length l = tf + tb
    (forward plus backward flight time) and ok where both crossings are
    OK. One candidate pass over all n rays, selected in both directions,
    with no fold and no block loop: the caller keeps n to about BLOCK.
    The results equal two batch_first_crossing calls, along (dx, dy) and
    (-dx, -dy).
    """
    cand, xs, ys, proj, _, _ = _candidates(walls, x, y, dx, dy)
    _, tf, _, _, _, _, ff = _pick(walls, np.where(proj > 0.0, 1.0, -1.0),
                                  cand, xs, ys, None)
    jb, tb, _, _, _, _, fb = _pick(walls, np.where(-proj > 0.0, 1.0, -1.0),
                                   cand, xs, ys, None)
    return jb, tf + tb, (ff == OK) & (fb == OK)


def launch(walls: WallTable, edge, u, theta):
    """Base point and direction of a section state (edge, u, theta).

    u is arclength from the wall's s_lo endpoint, theta in (0, pi) is the
    angle from the wall tangent on the inward side. Vectorized.
    """
    edge = np.asarray(edge, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sw = walls.s_lo[edge] + u
    psi = 2.0 * np.arctan(np.exp(sw))
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    r, sign = walls.r[edge], walls.n_sign[edge]
    x = walls.cx[edge] + r * cos_psi
    y = r * sin_psi
    nx = sign * cos_psi
    ny = sign * sin_psi
    wx, wy = ny, -nx
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    dx = cos_t * wx + sin_t * nx
    dy = cos_t * wy + sin_t * ny
    return x, y, dx, dy
