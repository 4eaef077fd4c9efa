"""Geodesic tracing through the reflection tessellation.

A geodesic in the tessellated plane is traced entirely inside the base
polygon: whenever the ray exits through a wall, it is folded back by the
reflection in that wall. The sequence of (wall, flight time, foot
position, incidence angle) records is exactly the geodesic's cutting
sequence after quotienting by the reflection group.

The step geometry exists twice, one copy per call shape. ``trace``
follows a single ray with ``_step``, which works on plain Python floats;
``batch_first_crossing`` steps many rays at once with the numpy kernel
``_batch_step_numpy``. Both stay because each is the cheap one for its
call shape. On a 2-CPU x86-64 host (numpy 2.4) one ``_step`` takes
about 6 us and one kernel call on a single ray about 120 us, so the
kernel would make single-ray traces many times slower; on a batch of
2e5 rays the kernel takes about 0.7 us per ray. The kernel steps the
rays in consecutive blocks of ``BLOCK``, so its working set stays fixed
however many rays a call holds; every operation is per ray, so the
outputs do not depend on the block size. ``benchmarks/bench_tracing.py``
times the batch kernel, long traces and the Santalo Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPS_STEP, EPS_VERTEX
from .hypgeom import CoxeterPolygon


def backend() -> str:
    """Name of the tracing backend; numpy is the only one."""
    return "numpy"


@dataclass(frozen=True)
class WallTable:
    """Flat per-wall arrays consumed by the kernels."""

    cx: np.ndarray      # wall circle center (on the real axis)
    r: np.ndarray       # wall circle radius
    s_lo: np.ndarray    # arclength parameter of one endpoint (s = log tan(psi/2))
    s_hi: np.ndarray    # arclength parameter of the other endpoint
    n_sign: np.ndarray  # inward normal = n_sign * radial unit vector
    q: np.ndarray       # branching parameter per wall
    edge_length: float
    diameter: float

    @staticmethod
    def from_polygon(poly: CoxeterPolygon) -> "WallTable":
        es = poly.edges
        return WallTable(
            cx=np.array([e.cx for e in es]),
            r=np.array([e.r for e in es]),
            s_lo=np.array([e.s_lo for e in es]),
            s_hi=np.array([e.s_hi for e in es]),
            n_sign=np.array([e.n_sign for e in es]),
            q=np.array(poly.q, dtype=np.int64),
            edge_length=poly.edge_length,
            diameter=poly.diameter,
        )


# Rays per call of the numpy batch kernel, whose (BLOCK, p) float
# temporaries then take a few MB. On 1e6 rays (2-CPU host) 2048-8192
# were fastest; 1024 and 65536 were 10-30% slower.
BLOCK = 4096

# Step flags.
OK = 0
NEAR_VERTEX = 1
LOST = 2  # no forward crossing found (should not happen from the interior)


def _step(x, y, dx, dy, prev, cx, rr, slo, nsign):
    """Advance a ray to its first wall crossing and fold it back inward.

    Returns (j, t, xs, ys, u, theta, dxr, dyr, flag): wall index, flight
    time, crossing point, foot position along the wall from its s_lo end,
    incidence angle of the folded (inward) direction, folded direction,
    and a status flag. The wall columns cx, rr, slo, nsign are lists of
    Python floats: indexing them is cheaper than indexing numpy arrays.
    """
    best_t = 1e300
    best_j = -1
    best_x = 0.0
    best_y = 0.0
    vertical = abs(dx) < 1e-13
    if not vertical:
        gcx = x + y * dy / dx
        gr = math.hypot(x - gcx, y)
        psi0 = math.atan2(y, x - gcx)
        s0 = math.log(math.tan(0.5 * psi0))
        sig = 1.0 if (dx * (-math.sin(psi0)) + dy * math.cos(psi0)) > 0.0 else -1.0
    for j in range(len(cx)):
        if j == prev:
            continue
        if vertical:
            dxc = x - cx[j]
            h2 = rr[j] * rr[j] - dxc * dxc
            if h2 <= 0.0:
                continue
            ys = math.sqrt(h2)
            t = (math.log(ys) - math.log(y)) * (1.0 if dy > 0 else -1.0)
            xs = x
        else:
            denom = cx[j] - gcx
            if abs(denom) < 1e-13:
                continue
            xs = (gr * gr - rr[j] * rr[j] + cx[j] * cx[j] - gcx * gcx) / (2.0 * denom)
            h2 = gr * gr - (xs - gcx) * (xs - gcx)
            if h2 <= 0.0:
                continue
            ys = math.sqrt(h2)
            psis = math.atan2(ys, xs - gcx)
            t = sig * (math.log(math.tan(0.5 * psis)) - s0)
        if EPS_STEP < t < best_t:
            best_t = t
            best_j = j
            best_x = xs
            best_y = ys
    if best_j < 0:
        return -1, 0.0, x, y, 0.0, 0.0, dx, dy, LOST
    j = best_j
    xs = best_x
    ys = best_y
    # Transport the direction along the ray to the crossing point.
    if vertical:
        da = 0.0
        db = 1.0 if dy > 0 else -1.0
    else:
        psib = math.atan2(ys, xs - gcx)
        da = sig * (-math.sin(psib))
        db = sig * math.cos(psib)
    psiw = math.atan2(ys, xs - cx[j])
    sw = math.log(math.tan(0.5 * psiw))
    u = sw - slo[j]
    # Fold the direction: reflection across the wall circle.
    c2 = math.cos(2.0 * psiw)
    s2 = math.sin(2.0 * psiw)
    # v' = -e^{2 i psi} * conj(v)
    dxr = -(c2 * da + s2 * db)
    dyr = -(s2 * da - c2 * db)
    # Incidence angle of the inward direction relative to the wall tangent.
    nx = nsign[j] * math.cos(psiw)
    ny = nsign[j] * math.sin(psiw)
    wx = ny
    wy = -nx
    theta = math.atan2(wx * dyr - wy * dxr, wx * dxr + wy * dyr)
    return j, best_t, xs, ys, u, theta, dxr, dyr, OK


def _batch_step_numpy(x, y, dx, dy, prev, cx, rr, slo, shi, nsign):
    """Vectorized single-step kernel for batches of rays.

    Returns (j, t, u, theta, flag) arrays. Its (n, p) temporaries make
    it the caller's job to keep n small (see BLOCK).
    """
    n = x.shape[0]
    vertical = np.abs(dx) < 1e-13
    safe_dx = np.where(vertical, 1.0, dx)
    gcx = x + y * dy / safe_dx
    gr = np.hypot(x - gcx, y)
    psi0 = np.arctan2(y, x - gcx)
    s0 = np.log(np.tan(0.5 * psi0))
    sig = np.where(dx * (-np.sin(psi0)) + dy * np.cos(psi0) > 0.0, 1.0, -1.0)

    # circular-ray candidates, shape (n, p)
    denom = cx[None, :] - gcx[:, None]
    bad = np.abs(denom) < 1e-13
    denom = np.where(bad, 1.0, denom)
    xs_c = (gr[:, None] ** 2 - rr[None, :] ** 2 + cx[None, :] ** 2
            - gcx[:, None] ** 2) / (2.0 * denom)
    h2_c = gr[:, None] ** 2 - (xs_c - gcx[:, None]) ** 2
    ok_c = (~bad) & (h2_c > 0.0)
    ys_c = np.sqrt(np.where(ok_c, h2_c, 1.0))
    psis = np.arctan2(ys_c, xs_c - gcx[:, None])
    t_c = sig[:, None] * (np.log(np.tan(0.5 * psis)) - s0[:, None])

    t = np.where(ok_c & (t_c > EPS_STEP), t_c, np.inf)

    # vertical-ray candidates, only for the (rare) vertical rows
    iv = np.flatnonzero(vertical)
    if iv.size:
        dxc = x[iv, None] - cx[None, :]
        h2_v = rr[None, :] ** 2 - dxc ** 2
        ok_v = h2_v > 0.0
        ys_v = np.sqrt(np.where(ok_v, h2_v, 1.0))
        t_v = (np.where(dy[iv, None] > 0, 1.0, -1.0)
               * (np.log(ys_v) - np.log(y[iv, None])))
        t[iv] = np.where(ok_v & (t_v > EPS_STEP), t_v, np.inf)
        xs_c[iv] = x[iv, None]
        ys_c[iv] = ys_v
    has_prev = prev >= 0
    t[np.where(has_prev)[0], np.where(has_prev, prev, 0)[has_prev]] = np.inf

    j = np.argmin(t, axis=1)
    idx = np.arange(n)
    tbest = t[idx, j]
    xb = xs_c[idx, j]
    yb = ys_c[idx, j]
    lost = ~np.isfinite(tbest)
    j = np.where(lost, -1, j)
    jj = np.where(lost, 0, j)

    # Transport the direction along the ray to the crossing point.
    psib = np.arctan2(yb, xb - gcx)
    da = np.where(vertical, 0.0, sig * (-np.sin(psib)))
    db = np.where(vertical, np.where(dy > 0, 1.0, -1.0), sig * np.cos(psib))

    psiw = np.arctan2(yb, xb - cx[jj])
    sw = np.log(np.tan(0.5 * psiw))
    u = sw - slo[jj]
    c2 = np.cos(2.0 * psiw)
    s2 = np.sin(2.0 * psiw)
    dxr = -(c2 * da + s2 * db)
    dyr = -(s2 * da - c2 * db)
    nx = nsign[jj] * np.cos(psiw)
    ny = nsign[jj] * np.sin(psiw)
    wx, wy = ny, -nx
    theta = np.arctan2(wx * dyr - wy * dxr, wx * dxr + wy * dyr)
    ell = shi[jj] - slo[jj]
    flag = np.where(lost, LOST,
                    np.where((u < EPS_VERTEX) | (u > ell - EPS_VERTEX),
                             NEAR_VERTEX, OK))
    return j.astype(np.int64), tbest, u, theta, flag.astype(np.int64)


def trace(table: WallTable, x, y, dx, dy, t_max, max_steps=None):
    """Trace a ray forward for hyperbolic time t_max.

    Returns (j, t, u, theta) arrays of crossings with 0 < t <= t_max, at
    most max_steps of them, and a status flag: NEAR_VERTEX as soon as a
    crossing foot comes within EPS_VERTEX of a wall endpoint, LOST if a
    step finds no crossing, OK otherwise.
    """
    cx, rr, slo, shi, nsign = (a.tolist() for a in (
        table.cx, table.r, table.s_lo, table.s_hi, table.n_sign))
    x, y, dx, dy, t_max = float(x), float(y), float(dx), float(dy), float(t_max)
    js, ts, us, ths = [], [], [], []
    t_acc = 0.0
    flag = OK
    prev = -1
    while max_steps is None or len(js) < max_steps:
        j, t, xs, ys, u, th, dxr, dyr, f = _step(x, y, dx, dy, prev,
                                                 cx, rr, slo, nsign)
        if f == LOST:
            flag = LOST
            break
        t_acc += t
        if t_acc > t_max:
            break
        if u < EPS_VERTEX or u > shi[j] - slo[j] - EPS_VERTEX:
            flag = NEAR_VERTEX
            break
        js.append(j)
        ts.append(t_acc)
        us.append(u)
        ths.append(th)
        x, y, dx, dy, prev = xs, ys, dxr, dyr, j
    return (np.array(js, dtype=np.int64), np.array(ts), np.array(us),
            np.array(ths), flag)


def batch_first_crossing(table: WallTable, x, y, dx, dy, prev=None):
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
         out_flag[b]) = _batch_step_numpy(x[b], y[b], dx[b], dy[b], prev[b],
                                          table.cx, table.r, table.s_lo,
                                          table.s_hi, table.n_sign)
    return out_j, out_t, out_u, out_th, out_flag


def launch(table: WallTable, edge, u, theta):
    """Base point and direction of a section state (edge, u, theta).

    u is arclength from the wall's s_lo endpoint, theta in (0, pi) is the
    angle from the wall tangent on the inward side. Vectorized.
    """
    edge = np.asarray(edge, dtype=np.int64)
    u = np.asarray(u, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sw = table.s_lo[edge] + u
    psi = 2.0 * np.arctan(np.exp(sw))
    x = table.cx[edge] + table.r[edge] * np.cos(psi)
    y = table.r[edge] * np.sin(psi)
    nx = table.n_sign[edge] * np.cos(psi)
    ny = table.n_sign[edge] * np.sin(psi)
    wx, wy = ny, -nx
    dx = np.cos(theta) * wx + np.sin(theta) * nx
    dy = np.cos(theta) * wy + np.sin(theta) * ny
    return x, y, dx, dy
