"""Upper half-plane geometry: points, geodesics, wall inversions,
Coxeter polygons.

All geodesics of the model are half-circles centered on the real axis or
vertical lines. The reflection in a wall is the inversion in its circle;
the polygons built here have no vertical walls. A geodesic is held as
the flow holds it, a basepoint and a unit tangent there.

A polygon's walls are built once, by regular_polygon, into one record:
poly.walls, a WallTable of per-wall arrays (circle, arclength range,
inward sign, ln of the branching parameter). Every consumer reads that
record, and "which side of wall k is z on" is computed in one place,
WallTable.side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import EPS_CONSTRUCT, EPS_GEOM
from .errors import (BadThickness, NonHyperbolic, _above, _is_finite,
                     _is_int, _require)


@dataclass(frozen=True)
class HPoint:
    """Point of the upper half-plane (finite x, finite y > 0)."""

    x: float
    y: float

    def __post_init__(self):
        _require("x", self.x, _is_finite, "a finite number")
        _require("y", self.y, *_above())

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)

    @staticmethod
    def from_complex(z: complex) -> "HPoint":
        return HPoint(z.real, z.imag)


def dist(a: HPoint, b: HPoint) -> float:
    """Hyperbolic distance between two points."""
    dz2 = (a.x - b.x) ** 2 + (a.y - b.y) ** 2
    return math.acosh(1.0 + dz2 / (2.0 * a.y * b.y))


@dataclass(frozen=True)
class HGeodesic:
    """Oriented geodesic as the flow's state: a basepoint on it and the
    unit Euclidean tangent (dx, dy) of the flow direction there."""

    basepoint: HPoint
    tangent: tuple


def geodesic_through(a: HPoint, b: HPoint) -> HGeodesic:
    """The geodesic through two distinct points, based at a and oriented
    from a toward b. ValueError, naming b, if b == a."""
    _require("b", b, lambda v: v != a, "a point other than a")
    if abs(a.x - b.x) < EPS_GEOM * max(1.0, abs(a.x), abs(b.x)):
        return HGeodesic(a, (0.0, 1.0 if b.y > a.y else -1.0))
    c = (a.x**2 + a.y**2 - b.x**2 - b.y**2) / (2.0 * (a.x - b.x))
    r = math.hypot(a.x - c, a.y)
    # psi decreases toward the endpoint c + r, and the increasing-psi
    # tangent is (-y, x - c) / r.
    sgn = -1.0 if math.atan2(b.y, b.x - c) < math.atan2(a.y, a.x - c) else 1.0
    # Round the circle through its ideal endpoints c -/+ r. The recorded
    # cutting sequences and benchmark digests come from this rounding:
    # without it about half of all tangents change in their last bits,
    # and tracing is chaotic, so long sequences would not reproduce.
    lo, hi = c - r, c + r
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return HGeodesic(a, (sgn * (-a.y / r), sgn * ((a.x - c) / r)))


def invert(z, cx, r):
    """Inversion in the circle of center cx and radius r on the real
    axis: the reflection of the half-plane in that wall. Vectorized over
    numpy arrays of points, centers and radii."""
    return cx + r * r / np.conjugate(z - cx)


def _cayley_to_uhp(w: complex) -> complex:
    """Poincare disk -> upper half-plane, 0 -> i."""
    return 1j * (1.0 + w) / (1.0 - w)


# eq=False: compared and hashed by identity, since arrays have no single
# truth value and a CoxeterPolygon holding the record stays hashable
@dataclass(frozen=True, eq=False)
class WallTable:
    """The p walls of a polygon as flat arrays, the one wall record that
    the tracer, the chamber walk, the Santalo sampler and the figures
    read. Wall k is the segment of the circle (cx[k], r[k]) from vertex
    k to vertex k+1; s = log tan(psi/2), psi the angle on the circle,
    is arclength along it, and the segment is s in [s_lo[k], s_hi[k]].
    """

    cx: np.ndarray      # wall circle center (on the real axis)
    r: np.ndarray       # wall circle radius
    s_lo: np.ndarray    # arclength parameter of one endpoint
    s_hi: np.ndarray    # arclength parameter of the other endpoint
    n_sign: np.ndarray  # inward normal = n_sign * radial unit vector
    log_q: np.ndarray   # ln of the branching parameter per wall

    def side(self, z) -> np.ndarray:
        """Signed distances n_sign * (|z - cx| - r) of the points z (any
        shape, complex) from every wall circle, shape z.shape + (p,):
        positive on the polygon side of the wall.

        |z - cx| is numpy's complex abs: about twice as fast as
        np.hypot(x - cx, y), which the default growth stage would feel
        (it tests 187,255 points while walking 119,911 chambers), and at
        most 1 ulp from it.
        """
        z = np.asarray(z)[..., None]
        return self.n_sign * (np.abs(z - self.cx) - self.r)

    @cached_property
    def floats(self) -> tuple:
        """(cx, r, s_lo, s_hi, n_sign) as tuples of Python floats, built
        on first use: the scalar tracer indexes them once per wall and
        step, which is cheaper than indexing numpy arrays."""
        return tuple(tuple(a.tolist()) for a in (
            self.cx, self.r, self.s_lo, self.s_hi, self.n_sign))


@dataclass(frozen=True)
class CoxeterPolygon:
    """Regular hyperbolic polygon with p edges, interior angles pi/m, and a
    per-edge branching parameter q_i (each wall of the building carries
    q_i + 1 chambers). q is the caller's tuple; walls.log_q holds its
    logs."""

    p: int
    m: int
    q: tuple
    vertices: tuple = field(repr=False)
    walls: WallTable = field(repr=False)
    area: float
    edge_length: float
    inradius: float
    circumradius: float
    center: HPoint = field(repr=False)

    @property
    def diameter(self) -> float:
        return 2.0 * self.circumradius


def _interior_angle(walls: WallTable, j: int, k: int, v: HPoint) -> float:
    """Angle between the circles of walls j and k at a shared vertex."""

    def tangent(i: int) -> tuple:
        r = walls.r[i]
        return -v.y / r, (v.x - walls.cx[i]) / r

    t1 = tangent(j)
    t2 = tangent(k)
    dot = t1[0] * t2[0] + t1[1] * t2[1]
    ang = math.acos(max(-1.0, min(1.0, abs(dot))))
    return ang


def regular_polygon(p: int, m: int, q) -> CoxeterPolygon:
    """Construct the regular p-gon with interior angles pi/m, centered at i,
    carrying per-edge branching parameters q (length-p sequence of finite
    real numbers >= 1; a building needs integers, which the CLI checks).

    Raises ValueError, naming it, unless p and m are integers (numpy
    ints count, bools do not); NonHyperbolic unless p >= 3, m >= 2 and
    m(p-2) > p; BadThickness for bad q.
    """
    _require("p", p, _is_int, "an integer")
    _require("m", m, _is_int, "an integer")
    if p < 3 or m < 2:
        raise NonHyperbolic(f"need p >= 3 and m >= 2, got p={p}, m={m}")
    if m * (p - 2) <= p:
        raise NonHyperbolic(
            f"angle condition m(p-2) > p fails for p={p}, m={m}: polygon is not hyperbolic"
        )
    q = tuple(q)
    if len(q) != p:
        raise BadThickness(f"expected {p} thickness parameters, got {len(q)}")
    if not all(_is_finite(v) and v >= 1 for v in q):
        raise BadThickness(f"all q_i must be finite real numbers >= 1, "
                           f"got {q}")

    A = math.pi / p          # central half-angle
    B = math.pi / (2 * m)    # half interior angle
    circum = math.acosh(1.0 / (math.tan(A) * math.tan(B)))
    inr = math.acosh(math.cos(B) / math.sin(A))
    half_edge = math.acosh(math.cos(A) / math.sin(B))
    edge_len = 2.0 * half_edge
    area = (p - 2) * math.pi - p * math.pi / m

    # Realize in the disk, then map to the half-plane. The rotation offset
    # is chosen so no wall becomes a vertical line in the half-plane.
    rho_e = math.tanh(circum / 2.0)
    offset = 0.37
    for _attempt in range(8):
        verts_c = [
            _cayley_to_uhp(rho_e * complex(math.cos(2 * math.pi * k / p + offset),
                                           math.sin(2 * math.pi * k / p + offset)))
            for k in range(p)
        ]
        ok = all(
            abs(verts_c[k].real - verts_c[(k + 1) % p].real) > 1e-6
            for k in range(p)
        )
        if ok:
            break
        offset += 0.11
    else:
        raise NonHyperbolic("could not realize polygon without vertical walls")

    vertices = tuple(HPoint.from_complex(z) for z in verts_c)
    center = HPoint(0.0, 1.0)

    rows = []
    for k in range(p):
        va, vb = vertices[k], vertices[(k + 1) % p]
        cx = (va.x**2 + va.y**2 - vb.x**2 - vb.y**2) / (2.0 * (va.x - vb.x))
        r = math.hypot(va.x - cx, va.y)
        psi_a = math.atan2(va.y, va.x - cx)
        psi_b = math.atan2(vb.y, vb.x - cx)
        s_a = math.log(math.tan(psi_a / 2.0))
        s_b = math.log(math.tan(psi_b / 2.0))
        s_lo, s_hi = (s_a, s_b) if s_a < s_b else (s_b, s_a)
        # Inward normal sign: radial direction at the midpoint points toward
        # the polygon center iff interior is outside the circle.
        dc = math.hypot(center.x - cx, center.y) - r
        n_sign = 1.0 if dc > 0 else -1.0
        rows.append((cx, r, s_lo, s_hi, n_sign))
    # one record shared by every consumer, so it is read-only; ln q is
    # taken here and nowhere else
    cols = [np.array(c) for c in zip(*rows)] + [
        np.array([math.log(v) for v in q])]
    for c in cols:
        c.flags.writeable = False
    walls = WallTable(*cols)

    # Construction-time checks: measured edge lengths and angles must match
    # the closed-form values, catching any trig-convention slip.
    for k in range(p):
        measured = dist(vertices[k], vertices[(k + 1) % p])
        if abs(measured - edge_len) > EPS_CONSTRUCT * max(1.0, edge_len):
            raise NonHyperbolic(
                f"edge {k} length {measured} != expected {edge_len}"
            )
        length = walls.s_hi[k] - walls.s_lo[k]
        if abs(length - edge_len) > EPS_CONSTRUCT * max(1.0, edge_len):
            raise NonHyperbolic(
                f"edge {k} wall-parameter length {length} != expected {edge_len}"
            )
    for k in range(p):
        ang = _interior_angle(walls, k - 1, k, vertices[k])
        if abs(ang - math.pi / m) > EPS_CONSTRUCT:
            raise NonHyperbolic(
                f"vertex {k} interior angle {ang} != pi/{m}"
            )

    return CoxeterPolygon(
        p=p,
        m=m,
        q=q,
        vertices=vertices,
        walls=walls,
        area=area,
        edge_length=edge_len,
        inradius=inr,
        circumradius=circum,
        center=center,
    )
