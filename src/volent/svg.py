"""Tiny SVG writer and the two figures the CLI can emit.

Hand-rolled on purpose: the output targets documentation, so a few
polylines, circles, and text labels are all that is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .hypgeom import invert


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts = []

    def polyline(self, points, stroke="black", width=1.0, fill="none"):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, cx, cy, r, stroke="black", width=1.0, fill="none"):
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{width}"/>')

    def text(self, x, y, s, size=12):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif">{s}</text>')

    def to_string(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">')
        return head + "".join(self.parts) + "</svg>"

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_string())


def _edge_arc_points(edge, n: int = 24) -> np.ndarray:
    """Sample points along a wall segment in the upper half-plane."""
    psi_lo = 2.0 * np.arctan(np.exp(edge.s_lo))
    psi_hi = 2.0 * np.arctan(np.exp(edge.s_hi))
    psi = np.linspace(psi_lo, psi_hi, n)
    return edge.cx + edge.r * np.exp(1j * psi)


def _chamber_arcs(poly, chambers) -> np.ndarray:
    """Wall arcs of every row of a ChamberSet, shape (rows, p, points).

    The base chamber's arcs move along the walk's tree: row i's arcs are
    its parent's, inverted in base wall wall[i], the same step that
    carries orbit points. So row i holds the chamber w^-1(P) of its
    element w, the chamber around its orbit point; the ball is closed
    under inverses, so these are the chambers of the ball.
    """
    wall_cx = np.array([e.cx for e in poly.edges])
    wall_r = np.array([e.r for e in poly.edges])
    base = np.array([_edge_arc_points(e) for e in poly.edges])
    arcs = np.empty((len(chambers),) + base.shape, dtype=complex)
    arcs[0] = base
    for depth in range(1, int(chambers.depths.max()) + 1):
        rows = np.flatnonzero(chambers.depths == depth)
        s = chambers.wall[rows, None, None]
        arcs[rows] = invert(arcs[chambers.parent[rows]], wall_cx[s],
                            wall_r[s])
    return arcs


def tessellation_svg(poly, chambers, size: int = 640) -> SvgCanvas:
    """Chambers drawn in the unit-disk model, one path per wall of each."""
    z0 = complex(poly.center.x, poly.center.y)
    canvas = SvgCanvas(size, size)
    scale = 0.48 * size
    cx = cy = 0.5 * size
    canvas.circle(cx, cy, scale, stroke="#888")
    arcs = _chamber_arcs(poly, chambers)
    disk = (arcs - z0) / (arcs - np.conjugate(z0))
    for chamber in disk:
        for w in chamber:
            pts = [(cx + scale * u.real, cy - scale * u.imag) for u in w]
            canvas.polyline(pts, stroke="#224", width=0.6)
    return canvas


def orbit_svg(family, size: int = 640) -> SvgCanvas:
    """l(g_k) against k with the affine asymptote overlaid."""
    canvas = SvgCanvas(size, size)
    ks = family.k.astype(float)
    ls = family.length
    asym = family.asymptote()
    pad = 50.0
    kx = (size - 2 * pad) / (ks[-1] - ks[0] if ks[-1] > ks[0] else 1.0)
    ymin, ymax = 0.0, float(max(ls.max(), asym.max()))
    ky = (size - 2 * pad) / (ymax - ymin)

    def to_xy(k, v):
        return (pad + (k - ks[0]) * kx, size - pad - (v - ymin) * ky)

    canvas.polyline([to_xy(ks[0], 0), to_xy(ks[-1], 0)], stroke="#888")
    canvas.polyline([to_xy(k, v) for k, v in zip(ks, asym)],
                    stroke="#c33", width=1.0)
    canvas.polyline([to_xy(k, v) for k, v in zip(ks, ls)],
                    stroke="#236", width=1.5)
    for k, v in zip(ks, ls):
        x, y = to_xy(k, v)
        canvas.circle(x, y, 2.5, fill="#236")
    canvas.text(pad, pad - 16, "translation length of g_k (line: asymptote)")
    return canvas
