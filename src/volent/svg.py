"""Tiny SVG writer and the two figures the CLI can emit.

Hand-rolled on purpose: the output targets documentation, so a few
polylines, circles, and text labels are all that is needed.
"""

from __future__ import annotations

import numpy as np

from .hypgeom import invert

SIZE = 640  # width and height of both figures, in pixels


class SvgCanvas(list):
    """The parts of a SIZE x SIZE document, in order."""

    def polyline(self, points, stroke="black", width=1.0):
        """points is an (n, 2) array of canvas coordinates, formatted in
        one pass."""
        xy = np.asarray(points, dtype=float)
        pts = " ".join(["%.2f,%.2f"] * len(xy)) % tuple(xy.ravel().tolist())
        self.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>')

    def circle(self, cx, cy, r, stroke="black", fill="none"):
        self.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="1.0"/>')

    def text(self, x, y, s):
        self.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="12" '
            f'font-family="sans-serif">{s}</text>')

    def write(self, path: str) -> None:
        """Stream the document to path part by part; it is never joined
        into one string."""
        with open(path, "w") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{SIZE}" height="{SIZE}" '
                     f'viewBox="0 0 {SIZE} {SIZE}">')
            fh.writelines(self)
            fh.write("</svg>")


def _chamber_arcs(poly, chambers) -> np.ndarray:
    """Wall arcs of every row of a ChamberSet, shape (rows, p, points).

    The base chamber's arcs move along the walk's tree: row i's arcs are
    its parent's, inverted in base wall wall[i], the same step that
    carries orbit points. So row i holds the chamber w^-1(P) of its
    element w, the chamber around its orbit point; the ball is closed
    under inverses, so these are the chambers of the ball.
    """
    walls = poly.walls
    # 24 points along each base wall segment, shape (p, 24)
    psi = np.linspace(2.0 * np.arctan(np.exp(walls.s_lo)),
                      2.0 * np.arctan(np.exp(walls.s_hi)), 24, axis=-1)
    base = walls.cx[:, None] + walls.r[:, None] * np.exp(1j * psi)
    arcs = np.empty((len(chambers),) + base.shape, dtype=complex)
    arcs[0] = base
    for depth in range(1, int(chambers.depths.max()) + 1):
        rows = np.flatnonzero(chambers.depths == depth)
        s = chambers.wall[rows, None, None]
        arcs[rows] = invert(arcs[chambers.parent[rows]], walls.cx[s],
                            walls.r[s])
    return arcs


def tessellation_svg(poly, chambers) -> SvgCanvas:
    """Chambers drawn in the unit-disk model, one path per wall of each."""
    z0 = complex(poly.center.x, poly.center.y)
    canvas = SvgCanvas()
    scale = 0.48 * SIZE
    cx = cy = 0.5 * SIZE
    canvas.circle(cx, cy, scale, stroke="#888")
    arcs = _chamber_arcs(poly, chambers)
    disk = (arcs - z0) / (arcs - np.conjugate(z0))
    # each stage is freed once the next exists, so drawing peaks no
    # higher than holding the arcs and their disk images did
    del arcs
    xy = np.stack((cx + scale * disk.real, cy - scale * disk.imag), axis=-1)
    del disk
    for arc in xy.reshape(-1, *xy.shape[-2:]):
        canvas.polyline(arc, stroke="#224", width=0.6)
    return canvas


def orbit_svg(family) -> SvgCanvas:
    """l(g_k) against k with the affine asymptote overlaid."""
    canvas = SvgCanvas()
    ks = family.k.astype(float)
    ls = family.length
    asym = family.asymptote()
    pad = 50.0
    kx = (SIZE - 2 * pad) / (ks[-1] - ks[0] if ks[-1] > ks[0] else 1.0)
    ymin, ymax = 0.0, float(max(ls.max(), asym.max()))
    ky = (SIZE - 2 * pad) / (ymax - ymin)

    def to_xy(k, v):
        return (pad + (k - ks[0]) * kx, SIZE - pad - (v - ymin) * ky)

    canvas.polyline([to_xy(ks[0], 0), to_xy(ks[-1], 0)], stroke="#888")
    canvas.polyline(np.column_stack(to_xy(ks, asym)), stroke="#c33")
    canvas.polyline(np.column_stack(to_xy(ks, ls)), stroke="#236",
                    width=1.5)
    for k, v in zip(ks, ls):
        x, y = to_xy(k, v)
        canvas.circle(x, y, 2.5, fill="#236")
    canvas.text(pad, pad - 16, "translation length of g_k (line: asymptote)")
    return canvas
