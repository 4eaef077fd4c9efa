"""Volume entropy of metric graphs.

Universal covers of finite metric graphs without terminal vertices are
trees, and geodesics in a tree never backtrack. The entropy is the
unique h > 0 at which the non-backtracking edge operator, weighted by
exp(-h * length of the entered edge), has spectral radius one (Lim,
"Minimal volume entropy for graphs", Trans. AMS 360, 2008). Its sparsity
pattern is built once; each bisection step only rewrites the weights
and reads a certified sign of rho - 1 from the shifted power iteration
of volent.perron, so periodic edge graphs solve too. A graph whose
vertices all have degree 2 (a union of circuits) grows linearly and
gets entropy 0 with a degenerate flag instead. Any other graph solves
if and only if it is connected: for a graph of minimum degree >= 2
that is not a union of circuits, the operator is irreducible exactly
when the graph is connected (Glover and Kempton, Linear Algebra Appl.
618, 2021), so its vertices' connected components are counted instead
of the operator's strong components. The operator (_NonBacktracking)
is built and multiplied with numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (NotStronglyConnected, _above, _int, _is_finite, _is_int,
                     _require)
from .perron import WarmPerron, bisect_root
from .symbolic import EntropyEstimate


@dataclass(frozen=True)
class MetricGraph:
    """Finite metric graph as directed edge arrays.

    Undirected edges appear as two directed copies; rev[e] is the index
    of the reversal of e. Every vertex must have undirected degree >= 2
    (no terminal vertices) and all lengths must be positive.
    """

    n_vertices: int
    src: np.ndarray
    dst: np.ndarray
    length: np.ndarray
    rev: np.ndarray

    @staticmethod
    def from_undirected(n_vertices: int, edges) -> "MetricGraph":
        """Build from (src, dst, length) triples, one per undirected edge.

        Raises ValueError unless the vertex count and indices are
        integers (not bools), indices lie in range, lengths are finite
        positive numbers and no vertex is terminal.
        """
        edges = list(edges)
        _require("vertex count", n_vertices, *_int(1))
        if n_vertices > len(edges):
            # degrees sum to 2 * len(edges), so some degree is below 2
            raise ValueError("terminal vertex (undirected degree < 2)")
        src, dst, length, rev = [], [], [], []
        for (a, b, ln) in edges:
            if not (_is_int(a) and _is_int(b)
                    and 0 <= a < n_vertices and 0 <= b < n_vertices):
                raise ValueError(f"vertex index is not an integer in [0, "
                                 f"{n_vertices}) in edge {(a, b)!r}")
            if not (_is_finite(ln) and ln > 0):
                raise ValueError(f"edge length {ln!r} is not a finite "
                                 "positive number")
            ln = float(ln)
            k = len(src)
            src += [a, b]
            dst += [b, a]
            length += [ln, ln]
            rev += [k + 1, k]
        g = MetricGraph(
            n_vertices=n_vertices,
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            length=np.asarray(length, dtype=float),
            rev=np.asarray(rev, dtype=np.int64),
        )
        deg = np.bincount(np.concatenate([g.src, g.dst]),
                          minlength=n_vertices) // 2
        if deg.min() < 2:
            raise ValueError("terminal vertex (undirected degree < 2)")
        return g

    @staticmethod
    def from_json(text: str) -> "MetricGraph":
        """Parse {"vertices": n, "edges": [{"src", "dst", "len"}, ...]}."""
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("edges"), list)
                and all(isinstance(e, dict) for e in doc["edges"])):
            raise ValueError('graph JSON must be {"vertices": n, "edges": '
                             '[{"src": a, "dst": b, "len": l}, ...]}')
        edges = [(e["src"], e["dst"], e["len"]) for e in doc["edges"]]
        return MetricGraph.from_undirected(doc["vertices"], edges)

    @property
    def n_edges(self) -> int:
        return self.src.shape[0]


def scale_lengths(g: MetricGraph, alpha: float) -> MetricGraph:
    """Scale the metric tensor by alpha, i.e. lengths by sqrt(alpha)."""
    _require("alpha", alpha, *_above())
    return MetricGraph(n_vertices=g.n_vertices, src=g.src, dst=g.dst,
                       length=g.length * math.sqrt(alpha), rev=g.rev)


def _n_components(g: MetricGraph) -> int:
    """Number of connected components of g.

    Each vertex holds a label: a vertex of its own component, no larger
    than itself. Every round, for each directed edge u -> v, the label
    of u's label falls to v's label if that is smaller, and then each
    label is replaced by its label's label. Labels only fall, so the
    rounds end; at the end every edge joins equal labels and every label
    labels itself, so the vertices that label themselves are one per
    component.
    """
    label = np.arange(g.n_vertices)
    while True:
        new = label.copy()
        np.minimum.at(new, label[g.src], label[g.dst])
        new = new[new]
        if np.array_equal(new, label):
            return int(np.count_nonzero(label == np.arange(g.n_vertices)))
        label = new


class _NonBacktracking:
    """Non-backtracking edge operator: B[e, f] = data[f] for each pair
    (e, f) = (rows[k], cols[k]), rows ascending. data holds one value
    per edge, m in all, since an entry depends only on the entered edge
    f.

    B @ v adds each row's terms in stored order into 0.0, as a CSR
    matrix product does, and each term is the same product
    data[f] * v[f], so the two products agree bit for bit.
    """

    def __init__(self, rows, cols, data):
        self.rows, self.cols, self.data = rows, cols, data
        self.shape = (data.size, data.size)

    def __matmul__(self, v):
        return np.bincount(self.rows, (self.data * v).take(self.cols),
                           self.shape[0])


def _nonbacktracking(g: MetricGraph):
    """Non-backtracking edge operator, data = length of the entered edge
    (a copy, so the weights may be rewritten in place).

    Row e holds every edge f leaving dst[e] except rev[e], so its
    length is deg(dst[e]) - 1; columns come out sorted.
    """
    m = g.n_edges
    out = np.argsort(g.src, kind="stable")          # edges grouped by source
    deg = np.bincount(g.src, minlength=g.n_vertices)
    first = np.concatenate([[0], np.cumsum(deg)])
    count = deg[g.dst]
    rows = np.repeat(np.arange(m), count)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    cols = out[np.repeat(first[g.dst], count) + offset]
    keep = cols != g.rev[rows]
    return _NonBacktracking(rows[keep], cols[keep], g.length.copy())


def graph_entropy(g: MetricGraph, tol: float = 1e-10) -> EntropyEstimate:
    """Unique h >= 0 with spectral radius of the weighted adjacency = 1,
    bisected on certified signs of rho(B(h)) - 1.

    Returns 0 with a degenerate flag when every vertex has degree 2 (a
    union of circuits: rho = 1 at h = 0, linear growth). Otherwise
    NotStronglyConnected, naming the count, unless g is connected.
    """
    if np.bincount(g.src).max() <= 2:
        return EntropyEstimate(value=0.0, err=0.0, method="graph_spectral",
                               diagnostics={"degenerate": True,
                                            "rho_at_0": 1.0})
    # not all of degree 2, so irreducible if and only if connected
    n_comp = _n_components(g)
    if n_comp != 1:
        raise NotStronglyConnected(
            f"graph has {n_comp} connected components, so its directed "
            "edge graph is not strongly connected")
    rho = WarmPerron(_nonbacktracking(g), 1.0, 0.0, rtol=1e-13,
                     max_iter=200_000)
    # doubling from 1 stops at 2**19, the last upper end below the
    # runaway cap 1e6
    h, iters, _ = bisect_root(rho.above, 0.0, 1.0, tol, hi_cap=2.0 ** 19)
    return EntropyEstimate(value=h, err=tol, method="graph_spectral",
                           diagnostics={"degenerate": False,
                                        "bisection_iters": iters,
                                        "power_iters": rho.steps,
                                        "bracket_width": rho.width})
