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
        positive numbers and no vertex is terminal. Triples of plain
        ints and floats are checked with numpy; any other input, and any
        that fails a check there, goes through the per-edge loop, which
        raises at the first bad edge.
        """
        edges = list(edges)
        _require("vertex count", n_vertices, *_int(1))
        if n_vertices > len(edges):
            # degrees sum to 2 * len(edges), so some degree is below 2
            raise ValueError("terminal vertex (undirected degree < 2)")
        ends = _plain_edges(n_vertices, edges)
        if ends is None:
            ends = _checked_edges(n_vertices, edges)
        a, b, ln = ends
        m = 2 * len(edges)
        src = np.empty(m, dtype=np.int64)
        dst = np.empty(m, dtype=np.int64)
        src[0::2] = dst[1::2] = a
        src[1::2] = dst[0::2] = b
        g = MetricGraph(n_vertices=n_vertices, src=src, dst=dst,
                        length=np.repeat(ln, 2),
                        rev=np.arange(m, dtype=np.int64) ^ 1)
        # dst is a permutation of src, so src alone counts each end once
        if np.bincount(src, minlength=n_vertices).min() < 2:
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


def _plain_edges(n: int, edges: list):
    """(a, b, length) arrays of triples of plain ints and floats that pass
    every check of _checked_edges, or None."""
    try:
        if set(map(len, edges)) != {3}:
            return None
    except TypeError:       # an edge without a length
        return None
    a, b, ln = zip(*edges)
    if not (set(map(type, a + b)) == {int}
            and set(map(type, ln)) <= {int, float}):
        return None
    try:
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        ln = np.array(ln, dtype=float)
    except OverflowError:   # beyond int64 or the float range
        return None
    ok = ((a >= 0) & (a < n) & (b >= 0) & (b < n)
          & np.isfinite(ln) & (ln > 0)).all()
    return (a, b, ln) if ok else None


def _checked_edges(n: int, edges: list) -> tuple:
    """(a, b, length) arrays of the triples, each checked in turn."""
    a, b, ln = [], [], []
    for (u, v, length) in edges:
        if not (_is_int(u) and _is_int(v) and 0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex index is not an integer in [0, "
                             f"{n}) in edge {(u, v)!r}")
        if not (_is_finite(length) and length > 0):
            raise ValueError(f"edge length {length!r} is not a finite "
                             "positive number")
        a.append(u)
        b.append(v)
        ln.append(float(length))
    return (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
            np.asarray(ln, dtype=float))


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
