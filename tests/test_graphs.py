import json
import math
import time
import typing

import numpy as np
import pytest

from volent.cli import main
from volent.errors import NotStronglyConnected, PowerIterationStalled
from volent.graphs import (MetricGraph, _n_components, _nonbacktracking,
                           graph_entropy, scale_lengths)
from volent.perron import perron_bracket


def as_csr(A):
    # the operator as a scipy CSR matrix: entry (e, f) = data[f] for each
    # of its (e, f) pairs
    import scipy.sparse as sp

    return sp.csr_matrix((A.data[A.cols], (A.rows, A.cols)), shape=A.shape)


def theta_graph():
    # quotient of the 3-regular tree: 2 vertices, 3 parallel unit edges
    return MetricGraph.from_undirected(
        2, [(0, 1, 1.0), (0, 1, 1.0), (0, 1, 1.0)])


def k34():
    # quotient of the (3,4)-biregular tree: complete bipartite K_{3,4}
    return MetricGraph.from_undirected(
        7, [(i, 3 + j, 1.0) for i in range(3) for j in range(4)])


def _tree_ball_slope(degrees, radius=40):
    # ball counting in the universal cover: vertices at distance r
    # alternate between the two degree classes
    counts = [1]
    shell, cls = 1.0, 0
    d = degrees
    shell = d[0]
    counts.append(counts[-1] + shell)
    cls = 1
    for r in range(2, radius + 1):
        shell *= d[cls % len(d)] - 1
        counts.append(counts[-1] + shell)
        cls += 1
    # consecutive-ball log ratio over one period of the degree pattern
    per = len(degrees)
    lo = math.log(counts[radius - per])
    hi = math.log(counts[radius])
    return (hi - lo) / per


def test_three_regular_tree_oracle():
    est = graph_entropy(theta_graph(), tol=1e-10)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-8)
    # ball-counting slope of the 3-regular tree gives the same rate
    assert _tree_ball_slope([3]) == pytest.approx(math.log(2.0), abs=1e-6)


def test_biregular_tree_oracle():
    est = graph_entropy(k34(), tol=1e-10)
    assert est.value == pytest.approx(math.log(6.0) / 2.0, abs=1e-8)
    # even-radius ball slope in the (3,4)-biregular tree
    assert _tree_ball_slope([3, 4]) == pytest.approx(
        math.log(6.0) / 2.0, abs=1e-6)


def test_homogeneity():
    g = theta_graph()
    h = graph_entropy(g, tol=1e-10).value
    for alpha in (0.25, 4.0):
        hs = graph_entropy(scale_lengths(g, alpha), tol=1e-10).value
        assert hs == pytest.approx(h / math.sqrt(alpha), abs=2e-10)
    assert np.allclose(scale_lengths(g, 1.0).length, g.length)
    # a non-finite or non-positive alpha would give lengths that
    # from_undirected refuses, and a solve that stalls instead of failing
    for alpha in (math.nan, math.inf, 0.0, -1.0, 10 ** 400):
        with pytest.raises(ValueError):
            scale_lengths(g, alpha)
    # so is a tol beyond the float range, which bisect_root refuses
    with pytest.raises(ValueError, match="tol"):
        graph_entropy(g, tol=10 ** 400)


def test_single_cycle_is_degenerate():
    g = MetricGraph.from_undirected(4, [(0, 1, 1.0), (1, 2, 0.5),
                                        (2, 3, 2.0), (3, 0, 1.0)])
    est = graph_entropy(g)
    assert est.value == 0.0
    assert est.diagnostics["degenerate"]


def test_disconnected_rejected():
    g = MetricGraph.from_undirected(
        4, [(0, 1, 1.0)] * 3 + [(2, 3, 1.0)] * 3)
    with pytest.raises(NotStronglyConnected):
        graph_entropy(g)


def test_disconnected_with_cycle_component_rejected():
    # a triangle (degree 2) beside a theta graph (degree 3): not all of
    # degree 2, so not degenerate, and two components
    g = MetricGraph.from_undirected(
        5, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)] + [(3, 4, 1.0)] * 3)
    with pytest.raises(NotStronglyConnected, match="2 connected components"):
        graph_entropy(g)


def test_loops_solve():
    # one vertex with two unit loops: its universal cover is the
    # 4-regular tree, so h = ln 3
    bouquet = MetricGraph.from_undirected(1, [(0, 0, 1.0), (0, 0, 1.0)])
    assert abs(graph_entropy(bouquet).value - math.log(3.0)) <= 1e-9
    # a theta graph with a loop on one vertex: rho(B(h)) = 1 at the root
    g = MetricGraph.from_undirected(
        2, [(0, 1, 1.0), (0, 1, 0.7), (0, 1, 1.3), (1, 1, 0.9)])
    h = graph_entropy(g).value
    B = as_csr(_nonbacktracking(g)).toarray()
    B[B > 0] = np.exp(-h * B[B > 0])
    assert abs(max(abs(np.linalg.eigvals(B))) - 1.0) <= 1e-8


def test_connectivity_criterion_matches_csgraph():
    # on seeded random multigraphs with loops and parallel edges, made
    # of one or two random parts, that are not all of degree 2:
    # connected if and only if the non-backtracking operator is
    # strongly connected (irreducible)
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(3)
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 400:
        n, ends = 0, []
        for _ in range(int(rng.integers(1, 3))):
            k = int(rng.integers(1, 6))
            ends += (n + rng.integers(0, k, (int(rng.integers(k, 2 * k + 3)),
                                             2))).tolist()
            n += k
        try:
            g = MetricGraph.from_undirected(n, [(a, b, 1.0) for a, b in ends])
        except ValueError:
            continue   # a terminal vertex
        A = as_csr(_nonbacktracking(g))
        if np.diff(A.indptr).max() <= 1:
            continue   # a union of circuits: degenerate, never checked
        strong = connected_components(A, directed=True,
                                      connection="strong")[0] == 1
        adj = sp.csr_matrix((np.ones(g.n_edges), (g.src, g.dst)),
                            shape=(n, n))
        n_ref = connected_components(adj, directed=False)[0]
        assert _n_components(g) == n_ref
        assert (n_ref == 1) == strong
        seen[strong] += 1
    assert min(seen.values()) >= 100


def test_nonbacktracking_product_matches_csr():
    # the bincount product adds each row's terms in stored order into
    # 0.0, as scipy's CSR product does: equal bit for bit on seeded
    # random multigraphs with loops and parallel edges, at the lengths
    # and at rewritten weights
    rng = np.random.default_rng(11)
    done = 0
    while done < 60:
        n, k = int(rng.integers(1, 12)), int(rng.integers(2, 30))
        ends = rng.integers(0, n, (k, 2)).tolist()
        lengths = rng.uniform(0.1, 3.0, k).tolist()
        try:
            g = MetricGraph.from_undirected(
                n, [(a, b, ln) for (a, b), ln in zip(ends, lengths)])
        except ValueError:
            continue   # a terminal vertex
        A = _nonbacktracking(g)
        assert A.shape == (g.n_edges, g.n_edges)
        assert A.data.shape == (g.n_edges,)
        for _ in range(2):
            v = rng.uniform(0.0, 2.0, g.n_edges)
            assert np.array_equal(A @ v, as_csr(A) @ v)
            A.data = np.exp(-rng.uniform(0.0, 3.0) * A.data)
        done += 1


def _argsort_pairs(g):
    """The operator's (rows, cols) gathered by a stable argsort of src and
    a repeat/cumsum offset per row."""
    m = g.n_edges
    out = np.argsort(g.src, kind="stable")
    deg = np.bincount(g.src, minlength=g.n_vertices)
    first = np.concatenate([[0], np.cumsum(deg)])
    count = deg[g.dst]
    rows = np.repeat(np.arange(m), count)
    offset = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    cols = out[np.repeat(first[g.dst], count) + offset]
    keep = cols != g.rev[rows]
    return rows[keep], cols[keep]


def test_nonbacktracking_pairs_keep_their_order():
    # the pairs gathered by perron's neighbour lists are those of the
    # argsort gather, in the same order: seeded random multigraphs with
    # loops and parallel edges, some (one vertex) with src already
    # grouped, others not
    rng = np.random.default_rng(12)
    done, grouped = 0, 0
    while done < 80:
        n, k = int(rng.integers(1, 12)), int(rng.integers(2, 30))
        ends = rng.integers(0, n, (k, 2)).tolist()
        lengths = rng.uniform(0.1, 3.0, k).tolist()
        try:
            g = MetricGraph.from_undirected(
                n, [(a, b, ln) for (a, b), ln in zip(ends, lengths)])
        except ValueError:
            continue   # a terminal vertex
        A = _nonbacktracking(g)
        rows, cols = _argsort_pairs(g)
        assert np.array_equal(A.rows, rows) and np.array_equal(A.cols, cols)
        grouped += bool(np.all(g.src[1:] >= g.src[:-1]))
        done += 1
    assert 0 < grouped < done


def test_nonbacktracking_hints_resolve():
    # the annotations are strings (postponed evaluation) that must
    # resolve to the module's own names
    assert typing.get_type_hints(_nonbacktracking) == {"g": MetricGraph}


def test_terminal_vertex_rejected():
    with pytest.raises(ValueError):
        MetricGraph.from_undirected(2, [(0, 1, 1.0)])


def test_subdivision_invariance():
    g = theta_graph()
    # split one unit edge into two halves through a new vertex
    g2 = MetricGraph.from_undirected(
        3, [(0, 1, 1.0), (0, 1, 1.0), (0, 2, 0.5), (2, 1, 0.5)])
    a = graph_entropy(g, tol=1e-10).value
    b = graph_entropy(g2, tol=1e-10).value
    assert b == pytest.approx(a, abs=2e-10)


def test_relabeling_invariance():
    perm = {0: 5, 1: 2, 2: 0, 3: 6, 4: 1, 5: 3, 6: 4}
    edges = [(i, 3 + j, 1.0) for i in range(3) for j in range(4)]
    relabeled = [(perm[a], perm[b], ln) for a, b, ln in edges]
    a = graph_entropy(MetricGraph.from_undirected(7, edges), tol=1e-10)
    b = graph_entropy(MetricGraph.from_undirected(7, relabeled), tol=1e-10)
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_spectral_radius_log_convex_in_h():
    rng = np.random.default_rng(0)
    edges = [(0, 1, 0.7), (1, 2, 1.3), (2, 0, 0.9), (0, 2, 1.1),
             (1, 0, 0.8)]
    g = MetricGraph.from_undirected(3, edges)
    A = _nonbacktracking(g)
    length = A.data.copy()

    def spectral_radius(h):
        A.data = np.exp(-h * length)
        lo, hi, _, _ = perron_bracket(A, rtol=1e-13)
        return 0.5 * (lo + hi)

    hs = np.linspace(0.1, 2.0, 9)
    lr = np.array([math.log(spectral_radius(h)) for h in hs])
    d1 = np.diff(lr)
    assert np.all(d1 < 0)           # strictly decreasing
    assert np.all(np.diff(d1) > -1e-9)  # convex


def test_json_round_trip():
    doc = {"vertices": 2, "edges": [{"src": 0, "dst": 1, "len": 1.0}] * 3}
    g = MetricGraph.from_json(json.dumps(doc))
    assert g.n_edges == 6
    assert graph_entropy(g).value == pytest.approx(math.log(2), abs=1e-8)


def test_subdivided_theta_period_three():
    # each of the three paths split into three unit edges: the directed
    # edge graph has period 3 and h = ln 2 / 3
    edges, n = [], 2
    for _ in range(3):
        edges += [(0, n, 1.0), (n, n + 1, 1.0), (n + 1, 1, 1.0)]
        n += 2
    est = graph_entropy(MetricGraph.from_undirected(n, edges), tol=1e-10)
    assert est.value == pytest.approx(math.log(2.0) / 3.0, abs=1e-9)
    assert est.diagnostics["power_iters"] > 0
    assert 0.0 <= est.diagnostics["bracket_width"] < 1e-9


def test_underflowed_operator_fails_fast(tmp_path, capsys):
    # from h ~ 15 the weights exp(-50 h) of the long edges underflow to
    # zero, rows of B(h) vanish and no lower bound can certify rho > 1
    edges = [(0, 1, 0.01)] * 3 + [(1, 2, 50.0), (2, 0, 50.0), (2, 2, 50.0)]
    g = MetricGraph.from_undirected(3, edges)
    t0 = time.perf_counter()
    with pytest.raises(PowerIterationStalled, match="underflow"):
        graph_entropy(g)
    assert time.perf_counter() - t0 < 0.5
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [
        {"src": a, "dst": b, "len": L} for a, b, L in edges]}))
    assert main(["graph", "--file", str(path)]) == 1
    assert "underflow" in capsys.readouterr().err


@pytest.mark.parametrize("g", [
    k34(),
    # parallel edges and a loop
    MetricGraph.from_undirected(3, [(0, 1, 0.7), (1, 2, 1.3), (2, 0, 0.9),
                                    (0, 1, 1.1), (2, 2, 0.5)]),
])
def test_nonbacktracking_matches_definition(g):
    # the vectorized pattern against the loop over edge pairs
    A = as_csr(_nonbacktracking(g)).toarray()
    for e in range(g.n_edges):
        for f in range(g.n_edges):
            linked = g.src[f] == g.dst[e] and f != g.rev[e]
            assert A[e, f] == (g.length[f] if linked else 0.0)


def _seeded_edges(seed: int, kind: str) -> tuple:
    """A cycle with random chords and loops, its triples as `kind` asks:
    plain ints and floats, ints and floats mixed among the lengths (big
    ints too), or numpy integers and floats."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 200))
    ends = [(i, (i + 1) % n) for i in range(n)]
    ends += [tuple(rng.integers(0, n, 2).tolist()) for _ in range(n // 2)]
    lengths = rng.uniform(0.5, 2.0, len(ends)).tolist()
    if kind == "mixed":
        lengths[::3] = rng.integers(1, 5, len(lengths[::3])).tolist()
        lengths[1] = 2 ** 60 + 1
    edges = [(a, b, ln) for (a, b), ln in zip(ends, lengths)]
    if kind == "numpy":
        edges = [(np.int32(a), np.int64(b), np.float64(ln))
                 for a, b, ln in edges]
    return n, edges


@pytest.mark.parametrize("kind", ["int", "mixed", "numpy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_from_undirected_matches_per_edge_definition(seed, kind):
    # the numpy path for plain triples and the per-edge loop for others
    # give the arrays of the definition in bits and dtype: edge 2k runs
    # a -> b and edge 2k+1 back, each the other's reversal
    n, edges = _seeded_edges(seed, kind)
    src, dst, length, rev = [], [], [], []
    for a, b, ln in edges:
        k = len(src)
        src += [a, b]
        dst += [b, a]
        length += [float(ln)] * 2
        rev += [k + 1, k]
    g = MetricGraph.from_undirected(n, edges)
    for got, want in ((g.src, np.asarray(src, dtype=np.int64)),
                      (g.dst, np.asarray(dst, dtype=np.int64)),
                      (g.length, np.asarray(length, dtype=float)),
                      (g.rev, np.asarray(rev, dtype=np.int64))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n,edges", [
    (2, [(0, 1, "1.0")] * 3),
    (2, [(0, 1, True)] * 3),
    (2, [(0, 1, float("nan"))] * 3),
    (2, [(0, 1, float("inf"))] * 3),
    (2, [(0, 1, 0.0)] * 3),
    (2, [(0, 1, -1.0)] * 3),
    (2, [(0, 1, 10 ** 400)] * 3),
    (2, [(0, 1.0, 1.0)] * 3),
    (2, [(False, 1, 1.0)] * 3),
    (2, [(0, "1", 1.0)] * 3),
    (2.0, [(0, 1, 1.0)] * 3),
    (0, []),
    (10 ** 12, [(0, 1, 1.0)] * 3),
])
def test_invalid_input_rejected(n, edges):
    with pytest.raises(ValueError):
        MetricGraph.from_undirected(n, edges)
