import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import volent.graphs
import volent.perron
import volent.symbolic
from volent.errors import BracketFailed, PowerIterationStalled
from volent.graphs import MetricGraph, _nonbacktracking, graph_entropy
from volent.hypgeom import regular_polygon
from volent.perron import (SparseRows, WarmPerron, bisect_root,
                          perron_bracket, strong_components)
from volent.symbolic import build_cross_section, solve_entropy


def k4_operator(L, h):
    g = MetricGraph.from_undirected(
        4, [(a, b, L) for a in range(4) for b in range(a + 1, 4)])
    A = _nonbacktracking(g)
    A.data = np.exp(-h * A.data)
    return A


@pytest.mark.parametrize("L,h", [(1.0, 0.0), (0.7, 0.4), (1.9, 1.3)])
def test_k4_bracket_contains_exact_radius(L, h):
    # K4 is 3-regular: every non-backtracking row holds two entries
    # exp(-h L), so rho(h) = 2 exp(-h L) exactly
    A = k4_operator(L, h)
    rho = 2.0 * math.exp(-h * L)
    rtol = 1e-13
    starts = [None, np.random.default_rng(0).uniform(0.1, 1.0, A.shape[0])]
    for v in starts:
        lo, hi, v_out, _, steps = perron_bracket(A, v, rtol=rtol)
        assert lo <= rho * (1 + 1e-15) and rho * (1 - 1e-15) <= hi
        assert hi - lo <= rtol * hi
        assert np.all(v_out > 0)


def test_periodic_matrix_converges():
    # weighted directed 3-cycle of 2-blocks: period 3, where averaging
    # successive growth ratios never settles; rho = (2 * 3 * 0.5)**(1/3)
    z = np.zeros((2, 2))
    P = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.block([[z, P, z], [z, z, 1.5 * P], [0.25 * P, z, z]])
    lo, hi, _, _, _ = perron_bracket(B, rtol=1e-13)
    rho = (2 * 3.0 * 0.5) ** (1.0 / 3.0)
    assert lo <= rho * (1 + 1e-15) and rho * (1 - 1e-15) <= hi
    assert hi - lo <= 1e-13 * hi


def test_period_six_graph_certifies():
    # a 7-cycle with chords 0-3 and 2-5, every edge split into 6 unit
    # edges: all cycles of the split graph have lengths divisible by 6,
    # the base's have gcd 1, so the edge graph has period 6. The shift of
    # a quarter of rho leaves its peripheral ratio at
    # |e^(i pi/3) + 1/4| / (5/4) ~ 0.92, so the value certifies to 1e-13
    # in a few hundred steps, and rho is the sixth root of the base's
    base = [(i, (i + 1) % 7, 1.0) for i in range(7)] + [(0, 3, 1.0),
                                                        (2, 5, 1.0)]
    split, n = [], 7
    for a, b, _ in base:
        chain = [a] + list(range(n, n + 5)) + [b]
        split += [(u, w, 1.0) for u, w in zip(chain, chain[1:])]
        n += 5
    A = _nonbacktracking(MetricGraph.from_undirected(n, split))
    lo, hi, _, _, steps = perron_bracket(A, rtol=1e-13, max_iter=2000)
    assert hi - lo <= 1e-13 * hi and steps < 2000
    blo, bhi, _, _, _ = perron_bracket(
        _nonbacktracking(MetricGraph.from_undirected(7, base)), rtol=1e-13)
    assert lo <= bhi ** (1 / 6) * (1 + 1e-15)
    assert blo ** (1 / 6) * (1 - 1e-15) <= hi


def test_warm_perron_extrapolated_start_falls_back():
    # value-mode brackets start from the extrapolated iterate; a stored
    # non-finite ln v makes that start unusable, so the last iterate is
    # used and the bracket still certifies the exact radius 2 exp(-h)
    A = k4_operator(1.0, 0.0)
    rho = WarmPerron(A, 1.0, 0.0, rtol=1e-13, max_iter=10_000)
    for h in (0.1, 0.2, 0.3, 0.3):
        rho.bracket(h)
    assert [g for g, _ in rho.history] == [0.1, 0.2, 0.3]
    rho.history[-1] = (0.3, np.full(A.shape[0], np.nan))
    lo, hi = rho.bracket(0.4)
    assert lo <= 2.0 * math.exp(-0.4) * (1 + 1e-15)
    assert 2.0 * math.exp(-0.4) * (1 - 1e-15) <= hi
    assert np.all(np.isfinite(rho.v))


@pytest.mark.parametrize("history", [1, 2, 3, 4])
def test_warm_perron_keeps_history_entries(monkeypatch, history):
    # order k of the start extrapolation is _HISTORY = k + 1 stored
    # iterates; _HISTORY = 1 is the plain warm start from the last one
    monkeypatch.setattr(volent.perron, "_HISTORY", history)
    rho = WarmPerron(k4_operator(1.0, 0.0), 1.0, 0.0, rtol=1e-13,
                     max_iter=10_000)
    hs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    for i, h in enumerate(hs):
        rho.bracket(h)
        assert [g for g, _ in rho.history] == hs[max(0, i + 1 - history):i + 1]


def test_sign_mode_stops_once_target_excluded():
    A = k4_operator(1.0, 0.5)
    lo, hi, _, _, _ = perron_bracket(A, np.linspace(1.0, 2.0, A.shape[0]),
                                     rtol=1e-13, target=1.0)
    assert lo > 1.0
    assert hi - lo > 1e-13 * hi


def test_zero_matrix_and_stall():
    lo, hi, _, _, steps = perron_bracket(np.zeros((3, 3)))
    assert (lo, hi, steps) == (0.0, 0.0, 1)
    # reducible: the two diagonal blocks have radii 1 and 2, so the
    # bracket stays [1, 2] and the cap is typed
    B = np.diag([1.0, 2.0])
    with pytest.raises(PowerIterationStalled):
        perron_bracket(B, max_iter=50)


def test_bisect_root_rules():
    calls = []

    def above(h):
        calls.append(h)
        return h < 3.3

    h, iters, widened = bisect_root(above, 0.0, 1.0, 1e-9, hi_cap=8.0)
    assert h == pytest.approx(3.3, abs=1e-9)
    assert widened == 2 and calls[:4] == [0.0, 1.0, 2.0, 4.0]
    with pytest.raises(BracketFailed):
        bisect_root(above, 0.0, 1.0, 1e-9, hi_cap=2.0)
    with pytest.raises(BracketFailed):
        bisect_root(above, 3.5, 4.0, 1e-9, hi_cap=50.0)
    # a tolerance below the float spacing still terminates
    h, _, _ = bisect_root(above, 0.0, 4.0, 0.0, hi_cap=50.0)
    assert h == pytest.approx(3.3, abs=1e-15)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, pytest.param(
    10 ** 400, id="int-beyond-float")])
def test_bisect_root_refuses_bad_tol(tol):
    # hi - lo > nan is never true and hi - lo > -1 always is, so neither
    # may pass as a width; no sign is evaluated first
    def above(h):
        raise AssertionError("evaluated with a refused tol")

    with pytest.raises(ValueError, match="tol"):
        bisect_root(above, 0.0, 1.0, tol, hi_cap=8.0)


@pytest.mark.parametrize("lo, hi", [(0.0, -1.0), (0.0, 0.0), (0.0, math.inf),
                                   (math.nan, 1.0)])
def test_bisect_root_refuses_bad_bracket(lo, hi):
    # an upper end <= 0 never grows by doubling, so the widening loop
    # would never end; this sign raises instead of hanging
    calls = []

    def above(h):
        calls.append(h)
        if len(calls) > 1000:
            raise AssertionError("the upper end never grew")
        return True

    with pytest.raises(ValueError, match="lo < hi"):
        bisect_root(above, lo, hi, 1e-9, hi_cap=8.0)
    assert calls == []


def _csgraph_components(src, dst, n):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    adj = sp.csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return connected_components(adj, directed=True, connection="strong")


def _random_digraph(rng):
    """(src, dst, n): blocks of random edges joined by edges from lower
    to higher blocks only, so that each block's components stay apart,
    plus self-loops and states without edges."""
    n = int(rng.integers(1, 120))
    cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 6))))
    block = np.searchsorted(cuts, np.arange(n), side="right")
    m = int(rng.integers(0, 3 * n))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = block[src] <= block[dst]
    src, dst = src[keep], dst[keep]
    loops = rng.integers(0, n, int(rng.integers(0, 5)))
    src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    # states left out of every edge stay isolated
    alone = rng.random(n) < 0.1
    keep = ~alone[src] & ~alone[dst]
    return src[keep], dst[keep], n


def test_strong_components_match_csgraph():
    # the partition and count of scipy's strong components, on seeded
    # random digraphs with self-loops, repeated edges, empty rows,
    # isolated states and several nontrivial components
    rng = np.random.default_rng(11)
    nontrivial = 0
    for _ in range(300):
        src, dst, n = _random_digraph(rng)
        n_comp, labels = strong_components(src, dst, n)
        n_ref, ref = _csgraph_components(src, dst, n)
        assert n_comp == n_ref
        assert len(set(zip(labels.tolist(), ref.tolist()))) == n_comp
        sizes = np.bincount(labels, minlength=n_comp)
        nontrivial += np.count_nonzero(sizes > 1) > 1
        # numbered by lowest state: each label first appears in order
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0) and labels.max(initial=-1) == \
            n_comp - 1
    assert nontrivial >= 30


def test_strong_components_edge_cases():
    assert strong_components([], [], 0)[0] == 0
    n_comp, labels = strong_components([], [], 3)
    assert n_comp == 3 and labels.tolist() == [0, 1, 2]
    # a self-loop alone is a component of one state
    n_comp, labels = strong_components([1, 0], [1, 2], 3)
    assert n_comp == 3 and labels.tolist() == [0, 1, 2]


def test_strong_components_tie_takes_lowest_state():
    # two 2-cycles, {1, 4} and {2, 3}, fed by state 0: argmax of the
    # sizes picks the component of state 1, whatever the pivot order
    src, dst = [3, 2, 4, 1, 0, 0], [2, 3, 1, 4, 2, 4]
    n_comp, labels = strong_components(src, dst, 5)
    assert n_comp == 3
    sizes = np.bincount(labels)
    assert np.flatnonzero(labels == np.argmax(sizes)).tolist() == [1, 4]


def _csr_in_input_order(rows, cols, data, n):
    # scipy's CSR matrix of the entries, each row's in input order, with
    # repeated pairs kept apart (the (data, indices, indptr) form neither
    # sorts nor sums them)
    import scipy.sparse as sp

    grouped = np.argsort(rows, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((data[grouped], cols[grouped], indptr),
                         shape=(n, n))


def _assert_product_matches(B, C, rng):
    # B @ v, in B's state order, equals C @ v bit for bit
    for _ in range(2):
        v = rng.uniform(0.0, 2.0, B.shape[0])
        assert np.array_equal(B @ v[B.order], (C @ v)[B.order])


def test_sparse_rows_product_matches_csr():
    # seeded random patterns with empty rows, one-term rows, rows of 10
    # or more terms and repeated columns, at the data and at rewritten
    # data
    rng = np.random.default_rng(5)
    seen = {"empty": 0, "one": 0, "long": 0, "repeated": 0}
    for _ in range(200):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 6 * n))
        rows = rng.integers(0, n, m) ** 2 // n    # skewed row lengths
        cols = rng.integers(0, n, m)
        deg = np.bincount(rows, minlength=n)
        seen["empty"] += np.any(deg == 0)
        seen["one"] += np.any(deg == 1)
        seen["long"] += np.any(deg >= 10)
        seen["repeated"] += np.unique(rows * n + cols).size < m
        data = rng.uniform(0.1, 3.0, m)
        B = SparseRows(rows, cols, n)
        assert B.shape == (n, n) and np.all(B.data == 0.0)
        assert np.array_equal(np.sort(B.entries), np.arange(m))
        B.data = data[B.entries]
        _assert_product_matches(B, _csr_in_input_order(rows, cols, data, n),
                                rng)
        data = np.exp(-rng.uniform(0.0, 3.0) * data)
        B.data[:] = data[B.entries]
        _assert_product_matches(B, _csr_in_input_order(rows, cols, data, n),
                                rng)
    assert min(seen.values()) >= 20


@pytest.fixture(scope="module")
def default_models():
    poly = regular_polygon(5, 2, (2,) * 5)
    return [build_cross_section(poly, (g, g), 3, 0) for g in (32, 64)]


def _ulam_pair(model):
    # the model's pressure matrix at h = shift as a SparseRows and as the
    # CSR matrix scipy builds, with the weight in each one's entry order
    import scipy.sparse as sp

    weight = model.mass * model.q_of_state(model.dst)
    B = SparseRows(model.src, model.dst, model.n_states)
    B.data = model.mean_L[B.entries]
    C = sp.csr_matrix((model.mean_L, (model.src, model.dst)),
                      shape=(model.n_states,) * 2)
    assert np.array_equal(C.data, model.mean_L)
    return (B, weight[B.entries]), (C, weight)


def test_sparse_rows_matches_csr_on_ulam_models(default_models):
    # the default 32x32 and 64x64 models, at the mean lengths and after
    # WarmPerron rewrote the data
    rng = np.random.default_rng(0)
    for model in default_models:
        (B, wb), (C, wc) = _ulam_pair(model)
        _assert_product_matches(B, C, rng)
        for A, w in ((B, wb), (C, wc)):
            WarmPerron(A, w, 1.0, rtol=1e-12, max_iter=20000).bracket(1.7)
        assert np.array_equal(B.data, C.data[B.entries])
        _assert_product_matches(B, C, rng)


@pytest.mark.parametrize("target", [None, 1.0])
def test_warm_perron_same_over_sparse_rows_and_csr(default_models, target):
    # the same brackets and step counts, bit for bit, along a fixed h
    # sequence in value mode (extrapolated starts) and in sign mode
    # (warm starts)
    hs = [1.2, 1.5, 1.5, 1.0, 1.8, 1.76, 1.77, 2.4, 0.7]
    for model in default_models:
        (B, wb), (C, wc) = _ulam_pair(model)
        ours = WarmPerron(B, wb, 1.0, rtol=1e-12, max_iter=20000)
        ref = WarmPerron(C, wc, 1.0, rtol=1e-12, max_iter=20000)
        for h in hs:
            assert ours.bracket(h, target) == ref.bracket(h, target)
            assert (ours.steps, ours.width) == (ref.steps, ref.width)
            assert np.array_equal(ours.v, ref.v[B.order])


class _Recording(WarmPerron):
    """A WarmPerron that keeps its root enclosure after each sign bracket,
    each (h, sign) it read from the enclosure alone, and the arguments
    and result of its root solve."""

    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.enclosures, self.skips = [], []
        _Recording.made.append(self)

    def above(self, h):
        skipped = self.skipped
        out = super().above(h)
        if self.skipped > skipped:
            self.skips.append((h, out))
        return out

    def _sign(self, h):
        out = super()._sign(h)
        self.enclosures.append((self.low, self.high))
        return out

    def root(self, lo, hi, tol, hi_cap):
        self.args = lo, hi, tol, hi_cap
        self.result = super().root(lo, hi, tol, hi_cap)
        return self.result


def _reference_root(rho, lo, hi, tol, hi_cap):
    """bisect_root's loop with every sign read from a sign bracket of rho:
    (h, iters, widened, certified), certified when every bracket
    excluded 1."""
    certified = True

    def above(h):
        nonlocal certified
        a, b = rho.bracket(h, target=1.0)
        certified &= not a <= 1.0 <= b
        return a + b > 2.0

    assert above(lo)
    widened = 0
    while above(hi):
        hi = min(2.0 * hi, hi_cap)
        widened += 1
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if above(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters, widened, certified


def _assert_skips_certify(rho, skips):
    """Each sign read from the enclosure is the one a sign bracket from a
    cold start certifies: the bracket excludes 1 on the same side."""
    for h, out in skips:
        rho.v = None
        a, b = rho.bracket(h, target=1.0)
        assert (a > 1.0) if out else (b < 1.0)


def test_skipped_signs_certify_at_coarse_rtol():
    # unit edges: ln rho(h) = ln rho(0) - h falls at exactly the least
    # slope, so signs within 2 * rtol of the root in ln rho are left to
    # the rtol stop; at rtol = 1e-6 the enclosure's margin must keep
    # every such h inside it, as the rounding allowance alone would not.
    # The degrees differ, so the brackets are not exact from the start.
    g = MetricGraph.from_undirected(
        6, [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(0, 3, 1.0),
                                                         (1, 4, 1.0)])
    rho = _Recording(_nonbacktracking(g), 1.0, 0.0, rtol=1e-6,
                     max_iter=10_000)
    h, _, _ = rho.root(0.0, 1.0, 0.0, 64.0)
    assert h == pytest.approx(_dense_graph_root(g), abs=1e-5)
    assert len(rho.skips) > 10
    _assert_skips_certify(WarmPerron(_nonbacktracking(g), 1.0, 0.0,
                                     rtol=1e-6, max_iter=10_000), rho.skips)


def test_nonbacktracking_left_vector():
    # the quotient the probes read ln rho from needs data * v[rev] to be a
    # left Perron vector whenever v is the right one
    g = MetricGraph.from_undirected(
        5, [(i, (i + 1) % 5, 0.5 + 0.3 * i) for i in range(5)]
        + [(0, 2, 1.7), (1, 3, 0.9)])
    A = _nonbacktracking(g)
    A.data = np.exp(-0.4 * A.data)
    D = np.zeros(A.shape)
    D[A.rows, A.cols] = A.data[A.cols]
    vals, vecs = np.linalg.eig(D)
    k = np.argmax(vals.real)
    v = np.abs(vecs[:, k].real)
    u = A.left(v)
    assert np.allclose(D.T @ u, vals[k].real * u, rtol=1e-12, atol=1e-14)


def _dense_graph_root(g):
    """Root of rho(B(h)) = 1 from the eigenvalues of the dense
    non-backtracking matrix, in [0, ln(max degree - 1) / min length]."""
    A = _nonbacktracking(g)

    def log_rho(h):
        D = np.zeros(A.shape)
        D[A.rows, A.cols] = np.exp(-h * A.data[A.cols])
        return math.log(np.abs(np.linalg.eigvals(D)).max())

    hi = math.log(np.bincount(g.src).max() - 1) / g.length.min()
    return brentq(log_rho, 0.0, hi, xtol=1e-14)


@functools.cache
def _ulam(grid, seed, q):
    """(model, dense root or None) of an Ulam model; the dense root, from
    numpy eigenvalues, only on the 8x8 grid."""
    model = build_cross_section(regular_polygon(5, 2, q), (grid, grid), 2,
                                seed)
    if grid != 8:
        return model, None
    n = model.n_states
    w = model.mass * model.q_of_state(model.dst)

    def log_rho(h):
        D = np.zeros((n, n))
        D[model.src, model.dst] = w * np.exp((1.0 - h) * model.mean_L)
        return math.log(np.abs(np.linalg.eigvals(D)).max())

    return model, brentq(log_rho, 0.5, 4.0, xtol=1e-14)


@st.composite
def _cases(draw):
    """("graph", MetricGraph) or ("ulam", (grid, seed, q)): cycles with
    chords and lengths in [0.5, 2], the same with every edge split into
    three unit edges (a period-3 edge graph), and 8x8 and 16x16 models."""
    kind = draw(st.sampled_from(["graph", "subdivided", "ulam"]))
    if kind == "ulam":
        return kind, (draw(st.sampled_from([8, 16])),
                      draw(st.integers(0, 1)),
                      draw(st.sampled_from([(2,) * 5, (2, 3, 2, 3, 4)])))
    n = draw(st.integers(4, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    pairs = [(i, (i + 1) % n) for i in range(n)]
    pairs += draw(st.lists(pair, min_size=1, max_size=n))
    if kind == "graph":
        length = st.floats(0.5, 2.0)
        return kind, MetricGraph.from_undirected(
            n, [(a, b, draw(length)) for a, b in pairs])
    edges = []
    for a, b in pairs:
        edges += [(a, n, 1.0), (n, n + 1, 1.0), (n + 1, b, 1.0)]
        n += 2
    return kind, MetricGraph.from_undirected(n, edges)


@settings(max_examples=60, deadline=None)
@given(case=_cases(), tol=st.sampled_from([1e-4, 1e-10, 0.0]))
def test_enclosure_keeps_the_bisection(case, tol):
    # the solver reads some signs from its root enclosure, yet returns
    # the (h, bisection_iters, bracket_widened) of a bisection that
    # evaluates every sign, bit for bit whenever each of that bisection's
    # signs was certified. A sign bracket that stops at rtol with 1 inside
    # (within a margin of the root, as at tol = 0) reads its midpoint,
    # which depends on the warm start, so there the two agree within tol
    # plus the two margins. Every enclosure contains the root.
    kind, data = case
    _Recording.made.clear()
    if kind == "ulam":
        model, root = _ulam(*data)
        with mock.patch.object(volent.symbolic, "WarmPerron", _Recording):
            d = solve_entropy(model, tol=tol, refine=False).diagnostics
        fresh, cold = (volent.symbolic._pressure_rho(model)
                       for _ in range(2))
    else:
        with mock.patch.object(volent.graphs, "WarmPerron", _Recording):
            d = graph_entropy(data, tol=tol).diagnostics
        root = _dense_graph_root(data)
        fresh, cold = (WarmPerron(_nonbacktracking(data), 1.0, 0.0,
                                  rtol=1e-13, max_iter=200_000)
                       for _ in range(2))
    rec, = _Recording.made
    _assert_skips_certify(cold, rec.skips)
    h, _, counters = rec.result
    iters, widened = counters["bisection_iters"], counters["bracket_widened"]
    assert d["bisection_iters"] == iters
    assert (d["sign_brackets"], d["skipped_signs"]) == (rec.signs,
                                                        rec.skipped)
    h_ref, iters_ref, widened_ref, certified = _reference_root(fresh,
                                                               *rec.args)
    assert widened == widened_ref
    if certified:
        assert (h, iters) == (h_ref, iters_ref)
    else:
        assert abs(h - h_ref) <= tol + 2.0 * rec._margin(h)
    lows, highs = zip(*rec.enclosures)
    assert list(lows) == sorted(lows) and list(highs) == sorted(highs)[::-1]
    low, high = rec.enclosures[-1]
    if root is not None:
        assert low <= root <= high
    else:
        # no dense root: the last (narrowest) enclosure's ends are
        # certified by cold Collatz-Wielandt brackets, rho(low) > 1 >
        # rho(high)
        for end, above in ((low, True), (high, False)):
            cold.v = None
            a, b = cold.bracket(end, target=1.0)
            assert (a > 1.0) if above else (b < 1.0)


_COUNTERS = {"bisection_iters", "bracket_widened", "power_iters",
             "bracket_width", "sign_brackets", "skipped_signs"}


def _chorded_graphs(seed, count):
    """Seeded cycles with 1 to n random chords and lengths in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 11))
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs += [tuple(rng.choice(n, 2, replace=False).tolist())
                  for _ in range(int(rng.integers(1, n + 1)))]
        yield MetricGraph.from_undirected(
            n, [(a, b, float(rng.uniform(0.5, 2.0))) for a, b in pairs])


def test_root_err_certified_at_tol_zero_on_graphs():
    # at tol = 0 the last bracket has no width, so err is the enclosure's
    # margin: more than 0, and the root lies within it. A plain bisection
    # on sign brackets is within its own margin of the root, so within
    # 2 err of h
    for g in _chorded_graphs(5, 20):
        est = graph_entropy(g, tol=0.0)
        assert est.err > 0.0
        assert abs(est.value - _dense_graph_root(g)) <= est.err
        rho = WarmPerron(_nonbacktracking(g), 1.0, 0.0, rtol=1e-13,
                         max_iter=200_000)
        h_ref = _reference_root(rho, 0.0, 1.0, 0.0, 2.0 ** 19)[0]
        assert abs(est.value - h_ref) <= 2.0 * est.err


@pytest.mark.parametrize("q", [(2,) * 5, (2, 3, 2, 3, 4)])
def test_root_err_certified_at_tol_zero_on_ulam(q):
    model, root = _ulam(8, 0, q)
    est = solve_entropy(model, tol=0.0, refine=False)
    assert est.err > 0.0
    assert abs(est.value - root) <= est.err
    # err is tol wherever tol / 2 exceeds the margin, as at the default
    assert solve_entropy(model, tol=1e-4, refine=False).err == 1e-4


def test_estimates_carry_the_root_record():
    # graph_entropy and solve_entropy report the record of their root
    # solve: its h, its err and its six counters, unchanged
    g = next(_chorded_graphs(7, 1))
    model, _ = _ulam(8, 1, (2,) * 5)
    for module, solve in ((volent.graphs, lambda: graph_entropy(g)),
                          (volent.symbolic, lambda: solve_entropy(
                              model, refine=False))):
        _Recording.made.clear()
        with mock.patch.object(module, "WarmPerron", _Recording):
            est = solve()
        rec, = _Recording.made
        h, err, counters = rec.result
        assert set(counters) == _COUNTERS
        assert (est.value, est.err) == (h, err)
        assert {k: est.diagnostics[k] for k in counters} == counters


def test_ulam_power_iters_counts_each_product():
    # an Ulam operator gives no left vector, so its secant reads bracket
    # midpoints and every product B @ v is a power step; the record is
    # the one recorded before the graph quotient stopped running its own
    # product: repr(h), repr(err), bisection_iters, sign_brackets,
    # skipped_signs and power_iters
    model, _ = _ulam(8, 0, (2,) * 5)
    real, products = SparseRows.__matmul__, []

    def counted(self, v):
        products.append(v.size)
        return real(self, v)

    with mock.patch.object(SparseRows, "__matmul__", counted):
        est = solve_entropy(model, refine=False)
    d = est.diagnostics
    assert (repr(est.value), repr(est.err), d["bisection_iters"],
            d["sign_brackets"], d["skipped_signs"], d["power_iters"]) == (
        "1.7500419616699219", "0.0001", 16, 9, 16, 46)
    assert len(products) == d["power_iters"]
