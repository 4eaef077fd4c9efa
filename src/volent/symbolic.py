"""Cutting sequences, Birkhoff sums, and the cross-section pressure solver.

A geodesic in the quotient is coded by the ordered list of walls it
crosses, with the flight length between consecutive crossings and the
weight ln q collected at each crossing. A CuttingSequence holds that
list as one CROSSING structured array, filled straight from the
single-ray tracer's arrays and the polygon's log_q column, and the
Birkhoff sums along it are numpy expressions over its columns. The
geodesic itself is the tracer's state: hypgeom.HGeodesic is a basepoint
and a unit tangent.

The first return map of the geodesic flow to the wall cross-section is
discretized on a grid of (edge, position, incidence angle) cells
(Ulam's method); the volume entropy is then the unique h at which the
weighted transfer matrix

    B(h)[i -> j] = mass_ij * q(j) * exp((1 - h) * L_ij)

has spectral radius one, where mass_ij is the empirical transition
probability, L_ij the mean return length of the observed i -> j
transitions, and q(j) the branching parameter of the landing wall. The
exp(+L) factor is the unstable Jacobian of the return map, exact in
curvature -1; dividing the transfer operator of the potential
ln q - h L by the geometric potential in this way is what turns the
empirical (absolutely continuous) transition masses into an estimator
of the topological pressure rather than of the SRB pressure, which is
identically zero. With q = 1 the matrix is stochastic at h = 1, so the
solver recovers the hyperbolic-plane entropy exactly there. The root is
bisected on signs of rho - 1 certified by the Collatz-Wielandt brackets
of the shifted power iteration in volent.perron, which converges
whatever the period of the transition graph.

build_cross_section streams its samples: it draws every sample's two
uniforms up front, in the order one full-length draw makes them, then
places, launches and traces slices of whole cells (about tracing.BLOCK
samples each), keeping a landing cell, a flight length and a flag per
sample, 17 bytes. Vertex-grazing samples are redrawn after that pass,
then the (src, dst) counts and length sums are taken slice by slice and
concatenated. Every step is per sample, the samples are in cell order
and each transition's samples lie in one slice, summed in sample order,
so the model is bit-identical to one pass over all samples at once.

The model keeps the largest strongly connected component of the
transition graph, found by volent.perron.strong_components with numpy
alone. scipy is imported only by _pressure_rho, which builds the
sparse matrix of the root solve, so a process that only builds models,
traces geodesics or sums along them never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DEFAULT_H_TOL, EPS_POWER
from .errors import (NotIrreducible, VertexHit, _int, _is_finite, _require,
                     _two)
from .hypgeom import CoxeterPolygon, HGeodesic, WallTable
from .perron import WarmPerron, bisect_root, strong_components
from .tracing import (BLOCK, LOST, NEAR_VERTEX, OK, batch_first_crossing,
                      launch, trace)


# One row per wall crossing: flow time, crossed wall of the base
# polygon, ln of its branching parameter, and the section coordinates
# (foot position along the wall, incidence angle).
CROSSING = np.dtype([("t", np.float64), ("edge_label", np.int64),
                     ("log_q", np.float64), ("u", np.float64),
                     ("theta", np.float64)])


@dataclass(frozen=True)
class CuttingSequence:
    """Ordered wall crossings of one geodesic over a time span.

    crossings is a CROSSING structured array in time order.
    """

    crossings: np.ndarray
    t_span: tuple


def _trace_checked(walls: WallTable, x, y, dx, dy, t_max):
    j, t, u, th, flag = trace(walls, x, y, dx, dy, t_max)
    if flag == NEAR_VERTEX:
        raise VertexHit("geodesic passed near a tessellation vertex")
    if flag == LOST:
        raise VertexHit("degenerate geodesic geometry during tracing")
    return j, t, u, th


def _trace_span(walls: WallTable, x, y, dx, dy, t0, t1) -> np.ndarray:
    """CROSSING rows with t in (t0, t1], tracing backward when t0 < 0.

    The backward crossings, reversed and negated, precede the forward
    ones, so the rows are in time order without a sort.
    """
    parts = []
    if t0 < 0.0:
        j, t, u, th = _trace_checked(walls, x, y, -dx, -dy, -t0)
        k = np.flatnonzero(-t <= t1)[::-1]
        parts.append((j[k], -t[k], u[k], th[k]))
    if t1 > 0.0:
        j, t, u, th = _trace_checked(walls, x, y, dx, dy, t1)
        k = t > t0
        parts.append((j[k], t[k], u[k], th[k]))
    j, t, u, th = (np.concatenate(col) for col in zip(*parts))
    rows = np.empty(t.size, dtype=CROSSING)
    rows["t"], rows["edge_label"], rows["log_q"] = t, j, walls.log_q[j]
    rows["u"], rows["theta"] = u, th
    return rows


def cutting_sequence(geodesic: HGeodesic, t_span: tuple,
                     poly: CoxeterPolygon) -> CuttingSequence:
    """All wall crossings of the geodesic with time in (t0, t1].

    Edge labels refer to walls of the base polygon after folding by the
    reflection group. Backward crossings (t < 0) store the section
    coordinates seen by the reversed flow. ValueError, naming t_span,
    unless t_span is a tuple or list of two finite numbers t0 < t1.
    """
    _require("t_span", t_span, *_two("finite numbers"))
    t0, t1 = t_span
    for end in (t0, t1):
        _require("t_span", end, _is_finite, "a finite number at each end")
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    p = geodesic.basepoint
    rows = _trace_span(poly.walls, p.x, p.y, *geodesic.tangent, t0, t1)
    return CuttingSequence(crossings=rows, t_span=(float(t0), float(t1)))


def _tent_antiderivative(x: np.ndarray) -> np.ndarray:
    # integral of max(0, 1 - |s|) from -inf to x, elementwise
    x = np.clip(x, -1.0, 1.0)
    return np.where(x <= 0.0, 0.5 * (x + 1.0) ** 2, 1.0 - 0.5 * (1.0 - x) ** 2)


def birkhoff_f_integral(seq: CuttingSequence, a: float, b: float) -> float:
    """Integral over [a, b] of f along the flow.

    f at flow time t sums ln q(H) * max(0, 1 - |t - t_H|) over wall
    crossings H, so the integral is a sum of clipped unit-tent masses.
    The sequence must cover (a - 1, b + 1).
    """
    t0, t1 = seq.t_span
    if t0 > a - 1.0 or t1 < b + 1.0:
        raise ValueError("cutting sequence span too short for this integral")
    t = seq.crossings["t"]
    mass = _tent_antiderivative(b - t) - _tent_antiderivative(a - t)
    return float(np.dot(seq.crossings["log_q"], mass))


def thickness_log_product(seq: CuttingSequence, a: float, b: float) -> float:
    """ln of the product of branching parameters crossed in [a, b]."""
    t = seq.crossings["t"]
    inside = (a <= t) & (t <= b)
    return float(seq.crossings["log_q"][inside].sum())


def birkhoff_lq_integral(seq: CuttingSequence, T: float) -> float:
    """Integral over [0, T] of ln q / l along the flow.

    Between consecutive crossings the integrand is constant: l is the
    gap length and q the entry crossing's branching parameter. The
    sequence must contain a crossing at or before 0 and one beyond T.
    """
    t = seq.crossings["t"]
    if len(t) < 2 or t[0] > 0.0 or t[-1] < T:
        raise ValueError("cutting sequence does not bracket [0, T]")
    lo, hi = t[:-1], t[1:]
    overlap = np.maximum(np.minimum(hi, T) - np.maximum(lo, 0.0), 0.0)
    lnq = seq.crossings["log_q"][:-1]
    return float((lnq / (hi - lo) * overlap).sum())


@dataclass(frozen=True)
class EntropyEstimate:
    """An entropy value with an error bar and provenance."""

    value: float
    err: float
    method: str
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UlamModel:
    """Discretized cross-section return map.

    States index (edge, u-cell, theta-cell) triples, restricted to the
    largest strongly connected component of the observed transition
    graph. src/dst/mass/mean_L are parallel arrays of the observed
    transitions; mass is the empirical transition probability (rows sum
    to one) and mean_L the mean return length. The pressure matrix
    weights each transition by mass * q of its landing wall. poly is the
    polygon the model was sampled on; the refinement resamples it.
    """

    poly: CoxeterPolygon
    n_u: int
    n_theta: int
    k: int
    seed: int
    states: np.ndarray       # (n_states, 3) int: edge, u-cell, theta-cell
    src: np.ndarray
    dst: np.ndarray
    mass: np.ndarray
    mean_L: np.ndarray
    diagnostics: dict

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def q_of_state(self, idx: np.ndarray) -> np.ndarray:
        # the caller's q as floats: exp(log_q) would not round-trip
        qarr = np.asarray(self.poly.q, dtype=float)
        return qarr[self.states[idx, 0]]


_MAX_RETRIES = 8


def _landings(poly: CoxeterPolygon, n_u: int, n_th: int, K: int, seed: int,
              step: int) -> tuple:
    """(cell, length, flag) of every sample of build_cross_section.

    cell is the landing cell, set only where flag is OK; length is the
    flight time. The samples are placed, launched and traced in slices
    of step samples; flagged ones are then redrawn as
    build_cross_section says.
    """
    walls, ell = poly.walls, poly.edge_length
    n_cells = n_u * n_th
    per_cell = K * K
    n = poly.p * n_cells * per_cell
    cell = np.empty(n, dtype=np.int64)
    length = np.empty(n)
    flag = np.empty(n, dtype=np.int8)

    def flow(idx, su, st):
        # sample slot idx % K^2 of cell idx // K^2, stratified K x K
        # within the cell by the uniforms su, st, launched and traced to
        # its first crossing
        src, slot = np.divmod(idx, per_cell)
        edges = src // n_cells
        u = ((src // n_th) % n_u + (slot // K + su) / K) / n_u * ell
        th = (src % n_th + (slot % K + st) / K) / n_th * math.pi
        x, y, dx, dy = launch(walls, edges, u, th)
        j, t, u2, th2, f = batch_first_crossing(walls, x, y, dx, dy,
                                                prev=edges)
        ok = f == OK
        iu2 = np.clip((u2[ok] / ell * n_u).astype(np.int64), 0, n_u - 1)
        ith2 = np.clip((th2[ok] / math.pi * n_th).astype(np.int64), 0,
                       n_th - 1)
        cell[idx[ok]] = j[ok] * n_cells + iu2 * n_th + ith2
        length[idx], flag[idx] = t, f

    rng = np.random.default_rng(seed)
    su, st = rng.random(n), rng.random(n)
    for a in range(0, n, step):
        flow(np.arange(a, min(a + step, n)), su[a:a + step], st[a:a + step])
    del su, st
    for _ in range(_MAX_RETRIES):
        bad = np.flatnonzero(flag != OK)
        if bad.size == 0:
            break
        # every first draw is made, so a redraw shifts no other sample
        flow(bad, rng.random(bad.size), rng.random(bad.size))
    return cell, length, flag


def _transitions(cell, length, ok, per_cell: int, n_states: int,
                 step: int) -> tuple:
    """(key, count, total length) of each observed src -> dst transition,
    key = src * n_states + dst ascending, over the samples where ok.

    Counted per slice of step samples; step is a multiple of per_cell,
    so every key's samples lie in one slice.
    """
    keys, counts, totals = [], [], []
    for a in range(0, cell.size, step):
        good = np.flatnonzero(ok[a:a + step]) + a
        key = good // per_cell * n_states + cell[good]
        uniq, inv = np.unique(key, return_inverse=True)
        keys.append(uniq)
        counts.append(np.bincount(inv))
        totals.append(np.bincount(inv, weights=length[good]))
    return (np.concatenate(keys), np.concatenate(counts).astype(float),
            np.concatenate(totals))


def _check_grid(grid) -> None:
    _require("grid", grid, *_two("integers >= 4"))
    for name, n in zip(("grid N_u", "grid N_theta"), grid):
        _require(name, n, *_int(4))


def build_cross_section(poly: CoxeterPolygon, grid: tuple, K: int,
                        seed: int) -> UlamModel:
    """Discretize the wall-crossing return map on an (N_u, N_theta) grid.

    Each cell launches K^2 stratified sample vectors from its wall and
    flows them to the next crossing; each sample deposits mass 1/K^2
    into its landing cell along with the flight length. All samples come
    from one stream seeded by seed, first draws in sample order. Samples
    flagged as vertex-grazing are then redrawn in their own stratum, in
    sample order, a bounded number of times, and finally discarded with
    the cell mass renormalized.

    The samples are traced, and their transitions then counted, in
    slices of whole cells of about tracing.BLOCK samples, with 17 bytes
    per sample kept between the two passes (landing cell, flight length,
    flag). The model is bit-identical for every slice size, and to one
    pass over all samples; the module docstring says why.

    ValueError, naming it, unless grid is a tuple or list of two integers
    N_u, N_theta >= 4, and K >= 1 and seed >= 0 are integers (numpy ints
    count, bools do not).
    """
    _check_grid(grid)
    n_u, n_th = grid
    _require("K", K, *_int(1))
    _require("seed", seed, *_int(0))
    n_states = poly.p * n_u * n_th
    per_cell = K * K
    step = max(1, BLOCK // per_cell) * per_cell
    cell, length, flag = _landings(poly, n_u, n_th, K, seed, step)
    good = flag == OK
    discarded = int(np.count_nonzero(~good))
    uniq, cnt, tot_L = _transitions(cell, length, good, per_cell, n_states,
                                    step)
    del cell, length, flag, good

    tr_src = uniq // n_states
    tr_dst = uniq % n_states
    mean_L = tot_L / cnt
    out_per_src = np.bincount(tr_src, weights=cnt, minlength=n_states)
    mass = cnt / out_per_src[tr_src]

    # restrict to the largest strongly connected component, of equal
    # ones the one holding the lowest state
    n_comp, labels = strong_components(tr_src, tr_dst, n_states)
    sizes = np.bincount(labels, minlength=n_comp)
    big = int(np.argmax(sizes))
    keep_state = labels == big
    if sizes[big] < 2:
        raise NotIrreducible("no nontrivial strongly connected component")
    new_index = -np.ones(n_states, dtype=np.int64)
    new_index[keep_state] = np.arange(int(sizes[big]))
    keep_tr = keep_state[tr_src] & keep_state[tr_dst]
    tr_src2 = new_index[tr_src[keep_tr]]
    tr_dst2 = new_index[tr_dst[keep_tr]]
    mass2 = mass[keep_tr]
    # renormalize rows after dropping transitions leaving the component
    row_mass = np.bincount(tr_src2, weights=mass2, minlength=int(sizes[big]))
    mass2 = mass2 / row_mass[tr_src2]

    state_ids = np.nonzero(keep_state)[0]
    states = np.column_stack([state_ids // (n_u * n_th),
                              (state_ids // n_th) % n_u,
                              state_ids % n_th])
    diagnostics = {
        "discarded_samples": discarded,
        "total_samples": int(n_states * per_cell),
        "scc_states": int(sizes[big]),
        "grid_states": int(n_states),
        "n_components": int(n_comp),
    }
    return UlamModel(
        poly=poly, n_u=n_u, n_theta=n_th, k=K, seed=seed,
        states=states, src=tr_src2, dst=tr_dst2,
        mass=mass2, mean_L=mean_L[keep_tr], diagnostics=diagnostics)


def _pressure_rho(model: UlamModel) -> WarmPerron:
    """Warm-started brackets of rho(B(h)) on the model's transitions."""
    import scipy.sparse as sp

    if model.n_states == 0:
        raise NotIrreducible("empty model")
    # the (src, dst) pairs are unique and row-major (np.unique of
    # src * n + dst, renumbered monotonically), so the CSR data keeps
    # the order of the model's arrays and the weight lines up with it
    B = sp.csr_matrix((model.mean_L, (model.src, model.dst)),
                      shape=(model.n_states,) * 2)
    return WarmPerron(B, model.mass * model.q_of_state(model.dst),
                      shift=1.0, rtol=EPS_POWER, max_iter=20000)


def _log_radius(rho: WarmPerron, h: float) -> float:
    lo, hi = rho.bracket(h)
    if hi == 0.0:
        raise NotIrreducible("transition matrix has a dead row block")
    return math.log(0.5 * (lo + hi))


def pressure_log_radius(model: UlamModel, h: float) -> float:
    """ln spectral radius of the weighted transition matrix at h.

    Strictly decreasing in h; its root is the entropy estimate. The
    value is the midpoint of a Collatz-Wielandt bracket of relative
    width EPS_POWER. ValueError unless h is a finite number.
    """
    _require("h", h, _is_finite, "a finite number")
    return _log_radius(_pressure_rho(model), h)


class PressureCurve(list):
    """[(h, pressure_log_radius)] rows, for CSV export, with the counters
    of their evaluation: power_iters (kernel steps over all points) and
    max_bracket_width (the widest Collatz-Wielandt bracket)."""

    power_iters = 0
    max_bracket_width = 0.0


def pressure_curve(model: UlamModel, h_values) -> PressureCurve:
    """[(h, pressure_log_radius)] rows, for CSV export.

    Each point starts from the extrapolation of the previous points'
    Perron vectors (WarmPerron). It and a single pressure_log_radius call
    are midpoints of brackets that both hold the spectral radius, so
    they differ by at most half the sum of the two widths. ValueError
    unless every h is a finite number.
    """
    rho = _pressure_rho(model)
    curve = PressureCurve()
    for h in h_values:
        _require("h", h, _is_finite, "a finite number")
        curve.append((float(h), _log_radius(rho, float(h))))
        curve.max_bracket_width = max(curve.max_bracket_width, rho.width)
    curve.power_iters = rho.steps
    return curve


def _solve_root(model: UlamModel, bracket: tuple, tol: float) -> tuple:
    """(h, counters) of the pressure root, bisected on certified signs.

    All mean_L > 0, so every entry of B(h) and rho decrease strictly in
    h: one sign change, located by the bracket ends alone.
    """
    rho = _pressure_rho(model)
    h, iters, widened = bisect_root(rho.above, max(bracket[0], 0.0),
                                    bracket[1], tol, hi_cap=50.0)
    return h, {"bisection_iters": iters, "bracket_widened": widened,
               "power_iters": rho.steps, "bracket_width": rho.width}


# solve_entropy's refinement multiplies each grid side by REFINE.
REFINE = 2

# build_cross_section counters that solve_entropy passes on.
MODEL_COUNTERS = ("scc_states", "grid_states", "discarded_samples",
                  "total_samples")


def _check_bracket(bracket) -> None:
    _require("bracket", bracket, *_two("finite numbers"))
    for end in bracket:
        _require("bracket end", end, _is_finite, "a finite number")


def solve_entropy(model: UlamModel, bracket: tuple = (0.5, 4.0),
                  tol: float = DEFAULT_H_TOL,
                  refine: bool = True) -> EntropyEstimate:
    """Entropy as the root of the pressure log radius, by bisection.

    The diagnostics count the root solve on this model: bisection_iters,
    bracket_widened, power_iters (kernel steps) and bracket_width (the
    last Collatz-Wielandt bracket). They also carry the model's own
    counters (MODEL_COUNTERS: states kept and sampled, samples drawn and
    discarded), so they reach the report. With refine=True the root on
    a grid REFINE times finer per side (refined_root) enters the error
    bar as the dominant discretization term (with_refinement); the two
    can also run apart, as `volent entropy` runs them in two processes.
    ValueError, naming bracket, unless it is a tuple or list of two
    finite numbers (not bools). A lower end below 0, which the CLI's
    pressure.bracket accepts, is raised to 0: the entropy is not
    negative.
    """
    _check_bracket(bracket)
    h, counters = _solve_root(model, bracket, tol)
    diagnostics = dict(counters, grid=[model.n_u, model.n_theta],
                       k=model.k, seed=model.seed)
    diagnostics.update((key, model.diagnostics[key])
                       for key in MODEL_COUNTERS)
    est = EntropyEstimate(value=h, err=tol, method="ulam_pressure",
                          diagnostics=diagnostics)
    if refine:
        est = with_refinement(est, refined_root(
            model.poly, (model.n_u, model.n_theta), model.k, model.seed,
            bracket, tol))
    return est


def refined_root(poly: CoxeterPolygon, grid: tuple, K: int, seed: int,
                 bracket: tuple = (0.5, 4.0),
                 tol: float = DEFAULT_H_TOL) -> float:
    """The pressure root of the model build_cross_section(poly, grid, K,
    seed) would give on a grid REFINE times finer per side.

    Input checks and errors are those of build_cross_section and
    solve_entropy.
    """
    _check_bracket(bracket)
    _check_grid(grid)
    fine = build_cross_section(poly, (REFINE * grid[0], REFINE * grid[1]),
                               K, seed)
    return _solve_root(fine, bracket, tol)[0]


def with_refinement(est: EntropyEstimate,
                    h_refined: float) -> EntropyEstimate:
    """An unrefined solve_entropy estimate with the refined root folded
    in: err = tol + |h_refined - h| and diagnostics["h_refined"]."""
    return EntropyEstimate(
        value=est.value, err=est.err + abs(h_refined - est.value),
        method=est.method, diagnostics=dict(est.diagnostics,
                                            h_refined=h_refined))
