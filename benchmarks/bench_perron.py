"""Benchmark: the Perron root solves and the pressure curve.

Four tasks:

- graphs: `graph_entropy(tol=1e-10)` over a fixed seeded set of metric
  graphs;
- ulam_root: the root solve `solve_entropy(refine=False)` on the
  default polygon's Ulam models (K=3) at 32x32 and 64x64 for seeds 0,
  1, 2;
- curve: the 21-point `pressure_curve` that `volent entropy` writes to
  `curves.csv`, on the 32x32 model for seeds 0, 1, 2, over
  h_root +- 0.5. It records the kernel steps (counted by wrapping
  `volent.perron.perron_bracket`, so a checkout without curve counters
  is counted the same way) and the largest |difference| from a cold
  single `pressure_log_radius` call at each point;
- sweep: kernel-step counts of the shift alpha = c * (lo + hi) / 2 of
  the first bracket and of the order of the value-mode start
  extrapolation (0: the previous point's iterate, k: the degree-k
  Lagrange polynomial through the last k+1 ln v), from this script's
  own copy of the iteration: the curve on the seed-0 32x32 model, the
  two root solves of the default run (32x32 and 64x64, seed 0) and the
  graphs task's graph set (its edge graphs built by
  `volent.graphs._nonbacktracking`). At the shipped c = 1/4 and order
  3 its counts equal the checkout's own in the curve, ulam_root and
  graphs tasks.

Each timing is the median over repeats; every result value, the solver
counters found in `diagnostics` and the machine are recorded. Apart
from the sweep, only public functions are called, so the script runs
against any checkout of the package: point PYTHONPATH at its `src/`.

Usage:
    PYTHONPATH=src python benchmarks/bench_perron.py --label change \\
        [--repeats 5] [--tasks graphs,ulam_root,curve,sweep] \\
        [--out BENCH_perron.json]

A run is stored under `runs[label]` of the output file, keeping the
other labels, so a before/after pair lands in one file.
"""

import argparse
import json
import os
import platform
import random
import statistics
import time

import numpy as np
import scipy
import scipy.sparse as sp

import volent
import volent.perron
from volent.errors import VolentError
from volent.graphs import MetricGraph, graph_entropy
from volent.hypgeom import regular_polygon
from volent.perron import bisect_root
from volent.symbolic import (build_cross_section, pressure_curve,
                             pressure_log_radius, solve_entropy)

COUNTERS = ("bisection_iters", "power_iters", "bracket_width")
TASKS = ("graphs", "ulam_root", "curve", "sweep")


def graph_set(seed: int = 0) -> dict:
    """Groups of (name, MetricGraph): regular graphs and cycles with
    random chords, and graphs with every edge split into three unit
    edges (period-3 edge graphs)."""
    rng = random.Random(seed)

    def chorded(n, length):
        pairs = [(i, (i + 1) % n) for i in range(n)]
        pairs += [tuple(rng.sample(range(n), 2)) for _ in range(n // 2)]
        return [(a, b, length()) for a, b in pairs]

    plain = []
    for name, n in (("K4", 4), ("K5", 5)):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        plain.append((name, MetricGraph.from_undirected(
            n, [(a, b, 1.3) for a, b in pairs])))
    for i in range(12):
        n = round(16 * (2000 / 16) ** (i / 11))
        plain.append((f"chorded-{n}", MetricGraph.from_undirected(
            n, chorded(n, lambda: rng.uniform(0.5, 2.0)))))
    split = []
    for i in range(2):
        edges, n = [], 12
        for a, b, _ in chorded(12, lambda: 1.0):
            edges += [(a, n, 1.0), (n, n + 1, 1.0), (n + 1, b, 1.0)]
            n += 2
        split.append((f"subdivided-{i}", MetricGraph.from_undirected(n, edges)))
    return {"plain": plain, "subdivided": split}


def counters(diagnostics: dict) -> dict:
    return {k: diagnostics[k] for k in COUNTERS if k in diagnostics}


def time_graphs(graphs, repeats: int) -> dict:
    times, results = [], []
    for _ in range(repeats):
        results = []
        t0 = time.perf_counter()
        for name, g in graphs:
            try:
                est = graph_entropy(g, tol=1e-10)
                results.append({"graph": name, "h": repr(est.value),
                                **counters(est.diagnostics)})
            except VolentError as exc:
                results.append({"graph": name, "error": type(exc).__name__})
        times.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(times), "runs_s": times,
            "results": results}


def default_model(grid: int, seed: int):
    poly = regular_polygon(5, 2, (2, 2, 2, 2, 2))
    return build_cross_section(poly, (grid, grid), 3, seed)


def time_ulam(repeats: int) -> list:
    rows = []
    for grid in (32, 64):
        for seed in (0, 1, 2):
            model = default_model(grid, seed)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                est = solve_entropy(model, refine=False)
                times.append(time.perf_counter() - t0)
            rows.append({"grid": grid, "seed": seed,
                         "states": model.n_states, "h": repr(est.value),
                         "median_s": statistics.median(times),
                         "runs_s": times, **counters(est.diagnostics)})
    return rows


class StepCounter:
    """Counts the kernel steps of every perron_bracket call while
    active, by wrapping the module function WarmPerron calls."""

    def __enter__(self):
        self.steps, self._inner = 0, volent.perron.perron_bracket

        def counted(*args, **kwargs):
            out = self._inner(*args, **kwargs)
            self.steps += out[3]
            return out

        volent.perron.perron_bracket = counted
        return self

    def __exit__(self, *exc):
        volent.perron.perron_bracket = self._inner


def time_curve(repeats: int) -> list:
    rows = []
    for seed in (0, 1, 2):
        model = default_model(32, seed)
        h = solve_entropy(model, refine=False).value
        hs = np.linspace(h - 0.5, h + 0.5, 21)
        times = []
        for _ in range(repeats):
            with StepCounter() as count:
                t0 = time.perf_counter()
                curve = pressure_curve(model, hs)
                times.append(time.perf_counter() - t0)
        delta = max(abs(p - pressure_log_radius(model, x)) for x, p in curve)
        rows.append({"grid": 32, "seed": seed, "states": model.n_states,
                     "points": len(curve), "power_iters": count.steps,
                     "max_bracket_width": curve.max_bracket_width,
                     "max_abs_delta_cold": delta,
                     "median_s": statistics.median(times), "runs_s": times})
    return rows


class SweepPerron:
    """This script's copy of WarmPerron with the shift fraction c and
    the extrapolation order as parameters; steps counts kernel steps."""

    def __init__(self, B, weight, length, shift, rtol, c, order):
        self.B, self.weight, self.length, self.shift = B, weight, length, shift
        self.rtol, self.c, self.order = rtol, c, order
        self.v, self.history, self.steps = None, [], 0

    def _start(self, h):
        if self.order == 0 or len(self.history) < 2:
            return self.v
        y = sum(np.prod([(h - hk) / (hj - hk) for hk, _ in self.history
                         if hk != hj]) * yj for hj, yj in self.history)
        v = np.exp(y - y.max())
        return v if np.all(v > 0.0) else self.v

    def bracket(self, h, target=None):
        self.B.data = self.weight * np.exp((self.shift - h) * self.length)
        v = self.v if target is not None else self._start(h)
        if v is None:
            v = np.ones(self.B.shape[0])
        for step in range(1, 200_001):
            w = self.B @ v
            ratio = w / v
            lo, hi = float(ratio.min()), float(ratio.max())
            if step == 1:
                alpha = self.c * 0.5 * (lo + hi)
            if (hi - lo <= self.rtol * hi
                    or target is not None and (lo > target or hi < target)):
                break
            v = w + alpha * v
            v /= v.max()
        else:
            raise RuntimeError("no certified bracket in 200000 steps")
        self.v, self.steps = v, self.steps + step
        if target is None:
            kept = [(g, y) for g, y in self.history if g != h]
            self.history = kept[max(0, len(kept) - self.order):] + [
                (h, np.log(v))]
        return lo, hi

    def above(self, h):
        lo, hi = self.bracket(h, target=1.0)
        return lo + hi > 2.0


def ulam_sweeper(model, c, order):
    ij, shape = (model.src, model.dst), (model.n_states,) * 2
    B = sp.csr_matrix((model.mean_L, ij), shape=shape)
    W = sp.csr_matrix((model.mass * model.q_of_state(model.dst), ij),
                      shape=shape)
    return SweepPerron(B, W.data, B.data.copy(), 1.0, 1e-10, c, order)


def sweep() -> dict:
    from volent.graphs import _nonbacktracking

    coarse, fine = default_model(32, 0), default_model(64, 0)
    h = solve_entropy(coarse, refine=False).value
    hs = np.linspace(h - 0.5, h + 0.5, 21)
    # each edge graph with its lengths: a bracket overwrites A.data
    edge_graphs = [(A, A.data.copy()) for A in (
        _nonbacktracking(g) for group in graph_set().values()
        for _, g in group)]

    def curve_steps(c, order):
        rho = ulam_sweeper(coarse, c, order)
        for x in hs:
            rho.bracket(float(x))
        return rho.steps

    def root_steps(model, c):
        rho = ulam_sweeper(model, c, 0)
        bisect_root(rho.above, 0.5, 4.0, 1e-4, hi_cap=50.0)
        return rho.steps

    def graph_steps(c):
        total = 0
        for A, length in edge_graphs:
            rho = SweepPerron(A, 1.0, length, 0.0, 1e-13, c, 0)
            bisect_root(rho.above, 0.0, 1.0, 1e-10, hi_cap=2.0 ** 19)
            total += rho.steps
        return total

    shifts = [{"c": c, "curve_plain_warm": curve_steps(c, 0),
               "root_32": root_steps(coarse, c),
               "root_64": root_steps(fine, c),
               "graphs": graph_steps(c)}
              for c in (1.0, 0.5, 0.25, 0.125)]
    orders = [{"c": 0.25, "order": k, "curve": curve_steps(0.25, k)}
              for k in range(7)]
    return {"shifts": shifts, "orders": orders}


def machine() -> dict:
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "volent": volent.__version__}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tasks", default=",".join(TASKS))
    ap.add_argument("--out", default="BENCH_perron.json")
    args = ap.parse_args()
    tasks = args.tasks.split(",")
    unknown = set(tasks) - set(TASKS)
    if unknown:
        ap.error(f"unknown tasks {sorted(unknown)}")

    run = {"machine": machine(), "repeats": args.repeats}
    if "graphs" in tasks:
        run["graphs"] = {k: time_graphs(v, args.repeats)
                         for k, v in graph_set().items()}
    if "ulam_root" in tasks:
        run["ulam_root"] = time_ulam(args.repeats)
    if "curve" in tasks:
        run["curve"] = time_curve(args.repeats)
    if "sweep" in tasks:
        run["sweep"] = sweep()
    doc = {"script": "benchmarks/bench_perron.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for k, r in run.get("graphs", {}).items():
        ok = sum("h" in x for x in r["results"])
        print(f"graph_entropy {k:<10} {len(r['results']):3d} graphs "
              f"({ok} solved)  median {r['median_s']:.3f} s")
    for r in run.get("ulam_root", []):
        print(f"ulam root {r['grid']}x{r['grid']} seed {r['seed']}  "
              f"h = {float(r['h']):.6f}  median {r['median_s']:.3f} s")
    for r in run.get("curve", []):
        print(f"curve 32x32 seed {r['seed']}  {r['power_iters']} steps  "
              f"max |delta| {r['max_abs_delta_cold']:.2e}  "
              f"median {r['median_s']:.3f} s")
    if "sweep" in run:
        for r in run["sweep"]["shifts"]:
            print(f"shift c = {r['c']:<6} curve {r['curve_plain_warm']:5d}  "
                  f"roots {r['root_32']} {r['root_64']}  "
                  f"graphs {r['graphs']}")
        for r in run["sweep"]["orders"]:
            print(f"order {r['order']}  curve {r['curve']}")


if __name__ == "__main__":
    main()
