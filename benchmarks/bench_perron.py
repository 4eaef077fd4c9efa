"""Benchmark: the Perron root solves of the graph and pressure entropies.

Times `graph_entropy(tol=1e-10)` over a fixed seeded set of metric
graphs, and the root solve `solve_entropy(refine=False)` on the default
polygon's Ulam models (K=3) at 32x32 and 64x64 for seeds 0, 1, 2. Each
timing is the median over repeats; every result value, the solver
counters found in `diagnostics` and the machine are recorded. Only
public functions are called, so the script runs against any checkout
of the package: point PYTHONPATH at its `src/`.

Usage:
    PYTHONPATH=src python benchmarks/bench_perron.py --label change \\
        [--repeats 5] [--out BENCH_perron.json]

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

import volent
from volent.errors import VolentError
from volent.graphs import MetricGraph, graph_entropy
from volent.hypgeom import regular_polygon
from volent.symbolic import build_cross_section, solve_entropy

COUNTERS = ("bisection_iters", "power_iters", "bracket_width")


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


def time_ulam(repeats: int) -> list:
    poly = regular_polygon(5, 2, (2, 2, 2, 2, 2))
    rows = []
    for grid in (32, 64):
        for seed in (0, 1, 2):
            model = build_cross_section(poly, (grid, grid), 3, seed)
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


def machine() -> dict:
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "volent": volent.__version__}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", default="BENCH_perron.json")
    args = ap.parse_args()

    groups = graph_set()
    run = {"machine": machine(), "repeats": args.repeats,
           "graphs": {k: time_graphs(v, args.repeats)
                      for k, v in groups.items()},
           "ulam_root": time_ulam(args.repeats)}
    doc = {"script": "benchmarks/bench_perron.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for k, r in run["graphs"].items():
        ok = sum("h" in x for x in r["results"])
        print(f"graph_entropy {k:<10} {len(r['results']):3d} graphs "
              f"({ok} solved)  median {r['median_s']:.3f} s")
    for r in run["ulam_root"]:
        print(f"ulam root {r['grid']}x{r['grid']} seed {r['seed']}  "
              f"h = {float(r['h']):.6f}  median {r['median_s']:.3f} s")


if __name__ == "__main__":
    main()
