"""Benchmark: the Perron root solves, the pressure curve and the
pressure operator's product.

Six tasks:

- graphs: `graph_entropy(tol=1e-10)` over a fixed seeded set of metric
  graphs, and the build of their operators (`graphs._nonbacktracking`,
  all graphs of a group per timing);
- ulam_root: the root solve `solve_entropy(refine=False)` on the
  default polygon's Ulam models (K=3) at 32x32 and 64x64 for seeds 0,
  1, 2, and the build of its operator (`symbolic._pressure_rho`);
- curve: the 21-point `pressure_curve` that `volent entropy` writes to
  `curves.csv`, on the 32x32 model for seeds 0, 1, 2, over
  h_root +- 0.5. It records the curve's kernel steps (`power_iters`),
  the sha256 of its rows' reprs (`sha256`) and the largest |difference|
  from a cold single `pressure_log_radius` call at each point;
- sweep: kernel-step counts of the shift alpha = c * (lo + hi) / 2 of
  the first bracket and of the order of the value-mode start
  extrapolation (0: the previous point's iterate, k: the degree-k
  Lagrange polynomial through the last k+1 ln v), by setting
  `volent.perron._SHIFT` = c and `volent.perron._HISTORY` = k + 1 for
  the shipped iteration and restoring both afterwards: the curve on the
  seed-0 32x32 model, the two root solves of the default run (32x32 and
  64x64, seed 0) and the graphs task's graph set. The shipped c = 1/4
  and order 3 are the curve, ulam_root and graphs tasks' own counts;
- scc: `volent.perron.strong_components` on the transition graph that
  `build_cross_section` hands it (caught by wrapping
  `volent.symbolic.strong_components`) for the default polygon at
  32x32 and 64x64, K=3, seed 0, against scipy's `connected_components`
  on the CSR matrix `build_cross_section` built for it before,
  construction included; repeats x 20 interleaved pairs, and whether
  the two partitions agree;
- product: one product B @ v of the default polygon's pressure
  operator B(h) at h = 1.76 (K=3, seed 0) at 32x32 and 64x64, v
  seeded uniform in [0.1, 1], for three layouts of the same entries:
  scipy's CSR matrix, a numpy `bincount` over the row-major entries
  and `volent.perron.SparseRows` (absent before `change-sparse-rows`).
  Each repeat times 200 products of each, interleaved; `equal` says
  whether the numpy products equal the CSR one bit for bit.

Each timing is the median over repeats; every result value with its
error bar (`err`), the solver counters found in `diagnostics` and the
machine are recorded. The
graphs and ulam_root tasks record each solve's power steps
(`power_iters`), the signs its bisection read from the root enclosure
(`skipped_signs`, absent before the enclosure, when every sign was
evaluated) and its evaluated signs (`sign_brackets`), counted in one
more untimed solve by wrapping `volent.perron.perron_bracket` and
counting its calls with a target. Apart from the sweep's two settings,
the scc task's and sign count's wrappers and the two operator builds,
only public functions are called: point PYTHONPATH at the `src/` of the
checkout to measure.

Usage:
    PYTHONPATH=src python benchmarks/bench_perron.py --label change \\
        [--repeats 5] [--tasks graphs,ulam_root,curve,sweep,scc,product] \\
        [--out BENCH_perron.json]

A run is stored under `runs[label]` of the output file, keeping the
other labels, so a before/after pair lands in one file.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import time

import numpy as np
import scipy

import volent
import volent.perron
from volent.errors import VolentError
from volent.graphs import MetricGraph, _nonbacktracking, graph_entropy
from volent.hypgeom import regular_polygon
from volent.symbolic import (_pressure_rho, build_cross_section,
                             pressure_curve, pressure_log_radius,
                             solve_entropy)

COUNTERS = ("bisection_iters", "bracket_widened", "power_iters",
            "bracket_width", "skipped_signs")
TASKS = ("graphs", "ulam_root", "curve", "sweep", "scc", "product")
# products per timing in the product task
PRODUCTS = 200


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


def sign_brackets(solve, *args, **kwargs) -> int:
    """The sign-mode perron_bracket calls (a target given) of one call of
    solve, counted by wrapping volent.perron.perron_bracket, which
    WarmPerron calls with the target as its fourth argument."""
    real = volent.perron.perron_bracket
    count = 0

    def spy(*a, **kw):
        nonlocal count
        count += a[3] is not None
        return real(*a, **kw)

    volent.perron.perron_bracket = spy
    try:
        solve(*args, **kwargs)
    except VolentError:
        pass
    finally:
        volent.perron.perron_bracket = real
    return count


def timed(run, repeats: int) -> list:
    """The wall times of repeats calls of run()."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return times


def time_graphs(graphs, repeats: int) -> dict:
    times, results = [], []
    for _ in range(repeats):
        results = []
        t0 = time.perf_counter()
        for name, g in graphs:
            try:
                est = graph_entropy(g, tol=1e-10)
                results.append({"graph": name, "h": repr(est.value),
                                "err": est.err, **counters(est.diagnostics)})
            except VolentError as exc:
                results.append({"graph": name, "error": type(exc).__name__})
        times.append(time.perf_counter() - t0)
    for row, (_, g) in zip(results, graphs):
        row["sign_brackets"] = sign_brackets(graph_entropy, g, tol=1e-10)
    builds = timed(lambda: [_nonbacktracking(g) for _, g in graphs], repeats)
    return {"median_s": statistics.median(times), "runs_s": times,
            "build_median_s": statistics.median(builds),
            "build_runs_s": builds, "results": results}


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
            builds = timed(lambda: _pressure_rho(model), repeats)
            rows.append({"grid": grid, "seed": seed,
                         "states": model.n_states, "h": repr(est.value),
                         "err": est.err,
                         "median_s": statistics.median(times),
                         "runs_s": times,
                         "build_median_s": statistics.median(builds),
                         "build_runs_s": builds, **counters(est.diagnostics),
                         "sign_brackets": sign_brackets(
                             solve_entropy, model, refine=False)})
    return rows


def time_scc(repeats: int) -> list:
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    import volent.symbolic

    rows = []
    real = volent.symbolic.strong_components
    for grid in (32, 64):
        caught = []

        def spy(src, dst, n):
            caught.append((src, dst, n))
            return real(src, dst, n)

        volent.symbolic.strong_components = spy
        try:
            default_model(grid, 0)
        finally:
            volent.symbolic.strong_components = real
        (src, dst, n), = caught
        ours, theirs = [], []
        for _ in range(20 * repeats):
            t0 = time.perf_counter()
            n_comp, labels = real(src, dst, n)
            t1 = time.perf_counter()
            adj = sp.csr_matrix((np.ones(src.size), (src, dst)),
                                shape=(n, n))
            n_ref, ref = connected_components(adj, directed=True,
                                              connection="strong")
            theirs.append(time.perf_counter() - t1)
            ours.append(t1 - t0)
        same = (n_comp == n_ref
                and len(set(zip(labels.tolist(), ref.tolist()))) == n_comp)
        rows.append({"grid": grid, "states": n, "transitions": int(src.size),
                     "components": n_comp, "same_partition": same,
                     "median_s": statistics.median(ours), "runs_s": ours,
                     "csgraph_median_s": statistics.median(theirs),
                     "csgraph_runs_s": theirs})
    return rows


def time_product(repeats: int) -> list:
    import scipy.sparse as sp

    rows = []
    for grid in (32, 64):
        model = default_model(grid, 0)
        n, src, dst = model.n_states, model.src, model.dst
        data = (model.mass * model.q_of_state(dst)
                * np.exp((1.0 - 1.76) * model.mean_L))
        v = np.random.default_rng(0).uniform(0.1, 1.0, n)
        csr = sp.csr_matrix((data, (src, dst)), shape=(n, n))
        products = {"csr": lambda: csr @ v,
                    "bincount": lambda: np.bincount(src, data * v.take(dst),
                                                    n)}
        ref = csr @ v
        equal = {"bincount": bool(np.array_equal(products["bincount"](),
                                                 ref))}
        if hasattr(volent.perron, "SparseRows"):
            B = volent.perron.SparseRows(src, dst, n)
            B.data = data[B.entries]
            u = v[B.order]
            products["sparse_rows"] = lambda: B @ u
            equal["sparse_rows"] = bool(np.array_equal(B @ u, ref[B.order]))
        runs = {name: [] for name in products}
        for _ in range(repeats):
            for name, f in products.items():
                t0 = time.perf_counter()
                for _ in range(PRODUCTS):
                    f()
                runs[name].append((time.perf_counter() - t0) / PRODUCTS)
        rows.append({"grid": grid, "states": n, "entries": int(src.size),
                     "equal": equal,
                     "median_us": {k: 1e6 * statistics.median(t)
                                   for k, t in runs.items()},
                     "runs_s": runs})
    return rows


def time_curve(repeats: int) -> list:
    rows = []
    for seed in (0, 1, 2):
        model = default_model(32, seed)
        h = solve_entropy(model, refine=False).value
        hs = np.linspace(h - 0.5, h + 0.5, 21)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            curve = pressure_curve(model, hs)
            times.append(time.perf_counter() - t0)
        delta = max(abs(p - pressure_log_radius(model, x)) for x, p in curve)
        digest = hashlib.sha256(repr(list(curve)).encode()).hexdigest()
        rows.append({"grid": 32, "seed": seed, "states": model.n_states,
                     "points": len(curve), "sha256": digest,
                     "power_iters": curve.power_iters,
                     "max_bracket_width": curve.max_bracket_width,
                     "max_abs_delta_cold": delta,
                     "median_s": statistics.median(times), "runs_s": times})
    return rows


def sweep() -> dict:
    coarse, fine = default_model(32, 0), default_model(64, 0)
    h = solve_entropy(coarse, refine=False).value
    hs = np.linspace(h - 0.5, h + 0.5, 21)
    graphs = [g for group in graph_set().values() for _, g in group]
    saved = volent.perron._SHIFT, volent.perron._HISTORY

    def steps(c, order, solve, *args):
        volent.perron._SHIFT, volent.perron._HISTORY = c, order + 1
        try:
            return solve(*args)
        finally:
            volent.perron._SHIFT, volent.perron._HISTORY = saved

    def curve():
        return pressure_curve(coarse, hs).power_iters

    def root(model):
        return solve_entropy(model, refine=False).diagnostics["power_iters"]

    def graph_steps():
        return sum(graph_entropy(g, tol=1e-10).diagnostics["power_iters"]
                   for g in graphs)

    shifts = [{"c": c, "curve_plain_warm": steps(c, 0, curve),
               "root_32": steps(c, 0, root, coarse),
               "root_64": steps(c, 0, root, fine),
               "graphs": steps(c, 0, graph_steps)}
              for c in (1.0, 0.5, 0.25, 0.125)]
    orders = [{"c": 0.25, "order": k, "curve": steps(0.25, k, curve)}
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
    if "scc" in tasks:
        run["scc"] = time_scc(args.repeats)
    if "product" in tasks:
        run["product"] = time_product(args.repeats)
    doc = {"script": "benchmarks/bench_perron.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for k, r in run.get("graphs", {}).items():
        solved = [x for x in r["results"] if "h" in x]
        print(f"graph_entropy {k:<10} {len(r['results']):3d} graphs "
              f"({len(solved)} solved)  signs "
              f"{sum(x['sign_brackets'] for x in r['results'])} evaluated, "
              f"{sum(x.get('skipped_signs', 0) for x in solved)} skipped  "
              f"{sum(x['power_iters'] for x in solved)} power steps  "
              f"median {r['median_s']:.3f} s  build "
              f"{1e3 * r['build_median_s']:.2f} ms  max err "
              f"{max(x['err'] for x in solved):.1e}")
    for r in run.get("ulam_root", []):
        print(f"ulam root {r['grid']}x{r['grid']} seed {r['seed']}  "
              f"h = {float(r['h']):.6f}  signs {r['sign_brackets']} "
              f"evaluated, {r.get('skipped_signs', 0)} skipped  "
              f"{r['power_iters']} power steps  "
              f"median {r['median_s']:.3f} s  build "
              f"{1e3 * r['build_median_s']:.2f} ms  err {r['err']:.1e}")
    for r in run.get("curve", []):
        print(f"curve 32x32 seed {r['seed']}  {r['power_iters']} steps  "
              f"max |delta| {r['max_abs_delta_cold']:.2e}  "
              f"median {r['median_s']:.3f} s")
    for r in run.get("scc", []):
        print(f"scc {r['grid']}x{r['grid']}  {r['components']} components  "
              f"median {1e3 * r['median_s']:.2f} ms, csgraph "
              f"{1e3 * r['csgraph_median_s']:.2f} ms  "
              f"same partition {r['same_partition']}")
    for r in run.get("product", []):
        times = "  ".join(f"{k} {t:.1f} us"
                          for k, t in r["median_us"].items())
        print(f"product {r['grid']}x{r['grid']}  {times}  equal {r['equal']}")
    if "sweep" in run:
        for r in run["sweep"]["shifts"]:
            print(f"shift c = {r['c']:<6} curve {r['curve_plain_warm']:5d}  "
                  f"roots {r['root_32']} {r['root_64']}  "
                  f"graphs {r['graphs']}")
        for r in run["sweep"]["orders"]:
            print(f"order {r['order']}  curve {r['curve']}")


if __name__ == "__main__":
    main()
