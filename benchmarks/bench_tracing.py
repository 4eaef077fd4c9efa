"""Benchmark: the tracing kernels, the Santalo Monte Carlo, the
cross-section sampler, chamber enumeration, ball growth, the default
`volent entropy` run and one metric graph solve.

Times ten tasks:

- import: a fresh `import volent.cli`, the start-up every `volent`
  command pays; scipy_loaded counts the scipy modules it loaded, and
  its digest covers the names of the volent modules loaded;
- batch: one `batch_first_crossing` over 1e6 seeded rays;
- santalo: `santalo_monte_carlo` on the default polygon at the
  checkout's default sample count, seed 0; it records the standard
  error, and its digest covers the estimate, its standard error, the
  resample count and the flux constant;
- traces: 2000 single-ray `trace` calls of T = 50;
- birkhoff: for 2000 seeded geodesics through the right-angled
  pentagon with q = (2,3,2,3,4), `cutting_sequence` over (-3.5, 53.5)
  and the four Birkhoff sums of the padded sandwich at T = 50, as the
  perfbench birkhoff-traces workload runs them; its digest covers the
  crossing count, times and edge labels, and its sums_digest the foot
  positions, incidence angles and the repr of the four sums (runs before
  `parent-0c64570` lack it);
- cross_section: `build_cross_section` on the default polygon at
  64x64, K = 3, seed 0 (the refinement grid of the default
  `volent entropy`); tracemalloc_peak_mb is the tracemalloc peak, in
  MiB, of a second, untimed build in the same worker (runs before
  `parent-b3343bd` lack it); the time includes the scipy imports at
  checkouts whose build loads scipy (before `change-numpy-scc`), and
  `bench_perron.py`'s scc task times the component step alone;
- enumerate: `enumerate_chambers` on the default polygon with
  radius_cut = 12.7, the cut that acceptance criteria 1 and 2
  enumerate (criterion 2 on this polygon); its digest
  covers the radii, depths and log weights, the fields that every
  checkout's `ChamberSet` has (before the runs `parent-c2b39f6` and
  `change-orbit-tree` it also covered the group matrices, orientations
  and centers);
- growth: `volent growth` with its defaults, the growth stage of the
  default `volent entropy` (the default polygon on the window [4, 11]
  with 24 rows); its digest covers the printed slope line, and its
  chamber count is the printed one (before the runs `parent-cddd230`
  and `change-window-walk` it timed `coxeter.ball_growth` alone and
  digested the table, the counts per depth and the reach);
- entropy: the default `volent entropy`, writing into a temporary
  directory; its digest covers `report.json` without `timings` and
  `output_dir`, and `curves.csv`; scipy_loaded counts the scipy modules
  the worker (the parent of the run's forked child) loaded (runs before
  `parent-8e3904e` lack it); parent_peak_rss_mb and child_peak_rss_mb
  are the medians of the worker's own peak RSS (`RUSAGE_SELF`) and of
  its forked child's (`RUSAGE_CHILDREN`), so a run shows which process
  sets peak_rss_mb (runs before `parent-cd5014a` lack them); timings
  holds the median of each entry of the report's `timings`, the stages
  of both processes (runs before `parent-f4a642f` lack it; in that run,
  as at every checkout before `change-curve-stage`, `pressure` includes
  the curve and there is no `pressure_curve` entry);
- graph: `MetricGraph.from_json` and `graph_entropy` at tol 1e-10, as
  `volent graph` runs them, on one seeded graph: a cycle on 2000
  vertices plus 1000 random chords, lengths uniform in [0.5, 2];
  scipy_loaded counts the scipy modules loaded after the solve (runs
  before `parent-7c56815` lack it), the time includes the scipy
  imports at checkouts whose graph solve loads scipy (up to
  `parent-7c56815`), and the digest covers `repr(h)`.

The batch and traces tasks read the polygon's wall record,
`poly.walls`.

Each repeat of each task runs in a fresh subprocess, so its peak RSS
(from `os.wait4`) is that task's alone. A run records, per task, the
median of the in-process times, every time, the median peak RSS and a
digest of the outputs (equal digests mean bit-identical outputs), plus
the machine. Only public functions are called, so the script runs
against any checkout of the package: point PYTHONPATH at its `src/`.

Usage:
    PYTHONPATH=src python benchmarks/bench_tracing.py --label change \\
        [--repeats 5] [--tasks growth,entropy] [--out BENCH_tracing.json]

A run is stored under `runs[label]` of the output file, keeping the
other labels, so a before/after pair lands in one file. `--tasks`
times a subset of the tasks (all by default).
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

TASKS = ("import", "batch", "santalo", "traces", "birkhoff",
         "cross_section", "enumerate", "growth", "entropy", "graph")
N_RAYS = 1_000_000
N_TRACES = 2000
T_TRACE = 50.0
GRID, K = (64, 64), 3
RADIUS_CUT = 12.7
BIRKHOFF_Q, SPAN = (2, 3, 2, 3, 4), (-3.5, T_TRACE + 3.5)
GRAPH_VERTICES = 2000


def _graph_json() -> str:
    """The graph task's input: a cycle plus n // 2 seeded chords."""
    import numpy as np
    rng = np.random.default_rng(0)
    n = GRAPH_VERTICES
    ends = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.choice(n, 2, replace=False).tolist()
        ends.append((a, b))
    lengths = rng.uniform(0.5, 2.0, len(ends)).tolist()
    return json.dumps({"vertices": n, "edges": [
        {"src": a, "dst": b, "len": ln} for (a, b), ln in zip(ends, lengths)]})


def _rays(n: int):
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.1, 0.1, n)
    y = rng.uniform(0.9, 1.1, n)
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    return x, y, np.cos(a), np.sin(a)


def _birkhoff() -> tuple:
    """(seconds, digest bytes, counters) of the birkhoff task; the
    counters hold sums_digest."""
    from volent import symbolic
    from volent.errors import VertexHit
    from volent.hypgeom import HPoint, geodesic_through, regular_polygon

    poly = regular_polygon(5, 2, BIRKHOFF_Q)
    x, y, dx, dy = _rays(N_TRACES)
    geos = [geodesic_through(HPoint(x[i], y[i]),
                             HPoint(x[i] + 0.5 * dx[i], y[i] + 0.5 * dy[i]))
            for i in range(N_TRACES)]
    seqs, sums, failed = [], [], 0
    t0 = time.perf_counter()
    for g in geos:
        try:
            seq = symbolic.cutting_sequence(g, SPAN, poly)
        except VertexHit:
            seqs.append(None)
            failed += 1
            continue
        sums.append((
            symbolic.birkhoff_f_integral(seq, 0.0, T_TRACE),
            symbolic.thickness_log_product(seq, -1.0, T_TRACE + 1.0),
            symbolic.birkhoff_f_integral(seq, -2.0, T_TRACE + 2.0),
            symbolic.birkhoff_lq_integral(seq, T_TRACE)))
        seqs.append(seq)
    seconds = time.perf_counter() - t0
    chunks, crossings = [], 0
    sums_digest = hashlib.sha256(repr(sums).encode())
    for seq in seqs:
        if seq is None:
            chunks.append(b"VertexHit")
            continue
        t, j = seq.crossings["t"], seq.crossings["edge_label"]
        crossings += len(t)
        chunks.append(repr(len(t)).encode() + t.tobytes() + j.tobytes())
        for name in ("u", "theta"):
            sums_digest.update(seq.crossings[name].tobytes())
    return seconds, b"".join(chunks), {
        "geodesics": N_TRACES, "crossings": crossings, "failed": failed,
        "sums_digest": sums_digest.hexdigest()[:16]}


def worker(task: str) -> dict:
    """Run one task once in this process; time only the measured call."""
    if task == "import":
        t0 = time.perf_counter()
        import volent.cli  # noqa: F401
        seconds = time.perf_counter() - t0
        loaded = sorted(sys.modules)
        digest = hashlib.sha256(repr(
            [m for m in loaded if m.partition(".")[0] == "volent"]).encode())
        return {"backend": volent.tracing.backend(), "seconds": seconds,
                "digest": digest.hexdigest()[:16],
                "scipy_loaded": sum(m.partition(".")[0] == "scipy"
                                    for m in loaded)}
    from volent import cli
    from volent.coxeter import enumerate_chambers
    from volent.graphs import MetricGraph, graph_entropy
    from volent.hypgeom import regular_polygon
    from volent.measures import santalo_monte_carlo
    from volent.symbolic import build_cross_section
    from volent.tracing import backend, batch_first_crossing, trace

    poly = regular_polygon(5, 2, (2, 2, 2, 2, 2))
    walls = poly.walls
    digest = hashlib.sha256()
    if task == "batch":
        rays = _rays(N_RAYS)
        t0 = time.perf_counter()
        out = batch_first_crossing(walls, *rays)
        seconds = time.perf_counter() - t0
        for arr in out:
            digest.update(arr.tobytes())
        counters = {"rays": N_RAYS, "not_ok": int((out[4] != 0).sum())}
    elif task == "santalo":
        t0 = time.perf_counter()
        r = santalo_monte_carlo(poly, seed=0)
        seconds = time.perf_counter() - t0
        digest.update(repr((r.monte_carlo, r.mc_stderr, r.resampled,
                            r.c_constant_used)).encode())
        counters = {"samples": r.samples, "resampled": r.resampled,
                    "mc_stderr": r.mc_stderr}
    elif task == "birkhoff":
        seconds, data, counters = _birkhoff()
        digest.update(data)
    elif task == "cross_section":
        t0 = time.perf_counter()
        m = build_cross_section(poly, GRID, K, seed=0)
        seconds = time.perf_counter() - t0
        for arr in (m.states, m.src, m.dst, m.mass, m.mean_L):
            digest.update(arr.tobytes())
        d = m.diagnostics
        tracemalloc.start()
        build_cross_section(poly, GRID, K, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        counters = {"samples": d["total_samples"],
                    "discarded": d["discarded_samples"],
                    "scc_states": d["scc_states"],
                    "transitions": int(m.src.size),
                    "tracemalloc_peak_mb": peak / 2 ** 20}
    elif task == "enumerate":
        t0 = time.perf_counter()
        cs = enumerate_chambers(poly, radius_cut=RADIUS_CUT)
        seconds = time.perf_counter() - t0
        for arr in (cs.radii, cs.depths, cs.log_mult):
            digest.update(arr.tobytes())
        counters = {"chambers": len(cs)}
    elif task == "growth":
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            code = cli.main(["growth"])
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"volent growth exited with {code}")
        # "chambers N ..." then "slope = ... +/- ..."
        lines = printed.getvalue().splitlines()
        digest.update(next(ln for ln in lines
                           if ln.startswith("slope")).encode())
        counters = {"chambers": int(lines[0].split()[1])}
    elif task == "entropy":
        with tempfile.TemporaryDirectory() as out:
            cfg = os.path.join(out, "config.json")
            with open(cfg, "w") as fh:
                json.dump({"output_dir": out}, fh)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["entropy", "--config", cfg])
            seconds = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"volent entropy exited with {code}")
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            timings = report.pop("timings")
            report["config"].pop("output_dir")
            digest.update(json.dumps(report, sort_keys=True).encode())
            with open(os.path.join(out, "curves.csv"), "rb") as fh:
                digest.update(fh.read())
        growth = report["results"]["growth"]["diagnostics"]
        counters = {"chambers": growth["chambers"],
                    "timings": timings,
                    "scipy_loaded": sum(m.partition(".")[0] == "scipy"
                                        for m in sys.modules),
                    "parent_peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "child_peak_rss_mb": resource.getrusage(
                        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    elif task == "graph":
        text = _graph_json()
        t0 = time.perf_counter()
        g = MetricGraph.from_json(text)
        est = graph_entropy(g, tol=1e-10)
        seconds = time.perf_counter() - t0
        digest.update(repr(est.value).encode())
        counters = {"h": est.value, "directed_edges": int(g.n_edges),
                    "bisection_iters": est.diagnostics["bisection_iters"],
                    "power_iters": est.diagnostics["power_iters"],
                    "scipy_loaded": sum(m.partition(".")[0] == "scipy"
                                        for m in sys.modules)}
    else:
        x, y, dx, dy = _rays(N_TRACES)
        t0 = time.perf_counter()
        outs = [trace(walls, x[i], y[i], dx[i], dy[i], T_TRACE)
                for i in range(N_TRACES)]
        seconds = time.perf_counter() - t0
        for out in outs:
            for arr in out[:4]:
                digest.update(arr.tobytes())
        counters = {"traces": N_TRACES,
                    "crossings": sum(len(o[0]) for o in outs)}
    return {"backend": backend(), "seconds": seconds,
            "digest": digest.hexdigest()[:16], **counters}


def spawn(task: str) -> tuple:
    """(worker result, peak RSS in MB) of one fresh worker process."""
    with tempfile.TemporaryFile("w+") as fh:
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), "--worker", task],
            os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1)])
        _, status, usage = os.wait4(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"{task} worker exited with status {status}")
        fh.seek(0)
        result = json.loads(fh.read().strip().splitlines()[-1])
    return result, usage.ru_maxrss / 1024.0


def time_task(task: str, repeats: int) -> dict:
    runs = [spawn(task) for _ in range(repeats)]
    results = [r for r, _ in runs]
    if len({r["digest"] for r in results}) != 1:
        raise RuntimeError(f"{task}: outputs differ between repeats")
    # a peak RSS a worker reports varies between repeats: its median
    peaks = {k: statistics.median(r[k] for r in results)
             for k in results[0] if k.endswith("_rss_mb")}
    first = {k: v for k, v in results[0].items()
             if k != "seconds" and k not in peaks}
    if "timings" in first:     # so does a stage's time: its median
        first["timings"] = {k: statistics.median(r["timings"][k]
                                                 for r in results)
                            for k in first["timings"]}
    return {**first, **peaks,
            "median_s": statistics.median(r["seconds"] for r in results),
            "runs_s": [r["seconds"] for r in results],
            "peak_rss_mb": statistics.median(rss for _, rss in runs),
            "runs_rss_mb": [rss for _, rss in runs]}


def machine() -> dict:
    import numpy as np
    import volent
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "volent": volent.__version__}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--tasks", default=",".join(TASKS))
    ap.add_argument("--out", default="BENCH_tracing.json")
    ap.add_argument("--worker", choices=TASKS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return
    if not args.label:
        ap.error("--label is required")
    tasks = args.tasks.split(",")
    if not set(tasks) <= set(TASKS):
        ap.error(f"--tasks: choose from {','.join(TASKS)}")

    run = {"machine": machine(), "repeats": args.repeats,
           "tasks": {t: time_task(t, args.repeats) for t in tasks}}
    doc = {"script": "benchmarks/bench_tracing.py", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for t, r in run["tasks"].items():
        print(f"{t:<13} [{r['backend']}]  median {r['median_s']:.3f} s  "
              f"peak RSS {r['peak_rss_mb']:.0f} MB  digest {r['digest']}")
        if "timings" in r:
            print("  stage medians  " + "  ".join(
                f"{k} {v:.3f} s" for k, v in sorted(r["timings"].items())))


if __name__ == "__main__":
    main()
