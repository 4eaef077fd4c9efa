"""Benchmark: the tracing kernels, the Santalo Monte Carlo, the
cross-section sampler, chamber enumeration and the default
`volent entropy` run.

Times six tasks:

- batch: one `batch_first_crossing` over 1e6 seeded rays;
- santalo: `santalo_monte_carlo` on the default polygon, 1e6 samples,
  seed 0; its digest covers the estimate, its standard error, the
  resample count and the flux constant;
- traces: 2000 single-ray `trace` calls of T = 50;
- cross_section: `build_cross_section` on the default polygon at
  64x64, K = 3, seed 0 (the refinement grid of the default
  `volent entropy`);
- enumerate: `enumerate_chambers` on the default polygon with
  radius_cut = 12.7 (the growth stage of the default `volent entropy`);
- entropy: the default `volent entropy`, writing into a temporary
  directory; its digest covers `report.json` without `timings` and
  `output_dir`, and `curves.csv`.

Each repeat of each task runs in a fresh subprocess, so its peak RSS
(from `os.wait4`) is that task's alone. A run records, per task, the
median of the in-process times, every time, the median peak RSS and a
digest of the outputs (equal digests mean bit-identical outputs), plus
the machine. Only public functions are called, so the script runs
against any checkout of the package: point PYTHONPATH at its `src/`.

Usage:
    PYTHONPATH=src python benchmarks/bench_tracing.py --label change \\
        [--repeats 5] [--out BENCH_tracing.json]

A run is stored under `runs[label]` of the output file, keeping the
other labels, so a before/after pair lands in one file.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time

TASKS = ("batch", "santalo", "traces", "cross_section", "enumerate",
         "entropy")
N_RAYS = 1_000_000
N_SAMPLES = 1_000_000
N_TRACES = 2000
T_TRACE = 50.0
GRID, K = (64, 64), 3
RADIUS_CUT = 12.7


def _rays(n: int):
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.1, 0.1, n)
    y = rng.uniform(0.9, 1.1, n)
    a = rng.uniform(0.0, 2.0 * math.pi, n)
    return x, y, np.cos(a), np.sin(a)


def worker(task: str) -> dict:
    """Run one task once in this process; time only the measured call."""
    from volent import cli
    from volent.coxeter import enumerate_chambers
    from volent.hypgeom import regular_polygon
    from volent.measures import santalo_monte_carlo
    from volent.symbolic import build_cross_section
    from volent.tracing import WallTable, backend, batch_first_crossing, trace

    poly = regular_polygon(5, 2, (2, 2, 2, 2, 2))
    table = WallTable.from_polygon(poly)
    digest = hashlib.sha256()
    if task == "batch":
        rays = _rays(N_RAYS)
        t0 = time.perf_counter()
        out = batch_first_crossing(table, *rays)
        seconds = time.perf_counter() - t0
        for arr in out:
            digest.update(arr.tobytes())
        counters = {"rays": N_RAYS, "not_ok": int((out[4] != 0).sum())}
    elif task == "santalo":
        t0 = time.perf_counter()
        r = santalo_monte_carlo(poly, samples=N_SAMPLES, seed=0)
        seconds = time.perf_counter() - t0
        digest.update(repr((r.monte_carlo, r.mc_stderr, r.resampled,
                            r.c_constant_used)).encode())
        counters = {"samples": r.samples, "resampled": r.resampled}
    elif task == "cross_section":
        t0 = time.perf_counter()
        m = build_cross_section(poly, GRID, K, seed=0)
        seconds = time.perf_counter() - t0
        for arr in (m.states, m.src, m.dst, m.mass, m.mean_L):
            digest.update(arr.tobytes())
        d = m.diagnostics
        counters = {"samples": d["total_samples"],
                    "discarded": d["discarded_samples"],
                    "scc_states": d["scc_states"],
                    "transitions": int(m.src.size)}
    elif task == "enumerate":
        t0 = time.perf_counter()
        cs = enumerate_chambers(poly, radius_cut=RADIUS_CUT)
        seconds = time.perf_counter() - t0
        for arr in (cs.matrices, cs.reversing, cs.centers, cs.radii,
                    cs.depths, cs.log_mult):
            digest.update(arr.tobytes())
        counters = {"chambers": len(cs)}
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
            report.pop("timings")
            report["config"].pop("output_dir")
            digest.update(json.dumps(report, sort_keys=True).encode())
            with open(os.path.join(out, "curves.csv"), "rb") as fh:
                digest.update(fh.read())
        counters = {"chambers": report["results"]["growth"]["diagnostics"][
            "chambers"]}
    else:
        x, y, dx, dy = _rays(N_TRACES)
        t0 = time.perf_counter()
        outs = [trace(table, x[i], y[i], dx[i], dy[i], T_TRACE)
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
    first = {k: v for k, v in results[0].items() if k != "seconds"}
    return {**first,
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
    ap.add_argument("--out", default="BENCH_tracing.json")
    ap.add_argument("--worker", choices=TASKS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return
    if not args.label:
        ap.error("--label is required")

    run = {"machine": machine(), "repeats": args.repeats,
           "tasks": {t: time_task(t, args.repeats) for t in TASKS}}
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


if __name__ == "__main__":
    main()
