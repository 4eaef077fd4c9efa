"""Benchmark: coverage of the Santalo Monte Carlo's error bar.

Runs `santalo_monte_carlo` at its default sample count on seeds
0 .. N-1 (100 by default) of four polygons: the right-angled pentagon,
hexagon and heptagon with q = 2 and the pentagon with
q = (2, 3, 2, 3, 4). A uniform q only rescales every sample by ln q, so
each row has a geometry or a q pattern of its own. For each seed
z = (monte_carlo - closed_form) / mc_stderr; a valid error bar gives z
close to a standard normal. Per
polygon a run records the mean and sd of z, the share of seeds with
|z| <= 2 and <= 3, the largest |z|, the largest ratio of the largest
weighted sample to the mean (`max_value`), and the median standard
error and seconds.

The thresholds below were fixed before the first run; a polygon
`meets_thresholds` when all three hold. Only public functions are
called, so the script runs against any checkout of the package: point
PYTHONPATH at its `src/`. Each checkout runs at its own default count.

Usage:
    PYTHONPATH=src python benchmarks/bench_santalo.py --label change \\
        [--seeds 100] [--out BENCH_santalo.json]

A run is stored under `runs[label]` of the output file, keeping the
other labels, so a before/after pair lands in one file.
"""

import argparse
import json
import math
import os
import platform
import statistics
import time

POLYGONS = {"5,2,2^5": (5, 2, (2,) * 5),
            "6,2,2^6": (6, 2, (2,) * 6),
            "7,2,2^7": (7, 2, (2,) * 7),
            "5,2,(2,3,2,3,4)": (5, 2, (2, 3, 2, 3, 4))}
THRESHOLDS = {"abs_mean_z_max": 0.3, "cover_2sigma_min": 0.90,
              "cover_3sigma_min": 0.98}


def study(poly, seeds: int) -> dict:
    """Coverage statistics of one polygon over seeds 0 .. seeds-1."""
    from volent.measures import santalo_closed_form, santalo_monte_carlo

    # the integrand's exact mean: the closed form over the Liouville mass
    mean = santalo_closed_form(poly) / (2.0 * math.pi * poly.area)
    zs, stderrs, secs, ratios = [], [], [], []
    for seed in range(seeds):
        t0 = time.perf_counter()
        r = santalo_monte_carlo(poly, seed=seed)
        secs.append(time.perf_counter() - t0)
        zs.append((r.monte_carlo - r.closed_form) / r.mc_stderr)
        stderrs.append(r.mc_stderr)
        ratios.append(r.max_value / mean)
    n = len(zs)
    doc = {"samples": r.samples, "seeds": n,
           "mean_z": statistics.fmean(zs), "sd_z": statistics.stdev(zs),
           "cover_2sigma": sum(abs(z) <= 2.0 for z in zs) / n,
           "cover_3sigma": sum(abs(z) <= 3.0 for z in zs) / n,
           "max_abs_z": max(abs(z) for z in zs),
           "max_over_mean": max(ratios),
           "median_stderr": statistics.median(stderrs),
           "median_s": statistics.median(secs)}
    doc["meets_thresholds"] = (
        abs(doc["mean_z"]) <= THRESHOLDS["abs_mean_z_max"]
        and doc["cover_2sigma"] >= THRESHOLDS["cover_2sigma_min"]
        and doc["cover_3sigma"] >= THRESHOLDS["cover_3sigma_min"])
    return doc


def machine() -> dict:
    import numpy as np
    import volent
    return {"cpus": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "volent": volent.__version__}


def main() -> None:
    from volent.hypgeom import regular_polygon

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, default=100)
    ap.add_argument("--out", default="BENCH_santalo.json")
    args = ap.parse_args()

    polygons = {}
    for name, (p, m, q) in POLYGONS.items():
        polygons[name] = study(regular_polygon(p, m, q), args.seeds)
        d = polygons[name]
        print(f"{name:<16} n={d['samples']}  mean z {d['mean_z']:+.3f}  "
              f"sd z {d['sd_z']:.3f}  2sig {d['cover_2sigma']:.2f}  "
              f"3sig {d['cover_3sigma']:.2f}  max|z| {d['max_abs_z']:.2f}  "
              f"stderr {d['median_stderr']:.5f}  {d['median_s']:.3f} s  "
              f"{'ok' if d['meets_thresholds'] else 'MISSES THRESHOLDS'}")
    doc = {"script": "benchmarks/bench_santalo.py",
           "thresholds": THRESHOLDS, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {"machine": machine(), "polygons": polygons}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
