"""Command-line frontend.

Subcommands wire the geometry, pressure, growth, Santalo, graph, and
orbit modules into seeded, reproducible experiments. Reports are JSON
with a separate timings block: every field outside that block is
reproducible bit-for-bit for a fixed config and package version.

Exit codes: 0 success, 1 numerical non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .coxeter import ball_growth, enumerate_chambers, growth_slope
from .errors import BadThickness, Degenerate, NonHyperbolic, VolentError
from .graphs import MetricGraph, graph_entropy
from .hypgeom import regular_polygon
from .measures import (DEFAULT_SAMPLES, lower_bound_2d, santalo_monte_carlo,
                       strictness_report)
from .orbits import affine_deviation, family_rows, geodesic_lengths
from .svg import orbit_svg, tessellation_svg
from .symbolic import (EntropyEstimate, build_cross_section, pressure_curve,
                       solve_entropy)

# Every other VolentError is numerical and maps to exit 1.
# OSError: an input or output path that is missing, a directory, a file
# or not writable. RecursionError: json refuses arrays or objects nested
# too deep. MemoryError: numpy refuses an array sized by a huge sample
# or row count.
_INPUT_ERRORS = (ValueError, KeyError, NonHyperbolic, BadThickness,
                 Degenerate, json.JSONDecodeError, OSError,
                 RecursionError, MemoryError)

_CONFIG_SCHEMA = {
    "polygon": {"p", "m", "q"},
    "pressure": {"n_u", "n_theta", "k", "tol", "bracket"},
    "growth": {"radius_cut", "window", "rows"},
    "santalo": {"samples", "seed"},
    "seed": None,
    "output_dir": None,
}

_DEFAULT_CONFIG = {
    "polygon": {"p": 5, "m": 2, "q": [2, 2, 2, 2, 2]},
    "pressure": {"n_u": 32, "n_theta": 32, "k": 3, "tol": 1e-4,
                 "bracket": [0.5, 4.0]},
    "growth": {"radius_cut": 12.7, "window": [4.0, 11.0], "rows": 24},
    "santalo": {"samples": DEFAULT_SAMPLES, "seed": 0},
    "seed": 0,
    "output_dir": None,
}


def validate_config(cfg: dict) -> dict:
    """Merge over defaults, rejecting unknown keys and badly typed or
    out-of-range values by name."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for key in cfg:
        if key not in _CONFIG_SCHEMA:
            raise ValueError(f"unknown config key: {key!r}")
        sub = _CONFIG_SCHEMA[key]
        if sub is not None:
            if not isinstance(cfg[key], dict):
                raise ValueError(f"config key {key!r} must be an object")
            for k2 in cfg[key]:
                if k2 not in sub:
                    raise ValueError(f"unknown config key: {key}.{k2!r}")
    merged = json.loads(json.dumps(_DEFAULT_CONFIG))
    for key, val in cfg.items():
        if isinstance(val, dict) and isinstance(merged.get(key), dict):
            merged[key].update(val)
        else:
            merged[key] = val
    _check_fields(merged)
    return merged


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


# The most samples one stage may draw, refused before any stage starts:
# the Santalo Monte Carlo peaks at about 64 bytes per sample
# (tracemalloc), so 1e7 samples take about 0.6 GB (a fresh process on
# the right-angled pentagon peaks at 675 MB RSS).
_MAX_SAMPLES = 10_000_000

# The most chambers `volent polygon --svg` draws, refused before drawing:
# the default pentagon at depth 9 (20,901 chambers) takes about 8 s and
# writes a 40 MB file.
_SVG_CHAMBER_CAP = 25_000

# (key, least, greatest value) of every integer field cmd_entropy reads.
_INT_FIELDS = (("polygon.p", 3, math.inf), ("polygon.m", 2, math.inf),
               ("pressure.n_u", 4, math.inf),
               ("pressure.n_theta", 4, math.inf), ("pressure.k", 1, math.inf),
               ("growth.rows", 3, 10_000),
               ("santalo.samples", 10_000, _MAX_SAMPLES),
               ("santalo.seed", 0, math.inf), ("seed", 0, math.inf))


def _check_int(name: str, value, low, high) -> None:
    """Refuse, naming it, a value that is not an integer in [low, high]."""
    if not (_is_int(value) and low <= value <= high):
        what = (f"an integer >= {low}" if high == math.inf
                else f"an integer in [{low}, {high}]")
        raise ValueError(f"{name} must be {what}, got {value!r}")


def _check_float(name: str, value, low: float = 0.0) -> None:
    """Refuse, naming it, a value that is not a finite number > low (so
    NaN is refused too)."""
    if not (_is_finite(value) and value > low):
        raise ValueError(f"{name} must be a finite number > {low:g}, "
                         f"got {value!r}")


def _check_thickness(name: str, m: int, q) -> None:
    """Refuse, naming it, unequal q for odd m: the two walls at a vertex
    of angle pi/m with m odd are conjugate, so a building gives every
    wall of the polygon the same thickness."""
    if m % 2 and len(set(q)) > 1:
        raise ValueError(f"{name} must be equal on every wall for odd m "
                         f"(adjacent walls are conjugate), got {list(q)}")


def _check_pressure_grid(names: str, p: int, n_u: int, n_theta: int,
                         k: int) -> None:
    """Refuse a pressure grid whose refined build, on the doubled grid
    solve_entropy adds, would draw more than _MAX_SAMPLES samples."""
    n = p * (2 * n_u) * (2 * n_theta) * k * k
    if n > _MAX_SAMPLES:
        raise ValueError(
            f"{names} give p*(2*n_u)*(2*n_theta)*k^2 = {n} samples on the "
            f"refined pressure grid, more than {_MAX_SAMPLES}")


def _check_fields(cfg) -> None:
    """Type and range of every field cmd_entropy reads, naming the bad
    key."""
    def get(key):
        sec, _, sub = key.partition(".")
        return cfg[sec][sub] if sub else cfg[sec]

    def fail(key, what):
        raise ValueError(f"config key {key} must be {what}, got {get(key)!r}")

    for key, low, high in _INT_FIELDS:
        _check_int(f"config key {key}", get(key), low, high)
    pc = cfg["pressure"]
    _check_pressure_grid("config keys polygon.p, pressure.n_u, "
                         "pressure.n_theta and pressure.k", get("polygon.p"),
                         pc["n_u"], pc["n_theta"], pc["k"])
    q = get("polygon.q")
    if not (isinstance(q, list) and all(_is_int(v) and v >= 1 for v in q)):
        fail("polygon.q", "a list of integers >= 1")
    _check_thickness("config key polygon.q", get("polygon.m"), q)
    for key in ("pressure.tol", "growth.radius_cut"):
        _check_float(f"config key {key}", get(key))
    for key, what, low in (("pressure.bracket", "lo < hi", -math.inf),
                           ("growth.window", "0 < lo < hi", 0.0)):
        b = get(key)
        if not (isinstance(b, list) and len(b) == 2
                and all(map(_is_finite, b)) and low < b[0] < b[1]):
            fail(key, f"two finite numbers {what}")
    if not (cfg["output_dir"] is None or isinstance(cfg["output_dir"], str)):
        fail("output_dir", "null or a string")


def _out_dir(cfg: dict) -> str:
    d = cfg["output_dir"] or "."
    os.makedirs(d, exist_ok=True)
    return d


def _poly_from_cfg(cfg: dict):
    pc = cfg["polygon"]
    return regular_polygon(pc["p"], pc["m"], tuple(pc["q"]))


def _poly_from_args(args, default_q: int = 2):
    q = args.q or [default_q] * args.p
    _check_thickness("--q", args.m, q)
    return regular_polygon(args.p, args.m, tuple(q))


def _estimate_doc(e: EntropyEstimate) -> dict:
    return {"value": e.value, "err": e.err, "method": e.method,
            "diagnostics": e.diagnostics}


def cmd_polygon(args) -> int:
    _check_int("--depth", args.depth, 0, math.inf)
    poly = _poly_from_args(args, default_q=1)
    print(f"p = {poly.p}  m = {poly.m}  q = {list(poly.q)}")
    print(f"area        {poly.area:.6f}")
    print(f"edge length {poly.edge_length:.6f}")
    print(f"inradius    {poly.inradius:.6f}")
    print(f"diameter    {poly.diameter:.6f}")
    if args.svg:
        cs = enumerate_chambers(poly, max_depth=args.depth,
                                cap=_SVG_CHAMBER_CAP)
        tessellation_svg(poly, cs).write(args.svg)
        print(f"wrote {args.svg}")
    return 0


def cmd_santalo(args) -> int:
    _check_int("--samples", args.samples, 10_000, _MAX_SAMPLES)
    poly = _poly_from_args(args)
    r = santalo_monte_carlo(poly, args.samples, args.seed)
    print(f"closed form   {r.closed_form:.6f}")
    print(f"monte carlo   {r.monte_carlo:.6f} +/- {r.mc_stderr:.6f}")
    print(f"flux constant {r.c_constant_used:.6f}")
    print(f"samples {r.samples}  seed {r.seed}  resampled {r.resampled}")
    print(f"vertex samples {r.vertex_samples}  max value {r.max_value:.6f}")
    return 0


def cmd_pressure(args) -> int:
    for flag, value, low in (("--n-u", args.n_u, 4),
                             ("--n-theta", args.n_theta, 4),
                             ("--k", args.k, 1)):
        _check_int(flag, value, low, math.inf)
    _check_pressure_grid("--p, --n-u, --n-theta and --k", args.p, args.n_u,
                         args.n_theta, args.k)
    _check_float("--tol", args.tol)
    poly = _poly_from_args(args)
    model = build_cross_section(poly, (args.n_u, args.n_theta), args.k,
                                args.seed)
    est = solve_entropy(model, tol=args.tol, refine=not args.no_refine)
    print(f"h = {est.value:.6f} +/- {est.err:.6f}  ({est.method})")
    if args.curve:
        lo, hi, n = est.value - 0.5, est.value + 0.5, 21
        rows = pressure_curve(model, np.linspace(lo, hi, n))
        with open(args.curve, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["h", "pressure_log_radius"])
            w.writerows(rows)
        print(f"wrote {args.curve}")
    return 0


def cmd_growth(args) -> int:
    _check_float("--radius-cut", args.radius_cut)
    for value in args.window:
        _check_float("--window", value)
    poly = _poly_from_args(args)
    bg = ball_growth(poly, args.radius_cut, args.window[0], args.window[1])
    slope, err = growth_slope(bg.table, poly.diameter)
    print(f"chambers {bg.chambers}  reach {bg.reach:.3f}")
    print(f"slope = {slope:.6f} +/- {err:.6f}")
    return 0


def cmd_graph(args) -> int:
    _check_float("--tol", args.tol)
    with open(args.file) as fh:
        g = MetricGraph.from_json(fh.read())
    est = graph_entropy(g, tol=args.tol)
    flag = " (degenerate: single circuit)" if est.diagnostics.get(
        "degenerate") else ""
    print(f"h = {est.value:.10f} +/- {est.err:.1e}{flag}")
    return 0


def cmd_orbits(args) -> int:
    _check_float("--lam", args.lam, 1.0)
    B = np.array(args.b, dtype=float).reshape(2, 2)
    fam = geodesic_lengths(args.lam, B, args.k_max)
    sec, mx = affine_deviation(fam)
    rows = family_rows(fam)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "length", "length_formula", "asymptote_gap"])
            w.writerows(rows)
        print(f"wrote {args.csv}")
    if args.svg:
        orbit_svg(fam).write(args.svg)
        print(f"wrote {args.svg}")
    print(f"lambda {fam.lam}  degenerate {fam.degenerate}")
    print(f"max |second difference| {mx:.3e}")
    for k, l, lf, dv in rows[: args.k_max]:
        print(f"k={k:3d}  l={l:.9f}  gap={dv:.3e}")
    return 0


def _growth_estimate(poly, gc: dict) -> EntropyEstimate:
    """Ball-growth slope of the entropy config's growth section."""
    bg = ball_growth(poly, gc["radius_cut"], gc["window"][0],
                     gc["window"][1], gc["rows"])
    slope, serr = growth_slope(bg.table, poly.diameter)
    return EntropyEstimate(
        value=slope, err=serr, method="ball_growth",
        diagnostics={"chambers": bg.chambers,
                     "chambers_per_depth": bg.chambers_per_depth,
                     "reach": bg.reach, "window": gc["window"]})


def cmd_entropy(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = validate_config(json.load(fh))
    else:
        cfg = validate_config({})
    out = _out_dir(cfg)
    poly = _poly_from_cfg(cfg)
    results: dict = {}
    timings: dict = {}
    failures = []

    t0 = time.perf_counter()
    try:
        pc = cfg["pressure"]
        model = build_cross_section(poly, (pc["n_u"], pc["n_theta"]),
                                    pc["k"], cfg["seed"])
        ulam = solve_entropy(model, bracket=tuple(pc["bracket"]),
                             tol=pc["tol"])
        results["ulam"] = _estimate_doc(ulam)
        curve = pressure_curve(model, np.linspace(ulam.value - 0.5,
                                                  ulam.value + 0.5, 21))
        with open(os.path.join(out, "curves.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["h", "pressure_log_radius"])
            w.writerows(curve)
        results["curve"] = {"points": len(curve),
                            "power_iters": curve.power_iters,
                            "max_bracket_width": curve.max_bracket_width}
    except VolentError as exc:
        failures.append(("pressure", str(exc)))
        ulam = None
    timings["pressure"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        growth = _growth_estimate(poly, cfg["growth"])
        results["growth"] = _estimate_doc(growth)
    except VolentError as exc:
        failures.append(("growth", str(exc)))
        growth = None
    timings["growth"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        sc = cfg["santalo"]
        sr = santalo_monte_carlo(poly, sc["samples"], sc["seed"])
        results["santalo"] = {
            "closed_form": sr.closed_form, "monte_carlo": sr.monte_carlo,
            "mc_stderr": sr.mc_stderr, "c_constant_used": sr.c_constant_used,
            "samples": sr.samples, "seed": sr.seed,
            "resampled": sr.resampled, "vertex_samples": sr.vertex_samples,
            "max_value": sr.max_value}
    except VolentError as exc:
        failures.append(("santalo", str(exc)))
    timings["santalo"] = time.perf_counter() - t0

    bounds = lower_bound_2d(poly)
    estimates = [e for e in (ulam, growth) if e is not None]
    results["bounds"] = {"paper_literal": bounds.paper_literal_bound,
                         "derived_constant": bounds.derived_constant_bound}
    if estimates:
        strict = strictness_report(poly, estimates)
        results["strictness"] = {"margin": strict.strictness_margin,
                                 "flag": strict.flag}

    report = {"version": __version__, "config": cfg, "results": results,
              "failures": failures, "timings": timings}
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps({k: v for k, v in report.items() if k != "timings"},
                     indent=2, sort_keys=True))
    return 0 if not failures else 1


def cmd_report(args) -> int:
    with open(args.file) as fh:
        report = json.load(fh)
    res = report.get("results", {})
    print(f"version {report.get('version')}")
    for name, doc in res.items():
        print(f"[{name}]")
        for k, v in doc.items():
            print(f"  {k}: {v}")
    return 0


def _add_poly_args(sp, default_q=2):
    sp.add_argument("--p", type=int, default=5)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--q", type=lambda s: [int(x) for x in s.split(",")],
                    default=None,
                    help="comma-separated q per edge (default uniform "
                         f"{default_q})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="volent",
        description="volume entropy of hyperbolic building quotients and "
                    "metric graphs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("polygon", help="polygon geometry and tessellation")
    _add_poly_args(sp, default_q=1)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--depth", type=int, default=3)
    sp.set_defaults(fn=cmd_polygon)

    sp = sub.add_parser("santalo", help="Santalo integral, closed form + MC")
    _add_poly_args(sp)
    sp.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_santalo)

    sp = sub.add_parser("pressure", help="cross-section pressure solver")
    _add_poly_args(sp)
    sp.add_argument("--n-u", type=int, default=32)
    sp.add_argument("--n-theta", type=int, default=32)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--no-refine", action="store_true")
    sp.add_argument("--curve", default=None, help="CSV path for the "
                    "(h, pressure) curve")
    sp.set_defaults(fn=cmd_pressure)

    sp = sub.add_parser("growth", help="weighted chamber ball growth")
    _add_poly_args(sp)
    sp.add_argument("--radius-cut", type=float, default=12.7)
    sp.add_argument("--window", type=float, nargs=2, default=[4.0, 11.0])
    sp.set_defaults(fn=cmd_growth)

    sp = sub.add_parser("graph", help="metric graph entropy")
    sp.add_argument("--file", required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.set_defaults(fn=cmd_graph)

    sp = sub.add_parser("orbits", help="closed geodesic family lengths")
    sp.add_argument("--lam", type=float, default=2.0)
    sp.add_argument("--b", type=lambda s: [float(x) for x in s.split(",")],
                    default=[1.0, 1.0, 1.0, 2.0],
                    help="B entries a,b,c,d")
    sp.add_argument("--k-max", type=int, default=30)
    sp.add_argument("--csv", default=None)
    sp.add_argument("--svg", default=None)
    sp.set_defaults(fn=cmd_orbits)

    sp = sub.add_parser("entropy", help="full experiment from a config")
    sp.add_argument("--config", default=None)
    sp.set_defaults(fn=cmd_entropy)

    sp = sub.add_parser("report", help="render a report.json as text")
    sp.add_argument("--file", required=True)
    sp.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _INPUT_ERRORS as exc:
        print(f"error (input): {exc}", file=sys.stderr)
        return 2
    except VolentError as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
