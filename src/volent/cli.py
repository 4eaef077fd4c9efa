"""Command-line frontend.

Subcommands wire the geometry, pressure, growth, Santalo, graph, and
orbit modules into seeded, reproducible experiments. `volent entropy`
runs the pressure, growth and Santalo stages on a JSON config in two
processes (so it needs POSIX fork): a forked child runs growth and the
refined root, the parent the coarse root and its curve, then Santalo.
`_stage` runs each, returning its value or its VolentError, timed under
its name; after the join one block folds the refined root in, as
`volent pressure` does, and lists the failures in stage order. `volent
pressure`, `growth` and `santalo` each run one stage whole on the config
their flags give. Each input is one `_INPUTS` row (config key, flag,
default, check). Reports are JSON with a separate timings block: every
field outside it is reproducible for a fixed config and version.

Exit codes: 0 success, 1 numerical non-convergence, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .coxeter import ball_growth, enumerate_chambers, growth_slope
from .errors import (BadThickness, Degenerate, NonHyperbolic,
                     StageProcessLost, VolentError, _above, _int, _is_finite,
                     _is_int, _require)
from .graphs import MetricGraph, graph_entropy
from .hypgeom import regular_polygon
from .measures import (DEFAULT_SAMPLES, lower_bound_2d, santalo_monte_carlo,
                       strictness_report)
from .orbits import affine_deviation, family_rows, geodesic_lengths
from .svg import orbit_svg, tessellation_svg
from .symbolic import (REFINE, EntropyEstimate, build_cross_section,
                       pressure_curve, refined_root, solve_entropy,
                       with_refinement)

# Every other VolentError is numerical and maps to exit 1.
# OSError: an input or output path that is missing, a directory, a file
# or not writable. RecursionError: json refuses arrays or objects nested
# too deep. MemoryError: numpy refuses an array sized by a huge sample
# or row count.
_INPUT_ERRORS = (ValueError, KeyError, NonHyperbolic, BadThickness,
                 Degenerate, json.JSONDecodeError, OSError,
                 RecursionError, MemoryError)

# The most samples one stage may draw, refused before any stage starts.
# The stages it caps peak at up to 60 bytes per sample (tracemalloc on
# the right-angled pentagon), so about 0.6 GB at 1e7 samples: the
# refined pressure grid's build_cross_section at 60 bytes (1.15e6
# samples on 160x160, K = 3) and the Santalo Monte Carlo at 33 bytes
# (1e6 samples; a fresh `volent santalo` at 1e7 peaks at 344 MB RSS).
# `volent entropy` runs the two at once, the refined grid in a forked
# child and Santalo in the parent, so a run at both caps holds up to
# about 0.6 GB in the child and 0.35 GB in the parent, about 1 GB in all.
_MAX_SAMPLES = 10_000_000

# The most chambers `volent polygon --svg` draws, refused before drawing:
# the default pentagon at depth 9 (20,901 chambers) takes about 8 s and
# writes a 40 MB file.
_SVG_CHAMBER_CAP = 25_000


@dataclass(frozen=True)
class _Input:
    """One input: config key ("section.name" or top-level), the flag that
    also sets it (None: config only), default, test and test in words."""

    key: str
    flag: str | None
    default: object
    ok: object
    what: str


_INPUTS = (
    _Input("polygon.p", "--p", 5, *_int(3)),
    _Input("polygon.m", "--m", 2, *_int(2)),
    _Input("polygon.q", "--q", [2] * 5, lambda q: isinstance(q, list) and all(
        _is_int(v) and v >= 1 for v in q), "a list of integers >= 1"),
    _Input("pressure.n_u", "--n-u", 32, *_int(4)),
    _Input("pressure.n_theta", "--n-theta", 32, *_int(4)),
    _Input("pressure.k", "--k", 3, *_int(1)),
    _Input("pressure.tol", "--tol", 1e-4, *_above()),
    _Input("growth.window", "--window", [4.0, 11.0],
           lambda b: isinstance(b, list) and len(b) == 2
           and all(map(_is_finite, b)) and 0 < b[0] < b[1],
           "two finite numbers 0 < lo < hi"),
    _Input("santalo.samples", "--samples", DEFAULT_SAMPLES,
           *_int(10_000, _MAX_SAMPLES)),
    _Input("santalo.seed", "--seed", 0, *_int(0)),
    _Input("seed", "--seed", 0, *_int(0)),     # the pressure stage's seed
    _Input("output_dir", None, None, lambda v: v is None or isinstance(v, str),
           "null or a string"),
)

# The config key prefixes each subcommand with flags reads (entropy: "").
_READS = {"polygon": ("polygon.",), "growth": ("polygon.", "growth."),
          "pressure": ("polygon.", "pressure.", "seed"),
          "santalo": ("polygon.", "santalo.")}
_FLAGS = {row.key: row.flag for row in _INPUTS}


def _slot(cfg: dict, key: str) -> tuple:
    """The dict that holds config key `key`, and the key's name in it."""
    sec, _, sub = key.partition(".")
    return (cfg.setdefault(sec, {}), sub) if sub else (cfg, sec)


def _defaults() -> dict:
    cfg: dict = {}
    for row in _INPUTS:
        d, k = _slot(cfg, row.key)
        d[k] = json.loads(json.dumps(row.default))   # a fresh list
    return cfg


def _name(by_flag: bool, *keys: str) -> str:
    """The inputs `keys` as an error names them: by flag or config key."""
    names = [_FLAGS[k] if by_flag else k for k in keys]
    listed = " and ".join(filter(None, (", ".join(names[:-1]), names[-1])))
    return listed if by_flag else f"config key{'s' * (len(keys) > 1)} {listed}"


def _check(cfg: dict, reads: tuple, by_flag: bool, side: int = REFINE) -> None:
    """Check every input of cfg that `reads` names, then the rules across
    them, naming a bad input by its flag or by its config key. The sample
    cap counts the pressure grid refined side times per side."""
    for row in _INPUTS:
        if row.key.startswith(reads) and (row.flag or not by_flag):
            d, k = _slot(cfg, row.key)
            _require(_name(by_flag, row.key), d[k], row.ok, row.what)
    p, m, q = (cfg["polygon"][k] for k in "pmq")
    pc = cfg["pressure"]
    n = p * (side * pc["n_u"]) * (side * pc["n_theta"]) * pc["k"] ** 2
    if "pressure.k".startswith(reads) and n > _MAX_SAMPLES:
        keys = ("polygon.p", "pressure.n_u", "pressure.n_theta", "pressure.k")
        size, grid = ((f"({side}*n_u)*({side}*n_theta)", "refined ")
                      if side > 1 else ("n_u*n_theta", ""))
        raise ValueError(f"{_name(by_flag, *keys)} give p*{size}*k^2 = {n} "
                         f"samples on the {grid}pressure grid, more than "
                         f"{_MAX_SAMPLES}")
    if len(q) != p:
        raise ValueError(f"{_name(by_flag, 'polygon.q')} must have one "
                         f"entry per wall, got {len(q)} for "
                         f"{_name(by_flag, 'polygon.p')} = {p}")
    # the two walls at a vertex of angle pi/m with m odd are conjugate,
    # so a building gives every wall of the polygon the same thickness
    if m % 2 and len(set(q)) > 1:
        raise ValueError(f"{_name(by_flag, 'polygon.q')} must be equal on "
                         f"every wall for odd m (adjacent walls are "
                         f"conjugate), got {q}")


def validate_config(cfg: dict) -> dict:
    """Merge over the defaults, rejecting unknown keys and badly typed or
    out-of-range values by config key."""
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    merged = _defaults()
    for key, val in cfg.items():
        if key not in merged:
            raise ValueError(f"unknown config key: {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(val, dict):
                raise ValueError(f"config key {key!r} must be an object")
            for sub in val:
                if sub not in merged[key]:
                    raise ValueError(f"unknown config key: {key}.{sub}")
            merged[key].update(val)
        else:
            merged[key] = val
    _check(merged, ("",), by_flag=False)
    return merged


def _flag_config(args) -> dict:
    """The defaults with the inputs a subcommand reads set from its flags,
    checked by flag; the sample cap counts the grid the subcommand builds,
    unrefined under --no-refine."""
    cfg = _defaults()
    for row in _INPUTS:
        if row.flag and row.key.startswith(_READS[args.cmd]):
            d, k = _slot(cfg, row.key)
            d[k] = getattr(args, row.flag[2:].replace("-", "_"))
    pc = cfg["polygon"]
    if len(pc["q"]) == 1:    # one --q value is the thickness of every wall
        pc["q"] = pc["q"] * pc["p"]
    side = 1 if getattr(args, "no_refine", False) else REFINE
    _check(cfg, _READS[args.cmd], by_flag=True, side=side)
    return cfg


def _polygon(cfg: dict):
    pc = cfg["polygon"]
    return regular_polygon(pc["p"], pc["m"], tuple(pc["q"]))


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _pressure_stage(poly, cfg: dict) -> tuple:
    """The cross-section model of the config and its unrefined root."""
    pc = cfg["pressure"]
    model = build_cross_section(poly, (pc["n_u"], pc["n_theta"]), pc["k"],
                                cfg["seed"])
    return model, solve_entropy(model, tol=pc["tol"], refine=False)


def _refined_root(poly, cfg: dict) -> float:
    """The entropy root on the config's grid refined REFINE times."""
    pc = cfg["pressure"]
    return refined_root(poly, (pc["n_u"], pc["n_theta"]), pc["k"],
                        cfg["seed"], pc["tol"])


def _curve(model, h: float):
    """The pressure curve at 21 points of [h - 0.5, h + 0.5]."""
    return pressure_curve(model, np.linspace(h - 0.5, h + 0.5, 21))


def _write_curve(path: str, curve) -> None:
    _write_csv(path, ["h", "pressure_log_radius"], curve)


def _growth_stage(poly, cfg: dict) -> EntropyEstimate:
    """Ball-growth slope of the config's growth window, on ball_growth's
    default row grid."""
    gc = cfg["growth"]
    bg = ball_growth(poly, *gc["window"])
    slope, serr = growth_slope(bg.table, poly.diameter)
    return EntropyEstimate(
        value=slope, err=serr, method="ball_growth",
        diagnostics={"chambers": bg.chambers,
                     "chambers_per_depth": bg.chambers_per_depth,
                     "window": gc["window"]})


def cmd_polygon(args) -> int:
    _require("--depth", args.depth, *_int(0))
    poly = _polygon(_flag_config(args))
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
    cfg = _flag_config(args)
    r = santalo_monte_carlo(_polygon(cfg), **cfg["santalo"])
    print(f"closed form   {r.closed_form:.6f}")
    print(f"monte carlo   {r.monte_carlo:.6f} +/- {r.mc_stderr:.6f}")
    print(f"flux constant {r.c_constant_used:.6f}")
    print(f"samples {r.samples}  seed {r.seed}  resampled {r.resampled}")
    print(f"vertex samples {r.vertex_samples}  max value {r.max_value:.6f}")
    return 0


def cmd_pressure(args) -> int:
    cfg = _flag_config(args)
    poly = _polygon(cfg)
    model, est = _pressure_stage(poly, cfg)
    if not args.no_refine:
        est = with_refinement(est, _refined_root(poly, cfg))
    print(f"h = {est.value:.6f} +/- {est.err:.6f}  ({est.method})")
    if args.curve:
        _write_curve(args.curve, _curve(model, est.value))
        print(f"wrote {args.curve}")
    return 0


def cmd_growth(args) -> int:
    cfg = _flag_config(args)
    est = _growth_stage(_polygon(cfg), cfg)
    print(f"chambers {est.diagnostics['chambers']}")
    print(f"slope = {est.value:.6f} +/- {est.err:.6f}")
    return 0


def cmd_graph(args) -> int:
    _require("--tol", args.tol, *_above())
    with open(args.file) as fh:
        g = MetricGraph.from_json(fh.read())
    est = graph_entropy(g, tol=args.tol)
    flag = " (degenerate: single circuit)" if est.diagnostics.get(
        "degenerate") else ""
    print(f"h = {est.value:.10f} +/- {est.err:.1e}{flag}")
    return 0


def cmd_orbits(args) -> int:
    _require("--lam", args.lam, *_above(1.0))
    _require("--b", args.b, lambda b: len(b) == 4, "four entries a,b,c,d")
    B = np.array(args.b, dtype=float).reshape(2, 2)
    fam = geodesic_lengths(args.lam, B, args.k_max)
    sec, mx = affine_deviation(fam)
    rows = family_rows(fam)
    if args.csv:
        _write_csv(args.csv, ["k", "length", "length_formula",
                              "asymptote_gap"], rows)
        print(f"wrote {args.csv}")
    if args.svg:
        orbit_svg(fam).write(args.svg)
        print(f"wrote {args.svg}")
    print(f"lambda {fam.lam}  degenerate {fam.degenerate}")
    print(f"max |second difference| {mx:.3e}")
    for k, l, lf, dv in rows[: args.k_max]:
        print(f"k={k:3d}  l={l:.9f}  gap={dv:.3e}")
    return 0


def _stage(timings: dict, name: str, run, *args, **kwargs):
    """run(*args, **kwargs), timed into timings[name]. A VolentError is
    returned, not raised: it fails the stage, not the run."""
    t0 = time.perf_counter()
    try:
        return run(*args, **kwargs)
    except VolentError as exc:
        return exc
    finally:
        timings[name] = time.perf_counter() - t0


def _child_stages(conn, poly, cfg: dict) -> None:
    """The forked child of `volent entropy`: the outcomes of growth and
    of the refined root, and their timings, sent back whole. An exception
    that is not a VolentError is sent back to be raised."""
    timings: dict = {}
    try:
        reply = (_stage(timings, "growth", _growth_stage, poly, cfg),
                 _stage(timings, "pressure_refined", _refined_root, poly,
                        cfg), timings)
    except Exception as exc:
        reply = exc
    conn.send(reply)


def cmd_entropy(args) -> int:
    if args.config:
        with open(args.config) as fh:
            cfg = validate_config(json.load(fh))
    else:
        cfg = validate_config({})
    out = cfg["output_dir"] or "."
    os.makedirs(out, exist_ok=True)
    poly = _polygon(cfg)
    timings: dict = {}

    # fork, not spawn: the child shares poly and cfg without a fresh
    # import. It is forked before the parent's pressure stage, so the two
    # root solves run side by side, each on numpy alone. Both processes
    # draw from numpy.random, so it is imported here, once, and its pages
    # are shared with the child instead of loaded twice; importing the
    # CLI does not pay for it.
    import multiprocessing

    import numpy.random  # noqa: F401

    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_stages, args=(send_end, poly, cfg))
    child.start()
    send_end.close()
    try:
        coarse = _stage(timings, "pressure", _pressure_stage, poly, cfg)
        curve = None
        if not isinstance(coarse, VolentError):
            model, coarse = coarse
            curve = _stage(timings, "pressure_curve", _curve, model,
                           coarse.value)
            del model   # before Santalo, which sets this process's peak
        santalo = _stage(timings, "santalo", santalo_monte_carlo, poly,
                         **cfg["santalo"])
        try:
            reply = recv_end.recv()
        except EOFError:
            child.join()
            raise StageProcessLost(
                f"the growth and refined pressure process exited with code "
                f"{child.exitcode} before sending its results") from None
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        recv_end.close()
    if isinstance(reply, Exception):
        raise reply
    growth, h_refined, child_timings = reply
    timings.update(child_timings)

    # The pressure stage fails on the coarse root's error, else on the
    # refined root's, else on the curve's. Only a failed curve leaves ulam
    # in the report, and then out of the strictness verdict.
    results, failures, ulam = {}, [], None
    pressure = coarse if isinstance(coarse, VolentError) else h_refined
    if not isinstance(pressure, VolentError):
        est = with_refinement(coarse, h_refined)
        results["ulam"] = asdict(est)
        pressure = curve
        if not isinstance(curve, VolentError):
            ulam = est
            _write_curve(os.path.join(out, "curves.csv"), curve)
            results["curve"] = {"points": len(curve),
                                "power_iters": curve.power_iters,
                                "max_bracket_width": curve.max_bracket_width}
    for name, outcome in (("pressure", pressure), ("growth", growth),
                          ("santalo", santalo)):
        if isinstance(outcome, VolentError):
            failures.append((name, str(outcome)))
        elif name != "pressure":
            results[name] = asdict(outcome)

    estimates = [e for e in (ulam, growth) if isinstance(e, EntropyEstimate)]
    bounds = (strictness_report(poly, estimates) if estimates
              else lower_bound_2d(poly))
    results["bounds"] = {"paper_literal": bounds.paper_literal_bound,
                         "derived_constant": bounds.derived_constant_bound}
    if estimates:
        results["strictness"] = {"margin": bounds.strictness_margin,
                                 "flag": bounds.flag}

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
    res = report.get("results", {}) if isinstance(report, dict) else None
    if not (isinstance(res, dict)
            and all(isinstance(doc, dict) for doc in res.values())):
        raise ValueError("a report must be a JSON object whose \"results\" "
                         "maps each name to an object")
    print(f"version {report.get('version')}")
    for name, doc in res.items():
        print(f"[{name}]")
        for k, v in doc.items():
            print(f"  {k}: {v}")
    return 0


def _add_stage(sub, cmd: str, fn, text: str):
    """A subcommand whose flags are those of the _INPUTS it reads."""
    sp = sub.add_parser(cmd, help=text)
    sp.set_defaults(fn=fn)
    for row in _INPUTS:
        if row.flag and row.key.startswith(_READS[cmd]):
            kw = {"type": type(row.default), "default": row.default}
            if row.key == "polygon.q":
                # one thickness on each of the --p walls: the config's, or
                # q = 1 (a thin building) for `volent polygon`
                kw["default"] = [1] if cmd == "polygon" else row.default[:1]
                kw.update(type=lambda s: [int(x) for x in s.split(",")],
                          help=f"comma-separated q per edge, or one q for "
                               f"every edge (default {kw['default'][0]})")
            elif isinstance(row.default, list):
                kw.update(type=float, nargs=len(row.default),
                          default=list(row.default))
            sp.add_argument(row.flag, **kw)
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="volent",
        description="volume entropy of hyperbolic building quotients and "
                    "metric graphs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = _add_stage(sub, "polygon", cmd_polygon,
                    "polygon geometry and tessellation")
    sp.add_argument("--svg", default=None)
    sp.add_argument("--depth", type=int, default=3)
    _add_stage(sub, "santalo", cmd_santalo,
               "Santalo integral, closed form + MC")
    sp = _add_stage(sub, "pressure", cmd_pressure,
                    "cross-section pressure solver")
    sp.add_argument("--no-refine", action="store_true")
    sp.add_argument("--curve", default=None, help="CSV path for the "
                    "(h, pressure) curve")
    _add_stage(sub, "growth", cmd_growth, "weighted chamber ball growth")

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
