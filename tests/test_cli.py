import hashlib
import json
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys
import time
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volent import cli, coxeter
from volent.cli import main, validate_config
from volent.coxeter import enumerate_chambers
from volent.errors import (BracketFailed, PowerIterationStalled,
                           WindowTooNarrow)
from volent.hypgeom import regular_polygon
from volent.measures import lower_bound_2d
from volent.symbolic import (MODEL_COUNTERS, EntropyEstimate,
                             build_cross_section, solve_entropy)


def run(capsys, *argv):
    # the exit code the shell sees: argparse exits 2 on a flag it lacks
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_polygon_values(capsys):
    code, out, _ = run(capsys, "polygon", "--p", "5", "--m", "2")
    assert code == 0
    assert "area        1.570796" in out
    assert "inradius    0.626870" in out


def test_polygon_rejects_non_hyperbolic(capsys):
    code, _, err = run(capsys, "polygon", "--p", "4", "--m", "2")
    assert code == 2
    assert "error (input)" in err


def test_polygon_svg(tmp_path, capsys):
    svg = tmp_path / "tess.svg"
    code, out, _ = run(capsys, "polygon", "--svg", str(svg), "--depth", "2")
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    # one polyline per wall of each of the 1 + 5 + 15 chambers
    assert text.count("<polyline") == 5 * 21


def test_polygon_svg_capped(tmp_path, capsys, monkeypatch):
    # (8,4) has 1,085,905 chambers up to depth 7; the walk stops at the
    # cap, before anything is drawn
    def no_draw(*args):
        raise AssertionError("drew past the chamber cap")
    monkeypatch.setattr(cli, "tessellation_svg", no_draw)
    svg = tmp_path / "tess.svg"
    code, _, err = run(capsys, "polygon", "--p", "8", "--m", "4", "--svg",
                       str(svg), "--depth", "7")
    assert code == 1
    assert f"cap={cli._SVG_CHAMBER_CAP}" in err
    assert not svg.exists()


def test_graph_subcommand(tmp_path, capsys):
    doc = {"vertices": 2, "edges": [{"src": 0, "dst": 1, "len": 1.0}] * 3}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "graph", "--file", str(path))
    assert code == 0
    assert f"{math.log(2):.10f}" in out


def test_graph_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "graph", "--file", str(path))
    assert code == 2


def test_graph_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "graph", "--file", str(path))
    assert code == 2
    assert "error (input)" in err


def test_graph_missing_file(capsys):
    code, _, err = run(capsys, "graph", "--file", "/nonexistent/g.json")
    assert code == 2


def test_graph_file_is_a_directory(tmp_path, capsys):
    code, _, err = run(capsys, "graph", "--file", str(tmp_path))
    assert code == 2
    assert "error (input)" in err


def test_orbits_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "orb.csv"
    svg_path = tmp_path / "orb.svg"
    code, out, _ = run(capsys, "orbits", "--k-max", "6",
                       "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,length,length_formula,asymptote_gap"
    assert len(lines) == 7
    assert svg_path.read_text().startswith("<svg")
    assert "k=  1" in out


def test_orbits_bad_matrix(capsys):
    code, _, err = run(capsys, "orbits", "--b", "1,0,0,2")
    assert code == 2


def test_orbits_too_few_lengths(capsys):
    code, _, err = run(capsys, "orbits", "--k-max", "2")
    assert code == 2
    assert "error (input)" in err


@pytest.mark.parametrize("argv", [["--k-max", "600"],
                                  ["--k-max", "2000000"],
                                  ["--lam", "1e200", "--k-max", "3"]])
def test_orbits_overflow_is_an_input_error(capsys, argv):
    # lambda^(2k) leaves float range (from k = 512 at lambda = 2): exit 2
    # naming k_max and lambda, not a table of inf or nan lengths, and
    # without multiplying on up to k_max
    t0 = time.perf_counter()
    code, out, err = run(capsys, "orbits", *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert "k_max" in err and "lambda" in err and "Traceback" not in err
    assert "inf" not in out and "nan" not in out


def test_orbits_largest_finite_family(capsys):
    code, out, _ = run(capsys, "orbits", "--k-max", "500")
    assert code == 0
    assert "k=500" in out and "inf" not in out and "nan" not in out


def test_santalo_small(capsys):
    code, out, _ = run(capsys, "santalo", "--samples", "20000")
    assert code == 0
    assert "flux constant" in out
    assert "vertex samples 6000  max value" in out


def test_flag_defaults_are_config_defaults():
    # each input has one default, in its cli._INPUTS row: a subcommand
    # parsed with no flags reads validate_config({})'s value for every
    # flag. The one exception is `volent polygon`'s uniform q = 1 (a thin
    # building) where the stages read the config's q = 2.
    defaults = validate_config({})
    seen = set()
    for cmd, reads in cli._READS.items():
        args = cli.build_parser().parse_args([cmd])
        for row in cli._INPUTS:
            if not (row.flag and row.key.startswith(reads)):
                continue
            seen.add(row.key)
            value = getattr(args, row.flag[2:].replace("-", "_"))
            sec, _, sub = row.key.partition(".")
            want = defaults[sec][sub] if sub else defaults[sec]
            if row.key == "polygon.q":   # one thickness on each wall
                value = value * args.p
                want = [1] * 5 if cmd == "polygon" else want
            assert value == want, (cmd, row.flag)
    assert seen == {row.key for row in cli._INPUTS if row.flag}
    args = cli.build_parser().parse_args(["santalo"])
    assert args.samples == defaults["santalo"]["samples"] == 125_000


def test_santalo_samples_too_large(capsys):
    # 1e12 float64 samples (7.3 TiB) are refused at allocation
    code, _, err = run(capsys, "santalo", "--samples", "1000000000000")
    assert code == 2
    assert "error (input)" in err


# The functions through which the CLI subcommands reach geometry,
# sampling, tracing and enumeration.
_STAGES = ("regular_polygon", "santalo_monte_carlo", "build_cross_section",
           "refined_root", "enumerate_chambers", "ball_growth")


def _no_stage(*args, **kwargs):
    raise AssertionError("a stage ran on a refused input")


@pytest.mark.parametrize("argv,flag", [
    (["santalo", "--samples", "10000001"], "--samples"),
    (["santalo", "--samples", "9999"], "--samples"),
    (["pressure", "--n-u", "100000"], "--n-u"),
    (["pressure", "--n-u", "3"], "--n-u"),
    (["pressure", "--n-theta", "100000"], "--n-theta"),
    (["pressure", "--k", "60"], "--k"),
    (["pressure", "--k", "0"], "--k"),
    (["polygon", "--svg", "tess.svg", "--depth", "-3"], "--depth"),
    # odd m: adjacent walls are conjugate, so a building has one q
    (["pressure", "--p", "5", "--m", "3", "--q", "2,3,2,3,4"], "--q"),
    (["polygon", "--p", "5", "--m", "3", "--q", "1,1,1,1,2"], "--q"),
    (["growth", "--p", "3", "--m", "7", "--q", "1,2,3"], "--q"),
    (["santalo", "--p", "4", "--m", "5", "--q", "2,2,3,2"], "--q"),
    (["santalo", "--seed", "-1"], "--seed"),
    (["pressure", "--seed", "-1"], "--seed"),
    (["growth", "--window", "11", "4"], "--window"),
    (["pressure", "--p", "2"], "--p"),
    (["pressure", "--m", "1"], "--m"),
])
def test_subcommand_sizes_checked(monkeypatch, capsys, argv, flag):
    # refused by name before any geometry, sampling or tracing runs
    for stage in _STAGES:
        monkeypatch.setattr(cli, stage, _no_stage)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err and "Traceback" not in err


def test_sample_cap_counts_the_grid_built(monkeypatch, capsys):
    # 5 * 500 * 500 * 2^2 = 5e6 samples on the unrefined grid, which is
    # all --no-refine draws, but 2e7 on the refined one: the cap once
    # counted the refined grid either way and refused the --no-refine run
    argv = ["pressure", "--p", "5", "--n-u", "500", "--n-theta", "500",
            "--k", "2"]
    cfg = cli._flag_config(cli.build_parser().parse_args(
        argv + ["--no-refine"]))
    assert (cfg["pressure"]["n_u"], cfg["pressure"]["k"]) == (500, 2)
    for stage in _STAGES:
        monkeypatch.setattr(cli, stage, _no_stage)
    code, _, err = run(capsys, *argv)
    assert code == 2 and "20000000 samples on the refined" in err
    assert "--p, --n-u, --n-theta and --k" in err
    # the unrefined grid keeps the cap: 5 * 1000 * 500 * 3^2 = 2.25e7
    with pytest.raises(ValueError, match="22500000 samples on the pressure"):
        cli._flag_config(cli.build_parser().parse_args(
            ["pressure", "--no-refine", "--n-u", "1000", "--n-theta", "500"]))


@pytest.mark.parametrize("argv", [
    ["pressure", "--n-u", "4", "--n-theta", "4", "--k", "1", "--no-refine"],
    ["growth", "--window", "4", "7"],
    ["santalo", "--samples", "10000"],
    ["polygon"],
])
def test_one_q_is_every_wall(capsys, argv):
    # one --q value is the thickness of each of the --p walls, as the
    # default is; two values for five walls are still refused by name
    code, one, _ = run(capsys, *argv, "--q", "3")
    assert code == 0
    assert run(capsys, *argv, "--q", "3,3,3,3,3") == (0, one, "")
    code, _, err = run(capsys, *argv, "--q", "3,3")
    assert code == 2 and "--q" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,flag", [
    (["pressure", "--tol", "nan"], "--tol"),
    (["pressure", "--tol", "-1"], "--tol"),
    (["pressure", "--tol", "0"], "--tol"),
    # the radius cut is no longer a flag: it exits 2 as unrecognized
    (["growth", "--radius-cut", "nan"], "--radius-cut"),
    (["growth", "--radius-cut", "inf"], "--radius-cut"),
    (["growth", "--window", "4", "nan"], "--window"),
    (["orbits", "--lam", "nan"], "--lam"),
    (["orbits", "--lam", "1"], "--lam"),
    (["growth", "--window", "4", "inf"], "--window"),
    (["growth", "--window", "-1", "11"], "--window"),
])
def test_float_flags_checked(monkeypatch, capsys, argv, flag):
    # a NaN, infinite or out-of-range float exits 2 by name before any
    # stage runs, instead of printing a NaN or negative error bar
    for stage in _STAGES + ("geodesic_lengths",):
        monkeypatch.setattr(cli, stage, _no_stage)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_graph_tol_checked(tmp_path, capsys, tol):
    doc = {"vertices": 2, "edges": [{"src": 0, "dst": 1, "len": 1.0}] * 3}
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "graph", "--file", str(path), "--tol", tol)
    assert code == 2
    assert "--tol" in err and "Traceback" not in err


def test_thickness_pattern_accepted_for_even_m():
    # a q pattern is a building's thickness for even m; odd m needs one q
    cfg = validate_config({"polygon": {"p": 4, "m": 4, "q": [1, 2, 1, 2]}})
    assert cfg["polygon"]["q"] == [1, 2, 1, 2]
    cfg = validate_config({"polygon": {"p": 4, "m": 3, "q": [2, 2, 2, 2]}})
    assert cfg["polygon"]["q"] == [2, 2, 2, 2]


def test_pressure_grid_bound_is_inclusive():
    # p * (2 n_u) * (2 n_theta) * k^2 = 5 * 1000 * 2000 * 1 = 1e7
    grid = {"n_u": 500, "n_theta": 1000, "k": 1}
    assert validate_config({"pressure": grid})["pressure"]["n_u"] == 500
    with pytest.raises(ValueError, match="pressure.n_theta"):
        validate_config({"pressure": dict(grid, n_theta=1001)})


def test_validate_config_unknown_keys():
    assert validate_config({})["seed"] == 0
    with pytest.raises(ValueError, match="bogus"):
        validate_config({"bogus": 1})
    with pytest.raises(ValueError, match=r"pressure\.n_x"):
        validate_config({"pressure": {"n_x": 3}})
    # keys cmd_entropy never reads are unknown, not silently ignored
    with pytest.raises(ValueError, match=r"growth\.max_depth"):
        validate_config({"growth": {"max_depth": 8}})
    with pytest.raises(ValueError, match="unknown config key: 'orbits'"):
        validate_config({"orbits": {"k_max": 30}})
    with pytest.raises(ValueError, match="unknown config key: 'graph'"):
        validate_config({"graph": "theta.json"})
    merged = validate_config({"pressure": {"k": 5}})
    assert merged["pressure"]["k"] == 5
    assert merged["pressure"]["n_u"] == 32


def test_radius_cut_config_key_unknown(tmp_path, capsys):
    # the growth walk stops at the window top, the root solve starts from
    # its own bracket and the growth fit takes ball_growth's row grid, so
    # a config that still sets one of these old keys is refused, not run
    # with the key ignored
    cfg = tmp_path / "cfg.json"
    for doc, key in (({"growth": {"radius_cut": 12.7}}, "growth.radius_cut"),
                     ({"pressure": {"bracket": [0.5, 4.0]}},
                      "pressure.bracket"),
                     ({"growth": {"rows": 24}}, "growth.rows")):
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "entropy", "--config", str(cfg))
        assert code == 2
        assert f"unknown config key: {key}" in err


def test_radius_cut_flag_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--radius-cut", "12.7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --radius-cut" in capsys.readouterr().err


def test_growth_window_top_capped(monkeypatch, capsys):
    # the window top alone sets the walk, so the chamber cap bounds it
    monkeypatch.setattr(coxeter, "CHAMBER_CAP", 1000)
    code, _, err = run(capsys, "growth", "--window", "4", "40")
    assert code == 1
    assert "cap=1000" in err


def test_entropy_config_errors(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "entropy", "--config", str(bad))
    assert code == 2
    bad.write_text("{broken")
    code, _, err = run(capsys, "entropy", "--config", str(bad))
    assert code == 2
    bad.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, "entropy", "--config", str(bad))
    assert code == 2
    assert "config must be a JSON object" in err


@pytest.mark.parametrize("pressure,key", [
    ({"n_u": "abc"}, "pressure.n_u"),
    ({"n_u": 3}, "pressure.n_u"),
    ({"n_theta": 8.0}, "pressure.n_theta"),
    ({"n_theta": True}, "pressure.n_theta"),
    ({"k": 0}, "pressure.k"),
    ({"k": None}, "pressure.k"),
    ({"tol": 0}, "pressure.tol"),
    ({"tol": -1e-4}, "pressure.tol"),
    ({"tol": "1e-4"}, "pressure.tol"),
    ({"tol": 10 ** 400}, "pressure.tol"),
    # the start bracket and the growth rows are no longer config keys:
    # their cases in this list exit 2 as unknown keys
    ({"bracket": [4.0, 0.5]}, "pressure.bracket"),
    ({"bracket": [0.5]}, "pressure.bracket"),
    ({"bracket": [0.5, "4"]}, "pressure.bracket"),
    ({"bracket": 4.0}, "pressure.bracket"),
    (5, "'pressure'"),
    ({"p": "5"}, "polygon.p"),
    ({"p": 2}, "polygon.p"),
    ({"m": 1.5}, "polygon.m"),
    ({"q": "2"}, "polygon.q"),
    ({"q": [2, 2, 2, 2, 0]}, "polygon.q"),
    ({"q": [2, 2.5, 2, 2, 2]}, "polygon.q"),
    # the radius cut is no longer a config key: it exits 2 as unknown
    ({"radius_cut": "x"}, "growth.radius_cut"),
    ({"radius_cut": 0}, "growth.radius_cut"),
    ({"radius_cut": float("nan")}, "growth.radius_cut"),
    ({"window": [11.0, 4.0]}, "growth.window"),
    ({"window": [0.0, 4.0]}, "growth.window"),
    ({"window": "x"}, "growth.window"),
    ({"rows": 2}, "growth.rows"),
    ({"rows": 24.0}, "growth.rows"),
    ({"samples": "x"}, "santalo.samples"),
    ({"samples": 9999}, "santalo.samples"),
    ({"samples": 1e6}, "santalo.samples"),
    ({"seed": -1}, "santalo.seed"),
    ({"seed": "0"}, "santalo.seed"),
    ("x", "seed"),
    (-1, "seed"),
    (1.5, "seed"),
    (5, "output_dir"),
    (["out"], "output_dir"),
    ({"rows": 10_001}, "growth.rows"),
    ({"samples": 10_000_001}, "santalo.samples"),
    ({"n_u": 10 ** 9}, "pressure.n_u"),
    ({"n_theta": 1_000_000}, "pressure.n_theta"),
    ({"k": 100}, "pressure.k"),
    ({"p": 100_000}, "polygon.p"),
    ({"p": 3, "m": 7, "q": [1, 2, 3]}, "polygon.q"),
    # q has one entry per wall: the default q has 5
    ({"p": 6}, "polygon.q"),
    ({"bracket": [-5.0, -1.0]}, "pressure.bracket"),
    ({"bracket": [-5.0, 0.0]}, "pressure.bracket"),
    # the window top alone sets how far the growth walk goes
    ({"window": [4.0, float("inf")]}, "growth.window"),
    ({"window": [4.0, 10 ** 400]}, "growth.window"),
    ({"window": [True, 11.0]}, "growth.window"),
])
def test_entropy_pressure_config_typed(monkeypatch, tmp_path, capsys,
                                      pressure, key):
    # each case is the value of the top-level key that `key` starts with;
    # it is refused before any stage runs
    for stage in _STAGES:
        monkeypatch.setattr(cli, stage, _no_stage)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key.split(".")[0].strip("'"): pressure}))
    code, _, err = run(capsys, "entropy", "--config", str(cfg))
    assert code == 2
    assert key in err and "Traceback" not in err


_json_scalar = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.integers(-3, 12), st.integers(),
                         st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _graph_docs(draw):
    """A small multigraph document with at most one field corrupted."""
    n = draw(st.integers(1, 4))
    edge = st.fixed_dictionaries({"src": st.integers(0, n - 1),
                                  "dst": st.integers(0, n - 1),
                                  "len": st.floats(0.25, 4.0)})
    edges = draw(st.lists(edge, min_size=n, max_size=10))
    doc = {"vertices": n, "edges": edges}
    where = draw(st.sampled_from(["none", "vertices", "src", "dst", "len",
                                  "edge", "edges", "doc"]))
    junk = draw(_json_scalar)
    i = draw(st.integers(0, len(edges) - 1))
    if where in ("vertices", "edges"):
        doc[where] = junk
    elif where == "edge":
        edges[i] = junk
    elif where == "doc":
        doc = junk
    elif where != "none":
        edges[i][where] = junk
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_graph_docs())
def test_graph_json_fuzz_exits_cleanly(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "graph", "--file", str(path))
    assert code in (0, 1, 2)
    assert "Traceback" not in err


_json_value = st.one_of(_json_scalar, st.lists(_json_scalar, max_size=3),
                       st.dictionaries(st.text(max_size=3), _json_scalar,
                                       max_size=2))


@st.composite
def _config_docs(draw):
    """A config document, from a random subset of valid fields, with at
    most one field corrupted."""
    valid = {
        "polygon": {"p": 5, "m": 2, "q": [2, 3, 2, 3, 4]},
        "pressure": {"n_u": 8, "n_theta": 8, "k": 2, "tol": 1e-3},
        "growth": {"window": [2.0, 5.0]},
        "santalo": {"samples": 20000, "seed": 1},
        "seed": 3,
        "output_dir": "out",
    }
    doc = {k: v for k, v in valid.items() if draw(st.booleans())}
    fields = ["none", "doc"] + [
        (k, sub) for k, v in doc.items()
        for sub in ([None] + list(v) if isinstance(v, dict) else [None])]
    where = draw(st.sampled_from(fields))
    junk = draw(_json_value)
    if where == "doc":
        return junk
    if where != "none":
        key, sub = where
        if sub is None:
            doc[key] = junk
        else:
            doc[key][sub] = junk
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_config_docs())
def test_config_fuzz_validates_or_rejects(doc):
    try:
        validate_config(doc)
    except ValueError:
        pass


FAST_CFG = {
    "polygon": {"p": 5, "m": 2, "q": [2, 2, 2, 2, 2]},
    "pressure": {"n_u": 8, "n_theta": 8, "k": 2, "tol": 1e-3},
    "growth": {"window": [2.0, 5.0]},
    "santalo": {"samples": 20000, "seed": 1},
    "seed": 3,
}


def test_entropy_output_dir_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "report"
    blocker.write_text("")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST_CFG, output_dir=str(blocker))))
    code, _, err = run(capsys, "entropy", "--config", str(p))
    assert code == 2
    assert "error (input)" in err


def test_entropy_report_reproducible(tmp_path, capsys):
    cfg = dict(FAST_CFG)
    docs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        cfg["output_dir"] = str(d)
        p = tmp_path / f"cfg_{sub}.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "entropy", "--config", str(p))
        assert code == 0
        doc = json.loads((d / "report.json").read_text())
        doc.pop("timings")
        doc["config"].pop("output_dir")
        docs.append(json.dumps(doc, sort_keys=True))
        # the curve's counters are part of the reproducible report
        curve = doc["results"]["curve"]
        rows = (d / "curves.csv").read_text().splitlines()[1:]
        assert curve["points"] == len(rows) == 21
        assert curve["power_iters"] >= curve["points"]
        assert curve["max_bracket_width"] > 0.0
    assert docs[0] == docs[1]


def test_entropy_growth_counters(tmp_path, capsys):
    cfg = dict(FAST_CFG, output_dir=str(tmp_path))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "entropy", "--config", str(p))
    assert code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    diag = doc["results"]["growth"]["diagnostics"]
    per_depth = diag["chambers_per_depth"]
    assert per_depth[:3] == [1, 5, 15]
    assert sum(per_depth) == diag["chambers"]
    # the walk to the window top is the whole ball of that radius
    poly = regular_polygon(5, 2, (2,) * 5)
    assert "reach" not in diag
    assert diag["chambers"] == len(enumerate_chambers(poly, radius_cut=5.0))


# sha256 of the default `volent entropy` outputs, recorded on x86-64
# (glibc libm): report.json without timings and output_dir, dumped with
# sorted keys, at version 0.3.3 (every estimate as at commit cd5014a; the
# root solve's power_iters, bracket_width, sign_brackets and
# skipped_signs as with the root enclosure), and curves.csv as written
# at commit cd5014a. They pin every bit, so a change that claims
# byte-identical outputs is checked here.
_ENTROPY_REPORT_DIGEST = ("2b01ec6bf65e542a19bbf9b78b62cd30"
                          "e55476b263e9823cd037b540c06b21b5")
_ENTROPY_CURVES_DIGEST = ("14e519ba1adc114c22f0f48989b598c3"
                          "9e995e6f92091e977d2c52bf858a15e0")


def test_entropy_default_ulam_counters(tmp_path, capsys):
    # the default run's report carries the coarse model's counters, and
    # its outputs match the recorded digests bit for bit
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"output_dir": str(tmp_path)}))
    code, _, _ = run(capsys, "entropy", "--config", str(p))
    assert code in (0, 1)
    report = json.loads((tmp_path / "report.json").read_text())
    report.pop("timings")
    report["config"].pop("output_dir")
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode(
    )).hexdigest() == _ENTROPY_REPORT_DIGEST
    assert hashlib.sha256((tmp_path / "curves.csv").read_bytes(
    )).hexdigest() == _ENTROPY_CURVES_DIGEST
    diag = report["results"]["ulam"]["diagnostics"]
    cfg = validate_config({})
    pc = cfg["pressure"]
    model = build_cross_section(regular_polygon(5, 2, (2,) * 5),
                                (pc["n_u"], pc["n_theta"]), pc["k"],
                                cfg["seed"])
    for key in MODEL_COUNTERS:
        assert diag[key] == model.diagnostics[key], key
    assert diag["grid_states"] == 5 * 32 * 32
    assert diag["total_samples"] == diag["grid_states"] * 3 ** 2
    assert 0 < diag["scc_states"] <= diag["grid_states"]


def test_entropy_santalo_counters(tmp_path, capsys):
    cfg = dict(FAST_CFG, output_dir=str(tmp_path))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "entropy", "--config", str(p))
    assert code == 0
    santalo = json.loads((tmp_path / "report.json").read_text())[
        "results"]["santalo"]
    # 30% of 20,000 base points come from the vertex sectors, and the
    # largest weighted sample stays near the mean of about 0.74
    assert santalo["vertex_samples"] == 6000
    assert 0.0 < santalo["max_value"] < 10.0


def test_report_render(tmp_path, capsys):
    cfg = dict(FAST_CFG, output_dir=str(tmp_path))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "entropy", "--config", str(p))
    assert code == 0
    code, out, _ = run(capsys, "report", "--file",
                       str(tmp_path / "report.json"))
    assert code == 0
    assert "[ulam]" in out and "[santalo]" in out


def _entropy_fast(tmp_path, capsys):
    """`volent entropy` on FAST_CFG: its exit code, stderr and report (None
    if it wrote none). No child process outlives the run."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FAST_CFG, output_dir=str(tmp_path))))
    code, _, err = run(capsys, "entropy", "--config", str(p))
    assert multiprocessing.active_children() == []
    path = tmp_path / "report.json"
    report = json.loads(path.read_text()) if path.exists() else None
    return code, err, report


def _raises(exc):
    def stage(*args, **kwargs):
        raise exc
    return stage


def test_entropy_child_stages_match_in_process(tmp_path, capsys):
    # growth and the refined pressure root run in a forked child, the
    # coarse root and Santalo in this one; their report entries are what
    # the same calls give in this process
    code, _, report = _entropy_fast(tmp_path, capsys)
    assert code == 0
    cfg = validate_config(dict(FAST_CFG))
    poly = regular_polygon(5, 2, (2,) * 5)
    pc = cfg["pressure"]
    ulam = solve_entropy(build_cross_section(
        poly, (pc["n_u"], pc["n_theta"]), pc["k"], cfg["seed"]),
        tol=pc["tol"], refine=True)
    for key, doc in (("growth", cli._growth_stage(poly, cfg)),
                     ("santalo", cli.santalo_monte_carlo(
                         poly, **cfg["santalo"])),
                     ("ulam", ulam)):
        assert report["results"][key] == json.loads(json.dumps(asdict(doc)))
    assert sorted(report["timings"]) == ["growth", "pressure",
                                         "pressure_refined", "santalo"]


def test_entropy_child_volent_error_fails_its_stage(tmp_path, capsys,
                                                    monkeypatch):
    # a VolentError in the child fails its stage, listed after the
    # pressure stage's; Santalo still runs
    monkeypatch.setattr(cli, "_pressure_stage",
                        _raises(BracketFailed("no root in bracket")))
    monkeypatch.setattr(cli, "_growth_stage",
                        _raises(WindowTooNarrow("too few rows")))
    code, err, report = _entropy_fast(tmp_path, capsys)
    assert code == 1 and "Traceback" not in err
    assert report["failures"] == [["pressure", "no root in bracket"],
                                  ["growth", "too few rows"]]
    assert set(report["results"]) == {"bounds", "santalo"}


@pytest.mark.parametrize("stage", ["_growth_stage", "_refined_root",
                                   "santalo_monte_carlo"])
def test_entropy_child_input_error_exits_2(tmp_path, capsys, monkeypatch,
                                           stage):
    # an exception other than a VolentError, in the child (growth, the
    # refined root) or in the parent (Santalo), exits 2 with no report
    monkeypatch.setattr(cli, stage, _raises(ValueError("bad child input")))
    code, err, report = _entropy_fast(tmp_path, capsys)
    assert code == 2 and report is None
    assert "error (input): bad child input" in err and "Traceback" not in err


def test_entropy_child_exit_without_reply(tmp_path, capsys, monkeypatch):
    # a child that dies without a reply, in either of its stages, is a
    # numerical failure naming its exit code
    for stage in ("_growth_stage", "_refined_root"):
        out = tmp_path / stage
        out.mkdir()
        with monkeypatch.context() as patch:
            patch.setattr(cli, stage, lambda *a, **k: os._exit(3))
            code, err, report = _entropy_fast(out, capsys)
        assert code == 1 and report is None
        assert "error (numerical)" in err and "code 3" in err
        assert "Traceback" not in err
        assert not (out / "curves.csv").exists()


@pytest.mark.parametrize("growth_fails", [False, True])
def test_entropy_refined_root_error_fails_pressure(tmp_path, capsys,
                                                   monkeypatch, growth_fails):
    # a VolentError in the refined root, in the child, fails the pressure
    # stage as it did in one process: no ulam or curve entry and no
    # curves.csv; a growth failure is still listed after it
    monkeypatch.setattr(cli, "_refined_root",
                        _raises(BracketFailed("no root in refined bracket")))
    if growth_fails:
        monkeypatch.setattr(cli, "_growth_stage",
                            _raises(WindowTooNarrow("too few rows")))
    code, err, report = _entropy_fast(tmp_path, capsys)
    assert code == 1 and "Traceback" not in err
    expected = [["pressure", "no root in refined bracket"]]
    if growth_fails:
        expected.append(["growth", "too few rows"])
    assert report["failures"] == expected
    assert "ulam" not in report["results"]
    assert "curve" not in report["results"]
    assert ("growth" in report["results"]) != growth_fails
    assert "santalo" in report["results"]
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("refined_fails", [False, True])
def test_entropy_curve_error_fails_pressure(tmp_path, capsys, monkeypatch,
                                            refined_fails):
    # a VolentError from the coarse model's curve fails the pressure stage
    # after the refined root is folded in: ulam is reported with h_refined,
    # the curve and curves.csv are not, and the strictness verdict rests
    # on growth alone (here a growth estimate far above the bound). A
    # failed refined root fails the stage first, with its own message.
    monkeypatch.setattr(cli, "_curve",
                        _raises(PowerIterationStalled("curve stalled")))
    growth = EntropyEstimate(value=5.0, err=0.0, method="ball_growth",
                             diagnostics={})
    monkeypatch.setattr(cli, "_growth_stage", lambda *a: growth)
    if refined_fails:
        monkeypatch.setattr(cli, "_refined_root", _raises(
            BracketFailed("no root in refined bracket")))
    code, err, report = _entropy_fast(tmp_path, capsys)
    assert code == 1 and "Traceback" not in err
    results = report["results"]
    assert "curve" not in results
    assert not (tmp_path / "curves.csv").exists()
    assert results["growth"] == asdict(growth)
    if refined_fails:
        assert report["failures"] == [["pressure",
                                       "no root in refined bracket"]]
        assert "ulam" not in results
    else:
        assert report["failures"] == [["pressure", "curve stalled"]]
        assert "h_refined" in results["ulam"]["diagnostics"]
    bound = lower_bound_2d(regular_polygon(5, 2, (2,) * 5))
    assert results["strictness"] == {
        "margin": 5.0 - bound.derived_constant_bound, "flag": "PASS"}


@pytest.mark.parametrize("no_refine", [False, True])
def test_pressure_prints_solve_entropy_line(capsys, no_refine):
    # `volent pressure` prints the estimate solve_entropy gives on the
    # same config, with the refined root folded in unless --no-refine
    code, out, _ = run(capsys, "pressure", "--n-u", "8", "--n-theta", "8",
                       "--k", "2", "--tol", "1e-3", "--seed", "3",
                       *["--no-refine"] * no_refine)
    assert code == 0
    model = build_cross_section(regular_polygon(5, 2, (2,) * 5), (8, 8), 2, 3)
    est = solve_entropy(model, tol=1e-3, refine=not no_refine)
    assert out.splitlines()[0] == (
        f"h = {est.value:.6f} +/- {est.err:.6f}  ({est.method})")


def test_entropy_pressure_error_stops_child(tmp_path, capsys, monkeypatch):
    # an input error in the pressure stage terminates the child, which
    # would otherwise sleep for a minute
    monkeypatch.setattr(cli, "_growth_stage", lambda *a: time.sleep(60))
    monkeypatch.setattr(cli, "_pressure_stage",
                        _raises(ValueError("bad pressure input")))
    t0 = time.monotonic()
    code, err, report = _entropy_fast(tmp_path, capsys)
    assert code == 2 and report is None
    assert "bad pressure input" in err
    assert time.monotonic() - t0 < 30.0


@pytest.mark.parametrize("doc", [[1, 2], {"results": [1]},
                                 {"results": {"ulam": 5}}])
def test_report_refuses_other_json(tmp_path, capsys, doc):
    # JSON that is not a report exits 2 naming the shape it should have
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "report", "--file", str(path))
    assert code == 2
    assert "results" in err and "Traceback" not in err


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, SRC)
import volent.cli
from volent import coxeter, measures, symbolic
from volent.graphs import MetricGraph, graph_entropy
from volent.hypgeom import HPoint, geodesic_through, regular_polygon

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

poly = regular_polygon(5, 2, (2, 3, 2, 3, 4))
g = geodesic_through(HPoint(0.01, 1.0), HPoint(0.3, 1.2))
symbolic.cutting_sequence(g, (-1.0, 20.0), poly)
measures.santalo_monte_carlo(poly, samples=20_000, seed=0)
coxeter.ball_growth(poly, 1.0, 6.0)
model = symbolic.build_cross_section(poly, (8, 8), 2, 0)
before = loaded()
k4 = MetricGraph.from_undirected(
    4, [(a, b, 1.0) for a in range(4) for b in range(a + 1, 4)])
h = graph_entropy(k4).value
after_graph = loaded()
est = symbolic.solve_entropy(model)
curve = symbolic.pressure_curve(model, [1.2, 1.5, 1.8])
print(json.dumps({"before": before, "h": h, "after_graph": after_graph,
                  "refined": "h_refined" in est.diagnostics,
                  "points": len(curve), "after_ulam": loaded()}))
"""


def test_no_scipy_loaded():
    # the CLI, tracing, Santalo, ball growth, an Ulam model build, a
    # graph solve (K4 with unit lengths: h = ln 2), an Ulam root solve
    # with its refinement and a pressure curve load no scipy module
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-I", "-c",
         _SCIPY_PROBE.replace("SRC", repr(src), 1)],
        capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(done.stdout)
    assert got["before"] == []
    assert abs(got["h"] - math.log(2.0)) <= 1e-9
    assert got["after_graph"] == []
    assert got["refined"] and got["points"] == 3
    assert got["after_ulam"] == []


def test_cli_import_loads_no_multiprocessing():
    # `volent entropy` imports multiprocessing and numpy.random when it
    # forks, so importing the CLI does not pay for them
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    probe = (f"import sys; sys.path.insert(0, {src!r}); import volent.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.partition('.')[0] == 'multiprocessing' "
             "or m.startswith('numpy.random')))")
    done = subprocess.run([sys.executable, "-I", "-c", probe],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.strip() == "[]"
