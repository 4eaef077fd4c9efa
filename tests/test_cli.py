import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volent import cli
from volent.cli import main, validate_config
from volent.hypgeom import regular_polygon


def run(capsys, *argv):
    code = main(list(argv))
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
    assert "polyline" in text


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


def test_santalo_small(capsys):
    code, out, _ = run(capsys, "santalo", "--samples", "20000")
    assert code == 0
    assert "flux constant" in out


def test_santalo_samples_too_large(capsys):
    # 1e12 float64 samples (7.3 TiB) are refused at allocation
    code, _, err = run(capsys, "santalo", "--samples", "1000000000000")
    assert code == 2
    assert "error (input)" in err


# The functions through which the CLI subcommands reach geometry,
# sampling, tracing and enumeration.
_STAGES = ("regular_polygon", "santalo_monte_carlo", "build_cross_section",
           "enumerate_chambers")


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
])
def test_subcommand_sizes_checked(monkeypatch, capsys, argv, flag):
    # refused by name before any geometry, sampling or tracing runs
    for stage in _STAGES:
        monkeypatch.setattr(cli, stage, _no_stage)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert flag in err and "Traceback" not in err


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
    with pytest.raises(ValueError, match="pressure.'n_x'"):
        validate_config({"pressure": {"n_x": 3}})
    # keys cmd_entropy never reads are unknown, not silently ignored
    with pytest.raises(ValueError, match="growth.'max_depth'"):
        validate_config({"growth": {"max_depth": 8}})
    with pytest.raises(ValueError, match="unknown config key: 'orbits'"):
        validate_config({"orbits": {"k_max": 30}})
    with pytest.raises(ValueError, match="unknown config key: 'graph'"):
        validate_config({"graph": "theta.json"})
    merged = validate_config({"pressure": {"k": 5}})
    assert merged["pressure"]["k"] == 5
    assert merged["pressure"]["n_u"] == 32


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
        "pressure": {"n_u": 8, "n_theta": 8, "k": 2, "tol": 1e-3,
                     "bracket": [0.5, 4.0]},
        "growth": {"radius_cut": 8.0, "window": [2.0, 5.0], "rows": 8},
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
    "growth": {"radius_cut": 8.0, "window": [2.0, 5.0], "rows": 8},
    "santalo": {"samples": 20000, "seed": 1},
    "seed": 3,
}


def test_entropy_growth_rows_too_large(tmp_path, capsys):
    # 1e12 radius rows (7.3 TiB) are refused by validation, before the
    # pressure stage writes anything
    cfg = dict(FAST_CFG, output_dir=str(tmp_path),
               growth=dict(FAST_CFG["growth"], rows=10 ** 12))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run(capsys, "entropy", "--config", str(p))
    assert code == 2
    assert "error (input)" in err and "growth.rows" in err
    assert not (tmp_path / "curves.csv").exists()


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
        assert (d / "curves.csv").exists()
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
    poly = regular_polygon(5, 2, (2,) * 5)
    assert diag["reach"] == FAST_CFG["growth"]["radius_cut"] - poly.diameter


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
