import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from volent.cli import main, validate_config


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
])
def test_entropy_pressure_config_typed(tmp_path, capsys, pressure, key):
    # each case is the value of the top-level key that `key` starts with
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


FAST_CFG = {
    "polygon": {"p": 5, "m": 2, "q": [2, 2, 2, 2, 2]},
    "pressure": {"n_u": 8, "n_theta": 8, "k": 2, "tol": 1e-3},
    "growth": {"radius_cut": 8.0, "window": [2.0, 5.0], "rows": 8},
    "santalo": {"samples": 20000, "seed": 1},
    "seed": 3,
}


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
