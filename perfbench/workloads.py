"""Seeded inputs, one pass of work, and oracle checks for each workload.

Every workload has three parts:

- ``generate(seed)`` builds the inputs as plain JSON data from the seed
  alone, without importing volent, so ``selftest.py`` can check that the
  same seed always gives the same bytes.
- ``prepare(data, out_dir)`` turns the data into program inputs.  It may
  call ``volent.hypgeom`` (polygon and geodesic construction), which is
  counted as set-up, never a measured layer.
- ``run_pass(inputs)`` runs one closed-loop pass: one operation after
  another, each checked against its oracle and timed on its own.  It
  returns a ``PassResult``.

The pass calls the public functions that ``volent.cli`` calls, always
through their module (``symbolic.cutting_sequence``, not a name imported
into this file), so that the traced run sees them through its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

# Oracle tolerances, fixed before any run.
GRAPH_ORACLE_TOL = 1e-9          # |h - ln(d-1)/L| on regular graphs
ULAM_GROWTH_REL_TOL = 0.05       # |ulam - growth| / growth, entropy-default
SANTALO_SIGMAS = 6.0             # |mc - closed form| in MC standard errors
SANDWICH_TOL = 1e-9              # slack in the padded Birkhoff sandwich


@dataclass
class PassResult:
    """Outcome of one pass over a workload's inputs."""

    attempted: int = 0
    failed: int = 0
    oracle_failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    digest: str = ""
    op_s: list = field(default_factory=list)  # wall time of each timed op

    def fail(self, message: str, oracle: bool) -> None:
        self.failed += 1
        if oracle:
            self.oracle_failures.append(message)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- entropy


class EntropyDefault:
    """``volent entropy`` with the default config and a seeded RNG."""

    name = "entropy-default"
    stages = ("pressure", "growth", "santalo")

    @staticmethod
    def generate(seed: int) -> dict:
        return {"seed": seed, "santalo": {"seed": seed}}

    @staticmethod
    def prepare(data: dict, out_dir: str) -> dict:
        run_dir = os.path.join(out_dir, "entropy-default")
        os.makedirs(run_dir, exist_ok=True)
        cfg = dict(data, output_dir=run_dir)
        path = os.path.join(run_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        return {"config": path, "report": os.path.join(run_dir, "report.json")}

    @classmethod
    def run_pass(cls, inputs: dict) -> PassResult:
        from volent import cli

        res = PassResult(attempted=len(cls.stages))
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["entropy", "--config", inputs["config"]])
        res.op_s.append(time.perf_counter() - t0)
        with open(inputs["report"]) as fh:
            report = json.load(fh)
        results = report["results"]
        failed_stages = {stage for stage, _ in report["failures"]}
        if rc not in (0, 1):
            failed_stages = set(cls.stages)
        for stage in cls.stages:
            if stage in failed_stages:
                res.fail(f"{stage}: volent error", oracle=False)
        if not failed_stages & {"pressure", "growth"}:
            ulam = results["ulam"]["value"]
            growth = results["growth"]["value"]
            rel = abs(ulam - growth) / growth
            if rel > ULAM_GROWTH_REL_TOL:
                msg = f"|ulam-growth|/growth = {rel:.4f}"
                res.fail("pressure: " + msg, oracle=True)
                res.fail("growth: " + msg, oracle=True)
        if "santalo" not in failed_stages:
            s = results["santalo"]
            dev = abs(s["monte_carlo"] - s["closed_form"])
            if dev > SANTALO_SIGMAS * s["mc_stderr"]:
                res.fail(f"santalo: |mc-closed| = {dev:.3g} exceeds "
                         f"{SANTALO_SIGMAS} stderr", oracle=True)
        res.counters = {
            "chambers": results.get("growth", {}).get(
                "diagnostics", {}).get("chambers", -1),
            "bisection_iters": results.get("ulam", {}).get(
                "diagnostics", {}).get("bisection_iters", -1),
            "resampled": results.get("santalo", {}).get("resampled", -1),
            "failed_ops": res.failed,
        }
        res.digest = _digest({k: v for k, v in report.items()
                              if k != "timings"})
        return res


# ------------------------------------------------------------ ulam-hexagon


class UlamHexagon:
    """``volent pressure --p 6 --m 2 --q 2,3,2,3,2,3 --n-u 64 --n-theta 64
    --k 3 --curve ...``: one refined root solve plus the pressure curve."""

    name = "ulam-hexagon"
    p, m, q = 6, 2, (2, 3, 2, 3, 2, 3)
    grid, k, tol = (64, 64), 3, 1e-4

    @staticmethod
    def generate(seed: int) -> dict:
        return {"seed": seed}

    @classmethod
    def prepare(cls, data: dict, out_dir: str) -> dict:
        from volent.hypgeom import regular_polygon

        return {"poly": regular_polygon(cls.p, cls.m, cls.q),
                "seed": data["seed"],
                "curve": os.path.join(out_dir, "ulam-hexagon-curve.csv")}

    @classmethod
    def run_pass(cls, inputs: dict) -> PassResult:
        import numpy as np
        from volent import symbolic

        res = PassResult(attempted=1)
        t0 = time.perf_counter()
        model = symbolic.build_cross_section(inputs["poly"], cls.grid, cls.k,
                                             inputs["seed"])
        est = symbolic.solve_entropy(model, tol=cls.tol, refine=True)
        h = est.value
        rows = symbolic.pressure_curve(model, np.linspace(h - 0.5, h + 0.5, 21))
        with open(inputs["curve"], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["h", "pressure_log_radius"])
            w.writerows(rows)
        res.op_s.append(time.perf_counter() - t0)
        h_ref = est.diagnostics["h_refined"]
        if abs(h - h_ref) > est.err:
            res.fail(f"|h-h_refined| = {abs(h - h_ref):.3g} > err "
                     f"{est.err:.3g}", oracle=True)
        pressures = [pr for _, pr in rows]
        if not (pressures[0] > 0.0 > pressures[-1]
                and all(a > b for a, b in zip(pressures, pressures[1:]))):
            res.fail("pressure curve is not decreasing through 0 at h",
                     oracle=True)
        res.counters = {
            "scc_states": model.diagnostics["scc_states"],
            "transitions": int(model.src.size),
            "discarded": model.diagnostics["discarded_samples"],
            "bisection_iters": est.diagnostics["bisection_iters"],
            "failed_ops": res.failed,
        }
        res.digest = _digest([h, est.err, h_ref, rows])
        return res


# ------------------------------------------------------------- graph-batch


def _cycle_with_chords(rng: random.Random, n: int, lengths) -> list:
    """A cycle on n vertices plus n // 2 random chords (no loops)."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        edges.append((a, b))
    return [(a, b, lengths()) for a, b in edges]


def _subdivide(n: int, edges: list) -> tuple:
    """Split every edge into 3 unit edges through two new vertices."""
    out = []
    for a, b, _ in edges:
        out += [(a, n, 1.0), (n, n + 1, 1.0), (n + 1, b, 1.0)]
        n += 2
    return n, out


def _regular_oracles() -> list:
    """(name, n, undirected edges, degree) of the exact-oracle graphs."""
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    petersen = ([(i, (i + 1) % 5) for i in range(5)]
                + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    return [("K4", 4, k4, 3), ("K5", 5, k5, 4), ("Petersen", 10, petersen, 3)]


class GraphBatch:
    """48 seeded metric graphs through ``MetricGraph.from_json`` and
    ``graph_entropy``, as ``volent graph`` runs them.

    Slot kinds: 3 exact-oracle regular graphs, 3 subdivided graphs (1 in
    16: every edge split into 3 unit edges, so the directed edge graph
    has period 3) and 42 cycles with random chords.  The subdivided
    graphs make today's power iteration stall; that is the defect a
    certified Perron solver is meant to fix, so they stay at this share
    and count as failed operations until it is fixed.
    """

    name = "graph-batch"
    n_graphs = 48
    n_subdivided = 3
    tol = 1e-10
    # Random-graph sizes: fixed and log-spaced, so seeds move the
    # structure and lengths but not the amount of work.
    sizes = [round(16 * (2000 / 16) ** (i / 41)) for i in range(42)]

    @classmethod
    def generate(cls, seed: int) -> dict:
        rng = random.Random(f"graph-batch/{seed}")
        kinds = (["regular"] * 3 + ["subdivided"] * cls.n_subdivided
                 + ["random"] * len(cls.sizes))
        rng.shuffle(kinds)
        sizes = list(cls.sizes)
        rng.shuffle(sizes)
        oracles = _regular_oracles()
        graphs = []
        for kind in kinds:
            doc = {"kind": kind}
            if kind == "regular":
                name, n, pairs, degree = oracles.pop(0)
                length = rng.uniform(0.5, 2.0)
                edges = [(a, b, length) for a, b in pairs]
                doc.update(name=name, degree=degree, length=length)
            elif kind == "subdivided":
                base = 12
                n, edges = _subdivide(
                    base, _cycle_with_chords(rng, base, lambda: 1.0))
            else:
                n = sizes.pop()
                edges = _cycle_with_chords(rng, n,
                                           lambda: rng.uniform(0.5, 2.0))
            doc["json"] = json.dumps({
                "vertices": n,
                "edges": [{"src": a, "dst": b, "len": ln}
                          for a, b, ln in edges]})
            graphs.append(doc)
        return {"graphs": graphs}

    @staticmethod
    def prepare(data: dict, out_dir: str) -> dict:
        return data

    @classmethod
    def run_pass(cls, inputs: dict) -> PassResult:
        from volent import graphs
        from volent.errors import VolentError

        res = PassResult(attempted=len(inputs["graphs"]))
        values, iters = [], 0
        for i, doc in enumerate(inputs["graphs"]):
            t0 = time.perf_counter()
            g = graphs.MetricGraph.from_json(doc["json"])
            try:
                est = graphs.graph_entropy(g, tol=cls.tol)
            except VolentError as exc:
                res.op_s.append(time.perf_counter() - t0)
                res.fail(f"graph {i} ({doc['kind']}): "
                         f"{type(exc).__name__}", oracle=False)
                values.append(type(exc).__name__)
                continue
            res.op_s.append(time.perf_counter() - t0)
            h = est.value
            values.append(h)
            iters += est.diagnostics.get("bisection_iters", 0)
            msg = _graph_oracle(g, doc, h, cls.tol)
            if msg:
                res.fail(f"graph {i} ({doc['kind']}): {msg}", oracle=True)
        res.counters = {"bisection_iters": iters, "failed_ops": res.failed,
                        "subdivided": sum(d["kind"] == "subdivided"
                                          for d in inputs["graphs"])}
        res.digest = _digest(values)
        return res


def _graph_oracle(g, doc: dict, h: float, tol: float) -> str:
    """Empty when h passes its check, else a message.

    Regular graphs have the closed form ln(d-1)/L.  Every graph obeys the
    row-sum bounds of the non-backtracking operator at its root:
    ln(dmin-1)/Lmax <= h <= ln(dmax-1)/Lmin.
    """
    if doc["kind"] == "regular":
        exact = math.log(doc["degree"] - 1) / doc["length"]
        if abs(h - exact) > GRAPH_ORACLE_TOL:
            return f"|h-ln(d-1)/L| = {abs(h - exact):.3g}"
        return ""
    deg = [0] * g.n_vertices
    for v in g.src.tolist():
        deg[v] += 1
    lengths = g.length.tolist()
    lo = math.log(min(deg) - 1) / max(lengths) if min(deg) > 2 else 0.0
    hi = math.log(max(deg) - 1) / min(lengths)
    if not lo - tol <= h <= hi + tol:
        return f"h = {h:.6g} outside row-sum bounds [{lo:.6g}, {hi:.6g}]"
    return ""


# -------------------------------------------------------- birkhoff-traces


class BirkhoffTraces:
    """Seeded geodesics through the right-angled pentagon with
    q = (2,3,2,3,4): a cutting sequence each, then the padded Birkhoff
    sandwich and the ln q / l integral."""

    name = "birkhoff-traces"
    p, m, q = 5, 2, (2, 3, 2, 3, 4)
    n_geodesics = 2000
    T = 50.0
    # The 2-padded integral over [-2, T+2] needs crossings on (-3, T+3).
    span = (-3.5, T + 3.5)

    @classmethod
    def generate(cls, seed: int) -> dict:
        rng = random.Random(f"birkhoff-traces/{seed}")
        return {"rays": [(rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1),
                          rng.uniform(0.0, 2.0 * math.pi))
                         for _ in range(cls.n_geodesics)]}

    @classmethod
    def prepare(cls, data: dict, out_dir: str) -> dict:
        from volent.hypgeom import HPoint, geodesic_through, regular_polygon

        geos = []
        for x, y, ang in data["rays"]:
            a = HPoint(x, y)
            b = HPoint(x + 0.5 * math.cos(ang), y + 0.5 * math.sin(ang))
            geos.append(geodesic_through(a, b))
        return {"poly": regular_polygon(cls.p, cls.m, cls.q),
                "geodesics": geos}

    @classmethod
    def run_pass(cls, inputs: dict) -> PassResult:
        from volent import symbolic
        from volent.errors import VolentError

        T, poly = cls.T, inputs["poly"]
        res = PassResult(attempted=len(inputs["geodesics"]))
        crossings, values = 0, []
        for i, g in enumerate(inputs["geodesics"]):
            t0 = time.perf_counter()
            try:
                seq = symbolic.cutting_sequence(g, cls.span, poly)
            except VolentError as exc:
                res.op_s.append(time.perf_counter() - t0)
                res.fail(f"geodesic {i}: {type(exc).__name__}", oracle=False)
                values.append(type(exc).__name__)
                continue
            lhs = symbolic.birkhoff_f_integral(seq, 0.0, T)
            mid = symbolic.thickness_log_product(seq, -1.0, T + 1.0)
            rhs = symbolic.birkhoff_f_integral(seq, -2.0, T + 2.0)
            gap = symbolic.birkhoff_lq_integral(seq, T) - lhs
            res.op_s.append(time.perf_counter() - t0)
            crossings += len(seq.crossings)
            values.append((lhs, mid, rhs, gap))
            if not (lhs <= mid + SANDWICH_TOL and mid <= rhs + SANDWICH_TOL):
                res.fail(f"geodesic {i}: sandwich {lhs:.6g} <= {mid:.6g} "
                         f"<= {rhs:.6g} fails", oracle=True)
        res.counters = {"crossings": crossings, "failed_ops": res.failed}
        res.digest = _digest(values)
        return res


WORKLOADS = {w.name: w for w in (EntropyDefault, UlamHexagon, GraphBatch,
                                 BirkhoffTraces)}
