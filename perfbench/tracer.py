"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces every public function of the measured
volent modules, in every volent module namespace that holds it, by a
wrapper that records a span (name, start, end, parent) and, for some
layers, counts taken from the call's arguments and result.  Spans stay
in memory and are written once, at the end.  Nothing under ``src/`` is
changed; the wrappers live only in the benchmark's worker process.

``volent.hypgeom`` is not wrapped: polygon and geodesic construction is
set-up.  ``volent.orbits`` and ``volent.svg`` are on no measured path.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYER_MODULES = ("coxeter", "symbolic", "tracing", "measures", "graphs")

# Spans grouped under one per-layer name.
GROUPS = {
    "symbolic.birkhoff_f_integral": "symbolic.birkhoff",
    "symbolic.thickness_log_product": "symbolic.birkhoff",
    "symbolic.birkhoff_lq_integral": "symbolic.birkhoff",
}

# Top-level spans whose process peak RSS at span end is reported.
RSS_LAYERS = ("coxeter.enumerate_chambers", "measures.santalo_monte_carlo",
              "symbolic.build_cross_section", "symbolic.solve_entropy",
              "graphs.graph_entropy")

# Each per-layer metric with its unit, better direction and the
# end-to-end metric and workload it should move.
PER_LAYER = [
    ("coxeter.enumerate_chambers.self_s", "s", "lower", "wall_s on entropy-default"),
    ("coxeter.enumerate_chambers.calls", "count", "lower", "wall_s on entropy-default"),
    ("coxeter.enumerate_chambers.chambers", "count", "lower", "wall_s on entropy-default"),
    ("coxeter.enumerate_chambers.max_depth", "count", "lower", "wall_s on entropy-default"),
    ("coxeter.enumerate_chambers.chambers_per_s", "1/s", "higher", "wall_s on entropy-default"),
    ("coxeter.enumerate_chambers.rss_hwm_mb", "MB", "lower", "peak_rss_mb on entropy-default, only if above Santalo's"),
    ("coxeter.weighted_ball_growth.self_s", "s", "lower", "wall_s on entropy-default"),
    ("coxeter.growth_slope.self_s", "s", "lower", "wall_s on entropy-default"),
    ("measures.santalo_monte_carlo.self_s", "s", "lower", "wall_s on entropy-default"),
    ("measures.santalo_monte_carlo.samples", "count", "lower", "wall_s, peak_rss_mb on entropy-default"),
    ("measures.santalo_monte_carlo.resampled", "count", "lower", "wall_s on entropy-default"),
    ("measures.santalo_monte_carlo.rss_hwm_mb", "MB", "lower", "peak_rss_mb on entropy-default"),
    ("symbolic.build_cross_section.self_s", "s", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.calls", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.samples", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.discarded", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.scc_states", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.transitions", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.build_cross_section.rss_hwm_mb", "MB", "lower", "peak_rss_mb on ulam-hexagon"),
    ("symbolic.pressure_log_radius.self_s", "s", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.pressure_log_radius.calls", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.pressure_log_radius.mean_ms", "ms", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.solve_entropy.self_s", "s", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.solve_entropy.bisection_iters", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("symbolic.solve_entropy.rss_hwm_mb", "MB", "lower", "peak_rss_mb on ulam-hexagon"),
    ("tracing.batch_first_crossing.self_s", "s", "lower", "wall_s on ulam-hexagon and entropy-default, peak_rss_mb on entropy-default"),
    ("tracing.batch_first_crossing.calls", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("tracing.batch_first_crossing.rays", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("tracing.batch_first_crossing.rays_not_ok", "count", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("tracing.batch_first_crossing.ns_per_ray", "ns", "lower", "wall_s on ulam-hexagon and entropy-default"),
    ("tracing.trace.self_s", "s", "lower", "wall_s on birkhoff-traces"),
    ("tracing.trace.calls", "count", "lower", "wall_s on birkhoff-traces"),
    ("tracing.trace.crossings", "count", "lower", "wall_s on birkhoff-traces"),
    ("tracing.trace.us_per_crossing", "us", "lower", "wall_s on birkhoff-traces"),
    ("symbolic.cutting_sequence.self_s", "s", "lower", "wall_s on birkhoff-traces"),
    ("symbolic.cutting_sequence.calls", "count", "lower", "wall_s on birkhoff-traces"),
    ("symbolic.birkhoff.self_s", "s", "lower", "wall_s on birkhoff-traces"),
    ("graphs.graph_entropy.ok_s", "s", "lower", "wall_s on graph-batch"),
    ("graphs.graph_entropy.failed_s", "s", "lower", "wall_s, ops_ok_share on graph-batch"),
    ("graphs.graph_entropy.calls", "count", "lower", "wall_s on graph-batch"),
    ("graphs.graph_entropy.failed", "count", "lower", "ops_ok_share on graph-batch"),
    ("graphs.graph_entropy.bisection_iters", "count", "lower", "wall_s on graph-batch"),
    ("graphs.graph_entropy.directed_edges", "count", "lower", "wall_s on graph-batch"),
    ("graphs.graph_entropy.rss_hwm_mb", "MB", "lower", "peak_rss_mb on graph-batch"),
    ("graphs.MetricGraph.from_json.self_s", "s", "lower", "wall_s on graph-batch"),
    ("cli.other_s", "s", "lower", "wall_s on every workload"),
    ("trace_overhead_s", "s", "lower", "none: traced minus untraced pass wall time"),
]


def _rss_hwm_mb() -> float:
    """Process peak resident set size so far, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _count_chambers(c, args, kwargs, cs):
    c["coxeter.enumerate_chambers.chambers"] += len(cs)
    depth = int(cs.depths.max())
    c["coxeter.enumerate_chambers.max_depth"] = max(
        c["coxeter.enumerate_chambers.max_depth"], depth)


def _count_cross_section(c, args, kwargs, model):
    d = model.diagnostics
    c["symbolic.build_cross_section.samples"] += d["total_samples"]
    c["symbolic.build_cross_section.discarded"] += d["discarded_samples"]
    c["symbolic.build_cross_section.scc_states"] += d["scc_states"]
    c["symbolic.build_cross_section.transitions"] += int(model.src.size)


def _count_solve(c, args, kwargs, est):
    c["symbolic.solve_entropy.bisection_iters"] += est.diagnostics[
        "bisection_iters"]


def _count_batch(c, args, kwargs, out):
    c["tracing.batch_first_crossing.rays"] += len(args[1])
    c["tracing.batch_first_crossing.rays_not_ok"] += int((out[4] != 0).sum())


def _count_trace(c, args, kwargs, out):
    c["tracing.trace.crossings"] += len(out[0])


def _count_santalo(c, args, kwargs, r):
    c["measures.santalo_monte_carlo.samples"] += r.samples
    c["measures.santalo_monte_carlo.resampled"] += r.resampled


def _count_graph(c, args, kwargs, est):
    c["graphs.graph_entropy.bisection_iters"] += est.diagnostics.get(
        "bisection_iters", 0)


def _count_graph_input(c, args, kwargs):
    c["graphs.graph_entropy.directed_edges"] += args[0].n_edges


COUNTERS = {
    "coxeter.enumerate_chambers": _count_chambers,
    "symbolic.build_cross_section": _count_cross_section,
    "symbolic.solve_entropy": _count_solve,
    "tracing.batch_first_crossing": _count_batch,
    "tracing.trace": _count_trace,
    "measures.santalo_monte_carlo": _count_santalo,
    "graphs.graph_entropy": _count_graph,
}

# Counts taken from the arguments, so failed calls count too.
INPUT_COUNTERS = {"graphs.graph_entropy": _count_graph_input}


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self):
        # one [name, start, end, parent index, ok] list per call
        self.spans: list = []
        self._stack: list = []
        self.counts = {name: 0 for name, unit, _, _ in PER_LAYER
                       if unit == "count"}
        self.rss_hwm = {}

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        count_input = INPUT_COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_input is not None:
                count_input(self.counts, args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if parent == -1 and name in RSS_LAYERS:
                self.rss_hwm[name] = _rss_hwm_mb()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions everywhere volent refers to
        them.  Call after importing volent, before the first layer call."""
        import volent.graphs
        import volent.cli  # noqa: F401  (binds every layer name)

        replace = {}
        for short in LAYER_MODULES:
            mod = sys.modules[f"volent.{short}"]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[obj] = self.wrap(f"{short}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "volent" or name.startswith("volent."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in replace:
                        setattr(mod, attr, replace[obj])
        mg = volent.graphs.MetricGraph
        mg.from_json = staticmethod(
            self.wrap("graphs.MetricGraph.from_json", mg.from_json))

    def metrics(self, pass_wall: float) -> dict:
        """Per-layer metrics of one traced pass lasting pass_wall seconds."""
        n = len(self.spans)
        child = [0.0] * n
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s, total_s, calls = {}, {}, {}
        ok_s = failed_s = top = 0.0
        failed = 0
        for i, (name, t0, t1, parent, ok) in enumerate(self.spans):
            key = GROUPS.get(name, name)
            dur = t1 - t0
            self_s[key] = self_s.get(key, 0.0) + dur - child[i]
            total_s[key] = total_s.get(key, 0.0) + dur
            calls[key] = calls.get(key, 0) + 1
            if parent == -1:
                top += dur
            if name == "graphs.graph_entropy":
                if ok:
                    ok_s += dur
                else:
                    failed_s += dur
                    failed += 1

        m = dict(self.counts)
        for layer in ("coxeter.enumerate_chambers", "symbolic.build_cross_section",
                      "symbolic.pressure_log_radius", "tracing.batch_first_crossing",
                      "tracing.trace", "symbolic.cutting_sequence",
                      "graphs.graph_entropy"):
            m[f"{layer}.calls"] = calls.get(layer, 0)
        m["graphs.graph_entropy.failed"] = failed

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        for layer in ("coxeter.enumerate_chambers", "coxeter.weighted_ball_growth",
                      "coxeter.growth_slope", "measures.santalo_monte_carlo",
                      "symbolic.build_cross_section", "symbolic.pressure_log_radius",
                      "symbolic.solve_entropy", "tracing.batch_first_crossing",
                      "tracing.trace", "symbolic.cutting_sequence",
                      "symbolic.birkhoff", "graphs.MetricGraph.from_json"):
            m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        m["coxeter.enumerate_chambers.chambers_per_s"] = ratio(
            m["coxeter.enumerate_chambers.chambers"],
            total_s.get("coxeter.enumerate_chambers", 0.0))
        m["symbolic.pressure_log_radius.mean_ms"] = ratio(
            total_s.get("symbolic.pressure_log_radius", 0.0),
            calls.get("symbolic.pressure_log_radius", 0), 1e3)
        m["tracing.batch_first_crossing.ns_per_ray"] = ratio(
            total_s.get("tracing.batch_first_crossing", 0.0),
            m["tracing.batch_first_crossing.rays"], 1e9)
        m["tracing.trace.us_per_crossing"] = ratio(
            total_s.get("tracing.trace", 0.0),
            m["tracing.trace.crossings"], 1e6)
        m["graphs.graph_entropy.ok_s"] = ok_s
        m["graphs.graph_entropy.failed_s"] = failed_s
        for layer in RSS_LAYERS:
            m[f"{layer}.rss_hwm_mb"] = self.rss_hwm.get(layer, 0.0)
        m["cli.other_s"] = pass_wall - top
        return m

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, ok."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
