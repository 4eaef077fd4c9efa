"""End-to-end and per-layer benchmark of volent.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md``): entropy-default,
graph-batch and birkhoff-traces, which ``BENCHMARK.json`` runs, and
ulam-hexagon, run by hand.  Each runs in fresh worker
processes as a closed loop: one client, one thread, one operation after
another.  Worker threads for BLAS/OpenMP are pinned to 1.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: wall time of one pass over the workload's inputs, from
  set-up done to its last operation, with each operation timed at its
  fastest over the run's passes (at least two).  The host's speed swings
  by up to 1.5x for seconds at a time; the per-operation best keeps
  ``wall_s`` steady where a median pass time moves by 20% between runs.
  The median pass time and its quartiles are printed as well;
- ``setup_s``: median over 5 fresh workers of interpreter start through
  ``import volent`` and input parsing, up to the first layer call;
- ``peak_rss_mb``: peak RSS of the measuring worker, from ``os.wait4``;
- ``ops_ok_share``: 1 - failed operations / attempted operations.

``--trace 1`` runs one untraced and one traced pass, in two fresh
workers, and reports the per-layer metrics of ``tracer.PER_LAYER``,
including the tracing overhead (traced minus untraced pass time).

Every operation is checked against an oracle.  Counters and output
digests must repeat exactly across the passes of a run, between the
traced and untraced workers, and across runs of the same code and seed
(kept under ``.perfbench_out/state``).  Any mismatch or failed oracle
makes ``correct`` false.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
WORKLOAD_NAMES = ("entropy-default", "ulam-hexagon", "graph-batch",
                  "birkhoff-traces")


class WorkerFailed(RuntimeError):
    pass


def spawn(mode: str, args, tag: str, deadline: float) -> tuple:
    """Run one worker to completion; return (result dict, peak RSS MB)."""
    out = os.path.join(OUT_DIR, f"worker-{tag}.json")
    log = os.path.join(OUT_DIR, f"worker-{tag}.log")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--out", out]
    with open(log, "w") as log_fh:
        t0 = time.monotonic()
        pid = os.posix_spawn(cmd[0], cmd + ["--t0", repr(t0)], env,
                             file_actions=[
                                 (os.POSIX_SPAWN_OPEN, 0, os.devnull,
                                  os.O_RDONLY, 0),
                                 (os.POSIX_SPAWN_DUP2, log_fh.fileno(), 1),
                                 (os.POSIX_SPAWN_DUP2, log_fh.fileno(), 2)])
        try:
            while True:
                done, status, usage = os.wait4(pid, os.WNOHANG)
                if done:
                    break
                if time.monotonic() > deadline:
                    raise WorkerFailed(f"{tag}: killed at the run deadline")
                time.sleep(0.02)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        with open(log) as fh:
            tail = fh.read()[-3000:]
        raise WorkerFailed(f"{tag}: exit code {code}\n{tail}")
    with open(out) as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def code_key() -> str:
    """Hash of the program and benchmark sources: state is per version."""
    h = hashlib.sha256()
    files = sorted(glob.glob("src/volent/**/*.py", recursive=True)
                   + glob.glob(os.path.join(HERE, "*.py")))
    for path in files:
        h.update(os.path.relpath(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def check_state(workload: str, seed: int, record: dict) -> list:
    """Compare counters and digests with earlier runs of this code and
    seed, then store the union.  Returns the mismatches."""
    d = os.path.join(OUT_DIR, "state", code_key())
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}.json")
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    bad = [f"{k}: {old[k]} then {v}" for k, v in record.items()
           if k in old and old[k] != v]
    if not bad:
        with open(path, "w") as fh:
            json.dump({**old, **record}, fh, sort_keys=True)
    return bad


def quartiles(xs: list) -> tuple:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_untraced(args, deadline: float) -> tuple:
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        res, _ = spawn("setup", args, f"setup{i}", deadline)
        setups.append(res["setup_s"])
    res, rss = spawn("run", args, "run", deadline)
    setups.append(res["setup_s"])
    walls = res["pass_wall_s"]
    q1, q3 = quartiles(walls)
    share_failed = res["failed"] / res["attempted"]
    print(f"wall_s      {res['best_pass_s']:.4f} s  per-operation best of "
          f"{len(walls)} passes; pass median {statistics.median(walls):.4f}"
          f" s (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"setup_s     {statistics.median(setups):.4f} s  median of "
          f"{len(setups)} workers {[round(s, 4) for s in setups]}")
    print(f"peak_rss_mb {rss:.1f} MB")
    print(f"ops_failed_share {share_failed:.4f}  ({res['failed']} of "
          f"{res['attempted']} operations failed)")
    metrics = {
        "wall_s": (res["best_pass_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_ok_share": (1.0 - share_failed, "share"),
    }
    record = {"counters": res["counters"], "digest": res["digest"]}
    return [res], metrics, record, []


def run_traced(args, deadline: float) -> tuple:
    from tracer import PER_LAYER

    args_one = argparse.Namespace(**{**vars(args), "seconds": 0.0})
    base, _ = spawn("run", args_one, "untraced", deadline)
    traced, _ = spawn("trace", args_one, "traced", deadline)
    layers = traced["layers"]
    layers["trace_overhead_s"] = (traced["pass_wall_s"][0]
                                  - base["pass_wall_s"][0])
    metrics = {name: (layers[name], unit) for name, unit, _, _ in PER_LAYER}
    for name, unit, _, moves in PER_LAYER:
        print(f"{name:<45} {layers[name]:>14.6g} {unit:<6} -> {moves}")
    print(f"spans written to {traced['spans_file']}")
    counts = {name: layers[name] for name, unit, _, _ in PER_LAYER
              if unit == "count"}
    record = {"counters": base["counters"], "digest": base["digest"],
              "layer_counts": counts}
    mismatch = []
    if traced["counters"] != base["counters"]:
        mismatch.append("traced and untraced counters differ")
    if traced["digest"] != base["digest"]:
        mismatch.append("traced and untraced outputs differ")
    return [base, traced], metrics, record, mismatch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join("src", "volent", "__init__.py")):
        print("perfbench: no src/volent here; run from the root of a "
              "volent checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S

    print(f"perfbench {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace}")
    try:
        run = run_traced if args.trace else run_untraced
        workers, metrics, record, mismatch = run(args, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    mismatch += check_state(args.workload, args.seed, record)
    oracle = [m for w in workers for m in w["oracle_failures"]]
    if not all(w["repeatable"] for w in workers):
        mismatch.append("counters or outputs changed between passes")
    for msg in oracle:
        print(f"oracle failed: {msg}", file=sys.stderr)
    for msg in mismatch:
        print(f"not deterministic: {msg}", file=sys.stderr)
    machine = workers[-1]["machine"]
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "counters": record["counters"],
               "machine": machine,
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"counters {json.dumps(record['counters'], sort_keys=True)}")
    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(json.dumps({
        "correct": not oracle and not mismatch,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
