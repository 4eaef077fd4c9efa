"""One fresh benchmark worker process: set up, then run passes.

Started by ``run.py`` from the root of a checkout as

    python3 -I perfbench/worker.py --workload NAME --seed N --seconds S
        --mode setup|run|trace --t0 T --out PATH

It imports volent from ``src/`` of the checkout only.  ``--t0`` is the
parent's ``time.monotonic()`` just before the spawn, so ``setup_s``
covers interpreter start, ``import volent``, input generation and
parsing, up to the first layer call.  Mode ``setup`` stops there; mode
``run`` runs closed-loop passes, at least two, until the next one would
end after ``--seconds`` (``--seconds 0``: exactly one pass); mode
``trace`` runs one pass with the layer wrappers on and also writes the
spans.  The result is one JSON file at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

OUT_DIR = ".perfbench_out"
# Each operation's time is its fastest over at least two passes.
MIN_PASSES = 2


def machine_info() -> dict:
    import numpy
    import scipy
    from volent.tracing import backend

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "tracing_backend": backend(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    if backend() != "numba":
        info["note"] = ("numba is not importable here: the README's numba "
                        "2.4x (batched) and 17x (single-ray) speed-ups "
                        "cannot be re-measured on this machine")
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    src = os.path.abspath("src")
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    data = workload.generate(args.seed)
    import volent.cli  # noqa: F401  (the whole program, as `volent` loads it)

    if not os.path.abspath(volent.cli.__file__).startswith(src + os.sep):
        print(f"volent imported from {volent.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workload.prepare(data, OUT_DIR)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode != "setup":
        result.update(run_passes(workload, inputs, args.seconds, tracer))
        result["machine"] = machine_info()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["pass_wall_s"][0])
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write(spans)
        result["spans_file"] = spans
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def run_passes(workload, inputs, seconds: float, tracer) -> dict:
    """Closed loop: passes back to back, at least MIN_PASSES, and more
    while the next one is expected to end within ``seconds``.  A traced
    worker runs one pass."""
    walls, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = workload.run_pass(inputs)
        walls.append(time.perf_counter() - t0)
        passes.append(res)
        if tracer is not None or seconds <= 0:
            break
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - start + walls[-1] > seconds):
            break
    first = passes[0]
    return {
        "pass_wall_s": walls,
        # fastest time of each operation over the passes, summed
        "best_pass_s": sum(map(min, zip(*(p.op_s for p in passes)))),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "oracle_failures": [m for p in passes for m in p.oracle_failures][:20],
        "counters": first.counters,
        "digest": first.digest,
        "repeatable": all(p.counters == first.counters
                          and p.digest == first.digest for p in passes),
    }


if __name__ == "__main__":
    sys.exit(main())
