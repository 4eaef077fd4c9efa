"""Fast self-test: the input generators are deterministic in the seed.

    python3 perfbench/selftest.py

For every workload, the same seed must give byte-identical inputs (also
in a fresh interpreter with another hash seed), and another seed must
give different inputs.  graph-batch must keep its stated share of
subdivided graphs.  Runs in about a second and imports no volent code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS, GraphBatch  # noqa: E402


def fingerprint(name: str, seed: int) -> str:
    data = WORKLOADS[name].generate(seed)
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def fresh_fingerprints(seed: int) -> dict:
    """Fingerprints computed in a child interpreter with its own hash seed."""
    code = ("import json, selftest; print(json.dumps({n: selftest."
            f"fingerprint(n, {seed}) for n in selftest.WORKLOADS}}))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True,
                         cwd=os.path.dirname(os.path.abspath(__file__)))
    return json.loads(out.stdout)


def main() -> int:
    errors = []
    fresh = fresh_fingerprints(7)
    for name in WORKLOADS:
        a, b = fingerprint(name, 7), fingerprint(name, 7)
        if a != b or a != fresh[name]:
            errors.append(f"{name}: seed 7 gives different inputs")
        if fingerprint(name, 8) == a:
            errors.append(f"{name}: seeds 7 and 8 give the same inputs")
    for seed in range(5):
        kinds = [g["kind"] for g in GraphBatch.generate(seed)["graphs"]]
        if (len(kinds) != GraphBatch.n_graphs
                or kinds.count("subdivided") != GraphBatch.n_subdivided
                or kinds.count("regular") != 3):
            errors.append(f"graph-batch seed {seed}: wrong slot mix")
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest", "FAILED" if errors else "ok",
          f"({len(WORKLOADS)} workloads)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
