"""Self-test of the benchmark's own parts; a plain script, not collected by pytest.

    python3 bench/selftest.py

1. ``gen.random_circuit`` reproduces ``tests/conftest.random_circuit`` draw for
   draw, for several seeds and sizes, in both variants the workloads use.
2. Two traced runs of each workload with the same seed give identical exact
   counts (every per-layer metric except times and the tracing overhead).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import numpy as np  # noqa: E402

import conftest  # noqa: E402
from gen import random_circuit  # noqa: E402
from tlink import serialize_circuit  # noqa: E402

WORKLOADS = ("compile", "verify", "unitary", "protocol")


def check_generator() -> None:
    for seed in range(5):
        for n, k in ((1, 3), (2, 4), (3, 6), (5, 10), (8, 20), (16, 40)):
            for empty_final in (True, False):
                ours = random_circuit(np.random.default_rng(seed), n, k, max_clifford=3 * n,
                                      allow_empty_final=empty_final)
                theirs = conftest.random_circuit(np.random.default_rng(seed), n, k,
                                                 max_clifford=3 * n, allow_empty_final=empty_final)
                if ours.text != serialize_circuit(theirs):
                    raise SystemExit(f"generator differs from conftest at seed={seed} rc({n},{k})")
    print("generator: matches tests/conftest.random_circuit")


def exact_counts(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in res["metrics"].items()
              if v["unit"] not in ("%", "s")}
    counts["failed"] = res["failed"]
    return counts


def check_repeatable(seed: int = 3) -> None:
    for workload in WORKLOADS:
        first, second = exact_counts(workload, seed), exact_counts(workload, seed)
        if first != second:
            diff = sorted(k for k in first if first[k] != second.get(k))
            raise SystemExit(f"{workload}: exact counts differ between runs: {diff}")
        print(f"{workload}: {len(first)} exact counts identical across two runs")


if __name__ == "__main__":
    check_generator()
    check_repeatable()
