"""Write bench/RESULTS.json: the environment, each workload's op pool and op
time limits, and one run of every workload on a held-out seed, untraced and
traced, with the failures it recorded.

    python3 bench/record.py --seed 90001 --seconds 25
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from run import OUT_DIR, WORKLOADS  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        res["failures"] = json.load(fh)["failures"]
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=90001)
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    record = {
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count(), "cpu": cpu_model()},
        "op_time_limits_s": {kind: k.limit_s for kind, k in workloads.KINDS.items()},
        "pools": {w: [{"kind": kind, "n": n, "K": k, "count": count}
                      for kind, n, k, count in rows] for w, rows in workloads.POOLS.items()},
        "held_out_seed": args.seed,
        "seconds": args.seconds,
        "runs": {w: {"untraced": run(w, args.seed, args.seconds, 0),
                     "traced": run(w, args.seed, args.seconds, 1)} for w in WORKLOADS},
    }
    with open(os.path.join(HERE, "RESULTS.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
