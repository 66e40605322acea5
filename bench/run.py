"""Benchmark of tlink: one workload per call, or every workload with ``all``.

    python3 bench/run.py --workload compile --seed 1 --seconds 25 --trace 0

Each workload runs in its own process with numpy's thread pools pinned to one
thread, as a closed loop over a seeded pool of ops (the next op starts when the
previous one returns). ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer ones from a traced run. The last
line of stdout is one JSON object; the lines before it are for people.
Op times are normalized to a reference host speed (see worker.py); wall-clock
figures are printed beside them. Per-op figures, failures and spans go to
``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("compile", "verify", "unitary", "protocol")
SETUP_SAMPLES = 7  # the measuring process plus six processes that only set up
CHILD_TIMEOUT_S = 160
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def spawn(argv: list[str]) -> dict:
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(argv)} ran past {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    extra = 0 if trace else SETUP_SAMPLES - 1  # setup_s is not a per-layer metric
    setups = [spawn(base + ["--setup-only"])["setup_s"] for _ in range(extra)]
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json")
    res = spawn(base + ["--trace", str(trace), "--out", out])
    setups.append(res["setup_s"])
    produced = dict(res["metrics"], setup_s=statistics.median(setups))
    metrics = {}
    if trace:
        # A span or count the workload never reaches reads 0.
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": produced.get(m["name"], 0), "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if m["name"] not in produced:
                raise BenchError(f"{name}: the worker gave no {m['name']}")
            metrics[m["name"]] = {"value": produced[m["name"]], "unit": m["unit"]}
    print(f"workload={name} seed={seed} trace={trace} ops={res['attempted']} "
          f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:.4f} "
          f"correct={str(res['correct']).lower()} "
          f"cycles={res['cycles']} measured_s={res['measure_s']:.2f}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']} {m['unit']}")
    if "raw_batch_s" in produced:
        print(f"  (wall-clock batch, not normalized: {produced['raw_batch_s']} s)")
    layer_s = {k[:-2]: v for k, v in produced.items() if k.endswith(".s")}
    for span, secs in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  self time share: {span} {100 * secs / sum(layer_s.values()):.1f} %")
    for line in res["failures"]:
        print(f"  failed: {line}")
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "tlink", "__init__.py")):
        print("bench: no tlink sources under src/; run from a full checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace, spec)
                   for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
