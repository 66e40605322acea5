"""Run bench/run.py in alternating pairs on two trees and write BENCH_<label>.json.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload protocol \\
        --seeds 101-110 --seconds 25 --label garden_hose_ints

PARENT_DIR and CHANGE_DIR are two full checkouts (say, ``git archive`` of the
parent commit and a copy of the change). Each seed is one pair: both trees run
``python3 bench/run.py --workload W --seed S --seconds S --trace 0`` from their
own directory, one after the other, with the parent first in even-numbered
pairs and the change first in odd-numbered ones, so that a drift in host speed
falls on both sides. ``--workload`` takes a comma-separated list; each
workload runs all its pairs before the next starts.

The file holds what was compared, the command, the host, the order, every
run's result, and a summary per workload and metric: the medians and
quartiles of both sides, the change in the median, and in how many pairs the
change was better (lower, for every end-to-end metric in BENCHMARK.json).
It is written next to this tools/ directory's parent, the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = "python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0"
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """``A-B`` as the seeds A..B, or a single seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def host() -> str:
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    try:
        import numpy
        np_version = f", numpy {numpy.__version__}"
    except ImportError:
        np_version = ""
    return (f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, {mem_gb:.0f} GB; "
            f"Python {platform.python_version()}{np_version}; "
            "run.py pins numpy's thread pools to one thread")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    result = None
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    else:
        sys.stderr.write(proc.stderr)
    return {"exit": proc.returncode, "wall_s": round(wall, 1), "result": result}


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    """Per-metric medians and win counts over the pairs in which both sides ran."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for p in by_pair.values() if all(p.get(side) for side in SIDES)]
    out: dict = {
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "attempted": {side: sum(p[side]["attempted"] for p in pairs) for side in SIDES},
        "correct": all(p[side]["correct"] for p in pairs for side in SIDES),
    }
    if not pairs:
        return out
    for name in pairs[0]["parent"]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry = {"parent": parent, "change": change,
                 "change_lower_in_pairs": f"{lower} of {len(pairs)}",
                 "median_change_pct": round(100 * (change["median"] / parent["median"] - 1), 1)
                 if parent["median"] else None,
                 "parent_iqr": round(parent["q3"] - parent["q1"], 4)}
        if name in bounds:
            entry["bound_pct"] = round(100 * bounds[name], 1)
        out[name] = entry
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True, help="workload, or a comma-separated list")
    ap.add_argument("--seeds", required=True, type=seed_range, help="A-B: one pair per seed")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    ap.add_argument("--what", default="", help="what the change is, for the file's 'what'")
    args = ap.parse_args()

    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for tree in trees.values():
        if not os.path.isfile(os.path.join(tree, "bench", "run.py")):
            ap.error(f"{tree} has no bench/run.py")
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"] if "bound" in m}

    runs: list[dict] = []
    summary: dict = {}
    for workload in args.workload.split(","):
        mine = []
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = {"workload": workload, "seed": seed, "pair": pair, "side": side,
                       **run_once(trees[side], workload, seed, args.seconds)}
                res = run["result"]
                batch = res["metrics"]["batch_s"]["value"] if res else None
                print(f"{workload} seed={seed} {side}: exit={run['exit']} batch_s={batch}",
                      flush=True)
                mine.append(run)
        runs += mine
        summary[workload] = summarize(mine, bounds)
        batch = summary[workload].get("batch_s")
        if batch:
            print(f"{workload}: batch_s median {batch['parent']['median']} -> "
                  f"{batch['change']['median']} ({batch['median_change_pct']:+.1f}%), "
                  f"lower in {batch['change_lower_in_pairs']} pairs", flush=True)

    doc = {
        "what": args.what or (f"bench/run.py pairs: {os.path.basename(trees['parent'])} "
                              f"(parent) against {os.path.basename(trees['change'])} (change)"),
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "host": host(),
        "order": "runs in the listed order, one workload after another; in even-numbered "
                 "pairs the parent ran first, in odd-numbered pairs the change",
        "summary": summary,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
