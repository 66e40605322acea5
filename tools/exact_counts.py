"""Check the exact counts of a traced benchmark run against the ledger.

    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 1 > trace.log
    python3 tools/exact_counts.py trace.log            # exit 1 on any difference
    python3 tools/exact_counts.py trace.log --write    # re-take the ledger

The counts are the artifact sizes the package produces on the seed-1 pools:
instruction count, EPR pairs, compiled depth, program bytes, frame-key terms
and degree, branch counts, the unitary-mode sizes and the garden-hose counts.
They are exact and identical from run to run, so any difference is either a
bug or a change that moves them on purpose; the latter re-takes the ledger in
the same commit. Times and call and failure counts are left out.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

LEDGER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "tests", "data", "exact_counts.json")
COUNTS = ("compiler.instructions", "compiler.epr_pairs", "compiler.compiled_depth",
          "compiler.program_bytes", "frames.key_terms_", "frames.key_degree_max",
          "compiler.branches", "compiler.unitary_", "gardenhose.")


def exact_counts(run: dict) -> dict[str, dict[str, int]]:
    """The ledger's counts of each workload in a ``--workload all`` result."""
    return {workload: {name: m["value"] for name, m in sorted(res["metrics"].items())
                       if name.startswith(COUNTS)
                       and not name.endswith((".s", ".calls", ".failed"))}
            for workload, res in sorted(run.items())}


def differences(old: dict, new: dict) -> list[str]:
    """One ``workload name: old -> new`` line per count that differs, is
    missing from either side, or belongs to a workload only one side has."""
    lines = []
    for workload in sorted(old.keys() | new.keys()):
        a, b = old.get(workload, {}), new.get(workload, {})
        for name in sorted(a.keys() | b.keys()):
            if a.get(name) != b.get(name):
                lines.append(f"{workload} {name}: {a.get(name, 'missing')} -> "
                             f"{b.get(name, 'missing')}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("log", help="stdout of bench/run.py --workload all --trace 1")
    ap.add_argument("--write", action="store_true", help="replace the ledger with this run")
    args = ap.parse_args(argv)
    with open(args.log, encoding="utf-8") as fh:
        new = exact_counts(json.loads(fh.read().strip().splitlines()[-1]))
    if args.write:
        with open(LEDGER, "w", encoding="utf-8") as fh:
            json.dump(new, fh, indent=2)
            fh.write("\n")
        return 0
    with open(LEDGER, encoding="utf-8") as fh:
        lines = differences(json.load(fh), new)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} exact count(s) differ from {os.path.relpath(LEDGER)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
