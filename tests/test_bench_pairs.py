"""tools/bench_pairs.py's stdout parse and summary, on canned run output;
no benchmark process is started."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

STDOUT = """workload=verify seed=5 trace=0 ops=162 failed=0 failed_frac=0.0000 correct=true
  batch_s = 1.107809460527321 s
  op_p50_ms = 6.016393701493032 ms
  (wall-clock batch, not normalized: 1.3976526159995046 s)
{"correct": true, "attempted": 162, "failed": 0, "metrics": {}}
"""


def test_raw_batch_line_is_parsed():
    assert bench_pairs.raw_batch_s(STDOUT) == 1.3976526159995046
    assert bench_pairs.raw_batch_s(STDOUT.replace("(wall-clock", "(clock")) is None


def _run(pair, side, batch, raw, failed=0, result=True):
    metrics = {"batch_s": {"value": batch, "unit": "s"},
               "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
    return {"workload": "verify", "seed": 100 + pair, "pair": pair, "side": side,
            "exit": 0 if result else 1, "raw_batch_s": raw,
            "result": {"correct": True, "attempted": 10, "failed": failed,
                       "metrics": metrics} if result else None}


def test_summary_of_normalized_and_raw_batch_times():
    runs = [_run(0, "parent", 1.0, 1.2), _run(0, "change", 0.9, 1.1),
            _run(1, "change", 0.8, 1.3, failed=1), _run(1, "parent", 1.1, 1.25),
            _run(2, "parent", 1.2, 1.4), _run(2, "change", 1.3, 1.0)]
    out = bench_pairs.summarize(runs, {"batch_s": 0.25})
    assert out["pairs"] == 3
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 30, "change": 30}
    assert out["correct"] is True
    batch = out["batch_s"]
    assert batch["parent"] == {"median": 1.1, "q1": 1.05, "q3": 1.15}
    assert batch["change"]["median"] == 0.9
    assert batch["change_lower_in_pairs"] == "2 of 3"
    assert batch["median_change_pct"] == pytest.approx(-18.2)
    assert batch["parent_iqr"] == pytest.approx(0.1)
    assert batch["bound_pct"] == 25.0
    assert "bound_pct" not in out["peak_rss_mb"]
    raw = out["raw_batch_s"]
    assert raw["parent"]["median"] == 1.25 and raw["change"]["median"] == 1.1
    assert raw["change_lower_in_pairs"] == "2 of 3"
    assert raw["median_change_pct"] == pytest.approx(-12.0)


def test_pairs_with_a_failed_side_are_left_out():
    runs = [_run(0, "parent", 1.0, 1.2), _run(0, "change", 0.9, 1.1),
            _run(1, "parent", 1.0, 1.2), _run(1, "change", 0.5, 0.6, result=False)]
    out = bench_pairs.summarize(runs, {})
    assert out["pairs"] == 1
    assert out["batch_s"]["change_lower_in_pairs"] == "1 of 1"
    assert out["raw_batch_s"]["change"]["median"] == 1.1


def test_raw_batch_is_left_out_when_a_run_did_not_print_it():
    runs = [_run(0, "parent", 1.0, None), _run(0, "change", 0.9, 1.1)]
    out = bench_pairs.summarize(runs, {})
    assert "batch_s" in out and "raw_batch_s" not in out
    assert bench_pairs.summarize([], {})["pairs"] == 0
