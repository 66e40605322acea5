"""One workload in one process: set-up, the closed measuring loop, and the
metrics ``run.py`` prints. Run through ``run.py``, which pins numpy's thread
pools before this process imports numpy.

Times are host-speed-normalized. The speed of a shared host swings by up to
2x within seconds (a fixed loop measured 16-30 ms in 2-second windows on the
2-CPU machine this benchmark was built on), far more than any bound a
regression check could use. So a short fixed pure-Python loop is timed just
before and just after every op, and every ``TICK_S`` while it runs (from a
timer signal, whose own time is taken out of the op's), and each op's time is
scaled by ``REF_CAL_S / (mean of those loop times)``: the seconds the op would
take on a host that runs the loop in ``REF_CAL_S``. Set-up is scaled the same
way, and so is each span's self time in a traced run (by the factor of the op
run it belongs to). Raw wall times are kept in the per-op output file.
"""
import signal
import time


def calibrate() -> float:
    """Seconds the host takes right now for a fixed pure-Python loop."""
    start = time.perf_counter()
    acc: dict = {}
    for k in range(3000):
        acc[k & 63] = acc.get(k & 63, 0) + k
    return time.perf_counter() - start


REF_CAL_S = 3.0e-4
TICK_S = 0.025


class SpeedProbe:
    """Loop timings taken while an interval runs, from a timer signal."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples, self.spent = [calibrate()], 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(calibrate())

    def scale(self) -> float:
        """Factor from this host's seconds to reference seconds."""
        return REF_CAL_S * len(self.samples) / sum(self.samples)


SETUP = SpeedProbe()
T0 = time.perf_counter()
SETUP.__enter__()  # set-up (imports, inputs, warm-up) is timed like an op

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402
from workloads import KINDS, CheckFailed  # noqa: E402

# A run that has not finished its first pass by then charges the ops it did
# not reach, so the process always ends well inside the 180 s a run may take.
FIRST_PASS_GUARD_S = 110.0


class Tracer:
    """Spans around calls into the package, kept in memory. Off: a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent, op, cycle, failed]
        self._stack: list[int] = []
        self.op = -1
        self.cycle = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        sid = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                self.op, self.cycle, False]
        self.spans.append(span)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[6] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()


OFF = Tracer(False)
PROBE = SpeedProbe()


def run_op(op, tracer):
    """Time one op; returns (normalized seconds, raw seconds, outputs or None,
    error text or None)."""
    with PROBE:
        start = time.perf_counter()
        try:
            out = tracer.call("op." + op.kind, KINDS[op.kind].run, tracer, op)
            err = None
        except Exception as exc:  # a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start - PROBE.spent
    return raw * PROBE.scale(), raw, out, err


def check_op(op, out):
    """Untimed checks; returns (counts, error text, whether outputs were wrong)."""
    try:
        return KINDS[op.kind].check(op, out), None, False
    except CheckFailed as exc:
        return {}, f"CheckFailed: {exc}", True


def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def measure(pool, seconds: float, traced: bool) -> dict:
    tracer = Tracer(True)
    n = len(pool)
    times = [[] for _ in range(n)]
    raw_times = [[] for _ in range(n)]
    traced_times = [[] for _ in range(n)]
    traced_scale = [[] for _ in range(n)]  # per traced run (cycle), host to reference
    errors: list = [None] * n
    wrong = [False] * n
    counts: list = [{} for _ in range(n)]
    start = time.perf_counter()
    cycle = 0
    done = False
    while not done:
        for i, op in enumerate(pool):
            if cycle == 0 and time.perf_counter() - start > FIRST_PASS_GUARD_S:
                for j in range(i, n):
                    errors[j] = errors[j] or "NotRun: first pass exceeded the time guard"
                done = True
                break
            modes = (False,) if not traced else ((False, True) if cycle % 2 == 0 else (True, False))
            for mode in modes:
                tracer.op, tracer.cycle = i, cycle
                dt, raw, out, err = run_op(op, tracer if mode else OFF)
                (traced_times if mode else times)[i].append(dt)
                if mode:
                    traced_scale[i].append(PROBE.scale())  # the factor of the run just made
                else:
                    raw_times[i].append(raw)
                if err and not errors[i]:
                    errors[i] = err
                if cycle == 0 and not mode and out is not None:
                    counts[i], cerr, wrong[i] = check_op(op, out)
                    errors[i] = errors[i] or cerr
                if mode and op.circ is not None:
                    c = workloads.circuits.parse_circuit(op.circ.text)
                    key_counts = tracer.call("frames.push", workloads.push_frame, op, c)
                    if cycle == 0:
                        counts[i].update(key_counts)
                # Drop this op's outputs before the next op runs, so peak memory
                # is one op's footprint and does not depend on the op order.
                out = c = None
            if time.perf_counter() - start >= seconds and (cycle > 0 or i == n - 1):
                done = True
                break
        cycle += 1
    result = {"ops": [{"label": op.label, "kind": op.kind, "limit_s": KINDS[op.kind].limit_s,
                       "times": times[i], "raw_times": raw_times[i], "error": errors[i], "wrong": wrong[i],
                       "counts": counts[i]} for i, op in enumerate(pool)],
              "cycles": cycle, "measure_s": time.perf_counter() - start}
    if traced:
        for i, op in enumerate(pool):
            result["ops"][i]["traced_times"] = traced_times[i]
            result["ops"][i]["traced_scale"] = traced_scale[i]
        result["spans"] = tracer.spans
        result["self"] = self_times(tracer.spans)
    return result


def op_seconds(op: dict) -> float:
    """Median time, or the op time limit for an op that failed or exceeded it."""
    if op["error"] is None and op["times"]:
        t = statistics.median(op["times"])
        if t <= op["limit_s"]:
            return t
        op["error"] = f"OpTimeLimit: median {t:.3f} s exceeds the {op['limit_s']} s limit"
    return op["limit_s"]


def end_to_end(result: dict) -> dict:
    per_op = [op_seconds(op) for op in result["ops"]]
    cuts = statistics.quantiles(per_op, n=10, method="inclusive")
    return {"batch_s": sum(per_op),
            "raw_batch_s": sum(statistics.median(op["raw_times"]) for op in result["ops"]),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_p90_ms": 1000 * cuts[8],
            "peak_rss_mb": result["peak_rss_mb"]}


def span_name(span) -> str:
    return "bench.glue" if span[0].startswith("op.") else span[0]


def layer_seconds(result: dict) -> dict:
    """Self seconds per span name over one pass of the pool, in reference
    seconds: per op, the median over its traced runs, summed over the ops."""
    runs: dict = {}  # (op, cycle) -> {span name: seconds}
    for span, own in zip(result["spans"], result["self"]):
        op, cycle = span[4], span[5]
        run = runs.setdefault((op, cycle), {})
        name = span_name(span)
        run[name] = run.get(name, 0.0) + own * result["ops"][op]["traced_scale"][cycle]
    by_op: dict = {}
    for (op, _), run in runs.items():
        by_op.setdefault(op, []).append(run)
    out: dict = {}
    for op_runs in by_op.values():
        for name in set().union(*op_runs):
            out[name] = out.get(name, 0.0) + statistics.median(r.get(name, 0.0) for r in op_runs)
    return out


def per_layer(result: dict) -> dict:
    metrics = {name + ".s": secs for name, secs in layer_seconds(result).items()}
    for span in result["spans"]:
        name = span_name(span)
        if span[5] == 0 and name != "bench.glue":
            metrics[name + ".calls"] = metrics.get(name + ".calls", 0) + 1
            metrics[name + ".failed"] = metrics.get(name + ".failed", 0) + int(span[6])
    for op in result["ops"]:
        for key, value in op["counts"].items():
            merge = max if key.endswith("_max") else (lambda x, y: x + y)
            metrics[key] = merge(metrics.get(key, 0), value)
    untraced = sum(statistics.median(op["times"]) for op in result["ops"])
    traced = sum(statistics.median(op["traced_times"]) for op in result["ops"])
    metrics["trace.batch_s"] = traced
    metrics["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
    metrics["trace.spans"] = sum(1 for s in result["spans"] if s[5] == 0)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None, help="write per-op figures and spans here")
    args = ap.parse_args()

    pool = workloads.build_pool(args.workload, args.seed)
    for op in workloads.warmup_ops(args.workload, args.seed):
        try:
            KINDS[op.kind].run(OFF, op)
        except Exception:  # a warm-up op may fail like any op; it is not measured
            pass
    SETUP.__exit__(None, None, None)
    setup_s = (time.perf_counter() - T0 - SETUP.spent) * SETUP.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = measure(pool, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(result)  # also marks ops over their time limit as failed
    if args.trace:
        metrics = per_layer(result)
    failures = [f"{op['label']}: {op['error']}" for op in result["ops"] if op["error"]]
    summary = {"setup_s": setup_s, "metrics": metrics, "attempted": len(pool),
               "failed": len(failures), "correct": not any(op["wrong"] for op in result["ops"]),
               "failures": failures, "cycles": result["cycles"], "measure_s": result["measure_s"]}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({**summary, "ops": result["ops"], "spans": result.get("spans", [])}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
