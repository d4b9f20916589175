"""One workload in one fresh process: set-up, one warm-up op, the timed
pass and, with ``--trace 1``, a second pass under the span recorder.
In the timed pass a sample of the speed gauge (speed.py) is taken before
every op and after the last, outside the ops' intervals, and each op's
latency is reported at the gauge's reference speed.

Started by run.py.  It prints ``ready`` once set-up is done (run.py
timestamps that line to measure set-up from a fresh interpreter) and,
unless ``--setup-only`` is given, one JSON line with the raw results.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT / "src"))
# Gauge samples taken before the warm-up op, so that the first sample of
# the timed pass is not the first run of the reference.
WARM_REFERENCES = 3


def rounds_for(workload, seconds: int) -> int:
    """Whole rounds in a run: fixed by ``--seconds`` and the workload's
    nominal round time, never by a measurement."""
    return max(1, round(seconds / workload.ROUND_S))


def run_pass(ops, run, gauge=None):
    """Run every op once; returns per-op latencies, the failures as
    (known fault, message) pairs and the samples of ``gauge`` (none
    without it): one before every op and one after the last."""
    latencies, failures, refs = [], [], []
    for i, op in enumerate(ops):
        if gauge:
            refs.append(gauge())
        start = time.perf_counter()
        try:
            out = run(i, op.run)
        except Exception:  # a failing op is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append((op.known_fault, traceback.format_exc(limit=3)))
            continue
        latencies.append(time.perf_counter() - start)
        try:
            op.check(out)
        except Exception as exc:
            failures.append((op.known_fault, f"{type(exc).__name__}: {exc}"))
    if gauge:
        refs.append(gauge())
    return latencies, failures, refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = importlib.import_module(f"workloads.{args.workload}")
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        ops = workload.make_ops(args.seed, rounds_for(workload, args.seconds), workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        import speed  # after "ready": its fixed inputs are not frcalc's set-up

        # The inputs of every round are generated ahead; keep them out of
        # the collector's view, so that a full collection during an op
        # does not cost more when a run has more rounds.
        gc.freeze()
        gauge = speed.Gauge(args.workload)
        for _ in range(WARM_REFERENCES):
            gauge.sample()
        _, warm_failures, _ = run_pass(ops[:1], lambda i, fn: fn())
        wall, failures, refs = run_pass(ops, lambda i, fn: fn(), gauge.sample)
        latencies = gauge.normalise(wall, refs)
        result = {
            "attempted": len(ops),
            "failed": len(failures),
            "unexpected": [msg for fault, msg in warm_failures + failures if not fault],
            "known_faults": sorted({msg.splitlines()[-1] for fault, msg in failures if fault}),
            "pass_s": sum(latencies),
            "op_p50_ms": 1000 * statistics.median(
                [t for t, op in zip(latencies, ops) if not op.known_fault]),
            "wall_pass_s": sum(wall),
            "ref_ms": 1000 * statistics.median(refs),
        }
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            _, traced_failures, _ = run_pass(ops, tracer.run_op)
            result["unexpected"] += [msg for fault, msg in traced_failures if not fault]
            result["per_layer"] = tracer.metrics(result["wall_pass_s"])
            result["per_layer"].update({"speed.ref_ms": result["ref_ms"],
                                        "speed.wall_pass_s": result["wall_pass_s"]})
            tracer.write(str(WORK / "traces" / f"{args.workload}-seed{args.seed}.npz"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
