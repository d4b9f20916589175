"""frcalc benchmark: one workload per invocation.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in its own fresh
process (perfbench/worker.py); before it, SETUP_STARTS fresh interpreters
do the same set-up and exit, so that ``setup_s`` is a median of several
starts.  Every time is reported at the reference speed of the gauge in
perfbench/speed.py, sampled next to each timed interval.  The last line
of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``, named and ordered as in BENCHMARK.json.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Load comes from one process: numpy's BLAS pool is held to one thread,
# within nproc, so that a busy neighbour core cannot stall a spinning
# BLAS worker and make the timings jump.  Set here, before speed.py
# imports numpy, so that the gauge sampled in this process runs as it
# does in the worker.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import speed  # noqa: E402

SETUP_STARTS = 7
WARM_REFERENCES = 3
# Gauge samples taken between process starts jump more than those taken
# between ops: with one sample per gap, set-up times spread by 0.11-0.16
# over six runs, with the median of three by 0.02-0.06.
SETUP_REF_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env.pop("FRCALC_CONFIG", None)
    return env


def start_worker(args, extra, deadline):
    """Start a worker; return (process, seconds from spawn to 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker; return the last line it printed."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def measure(args, bench):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    gauge = speed.Gauge(args.workload)
    for _ in range(WARM_REFERENCES):
        gauge.sample()

    def sample():
        return statistics.median(gauge.sample() for _ in range(SETUP_REF_SAMPLES))

    setups, refs = [], []
    for _ in range(SETUP_STARTS):
        refs.append(sample())
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        setups.append(setup)
    refs.append(sample())
    setups = gauge.normalise(setups, refs)
    proc, _ = start_worker(args, ["--trace", str(args.trace)], deadline)
    raw = json.loads(finish(proc, deadline))
    for msg in raw["unexpected"]:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    for msg in raw["known_faults"]:
        print(f"known fault: {msg}", file=sys.stderr)
    if args.trace:
        specs, values = bench["per_layer"], raw["per_layer"]
    else:
        specs = bench["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": raw["pass_s"],
            "ops_per_s": (raw["attempted"] - raw["failed"]) / raw["pass_s"],
            "op_p50_ms": raw["op_p50_ms"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    return {
        "correct": not raw["unexpected"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs},
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "frcalc" / "__init__.py").is_file():
        print(f"no frcalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args, bench)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
