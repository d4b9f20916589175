"""Smoke run: every workload with one round of ops (a handful), all of
its checks, and both output modes.

    python3 perfbench/smoke.py

Fails when a run exits with an error (run.py also fails on a metric named
in BENCHMARK.json that it cannot produce), a metric is not a finite
number, or a run is incorrect: an op failed that is not one of the cli
workload's known-fault malformed-input calls.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                problems += [f"{k} = {v['value']!r}" for k, v in result["metrics"].items()
                             if not math.isfinite(v["value"])]
                if not result["correct"]:
                    problems.append("incorrect: " + proc.stderr.strip()[-300:])
                counts = f"{result['failed']} of {result['attempted']} ops failed"
            ok &= not problems
            print(f"{workload:<10} trace={trace}: "
                  f"{'; '.join(problems) if problems else 'ok, ' + counts}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
