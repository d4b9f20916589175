"""Steadiness check: repeat each workload with a different seed per run
and print, for every end-to-end metric, the spread of its values against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10                 # every workload
    python3 perfbench/steadiness.py --runs 5 --workloads cli

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
metric is steady when its spread is below a third of its bound; setup_s
is reported but has no spread requirement.  Raw results are kept in
.perfbench/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out = ROOT / ".perfbench" / f"steadiness-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))

        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {args.runs} runs, correct={correct}, failed shares {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            ok = metric["name"] == "setup_s" or s < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<12} median {statistics.median(values):12.4f} {metric['unit']:<4}"
                  f" spread {s:7.4f}  bound {metric['bound']:.2f}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
