"""Reference figures kept as a copy in perfbench/README.md.

    python3 perfbench/reference.py

Prints, as Markdown tables: the battery shares of one `suite` op
(run_suite at the benchmark's scale) next to those of a full
``run_suite(seed=7)``, the wall time of that full run, and the median
time of the kernels named in ROADMAP aim 1 at fixed sizes (a 5x5 Smith
normal form in place of the 8x8 one, which does not finish).
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from frcalc import abgroup, catverify, frames, grassmannian, homspace, suite  # noqa: E402

from workloads.suite import SCALE  # noqa: E402


def battery_times(seed, scale):
    """Seconds per battery, with the counts run_suite uses at this scale."""
    times = {}
    for battery in suite.ALL_BATTERIES:
        kwargs = {"seed": seed}
        if scale != 1.0:
            kwargs["count"] = max(1, int(inspect.signature(battery).parameters["count"].default * scale))
        start = time.perf_counter()
        report = battery(**kwargs)
        times[report["name"]] = time.perf_counter() - start
    return times


def median_ms(fn, repeat):
    fn()
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000 * statistics.median(samples)


def kernels():
    f16 = frames.random_frame(4, 16, 1)
    h1, h2 = homspace.random_hom(6, 3, 2), homspace.random_hom(18, 1, 3)
    g1, g2 = frames.random_frame(2, 6, 4), frames.random_frame(2, 6, 5)
    h = homspace.random_hom(2, 3, 6)
    a30 = grassmannian.lambda_map(frames.random_frame(2, 30, 7))
    rng = np.random.default_rng(8)
    snf = [rng.integers(-9, 10, (5, 5)).tolist() for _ in range(50)]
    fa, fb, fc = frames.random_frame(2, 2, 9), frames.random_frame(2, 4, 10), frames.random_frame(1, 2, 11)
    t = rng.standard_normal((6, 6))
    return [
        ("verify_frame, d=4, N=16", lambda: frames.verify_frame(f16), 20),
        ("compose_plain, M_6 -> M_18 -> M_18", lambda: homspace.compose_plain(h2, h1), 20),
        ("push_frame, degree-2 frame of M_6 through M_6 -> M_18",
         lambda: homspace.push_frame(h1, frames.random_frame(2, 6, 12)), 20),
        ("ev, M_6 -> M_18", lambda: homspace.ev(h1, t), 50),
        ("tensor_frame, two degree-2 frames in M_6", lambda: frames.tensor_frame(g1, g2), 20),
        ("iota, M_2 -> M_6 suspended by l=2", lambda: homspace.iota(h, 2), 50),
        ("intertwiner, M_2 -> M_6", lambda: homspace.intertwiner(h), 50),
        ("centralizer, degree-2 span in M_30", lambda: grassmannian.centralizer(a30), 5),
        ("smith_normal_form, 50 5x5 in [-9, 9]", lambda: [abgroup.smith_normal_form(m) for m in snf], 10),
        ("check_associativity, M_2 (x) M_4 (x) M_2", lambda: catverify.check_associativity(fa, fb, fc), 10),
    ]


def main():
    op = battery_times(7, SCALE)
    start = time.perf_counter()
    full = battery_times(7, 1.0)
    full_s = time.perf_counter() - start
    print(f"| battery | suite op (scale {SCALE}) s | share | full run_suite(seed=7) s | share |")
    print("|---|---:|---:|---:|---:|")
    for name in full:
        print(f"| {name} | {op[name]:.3f} | {op[name] / sum(op.values()):.1%} "
              f"| {full[name]:.2f} | {full[name] / full_s:.1%} |")
    print(f"| total | {sum(op.values()):.2f} | | {full_s:.2f} | |")
    print()
    print("| kernel | median ms |")
    print("|---|---:|")
    for label, fn, repeat in kernels():
        print(f"| {label} | {median_ms(fn, repeat):.2f} |")


if __name__ == "__main__":
    main()
