"""Acceptance battery: one test per entry of ``frcalc.suite.BATTERIES``
at its default count, with the entry's thresholds and runtime budget,
each printing a single PASS/FAIL line; a new table entry gets its test
here without further code.  Criterion 12 compares two runs of the CLI suite
(the ``suite_seed7_runs`` fixture of conftest.py)."""

import json
import time

from frcalc.suite import BATTERIES, run_battery

SEED = 7


def _acceptance_test(battery):
    def test(capsys):
        start = time.monotonic()
        report = run_battery(battery, SEED)
        elapsed = time.monotonic() - start
        ok = report["pass"] and elapsed < battery.budget_s
        detail = ", ".join(f"{k}={v:.3g}" for k, v in report["residuals"].items())
        label = f"criterion {battery.criterion:2d}" if battery.criterion else "battery     "
        with capsys.disabled():
            print(f"{label} {battery.name.replace('_', '-')}: {'PASS' if ok else 'FAIL'} "
                  f"({detail}; {elapsed:.1f}s of {battery.budget_s}s budget)", flush=True)
        assert report["pass"], report
        assert elapsed < battery.budget_s, f"runtime {elapsed:.1f}s exceeds {battery.budget_s}s"
    return test


# Named test_criterion_NN_<name> (test_battery_<name> without a criterion).
for _battery in BATTERIES:
    _prefix = f"criterion_{_battery.criterion:02d}" if _battery.criterion else "battery"
    globals()[f"test_{_prefix}_{_battery.name}"] = _acceptance_test(_battery)


def test_criterion_12_determinism(capsys, suite_seed7_runs):
    # `frcalc suite --seed 7` twice: byte-identical modulo elapsed_ms,
    # total runtime < 2 min
    assert suite_seed7_runs.codes == [0, 0]
    first, second = suite_seed7_runs.outputs
    elapsed = suite_seed7_runs.elapsed_s

    def strip(text):
        obj = json.loads(text)
        obj.pop("elapsed_ms", None)
        return json.dumps(obj, sort_keys=True)

    ok = strip(first) == strip(second) and elapsed < 120.0
    with capsys.disabled():
        print(f"criterion 12 determinism: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.1f}s of 120s budget)", flush=True)
    assert strip(first) == strip(second)
    assert elapsed < 120.0
