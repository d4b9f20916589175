"""``suite.run_battery`` reduces the dicts a battery yields by one rule:
the largest float, NaN included, and the count of True bools, under
exactly the keys of the battery's thresholds."""

import math

import numpy as np
import pytest

from frcalc import frames, suite
from frcalc.suite import BATTERIES, Battery, run_battery

BY_NAME = {battery.name: battery for battery in BATTERIES}


def _fake(thresholds, sample):
    return Battery(None, "fake", 5, 1.0, thresholds, sample)


def test_floats_keep_their_largest_and_bools_are_counted():
    def sample(seed, count):
        for i in range(count):
            yield {"residual": float(i), "violations": i % 2 == 1}
        yield {"violations": True}

    report = run_battery(_fake({"residual": 10.0, "violations": 0.0, "unseen": 0.0}, sample), 7)
    assert report["residuals"] == {"residual": 4.0, "violations": 3.0, "unseen": 0.0}
    assert report["pass"] is False


def test_a_nan_anywhere_in_the_batch_fails():
    def sample(seed, count):
        yield {"residual": 0.0}
        yield {"residual": math.nan}
        yield {"residual": 1e-15}

    report = run_battery(_fake({"residual": 1e-9}, sample), 7)
    assert math.isnan(report["residuals"]["residual"]) and report["pass"] is False


def test_a_residual_without_a_threshold_raises():
    def sample(seed, count):
        yield {"residual": 0.0}
        yield {"residul": 0.0}

    with pytest.raises(KeyError, match="residul"):
        run_battery(_fake({"residual": 1e-9}, sample), 7)


def _frame_with_a_nan(u, d):
    """``frames.unitary_frame`` with a NaN in one entry."""
    fr = frames.unitary_frame(u, d)
    mats = fr.mats.copy()
    mats[0, -1, -1, 0] = np.nan
    return frames.Frame(fr.d, fr.ambient, mats)


@pytest.mark.parametrize("name, kernel, fake", [
    ("reconstruction", "frames_close", lambda a, b: math.nan),
    ("frame_axioms", "unitary_frame", _frame_with_a_nan),
])
def test_a_nan_from_a_kernel_fails_its_battery(monkeypatch, name, kernel, fake):
    battery = BY_NAME[name]
    assert run_battery(battery, seed=7, count=2)["pass"]
    monkeypatch.setattr(suite, kernel, fake)
    report = run_battery(battery, seed=7, count=2)
    assert report["pass"] is False and "error" not in report
    assert any(math.isnan(x) for x in report["residuals"].values())
