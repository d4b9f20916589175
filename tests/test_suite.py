"""``suite.ALL_BATTERIES`` keeps the shape the benchmark reads: one
keyword-callable per entry of ``BATTERIES``, in table order, whose
``count`` default is the entry's count; and ``run_suite`` at the
benchmark's scale gives the reports recorded below, byte for byte."""

import hashlib
import inspect
import json

import pytest

from frcalc.suite import ALL_BATTERIES, BATTERIES, run_suite


def test_all_batteries_follow_the_table():
    assert len(ALL_BATTERIES) == len(BATTERIES)
    for f, battery in zip(ALL_BATTERIES, BATTERIES):
        params = inspect.signature(f).parameters
        assert list(params) == ["seed", "count"]
        assert params["seed"].default == 7
        assert params["count"].default == battery.count
        assert f(seed=7, count=1)["name"] == battery.name


# SHA-256 of json.dumps(run_suite(seed, scale=0.12), sort_keys=True), recorded
# when every Haar unitary was still drawn alone: stacked draws change no byte.
SCALED_SUITE_SHA256 = {
    3: "fde95342d8101368f2b179dcf697d18a26b6ce1ab54b5e7e3fa12e6c3c729a4f",
    11: "c8bbb011ba176f3af33e907fdd246afa36fcce4d3513e7ef52604dd59d3884fc",
}


@pytest.mark.parametrize("seed", SCALED_SUITE_SHA256)
def test_the_scaled_suite_report_is_recorded_byte_for_byte(seed):
    report = run_suite(seed=seed, scale=0.12)
    assert report["pass"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SCALED_SUITE_SHA256[seed]
