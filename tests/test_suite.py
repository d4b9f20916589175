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


# SHA-256 of json.dumps(run_suite(seed, scale=0.12), sort_keys=True).
SCALED_SUITE_SHA256 = {
    3: "5df3dc4bbb11928e8f1c14a8b65490ba68edd77c751e5638b4dd8df5e24b4aa8",
    11: "40d174d299368f010d65a2841c22cea777ebb08392c08b6e4356a81b4bcd065b",
}


@pytest.mark.parametrize("seed", SCALED_SUITE_SHA256)
def test_the_scaled_suite_report_is_recorded_byte_for_byte(seed):
    report = run_suite(seed=seed, scale=0.12)
    assert report["pass"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SCALED_SUITE_SHA256[seed]
