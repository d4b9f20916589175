"""``suite.ALL_BATTERIES`` keeps the shape the benchmark reads: one
keyword-callable per entry of ``BATTERIES``, in table order, whose
``count`` default is the entry's count."""

import inspect

from frcalc.suite import ALL_BATTERIES, BATTERIES


def test_all_batteries_follow_the_table():
    assert len(ALL_BATTERIES) == len(BATTERIES)
    for f, battery in zip(ALL_BATTERIES, BATTERIES):
        params = inspect.signature(f).parameters
        assert list(params) == ["seed", "count"]
        assert params["seed"].default == 7
        assert params["count"].default == battery.count
        assert f(seed=7, count=1)["name"] == battery.name
