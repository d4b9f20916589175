"""``suite.ALL_BATTERIES`` keeps the shape the benchmark reads: one
keyword-callable per entry of ``BATTERIES``, in table order, whose
``count`` default is the entry's count; and ``run_suite`` at the
benchmark's scale gives the reports recorded below, byte for byte.  A
NaN in any hom of a nerve chain fails the nerve battery."""

import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from frcalc import suite
from frcalc.catverify import NerveChain
from frcalc.frames import Frame
from frcalc.homspace import StarHom
from frcalc.suite import ALL_BATTERIES, BATTERIES, run_battery, run_suite


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
    3: "efb342bae6f452f93d32d0bbfb78fefdf4da6642b434d8d2b9af85d1e548181d",
    11: "78bbcecc5af7cf6bc58726c767707e66d44437df3ed6e6ff256780ee13356dc4",
}


@pytest.mark.parametrize("seed", SCALED_SUITE_SHA256)
def test_the_scaled_suite_report_is_recorded_byte_for_byte(seed):
    report = run_suite(seed=seed, scale=0.12)
    assert report["pass"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == SCALED_SUITE_SHA256[seed]


def _chains_with_a_nan(position):
    """``suite._random_chains`` with one entry of the hom at ``position``
    of the last chain set to NaN."""
    draw = suite._random_chains

    def chains(starts):
        *head, last = draw(starts)
        homs = list(last.homs)
        h = homs[position]
        mats = h.image_frame.mats.copy()
        mats[0, 0, 0, 0] = np.nan
        homs[position] = StarHom(h.src, h.dst, Frame(h.src, h.dst, mats))
        return [*head, NerveChain(tuple(homs))]
    return chains


@pytest.mark.parametrize("position", range(4))
def test_a_non_finite_hom_fails_the_nerve_battery(monkeypatch, position):
    """The simplicial identities skip the positions where both chains
    hold the same hom, but the degeneracy round trip compares every hom
    with its composite with an identity, so the NaN reaches a residual
    wherever it sits.  At count 3 the last chain has length 4."""
    monkeypatch.setattr(suite, "_random_chains", _chains_with_a_nan(position))
    nerve, = (b for b in BATTERIES if b.name == "nerve")
    report = run_battery(nerve, 7, 3)
    assert not report["pass"]
    assert math.isnan(report["residuals"]["degeneracy_roundtrip"])
