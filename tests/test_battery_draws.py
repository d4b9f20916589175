"""Each battery draws the Haar unitaries of all its samples in one
``linalg.random_unitaries`` call, which takes one QR per size: a battery
that drew its samples one at a time, or in a call per constructor, would
take more.  At count 5 every battery cycles through all the shapes it
draws at its default count (at most 5 configurations, nerve chains of 3
lengths), so it meets the same sizes as ``run_suite(seed=7)``."""

import numpy as np

from frcalc.suite import BATTERIES, run_battery

# QR calls of each battery at seed 7, one per distinct unitary size.
QR_CALLS = {"frame_axioms": 2, "reconstruction": 2, "intertwiner": 2, "centralizer": 2,
            "naturality": 5, "coherence_diagrams": 3, "centralizer_tensor": 6,
            "ev_composition": 1, "fredholm_index": 2, "nerve": 2, "fr_functoriality": 3,
            "abgroup": 0}


def test_each_battery_takes_one_qr_per_size_it_draws(monkeypatch):
    qr, sizes = np.linalg.qr, []

    def counted(a, *args, **kwargs):
        if a.ndim == 3:  # a draw's stack; intertwiner and the spans factor single matrices
            sizes.append(a.shape[-1])
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    calls = {}
    for battery in BATTERIES:
        sizes.clear()
        assert run_battery(battery, seed=7, count=5)["pass"]
        assert len(sizes) == len(set(sizes)), (battery.name, sizes)
        calls[battery.name] = len(sizes)
    assert list(calls) == list(QR_CALLS) and calls == QR_CALLS
    assert sum(calls.values()) == 30
