"""Every contraction kernel of ``frcalc.linalg`` is guarded by a battery:
with a deliberately wrong kernel bound in every frcalc module, that
battery reports ``pass: False``."""

import sys

import numpy as np
import pytest

import frcalc
from frcalc import linalg, suite

apply_frame, kron_stack = linalg.apply_frame, linalg.kron_stack

MUTANTS = {
    "pair_products with the factors swapped":
        ("pair_products", lambda a, b: b[None] @ a[:, None], suite.frame_axioms_battery),
    "conjugate without the conjugation":
        ("conjugate", lambda u, mats: u @ mats @ u.T, suite.frame_axioms_battery),
    "apply_frame with the contracted index pair transposed":
        ("apply_frame", lambda coeffs, mats: apply_frame(np.swapaxes(coeffs, -1, -2), mats),
         suite.nerve_battery),
    "kron_stack with the factors swapped":
        ("kron_stack", lambda a, b: kron_stack(b, a), suite.diagrams_battery),
}


def _bind_everywhere(monkeypatch, name, fake):
    """Replace the kernel wherever a frcalc module has imported it."""
    original = getattr(linalg, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(frcalc.__name__) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("case", MUTANTS)
def test_battery_fails_on_a_broken_kernel(monkeypatch, case):
    name, fake, battery = MUTANTS[case]
    assert battery(seed=7, count=3)["pass"]
    _bind_everywhere(monkeypatch, name, fake)
    assert battery(seed=7, count=3)["pass"] is False


def test_suite_reports_a_broken_kernel_instead_of_raising(monkeypatch):
    """With kron_stack's factors swapped some batteries raise from their
    generators; run_suite turns each such error into a failing report."""
    _bind_everywhere(monkeypatch, "kron_stack", MUTANTS["kron_stack with the factors swapped"][1])
    report = suite.run_suite(seed=7, scale=0.02)
    assert report["pass"] is False
    errors = [b for b in report["batteries"] if "error" in b]
    assert errors and all(b["pass"] is False and b["error"] for b in errors)
