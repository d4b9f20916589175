"""Every contraction kernel of ``frcalc.linalg`` and every commutant
kernel of ``frcalc.grassmannian`` is guarded by a battery: with a
deliberately wrong kernel bound in every frcalc module, that battery
reports ``pass: False``."""

import inspect
import sys
import types

import numpy as np
import pytest

import frcalc
from frcalc import grassmannian, linalg, suite

apply_frame, kron_stack = linalg.apply_frame, linalg.kron_stack
centralizer = grassmannian.centralizer

GRAM_CONJ_TERM = "gram -= t + t.conj().T"


def _full_commutant_without_conj_t():
    """``grassmannian._full_commutant`` compiled from the module's source
    with the conj(T[q, p]) term dropped from its closed-form Gram."""
    source = inspect.getsource(grassmannian)
    assert source.count(GRAM_CONJ_TERM) == 1
    module = types.ModuleType(grassmannian.__name__)
    module.__package__ = frcalc.__name__
    exec(compile(source.replace(GRAM_CONJ_TERM, "gram -= t"), grassmannian.__file__, "exec"),
         module.__dict__)
    return module._full_commutant


MUTANTS = {
    "pair_products with the factors swapped":
        (linalg, "pair_products", lambda a, b: b[None] @ a[:, None],
         [suite.frame_axioms_battery]),
    "conjugate without the conjugation":
        (linalg, "conjugate", lambda u, mats: u @ mats @ u.T, [suite.frame_axioms_battery]),
    "apply_frame with the contracted index pair transposed":
        (linalg, "apply_frame",
         lambda coeffs, mats: apply_frame(np.swapaxes(coeffs, -1, -2), mats),
         [suite.nerve_battery]),
    "kron_stack with the factors swapped":
        (linalg, "kron_stack", lambda a, b: kron_stack(b, a), [suite.diagrams_battery]),
    "commutant Gram without the conj(T[q, p]) term":
        (grassmannian, "_full_commutant", _full_commutant_without_conj_t(),
         [suite.centralizer_battery, suite.centralizer_tensor_battery]),
    "centralizer that drops its last basis element":
        (grassmannian, "centralizer",
         lambda a, tol=linalg.DEFAULT_TOL: grassmannian.Subalgebra(
             a.ambient, centralizer(a, tol).basis[:-1]),
         [suite.centralizer_battery]),
}


def _bind_everywhere(monkeypatch, owner, name, fake):
    """Replace owner.name wherever a frcalc module holds it."""
    original = getattr(owner, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(frcalc.__name__) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("case", MUTANTS)
def test_battery_fails_on_a_broken_kernel(monkeypatch, case):
    owner, name, fake, batteries = MUTANTS[case]
    assert all(battery(seed=7, count=3)["pass"] for battery in batteries)
    _bind_everywhere(monkeypatch, owner, name, fake)
    assert [battery(seed=7, count=3)["pass"] for battery in batteries] == [False] * len(batteries)


def test_suite_reports_a_broken_kernel_instead_of_raising(monkeypatch):
    """With kron_stack's factors swapped some batteries raise from their
    generators; run_suite turns each such error into a failing report."""
    _bind_everywhere(monkeypatch, linalg, "kron_stack",
                     MUTANTS["kron_stack with the factors swapped"][2])
    report = suite.run_suite(seed=7, scale=0.02)
    assert report["pass"] is False
    errors = [b for b in report["batteries"] if "error" in b]
    assert errors and all(b["pass"] is False and b["error"] for b in errors)
