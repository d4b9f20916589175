"""Every contraction kernel of ``frcalc.linalg``, every commutant
kernel of ``frcalc.grassmannian`` and a kernel behind each of criteria
1-11 are guarded by a battery of ``frcalc.suite.BATTERIES``: with a
deliberately wrong kernel bound in every frcalc module, that battery
reports ``pass: False`` under the name and thresholds of its passing
report."""

import inspect
import sys
import types
from typing import NamedTuple

import numpy as np
import pytest

import frcalc
from frcalc import abgroup, catverify, fredholm, frames, grassmannian, homspace, linalg, suite
from frcalc.suite import BATTERIES, run_battery

apply_frame, kron_stack = linalg.apply_frame, linalg.kron_stack
centralizer = grassmannian.centralizer
pi2, eliminate, kernel_ = frames.pi2, abgroup._eliminate, abgroup._kernel
smith_normal_form = abgroup.smith_normal_form
ev = homspace.ev
BY_NAME = {battery.name: battery for battery in BATTERIES}

GRAM_CONJ_TERM = "gram -= t + t.conj().T"
# The turn of a linked cluster, W_d = U* W_c.
LINK_TURN = "turns[di] = ui.conj().T @ turns[ci]"
# unitary_frame's isometry stack: V_i is the i-th block of N/d columns of U.
COLUMN_BLOCKS = "v = u.reshape(n, d, n // d).transpose(1, 0, 2)"
# The Smith normal form elimination's column operation, which carries V
# in the rows below D, and its row operation, which carries U in the
# columns right of D.
SNF_COLUMN_OP = "for row in tab:\n                        row[j] += c * row[t]"
SNF_ROW_OP = "[x + c * y for x, y in zip(row, top)]"
# The fraction-free elimination's walk over the columns.
RANK_COLUMNS = "for c in range(cols):"
# The naturality square's comparison, path 1 relabelled into dot order.
SQUARE_COMPARISON = "frames_close(_tensor_to_dot_order(path1, fd, gd), path2)"


def _recompiled(module, old, new):
    """``module`` compiled from its source with the one occurrence of
    ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1
    compiled = types.ModuleType(module.__name__)
    compiled.__package__ = frcalc.__name__
    exec(compile(source.replace(old, new), module.__file__, "exec"), compiled.__dict__)
    return compiled


def _full_commutant_without_conj_t():
    """``grassmannian._full_commutant`` with the conj(T[q, p]) term
    dropped from its closed-form Gram."""
    return _recompiled(grassmannian, GRAM_CONJ_TERM, "gram -= t")._full_commutant


def _linked_clusters_turning_by_u():
    """``grassmannian._linked_clusters`` that turns a linked cluster by U
    instead of U*, so the blocks it equates are not those of the
    commutant."""
    return _recompiled(grassmannian, LINK_TURN, "turns[di] = ui @ turns[ci]")._linked_clusters


def _unitary_frame_from_row_blocks():
    """``frames.unitary_frame`` that reads U's blocks of N/d rows, in
    row-major order, as its N x (N/d) isometries V_i: they are not
    isometries, and the V_i V_j* are no frame."""
    return _recompiled(frames, COLUMN_BLOCKS, "v = u.reshape(d, n, n // d)").unitary_frame


def _eliminate_with_column_operations_on_d_only():
    """``abgroup._eliminate`` whose column operations walk only the rows
    of D, so V takes the swaps but not the reductions."""
    return _recompiled(abgroup, SNF_COLUMN_OP,
                       SNF_COLUMN_OP.replace("in tab:", "in tab[:rows]:"))._eliminate


def _eliminate_with_row_operations_on_d_only():
    """``abgroup._eliminate`` whose row operations update only the
    columns of D, so U takes the swaps but not the reductions."""
    return _recompiled(abgroup, SNF_ROW_OP,
                       "[x + c * y for x, y in zip(row, top[:cols])] + row[cols:]")._eliminate


def _eliminate_with_a_wrong_diagonal(tab, rows, cols):
    eliminate(tab, rows, cols)
    if rows and cols:
        tab[0][0] += 1


def _snf_with_zero_pivots_first(m):
    """``abgroup.smith_normal_form`` of a square m as (P U, P D P^T, V P^T)
    for the permutation P that moves the zero pivots to the front: U m V
    = D still holds with U and V unimodular, but D is no divisibility
    chain."""
    u, d, v = smith_normal_form(m)
    order = sorted(range(len(d)), key=lambda i: d[i][i] != 0)
    return ([u[i] for i in order], [[d[i][j] for j in order] for i in order],
            [[row[j] for j in order] for row in v])


def _snf_with_a_non_unimodular_u(m):
    """``abgroup.smith_normal_form`` with the last rows of U and of D
    doubled: U m V = D still holds and D is still a divisibility chain,
    but det U = +-2."""
    u, d, v = smith_normal_form(m)
    return u[:-1] + [[2 * x for x in u[-1]]], d[:-1] + [[2 * x for x in d[-1]]], v


def _kernel_ignoring_target_relations(f):
    """``abgroup._kernel`` that takes a map out of a free group as a map
    into the target's generators alone, of kernel rank g - rank M^T."""
    if not f.src.rels:
        f = abgroup.GroupHom(f.src, abgroup.AbGroupPresentation.free(f.dst.gens), f.matrix)
    return kernel_(f)


def _bareiss_reading_the_first_column_only():
    """``abgroup._bareiss`` that stops after the first column, so every
    rank it gives is at most 1."""
    return _recompiled(abgroup, RANK_COLUMNS, "for c in range(min(cols, 1)):")._bareiss


def _naturality_square_without_the_relabelling():
    """``catverify.check_naturality`` that compares path 1 with path 2
    in tensor order, without relabelling it into dot order; the tensor
    target is still relabelled, so the frame condition holds."""
    return _recompiled(catverify, SQUARE_COMPARISON, "frames_close(path1, path2)").check_naturality


def _pi2_transposed(beta, d1):
    gamma = pi2(beta, d1)
    return frames.Frame(gamma.d, gamma.ambient, np.swapaxes(gamma.mats, 0, 1))


def _fr_map_with_pi2_transposed(data, alpha_prime, tol=linalg.DEFAULT_TOL):
    """``catverify.fr_map`` that completes the pushed frame by pi2 with its
    index pair transposed."""
    return frames.dot(homspace.push_frame(data.f, alpha_prime),
                      _pi2_transposed(data.dst_frame, data.split), tol)


def _zero_block(n, win_dom, win_cod):
    return fredholm.DeskFredholm(n, win_dom, win_cod,
                                 np.zeros((n * win_cod, n * win_dom), dtype=complex))


class Mutant(NamedTuple):
    """Wrong kernels, as (owner module, name, replacement), and the
    names of the batteries that must fail on ``count`` samples once they
    are bound: by reporting ``pass: False``, or, when ``raises``, by
    raising, which ``run_battery`` reports as a failure with the error."""

    kernels: list
    batteries: list
    count: int = 3
    raises: bool = False


MUTANTS = {
    # Every seeded frame is pair_products(V, V*) of N x l isometries, so the
    # swapped products V_j* V_i are l x l and random_frame raises before
    # verify_frame runs, in every float battery.
    "pair_products with the factors swapped":
        Mutant([(linalg, "pair_products", lambda a, b: b[None] @ a[:, None])],
               ["frame_axioms"], raises=True),
    # Seeded frames are read off column blocks and take no conjugation;
    # the commutants rotate their constraints into an eigenbasis by it.
    "conjugate without the conjugation":
        Mutant([(linalg, "conjugate", lambda u, mats: u @ mats @ u.T)],
               ["centralizer", "centralizer_tensor"]),
    "unitary_frame that reads row blocks instead of column blocks":
        Mutant([(frames, "unitary_frame", _unitary_frame_from_row_blocks())], ["frame_axioms"]),
    "apply_frame with the contracted index pair transposed":
        Mutant([(linalg, "apply_frame",
                 lambda coeffs, mats: apply_frame(np.swapaxes(coeffs, -1, -2), mats))],
               ["nerve", "ev_composition"]),
    "kron_stack with the factors swapped":
        Mutant([(linalg, "kron_stack", lambda a, b: kron_stack(b, a))],
               ["coherence_diagrams"]),
    "commutant Gram without the conj(T[q, p]) term":
        Mutant([(grassmannian, "_full_commutant", _full_commutant_without_conj_t())],
               ["centralizer", "centralizer_tensor"]),
    "Gram kernel that keeps every candidate":
        Mutant([(grassmannian, "_gram_kernel", lambda gram, tol: linalg.eye(len(gram)))],
               ["centralizer", "centralizer_tensor"]),
    "cluster linking that turns by U instead of U*":
        Mutant([(grassmannian, "_linked_clusters", _linked_clusters_turning_by_u())],
               ["centralizer", "centralizer_tensor"]),
    "centralizer that drops its last basis element":
        Mutant([(grassmannian, "centralizer",
                 lambda a, tol=linalg.DEFAULT_TOL: grassmannian.Subalgebra(
                     a.ambient, centralizer(a, tol).basis[:-1]))],
               ["centralizer"]),
    "pi1 that reads the first factor from the trailing digit":
        Mutant([(frames, "pi1", lambda beta, d1: pi2(beta, beta.d // d1))],
               ["reconstruction"], raises=True),
    "intertwiner that returns the identity":
        Mutant([(homspace, "intertwiner",
                 lambda h, tol=linalg.DEFAULT_TOL: np.eye(h.dst, dtype=complex))],
               ["intertwiner"]),
    "Smith normal form with a wrong diagonal":
        Mutant([(abgroup, "_eliminate", _eliminate_with_a_wrong_diagonal)],
               ["abgroup"], raises=True),
    # Both report rather than raise: U and V stay unimodular, so the
    # unimodularity check passes, and U m V != D counts as snf_failures.
    # A V without the reductions also gives the kernel out of Z/12 a
    # wrong basis, which coker_ker_failures counts; the battery reads U
    # only in U m V.
    "Smith normal form whose column operations do not carry V":
        Mutant([(abgroup, "_eliminate", _eliminate_with_column_operations_on_d_only())],
               ["abgroup"]),
    "Smith normal form whose row operations do not carry U":
        Mutant([(abgroup, "_eliminate", _eliminate_with_row_operations_on_d_only())],
               ["abgroup"]),
    # Both keep U m V = D and report rather than raise. No other abgroup
    # function calls smith_normal_form, so only snf_failures sees them:
    # the first on the rank-deficient samples, by the zeros-last clause,
    # and the second only by the battery's own determinant of U.
    "Smith normal form with its zero pivots first":
        Mutant([(abgroup, "smith_normal_form", _snf_with_zero_pivots_first)], ["abgroup"]),
    "Smith normal form with a non-unimodular U":
        Mutant([(abgroup, "smith_normal_form", _snf_with_a_non_unimodular_u)], ["abgroup"]),
    # Only kernel(Z -> Z/2, x -> x), which is Z, maps a free group into
    # a group with relations.
    "free-source kernel that ignores the target's relations":
        Mutant([(abgroup, "_kernel", _kernel_ignoring_target_relations)], ["abgroup"]),
    # Every other map of the battery has one generator, so only the
    # kernel of Z^2 -> Z^2 by diag(2, 3), which is 0, sees ranks read
    # off the first column: it comes out as Z.
    "fraction-free rank that reads only the first column":
        Mutant([(abgroup, "_bareiss", _bareiss_reading_the_first_column_only())], ["abgroup"]),
    # dim ker and dim coker change while the index n*(win_dom - win_cod)
    # of the all-zero block stays right.
    "conjugate and amplify that return all-zero blocks":
        Mutant([(fredholm, "conjugate",
                 lambda g, t, tol=linalg.DEFAULT_TOL: _zero_block(t.n, t.win_dom, t.win_cod)),
                (fredholm, "amplify",
                 lambda h, t, tol=linalg.DEFAULT_TOL: _zero_block(
                     t.n * h.mult, t.win_dom, t.win_cod))],
               ["fredholm_index"], count=20),
    "ev evaluating at the transpose":
        Mutant([(homspace, "ev", lambda h, t: ev(h, np.swapaxes(t, -1, -2)))],
               ["ev_composition"]),
    # compose_phi is built from iota, so only the direct comparison of
    # iota(h, l) with h (x) id_l in the battery can see this one.
    "iota built as id_l (x) h":
        Mutant([(homspace, "iota",
                 lambda h, l: homspace.tensor_hom(homspace.identity_hom(l), h))],
               ["ev_composition"]),
    "naturality square compared without the tensor-to-dot relabelling":
        Mutant([(catverify, "check_naturality", _naturality_square_without_the_relabelling())],
               ["naturality"]),
    # Transposed consistently, pi2 still closes the naturality square, whose
    # target is not built from it; reconstruction sees it by a residual, and
    # fr_functoriality by the frame axioms of fr_map's outputs.
    "pi2 with its index pair transposed":
        Mutant([(frames, "pi2", _pi2_transposed)], ["reconstruction", "fr_functoriality"]),
    # Every fr_map of the functoriality battery is transposed alike, so
    # both paths still agree; only the frame axioms of its outputs see it.
    "fr_map with pi2's index pair transposed":
        Mutant([(catverify, "fr_map", _fr_map_with_pi2_transposed)], ["fr_functoriality"]),
}


def _bind_everywhere(monkeypatch, owner, name, fake):
    """Replace owner.name wherever a frcalc module holds it."""
    original = getattr(owner, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith(frcalc.__name__) and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, fake)


@pytest.mark.parametrize("case", MUTANTS)
def test_battery_fails_on_a_broken_kernel(monkeypatch, case):
    mutant = MUTANTS[case]
    batteries = [BY_NAME[name] for name in mutant.batteries]
    passing = [run_battery(battery, seed=7, count=mutant.count) for battery in batteries]
    assert all(r["pass"] for r in passing)
    for owner, name, fake in mutant.kernels:
        _bind_everywhere(monkeypatch, owner, name, fake)
    reports = [run_battery(battery, seed=7, count=mutant.count) for battery in batteries]
    assert [(r["pass"], "error" in r) for r in reports] == [(False, mutant.raises)] * len(reports)
    assert [(r["name"], r["thresholds"]) for r in reports] == \
        [(r["name"], r["thresholds"]) for r in passing]


def test_verify_frame_sees_pair_products_with_the_factors_swapped(monkeypatch):
    """Every seeded frame is built by ``pair_products``, so under this
    mutant the batteries raise before ``verify_frame`` runs; the basepoint
    frames, built by ``kron_stack``, show that its own products see it."""
    bound = linalg.DEFAULT_TOL.bound("frame_axioms")
    shapes = ((2, 3), (3, 2), (2, 5))
    assert all(frames.verify_frame(frames.matrix_unit_frame(*shape)).max_error == 0.0
               for shape in shapes)
    _bind_everywhere(monkeypatch, *MUTANTS["pair_products with the factors swapped"].kernels[0])
    assert all(frames.verify_frame(frames.matrix_unit_frame(*shape)).max_error > bound
               for shape in shapes)


def test_coherence_associativity_sees_the_second_factor_transposition(monkeypatch):
    """The diagrams battery's third factor has degree 2, so a tensor_frame
    that transposes its second factor's frame index fails the
    associativity residual itself, not only identity and tau."""
    battery = BY_NAME["coherence_diagrams"]
    assert run_battery(battery, seed=7, count=3)["residuals"]["associativity"] == 0.0
    original = frames.tensor_frame

    def transposed(alpha, phi):
        return original(alpha, frames.Frame(phi.d, phi.ambient, np.swapaxes(phi.mats, 0, 1)))

    _bind_everywhere(monkeypatch, frames, "tensor_frame", transposed)
    assert run_battery(battery, seed=7, count=3)["residuals"]["associativity"] > 0.0


def test_every_criterion_has_a_mutant():
    guarded = {BY_NAME[name].criterion for mutant in MUTANTS.values() for name in mutant.batteries}
    assert {battery.criterion for battery in BATTERIES} - {None} <= guarded


def test_suite_reports_a_broken_kernel_instead_of_raising(monkeypatch):
    """With kron_stack's factors swapped some batteries raise from their
    generators; run_suite turns each such error into a failing report."""
    _bind_everywhere(monkeypatch, *MUTANTS["kron_stack with the factors swapped"].kernels[0])
    report = suite.run_suite(seed=7, scale=0.02)
    assert report["pass"] is False
    errors = [b for b in report["batteries"] if "error" in b]
    assert errors and all(b["pass"] is False and b["error"] for b in errors)
    assert [(b["name"], b["thresholds"]) for b in report["batteries"]] == \
        [(b.name, b.thresholds) for b in BATTERIES]
