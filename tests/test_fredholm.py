from fractions import Fraction

import numpy as np
import pytest

from frcalc.frames import Frame, matrix_unit_frame
from frcalc.fredholm import DeskFredholm, amplify, conjugate, index, localize_index
from frcalc.generators import random_fredholm
from frcalc.homspace import StarHom, random_hom
from frcalc.linalg import DEFAULT_TOL, random_unitary, svd_rank


def _rank(m):
    return svd_rank(np.linalg.svd(m, compute_uv=False), DEFAULT_TOL)


def _shift_block(win_dom, win_cod):
    """Window of the one-sided shift-like operator: maps domain slot s
    to codomain slot s for s < win_cod, drops the rest."""
    fp = np.zeros((win_cod, win_dom), dtype=complex)
    for s_ in range(min(win_dom, win_cod)):
        fp[s_, s_] = 1.0
    return fp


def test_index_of_shift_window():
    # n=1, window 3 -> 2: one extra domain copy survives in the kernel
    t = DeskFredholm(1, 3, 2, _shift_block(3, 2))
    assert index(t) == 1
    t2 = DeskFredholm(1, 2, 3, _shift_block(2, 3))
    assert index(t2) == -1


def test_index_against_svd_oracle():
    for seed in range(10):
        t = random_fredholm(2, 3, 2, seed, deficiency=seed % 3)
        rank = _rank(t.finite_part)
        oracle = (2 * 3 - rank) - (2 * 2 - rank)
        assert index(t) == oracle == 2


def test_index_ill_conditioned_raises():
    fp = np.diag([1.0, 1e-8]).astype(complex)
    t = DeskFredholm(1, 2, 2, fp)
    with pytest.raises(ValueError, match="ill-conditioned"):
        index(t)


def test_conjugation_invariance():
    t = random_fredholm(3, 2, 1, 5)
    g = random_unitary(3, 6)
    assert index(conjugate(g, t)) == index(t)


def test_conjugate_rejects_non_unitary():
    t = random_fredholm(2, 2, 1, 7)
    with pytest.raises(ValueError, match="unitary"):
        conjugate(np.ones((2, 2)), t)
    with pytest.raises(ValueError, match="unitary"):
        conjugate(np.eye(3), t)


def test_amplification_multiplies_index():
    t = random_fredholm(2, 3, 1, 8)
    assert index(t) == 4
    h = random_hom(2, 3, 9)
    amped = amplify(h, t)
    assert amped.n == 6
    assert index(amped) == 12


def test_amplify_preserves_kernel_dimension_scaling():
    # with a rank-deficient window the kernel itself also scales by l
    t = random_fredholm(2, 2, 2, 10, deficiency=1)
    rank = _rank(t.finite_part)
    h = random_hom(2, 2, 11)
    amped = amplify(h, t)
    assert _rank(amped.finite_part) == 2 * rank


def test_amplify_rejects_a_non_hom():
    # 0.3 times the matrix units: the right shapes, but no frame
    bad = StarHom(2, 6, Frame(2, 6, 0.3 * matrix_unit_frame(2, 3).mats))
    with pytest.raises(ValueError, match="homomorphism"):
        amplify(bad, random_fredholm(2, 3, 1, 8))


@pytest.mark.parametrize("win_dom, win_cod", [(0, 2), (3, 0), (0, 0)])
def test_empty_windows_keep_their_shape_and_index(win_dom, win_cod):
    n, l = 2, 3
    t = random_fredholm(n, win_dom, win_cod, 16)
    assert index(t) == n * (win_dom - win_cod)
    cases = [(conjugate(random_unitary(n, 17), t), n), (amplify(random_hom(n, l, 18), t), n * l)]
    for moved, m in cases:
        assert (moved.n, moved.win_dom, moved.win_cod) == (m, win_dom, win_cod)
        assert moved.finite_part.shape == (m * win_cod, m * win_dom)
        assert index(moved) == m * (win_dom - win_cod)


def test_localize_index_consistency():
    t = random_fredholm(2, 3, 2, 12)
    h = random_hom(2, 3, 13)
    amped = amplify(h, t)
    assert localize_index([t, amped], 3) == Fraction(2)
    assert localize_index([amped], 3, start_stage=1) == Fraction(2)
    # a fractional value appears when the chain starts above stage 0
    assert localize_index([t], 3, start_stage=1) == Fraction(2, 3)


def test_localize_index_inconsistent_raises():
    t1 = random_fredholm(2, 3, 2, 14)
    t2 = random_fredholm(2, 4, 2, 15)
    with pytest.raises(ValueError, match="inconsistent"):
        localize_index([t1, t2], 3)


def test_fredholm_windows_compare_and_hash_by_identity():
    a, b = DeskFredholm(1, 3, 2, _shift_block(3, 2)), DeskFredholm(1, 3, 2, _shift_block(3, 2))
    assert not a == b
    assert a != b
    assert a == a
    assert hash(a) != hash(b) and hash(a) == hash(a)
