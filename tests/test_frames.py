import numpy as np
import pytest

from frcalc.frames import (
    Frame,
    conjugate_frame,
    dot,
    dot_with_residual,
    frames_close,
    matrix_unit_frame,
    pi1,
    pi2,
    random_frame,
    reindex_frame,
    shuffle_permutation,
    tensor_frame,
    trivial_frame,
    verify_frame,
)
from frcalc.linalg import max_abs, random_unitary


def test_basepoint_frame_passes_exactly():
    report = verify_frame(matrix_unit_frame(3, 2))
    assert report.axiom_i_maxerr == 0.0
    assert report.axiom_ii_maxerr == 0.0
    assert report.axiom_iii_maxerr == 0.0


def test_basepoint_entries_are_shifted_identities():
    fr = matrix_unit_frame(2, 3)
    e12 = np.zeros((6, 6))
    e12[0:3, 3:6] = np.eye(3)
    assert np.array_equal(fr.mats[0, 1], e12)


def test_random_frame_passes_axioms():
    for seed in range(5):
        report = verify_frame(random_frame(2, 6, seed))
        assert report.pass_, report


def test_verify_rejects_scaled_frame():
    fr = matrix_unit_frame(2, 2)
    report = verify_frame(Frame(2, 4, 0.5 * fr.mats))
    assert not report.pass_


def _pi1_oracle(beta, d1):
    # independent loop-based block sum
    d2 = beta.d // d1
    n = beta.ambient
    out = np.zeros((d1, d1, n, n), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for t in range(d2):
                out[i, j] += beta.mats[i * d2 + t, j * d2 + t]
    return out


def _pi2_oracle(beta, d1):
    d2 = beta.d // d1
    n = beta.ambient
    out = np.zeros((d2, d2, n, n), dtype=complex)
    for u in range(d2):
        for v in range(d2):
            for t in range(d1):
                out[u, v] += beta.mats[t * d2 + u, t * d2 + v]
    return out


def test_projections_match_loop_oracle():
    beta = random_frame(6, 12, 17)
    for d1 in (2, 3):
        assert max_abs(pi1(beta, d1).mats - _pi1_oracle(beta, d1)) == 0.0
        assert max_abs(pi2(beta, d1).mats - _pi2_oracle(beta, d1)) == 0.0


def test_projection_rejects_bad_split():
    with pytest.raises(ValueError):
        pi1(random_frame(6, 6, 0), 4)


def test_dot_of_basepoint_factors():
    # alpha = e_{ij} (x) E_3 and gamma = E_2 (x) mu commute; their dot is
    # the full basepoint frame of degree 6 in M_6.
    alpha = matrix_unit_frame(2, 3)
    gamma = reindex_ambient_of_second_factor()
    combined = dot(alpha, gamma)
    assert frames_close(combined, matrix_unit_frame(6, 1)) == 0.0


def reindex_ambient_of_second_factor():
    # E_2 (x) mu for mu the degree-3 basepoint frame of M_3
    mu = matrix_unit_frame(3, 1)
    n = 6
    mats = np.zeros((3, 3, n, n), dtype=complex)
    for u in range(3):
        for v in range(3):
            mats[u, v] = np.kron(np.eye(2), mu.mats[u, v])
    return Frame(3, 6, mats)


def test_dot_projections_recover_factors():
    u = random_unitary(6, 8)
    alpha = conjugate_frame(u, matrix_unit_frame(2, 3))
    gamma = conjugate_frame(u, reindex_ambient_of_second_factor())
    combined = dot(alpha, gamma)
    assert frames_close(pi1(combined, 2), alpha) < 1e-12
    assert frames_close(pi2(combined, 2), gamma) < 1e-12


def test_dot_rejects_noncommuting():
    a = random_frame(2, 4, 1)
    b = random_frame(2, 4, 2)
    assert max_abs(a.mats[0, 0] @ b.mats[0, 0] - b.mats[0, 0] @ a.mats[0, 0]) > 1e-3
    for product in (dot, dot_with_residual):
        with pytest.raises(ValueError, match="commute"):
            product(a, b)


def test_reconstruction_identity():
    beta = random_frame(6, 6, 23)
    for d1 in (2, 3):
        rebuilt = dot(pi1(beta, d1), pi2(beta, d1))
        assert frames_close(rebuilt, beta) < 1e-12


def test_tensor_frame_against_kron_oracle():
    a = random_frame(2, 2, 4)
    b = random_frame(2, 4, 5)
    t = tensor_frame(a, b)
    assert t.d == 4 and t.ambient == 8
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    expected = np.kron(a.mats[i, j], b.mats[p, q])
                    got = t.mats[i * 2 + p, j * 2 + q]
                    assert max_abs(got - expected) == 0.0


def test_tensor_of_frames_is_frame():
    t = tensor_frame(random_frame(2, 2, 6), random_frame(3, 3, 7))
    assert verify_frame(t).pass_


def test_unit_frame_tensor_is_identity_embedding():
    fr = random_frame(2, 4, 9)
    assert frames_close(tensor_frame(trivial_frame(1), fr), fr) == 0.0


def test_conjugate_frame_requires_unitary():
    fr = matrix_unit_frame(2, 2)
    with pytest.raises(ValueError, match="unitary"):
        conjugate_frame(np.ones((4, 4)), fr)


def test_reindex_frame_swaps_digits():
    # build a degree-6 frame as dot of commuting factors, then swap the
    # two digit positions; entry ((u,i),(v,j)) must equal ((i,u),(j,v)).
    u = random_unitary(6, 31)
    alpha = conjugate_frame(u, matrix_unit_frame(2, 3))
    gamma = conjugate_frame(u, reindex_ambient_of_second_factor())
    beta = dot(alpha, gamma)
    swapped = reindex_frame(beta, (2, 3), (1, 0))
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    lhs = swapped.mats[p * 2 + i, q * 2 + j]
                    rhs = beta.mats[i * 3 + p, j * 3 + q]
                    assert max_abs(lhs - rhs) == 0.0


def test_shuffle_permutation_swaps_kron_factors():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = shuffle_permutation(2, 3)
    assert max_abs(s @ s.conj().T - np.eye(6)) == 0.0
    assert max_abs(s @ np.kron(x, y) @ s.conj().T - np.kron(y, x)) < 1e-13
