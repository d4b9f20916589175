import hashlib
import os
import platform
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcalc import fredholm, linalg
from frcalc.fredholm import amplify
from frcalc.frames import (Frame, dot, dot_with_residual, pi1, pi2, random_frame,
                           tensor_frame, verify_frame)
from frcalc.generators import random_fredholm
from frcalc.grassmannian import lambda_map
from frcalc.homspace import (block_scalar_deviation, compose_plain, intertwiner, iota,
                             push_frame, random_hom)
from frcalc.linalg import (
    DEFAULT_TOL,
    apply_frame,
    conjugate,
    is_unitary,
    kron_stack,
    max_abs,
    orthonormal_cols,
    orthonormal_span,
    pair_products,
    positive_qr,
    random_unitaries,
    random_unitary,
    subspace_distance,
    svd_rank,
    vectorize,
)


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(7, 42)
    u2 = random_unitary(7, 42)
    assert np.array_equal(u1, u2)
    assert is_unitary(u1)
    assert max_abs(u1 @ u1.conj().T - np.eye(7)) < 1e-12


def test_random_unitary_seed_sensitivity():
    assert max_abs(random_unitary(5, 1) - random_unitary(5, 2)) > 1e-3


# The sizes the suite batteries draw.
SUITE_SIZES = (1, 2, 3, 4, 6, 8, 10, 12, 18)


@pytest.mark.parametrize("n", SUITE_SIZES)
def test_a_stacked_draw_is_the_draws_alone_bit_for_bit(n):
    many = [0, 1, 7, 2**32 - 1, 2**63 + 5] + list(range(1000, 1040))
    for seeds in ([12345], many):
        stack = random_unitaries([(n, s) for s in seeds])
        assert [u.shape for u in stack] == [(n, n)] * len(seeds)
        for s, u in zip(seeds, stack):
            assert u.tobytes() == random_unitary(n, s).tobytes()


def test_draws_of_mixed_sizes_come_back_in_order():
    draws = [(6, 3), (2, 3), (6, 4), (1, 9), (2, 5), (6, 3)]
    got = random_unitaries(iter(draws))
    assert [u.tobytes() for u in got] == [random_unitary(n, s).tobytes() for n, s in draws]
    assert random_unitaries([]) == []
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_unitaries([(2, 1), (0, 1)])


# SHA-256 of the bytes of random_unitary(n, seed), recorded when each unitary
# was drawn alone, so that a change of the stream or of the phase fix shows.
RANDOM_UNITARY_SHA256 = {
    (1, 0): "669028c908ae2c533a375e817885ec5b83c7cf65b2a3be6df7313a00679c9583",
    (2, 7): "7d57f3663ab5d047b1fe63b7fb501ab0cae4567313fbcc3358d0c7de2f656b20",
    (6, 12345): "cf2886814e3e83d6b7c866a6fd141cfab44001d0991f2905ce87680071c5899c",
    (18, 2**32 - 1): "5b917fd70b870708a7cb485fa11a770ee531e6801c9619c49debcc6f661ea513",
}


@pytest.mark.parametrize("n, seed", RANDOM_UNITARY_SHA256)
def test_random_unitary_keeps_its_recorded_bytes(n, seed):
    digest = hashlib.sha256(random_unitary(n, seed).tobytes()).hexdigest()
    assert digest == RANDOM_UNITARY_SHA256[n, seed]


@pytest.mark.parametrize("shape", [(4, 6, 3), (3, 5, 5)])
def test_positive_qr_has_a_positive_r_and_factors_a_stack_matrix_by_matrix(shape):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q = positive_qr(x)
    r = q.conj().swapaxes(-1, -2) @ x
    d = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.all(d.real > 0) and max_abs(d.imag) < 1e-14
    assert max_abs(np.tril(r, -1)) < 1e-14 and max_abs(q @ r - x) < 1e-14
    assert q.tobytes() == np.stack([positive_qr(m) for m in x]).tobytes()


def test_positive_qr_keeps_the_column_of_a_zero_diagonal_entry():
    with np.errstate(all="raise"):
        q = positive_qr(np.zeros((4, 2), dtype=complex))
    assert max_abs(q.conj().T @ q - np.eye(2)) < 1e-15


def test_nullspace_and_rank():
    # rank-2 3x4 matrix with a known 2-dim kernel
    a = np.array([[1.0, 2.0, 3.0, 4.0],
                  [2.0, 4.0, 6.0, 8.0],
                  [0.0, 1.0, 1.0, 1.0]])
    assert svd_rank(np.linalg.svd(a, compute_uv=False), DEFAULT_TOL) == 2


def test_orthonormal_span_dimension():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3))
    mats = [m, 2 * m, m + 1j * m, np.eye(3)]
    basis = orthonormal_span(mats)
    assert len(basis) == 2
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            inner = np.trace(x @ y.conj().T)
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-12



def test_span_functions_take_a_stack_as_they_take_its_list():
    m = np.random.default_rng(3).standard_normal((3, 3))
    cases = [([m, 2 * m, m + 1j * m, np.eye(3)], [np.eye(3), m.T]),
             (list(lambda_map(random_frame(3, 6, 4)).basis),
              list(lambda_map(random_frame(2, 6, 1)).basis))]
    for mats, other in cases:
        stack = np.array(mats)
        assert np.array_equal(orthonormal_cols(stack, DEFAULT_TOL),
                              orthonormal_cols(mats, DEFAULT_TOL))
        span = orthonormal_span(stack)
        assert span.shape[1:] == stack.shape[1:] and np.array_equal(span, orthonormal_span(mats))
        assert subspace_distance(stack, np.array(other)) == subspace_distance(mats, other)


def test_an_empty_stack_spans_the_zero_subspace():
    empty = np.zeros((0, 4, 4), dtype=complex)
    assert vectorize(empty).shape == (16, 0)
    assert orthonormal_cols(empty, DEFAULT_TOL).shape == (16, 0)
    assert orthonormal_span(empty).shape == (0, 4, 4)
    assert subspace_distance(empty, empty) == 0.0
    assert subspace_distance(empty, np.eye(4)[None]) == 1.0


@pytest.mark.parametrize("x", [np.inf, np.nan])
def test_orthonormal_cols_refuses_a_non_finite_entry(x):
    """[E_11 + x E_12, I]: an inf gave an empty basis and a NaN a raw
    LinAlgError before the guard."""
    e = np.zeros((2, 2), dtype=complex)
    e[0, 0], e[0, 1] = 1.0, x
    with pytest.raises(ValueError, match="non-finite"):
        orthonormal_cols([e, np.eye(2)], DEFAULT_TOL)


def _svd_cols(mats):
    """``orthonormal_cols`` through its SVD alone: the left singular
    vectors above the ``svd_rank`` cut."""
    u, s, _ = np.linalg.svd(vectorize(mats), full_matrices=False)
    return u[:, :svd_rank(s, DEFAULT_TOL)]


def test_orthonormal_cols_returns_an_orthonormal_stack_as_it_is(monkeypatch):
    basis = list(lambda_map(random_frame(3, 6, 4)).basis)
    gram = vectorize(basis).conj().T @ vectorize(basis)
    assert 0 < max_abs(gram - np.eye(9)) <= linalg.BOUNDS["orthonormal"][0]
    monkeypatch.setattr(np.linalg, "svd", None)
    assert np.array_equal(orthonormal_cols(basis, DEFAULT_TOL), vectorize(basis))


@pytest.mark.parametrize("change", ["off by 1e-10", "dependent", "scaled by 2"])
def test_orthonormal_cols_takes_the_svd_of_any_other_stack(change):
    basis = list(lambda_map(random_frame(3, 6, 4)).basis)
    if change == "off by 1e-10":
        basis[0] = basis[0] + 1e-10 * basis[1]
    elif change == "dependent":
        basis.append(basis[0] + basis[1])
    else:
        basis = [2 * b for b in basis]
    q = orthonormal_cols(basis, DEFAULT_TOL)
    assert np.array_equal(q, _svd_cols(basis))
    assert q.shape[1] == 9
    assert subspace_distance([c.reshape(6, 6) for c in q.T], basis) <= 1e-14


_INF_IN_A_BASIS = """
import numpy as np
from frcalc.frames import random_frame
from frcalc.grassmannian import lambda_map
from frcalc.linalg import DEFAULT_TOL, orthonormal_cols
basis = [m.copy() for m in lambda_map(random_frame(2, 4, 2)).basis]
basis[0][1, 0] = np.inf
try:
    orthonormal_cols(basis, DEFAULT_TOL)
except ValueError as exc:
    print(exc)
"""


def test_orthonormal_cols_refuses_an_inf_on_which_the_svd_does_not_return():
    """Run in a subprocess: without the guard the SVD of this basis
    never returns, and the test fails after 30 s instead of hanging."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
    proc = subprocess.run([sys.executable, "-c", _INF_IN_A_BASIS], env=env,
                          capture_output=True, text=True, timeout=30, check=True)
    assert "non-finite" in proc.stdout


_SECOND_SUITE_FAULTS = """
import resource
from frcalc.suite import run_suite

run_suite(seed=3, scale=0.12)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_suite(seed=3, scale=0.12)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_a_second_scaled_suite_faults_in_few_pages():
    """With freed heap kept mapped, a second scale-0.12 suite reuses the
    pages of the first: 4-5 minor faults, against about 14,000 when glibc
    trims them.  Run in a subprocess, as the policy is process-wide."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(linalg.__file__)))
    proc = subprocess.run([sys.executable, "-c", _SECOND_SUITE_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(proc.stdout) < 1000


def _no_c_library(name):
    raise OSError(f"{name}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()],
                         ids=["no library", "no mallopt"])
def test_the_heap_policy_is_skipped_without_mallopt(monkeypatch, cdll):
    monkeypatch.setattr(linalg.ctypes, "CDLL", cdll)
    assert linalg._keep_freed_heap_resident() is None


def test_the_heap_policy_is_a_32_mb_mmap_threshold_and_a_16_mb_top_pad(monkeypatch):
    mallopt = mock.Mock(return_value=1)
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    linalg._keep_freed_heap_resident()
    assert mallopt.call_args_list == [mock.call(-3, 32 << 20), mock.call(-2, 16 << 20)]


def test_subspace_distance_zero_and_one():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert subspace_distance([e11], [2 * e11]) < 1e-12
    assert subspace_distance([e11], [e22]) > 0.9


_H4 = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2


def _monomial(rng, size):
    """A seeded unitary with one entry 1, i, -1 or -i in each row and column."""
    return np.eye(size)[rng.permutation(size)] * np.array([1, 1j, -1, -1j])[rng.integers(4, size=size)]


def _principal_angle_pair(theta_max, seed):
    """Stacks A and B of three 4 x 4 matrices at the principal angles
    theta_max, theta_max / 2 and theta_max / 3: the columns [W1 e_i; 0]
    and [cos t_i W1 e_i; sin t_i W2 e_i] in C^16, rotated by a seeded
    unitary.  W1, W2 (Hadamard between monomials) and the rotation are
    exact in binary floating point, so both stacks are orthonormal to the
    last bit and their angles are those of the construction; a rounded Haar
    rotation would move an angle of 1e-12 by about 1e-16."""
    rng = np.random.default_rng(seed)
    w1, w2 = (_monomial(rng, 4) @ _H4 @ _monomial(rng, 4) for _ in range(2))
    theta = theta_max / np.arange(1, 4)
    a, b = np.zeros((2, 16, 3), dtype=complex)
    a[:4] = w1[:, :3]
    b[:4], b[4:8] = w1[:, :3] * np.cos(theta), w2[:, :3] * np.sin(theta)
    u = _monomial(rng, 16)
    return (u @ a).T.reshape(3, 4, 4), (u @ b).T.reshape(3, 4, 4)


def _spectral_norms(monkeypatch):
    """Each np.linalg.norm call of ord 2 or -2, which runs numpy's SVD from
    inside the norm, as its ord; np.linalg.svd itself is removed."""
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord in (2, -2):
            calls.append(ord)
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    monkeypatch.setattr(np.linalg, "svd", None)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("theta_max", [1e-12, 1e-3, 0.3, 1.2])
def test_subspace_distance_is_the_sine_of_the_largest_principal_angle(monkeypatch, theta_max,
                                                                     seed):
    """sin theta_max to full relative accuracy, the same both ways, from
    neither an SVD nor a spectral norm on orthonormal stacks; a kernel
    that read the smallest angle would give sin(theta_max / 3)."""
    a, b = _principal_angle_pair(theta_max, seed)
    norms = _spectral_norms(monkeypatch)
    d_ab, d_ba = subspace_distance(a, b), subspace_distance(b, a)
    assert norms == []
    assert abs(d_ab - np.sin(theta_max)) <= 1e-14 * np.sin(theta_max)
    assert abs(d_ab - d_ba) <= 1e-15
    assert subspace_distance(a[:2], b) == subspace_distance(a, b[1:]) == 1.0


# -- contraction kernels against the formulas they replace ----------------

EXAMPLES = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SIZE = st.integers(1, 4)
SEED = st.integers(0, 2**32 - 1)


def _rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kron_loop(a, b):
    """tensor_frame's former 4-deep loop of np.kron calls."""
    da, db = a.shape[0], b.shape[0]
    n = a.shape[2] * b.shape[2]
    out = np.zeros((da, db, da, db, n, n), dtype=complex)
    for i in range(da):
        for j in range(da):
            for p in range(db):
                for q in range(db):
                    out[i, p, j, q] = np.kron(a[i, j], b[p, q])
    return out.reshape(da * db, da * db, n, n)


@EXAMPLES
@given(SIZE, SIZE, SIZE, SEED)
def test_pair_products_matches_einsum(p, q, n, seed):
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, p, n, n), _rand(rng, q, n, n)
    assert max_abs(pair_products(a, b) - np.einsum("pab,qbc->pqac", a, b)) < 1e-13


@EXAMPLES
@given(SIZE, SIZE, SIZE, SEED)
def test_apply_frame_matches_einsum(s, m, t, seed):
    rng = np.random.default_rng(seed)
    coeffs, mats = _rand(rng, s, s, m, m), _rand(rng, m, m, t, t)
    want = np.einsum("ijuv,uvab->ijab", coeffs, mats)
    assert max_abs(apply_frame(coeffs, mats) - want) < 1e-13
    # A single coefficient matrix takes the product of its one-matrix stack.
    single = coeffs[0, 0]
    assert np.array_equal(apply_frame(single, mats), apply_frame(single[None], mats)[0])


def test_apply_frame_rejects_mismatched_degree():
    with pytest.raises(ValueError, match="degree"):
        apply_frame(np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 4, 4)))


@EXAMPLES
@given(SIZE, st.integers(1, 6), SEED)
def test_conjugate_matches_einsum(d, n, seed):
    rng = np.random.default_rng(seed)
    u, mats = random_unitary(n, seed), _rand(rng, d, d, n, n)
    want = np.einsum("ab,ijbc,dc->ijad", u, mats, u.conj())
    assert max_abs(conjugate(u, mats) - want) < 1e-13


@EXAMPLES
@given(SIZE, SIZE, SIZE, SIZE, SEED)
def test_kron_stack_matches_np_kron(p, q, r, s, seed):
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, p, q), _rand(rng, r, s)
    assert np.array_equal(kron_stack(a, b), np.kron(a, b))
    xs, ys = _rand(rng, 3, p, q), _rand(rng, 2, r, s)
    want = np.array([[np.kron(x, y) for y in ys] for x in xs])
    assert np.array_equal(kron_stack(xs[:, None], ys[None]), want)


@EXAMPLES
@given(SIZE, SIZE, st.integers(1, 3), st.integers(1, 3), SEED)
def test_tensor_frame_matches_kron_loop(d1, d2, c1, c2, seed):
    """Mixed degrees, d = 1 and cofactor 1 included."""
    a, b = random_frame(d1, d1 * c1, seed), random_frame(d2, d2 * c2, seed + 1)
    assert np.array_equal(tensor_frame(a, b).mats, _kron_loop(a.mats, b.mats))


@EXAMPLES
@given(SIZE, SIZE, st.integers(1, 3), SEED)
def test_iota_matches_kron_loop(k, m, l, seed):
    """l = 1 included."""
    h = random_hom(k, m, seed)
    n = h.dst
    want = np.zeros((k * l, k * l, n * l, n * l), dtype=complex)
    for i in range(k):
        for j in range(k):
            for a in range(l):
                for b in range(l):
                    unit = np.zeros((l, l))
                    unit[a, b] = 1.0
                    want[i * l + a, j * l + b] = np.kron(h.image_frame.mats[i, j], unit)
    assert np.array_equal(iota(h, l).image_frame.mats, want)


@EXAMPLES
@given(SIZE, st.integers(2, 3), st.integers(2, 3), SEED)
def test_compose_plain_three_sizes(a, l1, l2, seed):
    """M_a -> M_{a l1} -> M_{a l1 l2}: three different sizes."""
    h1, h2 = random_hom(a, l1, seed), random_hom(a * l1, l2, seed + 1)
    want = np.einsum("ijuv,uvab->ijab", h1.image_frame.mats, h2.image_frame.mats)
    assert max_abs(compose_plain(h2, h1).image_frame.mats - want) < 1e-13
    fr = random_frame(a, a * l1, seed + 2)
    want = np.einsum("uvij,ijab->uvab", fr.mats, h2.image_frame.mats)
    assert max_abs(push_frame(h2, fr).mats - want) < 1e-13


@EXAMPLES
@given(st.integers(1, 3), st.integers(1, 3), SEED)
def test_frame_kernels_match_einsum(d1, d2, seed):
    """verify_frame, dot and its commutation residual against their einsum
    formulas, on commuting frames alpha = pi1(beta), gamma = pi2(beta)."""
    beta = random_frame(d1 * d2, 2 * d1 * d2, seed)
    alpha, gamma = pi1(beta, d1), pi2(beta, d1)
    n = beta.ambient
    want = np.einsum("ijab,uvbc->iujvac", alpha.mats, gamma.mats).reshape(beta.mats.shape)
    assert max_abs(dot(alpha, gamma).mats - want) < 1e-13
    a, g = alpha.mats.reshape(-1, n, n), gamma.mats.reshape(-1, n, n)
    comm = np.einsum("pab,qbc->pqac", a, g) - np.einsum("qab,pbc->pqac", g, a)
    combined, residual = dot_with_residual(alpha, gamma)
    assert max_abs(combined.mats - dot(alpha, gamma).mats) == 0.0
    assert abs(residual - max_abs(comm)) < 1e-13
    s = beta.mats
    d = beta.d
    err_i = max_abs(np.einsum("ijab,jlbc->ilac", s, s) - d * s) / d
    assert abs(verify_frame(beta).axiom_i_maxerr - err_i) < 1e-13
    broken = Frame(d, n, s * np.arange(1, d * d + 1).reshape(d, d, 1, 1))
    err_i = max_abs(np.einsum("ijab,jlbc->ilac", broken.mats, broken.mats) - d * broken.mats) / d
    assert abs(verify_frame(broken).axiom_i_maxerr - err_i) < 1e-13 * err_i


@EXAMPLES
@given(SIZE, SIZE, st.integers(1, 3), st.integers(1, 3), SEED)
def test_amplify_matches_block_loop(n, l, win_dom, win_cod, seed):
    t = random_fredholm(n, win_dom, win_cod, seed)
    h = random_hom(n, l, seed + 1)
    n2 = n * l
    amp = np.zeros((n2 * win_cod, n2 * win_dom), dtype=complex)
    fp = t.finite_part.reshape(n, win_cod, n, win_dom)
    for i in range(n):
        for j in range(n):
            for a in range(l):
                ia, ja = i * l + a, j * l + a
                amp[ia * win_cod:(ia + 1) * win_cod,
                    ja * win_dom:(ja + 1) * win_dom] = fp[i, :, j, :]
    u = intertwiner(h)
    want = np.kron(u, np.eye(win_cod)) @ amp @ np.kron(u.conj().T, np.eye(win_dom))
    assert max_abs(amplify(h, t).finite_part - want) < 1e-13


@EXAMPLES
@given(SIZE, st.integers(1, 3), st.integers(1, 3), SEED)
def test_conjugate_matches_kron_sandwich(n, win_dom, win_cod, seed):
    t = random_fredholm(n, win_dom, win_cod, seed)
    g = random_unitary(n, seed + 1)
    want = np.kron(g, np.eye(win_cod)) @ t.finite_part @ np.kron(g.conj().T, np.eye(win_dom))
    assert max_abs(fredholm.conjugate(g, t).finite_part - want) < 1e-13


@EXAMPLES
@given(SIZE, SIZE, SEED)
def test_block_scalar_deviation_matches_block_loop(k, l, seed):
    w = random_unitary(k * l, seed)
    w = w if seed % 2 else np.kron(np.eye(k), random_unitary(l, seed))
    b = w.reshape(k, l, k, l)
    want = max(max_abs(b[i, :, j, :] - b[0, :, 0, :]) if i == j else max_abs(b[i, :, j, :])
               for i in range(k) for j in range(k))
    assert block_scalar_deviation(w, k, l) == want
