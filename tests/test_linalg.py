import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcalc.fredholm import amplify
from frcalc.frames import (Frame, dot, dot_with_residual, pi1, pi2, random_frame,
                           tensor_frame, verify_frame)
from frcalc.generators import random_fredholm
from frcalc.homspace import (block_scalar_deviation, compose_plain, intertwiner, iota,
                             push_frame, random_hom)
from frcalc.linalg import (
    DEFAULT_TOL,
    apply_frame,
    conjugate,
    is_unitary,
    kron_stack,
    max_abs,
    orthonormal_span,
    pair_products,
    random_unitary,
    subspace_distance,
    svd_rank,
)


def test_random_unitary_is_unitary_and_deterministic():
    u1 = random_unitary(7, 42)
    u2 = random_unitary(7, 42)
    assert np.array_equal(u1, u2)
    assert is_unitary(u1)
    assert max_abs(u1 @ u1.conj().T - np.eye(7)) < 1e-12


def test_random_unitary_seed_sensitivity():
    assert max_abs(random_unitary(5, 1) - random_unitary(5, 2)) > 1e-3


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


def test_subspace_distance_zero_and_one():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert subspace_distance([e11], [2 * e11]) < 1e-12
    assert subspace_distance([e11], [e22]) > 0.9


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
    # A single coefficient matrix gives its defining sum bit for bit.
    single = coeffs[0, 0]
    defining = sum(single[u, v] * mats[u, v] for u in range(m) for v in range(m))
    assert np.array_equal(apply_frame(single, mats), defining)


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
    err_i = max_abs(np.einsum("ijab,rsbc->ijrsac", s, s)
                    - np.einsum("jr,isac->ijrsac", np.eye(d), s))
    assert abs(verify_frame(beta).axiom_i_maxerr - err_i) < 1e-13
    broken = Frame(d, n, s * np.arange(1, d * d + 1).reshape(d, d, 1, 1))
    err_i = max_abs(np.einsum("ijab,rsbc->ijrsac", broken.mats, broken.mats)
                    - np.einsum("jr,isac->ijrsac", np.eye(d), broken.mats))
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
@given(SIZE, SIZE, SEED)
def test_block_scalar_deviation_matches_block_loop(k, l, seed):
    w = random_unitary(k * l, seed)
    w = w if seed % 2 else np.kron(np.eye(k), random_unitary(l, seed))
    b = w.reshape(k, l, k, l)
    want = max(max_abs(b[i, :, j, :] - b[0, :, 0, :]) if i == j else max_abs(b[i, :, j, :])
               for i in range(k) for j in range(k))
    assert block_scalar_deviation(w, k, l) == want
