import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frcalc.frames import conjugate_frame, matrix_unit_frame, random_frame
from frcalc.grassmannian import (
    Subalgebra,
    centralizer,
    centralizer_tensor_check,
    closure_residual,
    commutation_defect,
    extract_frame,
    gr_map,
    is_k_subalgebra,
    lambda_map,
    relative_centralizer,
    span_subalgebra,
    tensor_subalgebra,
)
from frcalc.generators import MorphismConfig, random_d_morphism
from frcalc.homspace import basepoint_hom, ev
from frcalc.linalg import max_abs, orthonormal_span, random_unitary, subspace_distance, vectorize

_SEED = st.integers(0, 2**32 - 1)


def test_span_of_single_generator_closes():
    # one generic matrix generates the full algebra
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = span_subalgebra([g], 3)
    assert alg.dim == 9
    assert closure_residual(alg) < 1e-10


def test_span_of_diagonal_matrix():
    g = np.diag([1.0, 2.0, 3.0])
    alg = span_subalgebra([g], 3)
    assert alg.dim == 3


def _all_products_span(gens, n):
    """The closure loop that multiplies the whole basis by every
    generator and adjoint in each round and takes the SVD of the whole
    stack again, until the dimension stops growing."""
    gens = list(gens) + [g.conj().T for g in gens]
    basis = orthonormal_span(gens + [np.eye(n, dtype=complex)])
    while True:
        grown = orthonormal_span(basis + [x @ g for x in basis for g in gens])
        if len(grown) == len(basis):
            return grown
        basis = grown


def _frame_generators(kl, seed):
    k, l = kl
    fr = random_frame(k, k * l, seed)
    return [fr.mats[i, i + 1] for i in range(k - 1)], k * l


def _generic_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))], n


def _gr_map_generators(cfg, seed):
    """f(A) together with Z_B(f(A)): the union of two subalgebras that
    gr_map(f, A, A, B) spans."""
    d = random_d_morphism(cfg, seed)
    images = [ev(d.f, x) for x in d.a.basis]
    return images + list(relative_centralizer(images, d.b).basis), cfg.dst_ambient


# (generators, ambient size) for each kind of input of span_subalgebra.
SPAN_INPUTS = {
    "generators alpha_{i,i+1} of a frame, k in {2, 3, 4}": st.builds(
        _frame_generators, st.sampled_from([(k, l) for k in (2, 3, 4) for l in (1, 2, 3)]),
        _SEED),
    "one generic matrix": st.builds(_generic_matrix, st.integers(1, 6), _SEED),
    "a diagonal matrix": st.lists(st.integers(-3, 3), min_size=1, max_size=8).map(
        lambda w: ([np.diag(w).astype(complex)], len(w))),
    "the union of two subalgebras, as gr_map takes": st.builds(
        _gr_map_generators,
        st.sampled_from([MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 2, 2, 2),
                         MorphismConfig(2, 1, 3, 3), MorphismConfig(2, 3, 2, 3)]),
        st.integers(0, 2**20)),
}


@pytest.mark.parametrize("kind", SPAN_INPUTS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_span_matches_the_all_products_loop(kind, data):
    gens, n = data.draw(SPAN_INPUTS[kind])
    alg = span_subalgebra(gens, n)
    ref = _all_products_span(gens, n)
    assert alg.dim == len(ref)
    assert subspace_distance(list(alg.basis), ref) <= 1e-12
    q = vectorize(list(alg.basis))
    assert max_abs(q.conj().T @ q - np.eye(alg.dim)) <= 1e-12
    assert closure_residual(alg) <= 1e-10


def test_span_of_the_nilpotent_shift_and_its_adjoint():
    # {1, N, N*} grows by one word length per round, so M_6 is reached
    # only after several rounds.
    shift = np.diag(np.ones(5), 1).astype(complex)
    alg = span_subalgebra([shift], 6)
    assert alg.dim == 36
    assert closure_residual(alg) <= 1e-10


def test_lambda_map_dimension():
    alg = lambda_map(random_frame(2, 6, 1))
    assert alg.dim == 4
    assert closure_residual(alg) < 1e-10


def test_centralizer_of_embedded_matrix_algebra():
    alg = lambda_map(random_frame(2, 6, 2))
    z = centralizer(alg)
    assert z.dim == 9
    assert commutation_defect(alg, z) < 1e-10


def test_centralizer_of_scalars_is_everything():
    alg = Subalgebra(3, ((np.eye(3) / np.sqrt(3)).astype(complex),))
    assert centralizer(alg).dim == 9


def test_double_centralizer_returns_original():
    alg = lambda_map(random_frame(3, 6, 3))
    zz = centralizer(centralizer(alg))
    assert zz.dim == alg.dim
    assert subspace_distance(list(zz.basis), list(alg.basis)) < 1e-10


def test_relative_centralizer_of_factor():
    # inside M_2 (x) M_3, the commutant of M_2 (x) 1 within the whole
    # algebra is 1 (x) M_3
    a_mats = [np.kron(e, np.eye(3)) for e in matrix_unit_frame(2, 1).as_list()]
    full = Subalgebra(6, tuple(np.eye(6)[:, [i]] @ np.eye(6)[[j], :]
                               for i in range(6) for j in range(6)))
    z = relative_centralizer(a_mats, full)
    assert z.dim == 9
    expected = [np.kron(np.eye(2), e) for e in matrix_unit_frame(3, 1).as_list()]
    assert subspace_distance(list(z.basis), expected) < 1e-10


def test_relative_centralizer_of_a_span_that_is_not_star_closed():
    # The commutant of {E_12} in M_2 is span{I, E_12}; a generic hermitian
    # element c E_12 + conj(c) E_21 of the *-closure commutes with the
    # scalars only, so the spectral cut must not be taken here.
    e12 = np.array([[0, 1], [0, 0]], dtype=complex)
    full = Subalgebra(2, tuple(np.eye(4, dtype=complex).reshape(4, 2, 2)))
    z = relative_centralizer([e12], full)
    assert z.dim == 2
    assert subspace_distance(list(z.basis), [np.eye(2), e12]) < 1e-12
    assert relative_centralizer([e12, e12.T], full).dim == 1


def test_relative_centralizer_in_a_dependent_basis_of_n_squared_matrices():
    # Four matrices that span only the diagonal of M_2: Z_B(I) is B.
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    diagonal = Subalgebra(2, (units[0], units[3], units[0], units[3]))
    z = relative_centralizer([np.eye(2)], diagonal)
    assert subspace_distance(list(z.basis), [units[0], units[3]]) < 1e-12
    # A spanning basis that is not orthonormal is solved on its span.
    scaled = Subalgebra(2, tuple(3 * units))
    assert relative_centralizer([np.eye(2)], scaled).dim == 4


def _reference_commutant(constraints, n):
    """Kernel of the commutator Gram over every n x n matrix: vec is
    row-major, so vec(X b - b X) = (I (x) b^T - b (x) I) vec(X)."""
    gram = np.zeros((n * n, n * n), dtype=complex)
    for b in constraints:
        op = np.kron(np.eye(n), b.T) - np.kron(b, np.eye(n))
        gram += op.conj().T @ op
    w, v = np.linalg.eigh(gram)
    return list(v[:, w <= 1e-12 * max(1.0, w[-1])].T.reshape(-1, n, n))


def _matrix_algebra(kl, seed):
    k, l = kl
    fr = conjugate_frame(random_unitary(k * l, seed), matrix_unit_frame(k, l))
    gens = [fr.mats[0, j] for j in range(k)] + [fr.mats[j, 0] for j in range(1, k)]
    return lambda_map(fr), gens


def _diagonal_span(labels, seed):
    n = len(labels)
    u = random_unitary(n, seed)
    blocks = [u @ np.diag(np.equal(labels, c).astype(complex)) @ u.conj().T
              for c in sorted(set(labels))]
    return Subalgebra(n, tuple(b / np.sqrt(np.trace(b).real) for b in blocks)), blocks


# (span, generators of the same *-algebra) for each kind of subalgebra.
STAR_SUBALGEBRAS = {
    "V (M_k (x) 1_l) V*, k l <= 16": st.builds(
        _matrix_algebra,
        st.sampled_from([(k, l) for k in range(1, 17) for l in range(1, 16 // k + 1)]), _SEED),
    "commutative span of diagonal blocks": st.builds(
        _diagonal_span, st.lists(st.integers(0, 4), min_size=1, max_size=12), _SEED),
    "scalars": st.builds(lambda n, c: (Subalgebra(n, (c * np.eye(n),)), [np.eye(n)]),
                         st.integers(1, 16), st.sampled_from([1.0, -0.25, 1j / 3])),
    "empty basis": st.integers(1, 16).map(lambda n: (Subalgebra(n, ()), [])),
}


@pytest.mark.parametrize("kind", STAR_SUBALGEBRAS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_centralizer_matches_direct_gram_reference(kind, data):
    a, gens = data.draw(STAR_SUBALGEBRAS[kind])
    z = centralizer(a)
    ref = _reference_commutant(gens, a.ambient)
    assert z.dim == len(ref)
    assert subspace_distance(list(z.basis), ref) <= 1e-12
    q = vectorize(list(z.basis))
    assert max_abs(q.conj().T @ q - np.eye(z.dim)) <= 1e-12
    assert commutation_defect(a, z) <= 1e-13


def _loop_commutation_defect(a, z):
    worst = 0.0
    for x in a.basis:
        for y in z.basis:
            worst = max(worst, max_abs(x @ y - y @ x))
    return worst


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kl=st.sampled_from([(1, 5), (2, 3), (2, 12), (3, 4), (4, 2)]), seed=_SEED,
       random_z=st.booleans())
def test_commutation_defect_matches_the_basis_loop(kl, seed, random_z):
    k, l = kl
    a = lambda_map(random_frame(k, k * l, seed))
    if random_z:
        rng = np.random.default_rng(seed)
        z = Subalgebra(k * l, tuple(rng.standard_normal((3, k * l, k * l)) * (1 + 1j)))
    else:
        z = centralizer(a)
    assert commutation_defect(a, z) == _loop_commutation_defect(a, z)
    assert commutation_defect(a, Subalgebra(k * l, ())) == 0.0
    assert commutation_defect(Subalgebra(k * l, ()), z) == 0.0


def test_extract_frame_roundtrip():
    fr = random_frame(2, 6, 5)
    alg = lambda_map(fr)
    extracted = extract_frame(alg, 2)
    # same span, valid frame
    assert subspace_distance(extracted.as_list(), list(alg.basis)) < 1e-8
    from frcalc.frames import verify_frame
    assert verify_frame(extracted, ).max_error < 1e-9


def test_extract_frame_rejects_wrong_degree():
    alg = lambda_map(random_frame(2, 6, 6))
    with pytest.raises(ValueError, match="subalgebra"):
        extract_frame(alg, 3)


def test_is_k_subalgebra():
    assert is_k_subalgebra(lambda_map(random_frame(2, 6, 7)), 2)
    # a commutative 4-dim span is not an M_2
    diag = Subalgebra(4, tuple(np.diag(np.eye(4)[i]).astype(complex) for i in range(4)))
    assert not is_k_subalgebra(diag, 2)
    # d = 1: only the scalars C.1 are a unital copy of M_1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[0, 0] = 1.0
    assert not is_k_subalgebra(Subalgebra(2, (e11,)), 1)
    assert is_k_subalgebra(Subalgebra(2, (np.eye(2, dtype=complex),)), 1)


def test_gr_map_with_basepoint_hom():
    # f : M_6 -> M_12, X -> X (x) E_2; A' = A = lambda(alpha) for a
    # 2-frame; the image span must contain f(A') and the centralizer
    # relation must commute with f(A).
    fr = random_frame(2, 6, 8)
    a = lambda_map(fr)
    f = basepoint_hom(6, 2)
    b = Subalgebra(12, tuple(np.eye(12)[:, [i]] @ np.eye(12)[[j], :]
                             for i in range(12) for j in range(12)))
    result = gr_map(f, a, a, b)
    # Gr(f)(A) = f(A) . Z_B(f(A)): here the full commutant construction
    from frcalc.homspace import ev
    images = [ev(f, x) for x in a.basis]
    q = subspace_distance(images, list(result.basis))
    # images are contained in the result span (one-sided containment)
    from frcalc.linalg import orthonormal_cols, DEFAULT_TOL
    cols = orthonormal_cols(list(result.basis), DEFAULT_TOL)
    proj = cols @ cols.conj().T
    for img in images:
        v = img.reshape(-1)
        assert float(np.max(np.abs(v - proj @ v))) < 1e-10


def test_gr_map_rejects_non_morphism():
    a = lambda_map(random_frame(2, 6, 9))
    small = lambda_map(random_frame(2, 12, 10))
    f = basepoint_hom(6, 2)
    with pytest.raises(ValueError, match="D-morphism"):
        gr_map(f, a, a, small)


def test_tensor_subalgebra_dim():
    a = lambda_map(random_frame(2, 2, 11))
    b = lambda_map(random_frame(3, 3, 12))
    assert tensor_subalgebra(a, b).dim == 36


def test_centralizer_tensor_identity():
    fm = random_d_morphism(MorphismConfig(2, 1, 2, 2), 13)
    gm = random_d_morphism(MorphismConfig(1, 1, 3, 1), 14)
    ok, dist = centralizer_tensor_check(fm.f, gm.f, fm.a, fm.b, gm.a, gm.b)
    assert ok and dist < 1e-10
