import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

from frcalc import grassmannian, linalg
from frcalc.frames import conjugate_frame, matrix_unit_frame, random_frame, verify_frame
from frcalc.grassmannian import (
    _GENERIC_SEED,
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
    star_closed,
    tensor_subalgebra,
    _generic_coefficients,
    _generic_eigenbasis,
    _linked_clusters,
    _unit_scaled,
)
from frcalc.generators import MorphismConfig, random_d_morphism, random_source_frame
from frcalc.homspace import basepoint_hom, ev
from frcalc.linalg import (
    conjugate,
    max_abs,
    orthonormal_span,
    pair_products,
    random_unitary,
    subspace_distance,
    vectorize,
)

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
    stack again, until the dimension stops growing.  Its cut is relative
    to the largest singular value of the unnormalized stack, so it can
    keep a spurious direction where the generators have weak ones; the
    exact ``_exact_span_dim`` decides those."""
    gens = list(gens) + [g.conj().T for g in gens]
    basis = orthonormal_span(gens + [np.eye(n, dtype=complex)])
    while True:
        grown = orthonormal_span(np.concatenate([basis, [x @ g for x in basis for g in gens]]))
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


def _exact_span_dim(gens, n):
    """Dimension of the unital *-algebra that the n x n sympy matrices
    ``gens`` generate, spun over Q(i): each round multiplies an echelon
    basis by every generator and adjoint, and exact row reduction of the
    words decides the dimension, with no cut."""
    mults = [DomainMatrix.from_Matrix(m).convert_to(QQ_I) for g in gens for m in (g, g.H)]
    words, dim = [DomainMatrix.eye(n, QQ_I)] + mults, -1
    while True:
        rows = DomainMatrix([sum(w.to_list(), []) for w in words], (len(words), n * n), QQ_I)
        echelon, pivots = rows.rref()
        if len(pivots) == dim:
            return dim
        dim = len(pivots)
        basis = [DomainMatrix([row[i * n:(i + 1) * n] for i in range(n)], (n, n), QQ_I)
                 for row in echelon.to_list()[:dim]]
        words = basis + [x * m for x in basis for m in mults]


def _weak_span_input(base, entry, delta):
    """diag(base) + delta E_entry and the exact dimension of the algebra
    it generates, with delta rational."""
    g = sympy.diag(*base)
    g[entry] += delta
    return base, entry, float(delta), _exact_span_dim([g], len(base))


# Diagonal generators plus delta at one off-diagonal entry, with the
# dimension of the algebra they generate, taken by the exact reference:
# diag(1, 1, 2, 2) + delta E_34 generates C (+) M_2, of dimension 5, and
# diag(1, 2, 3, 4) + delta E_12 generates M_2 (+) C (+) C, of dimension 6.
# The added directions have singular values of order delta in the
# spinning residual.  The closure residual of such a span grows as delta
# falls (about 2e-9 at 1e-7), so only delta >= 1e-5 is held to the 1e-10
# closure bound, and they are kept out of SPAN_INPUTS, whose test holds
# every input to it.  The float loop _all_products_span is no reference
# here: it returns 6 for the first family at each delta.
WEAK_SPAN_INPUTS = [_weak_span_input(base, entry, sympy.Rational(1, 10**e))
                    for base, entry in (((1, 1, 2, 2), (2, 3)), ((1, 2, 3, 4), (0, 1)))
                    for e in (5, 6, 7)]


@pytest.mark.parametrize("base, entry, delta, dim", WEAK_SPAN_INPUTS)
def test_weak_directions_stay_orthonormal(base, entry, delta, dim):
    n = len(base)
    g = np.diag(base).astype(complex)
    g[entry] += delta
    alg = span_subalgebra([g], n)
    assert alg.dim == dim
    # Within the orthonormal bound, so later projections skip their SVD.
    q = vectorize(alg.basis)
    assert max_abs(q.conj().T @ q - np.eye(alg.dim)) <= linalg.DEFAULT_TOL.bound("orthonormal")
    if delta >= 1e-5:
        assert closure_residual(alg) <= 1e-10


def _call_counter(monkeypatch, name):
    """The shapes of the first argument of every call of np.linalg.<name>."""
    calls = []
    solver = getattr(np.linalg, name)

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return solver(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _svd_counter(monkeypatch):
    return _call_counter(monkeypatch, "svd")


def _rounds_that_add(gens, n):
    """Rounds of spinning that add directions: word length grows by one
    per round, so this counts the word lengths past 1 that enlarge the
    span of the words in gens, gens* and 1."""
    mults = orthonormal_span(np.concatenate([gens, gens.conj().swapaxes(1, 2), np.eye(n)[None]]))
    basis, rounds = mults, 0
    while True:
        grown = orthonormal_span(np.concatenate(
            [basis, pair_products(basis, mults).reshape(-1, n, n)]))
        if len(grown) == len(basis):
            return rounds
        basis, rounds = grown, rounds + 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_span_that_is_already_the_algebra_takes_one_svd(monkeypatch, seed):
    gens = lambda_map(random_frame(2, 6, seed)).basis
    calls = _svd_counter(monkeypatch)
    alg = span_subalgebra(gens, 6)
    # Only orthonormal_cols of [gens, gens*, 1]; the closing round takes none.
    assert calls == [(36, 9)]
    assert alg.dim == 4


def test_each_round_that_adds_directions_takes_one_svd(monkeypatch):
    shift = np.diag(np.ones(5), 1).astype(complex)[None]
    rounds = _rounds_that_add(shift, 6)
    assert rounds > 1
    calls = _svd_counter(monkeypatch)
    alg = span_subalgebra(shift, 6)
    assert len(calls) == 1 + rounds
    assert alg.dim == 36
    # Each round ranks a sketch of its residual, never the n^2-row residual.
    assert all(rows < 36 for rows, _ in calls[1:])


def _block_diagonal_generators(seed):
    """Three generators in M_4 (+) M_4 inside M_8 with entries in
    {-1, 0, 1} + i {-1, 0, 1}, as numpy and as sympy matrices."""
    ints = np.random.default_rng(seed).integers(-1, 2, (2, 2, 3, 4, 4))
    gens = np.zeros((3, 8, 8), dtype=complex)
    gens[:, :4, :4] = ints[0, 0] + 1j * ints[1, 0]
    gens[:, 4:, 4:] = ints[0, 1] + 1j * ints[1, 1]
    exact = [sympy.Matrix(8, 8, lambda i, j: int(g.real[i, j]) + int(g.imag[i, j]) * sympy.I)
             for g in gens]
    return gens, exact


def test_a_residual_above_the_sketch_width_doubles_it(monkeypatch):
    """The 7 multipliers give 49 products whose residual has rank 25, more
    than the starting width 2 * 7 + 8 = 22: the sketch doubles to 44
    columns, which hold the residual, and the round is ranked from a 44-row
    SVD."""
    gens, exact = _block_diagonal_generators(0)
    qrs = _call_counter(monkeypatch, "qr")
    svds = _svd_counter(monkeypatch)
    alg = span_subalgebra(gens, 8)
    monkeypatch.undo()
    assert qrs[:2] == [(64, 22), (64, 44)]
    assert svds[1] == (44, 49)
    assert alg.dim == _exact_span_dim(exact, 8)
    q = vectorize(alg.basis)
    assert max_abs(q.conj().T @ q - np.eye(alg.dim)) <= linalg.DEFAULT_TOL.bound("orthonormal")
    assert closure_residual(alg) <= 1e-10


def test_span_is_bitwise_deterministic_and_reuses_its_draws():
    """The sketch matrix is a fixed cached draw: a second span of the same
    generators draws nothing new and returns the same bits."""
    gens, _ = _block_diagonal_generators(0)
    first = span_subalgebra(gens, 8)
    misses = _generic_coefficients.cache_info().misses
    second = span_subalgebra(gens, 8)
    assert _generic_coefficients.cache_info().misses == misses
    assert first.basis.tobytes() == second.basis.tobytes()


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
    a_mats = [np.kron(e, np.eye(3)) for e in matrix_unit_frame(2, 1).mats.reshape(-1, 2, 2)]
    full = Subalgebra(6, tuple(np.eye(6)[:, [i]] @ np.eye(6)[[j], :]
                               for i in range(6) for j in range(6)))
    z = relative_centralizer(a_mats, full)
    assert z.dim == 9
    expected = [np.kron(np.eye(2), e) for e in matrix_unit_frame(3, 1).mats.reshape(-1, 3, 3)]
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


def _units(k, l):
    """The matrix units of M_k (x) 1_l."""
    return [np.kron(e, np.eye(l)) for e in np.eye(k * k).reshape(-1, k, k)]


def _block_sum(summands, seed):
    """u (S_1 + ... + S_r) u* for spanning sets S_i of the summands, with
    a Haar unitary u: its orthonormal span and its spanning set."""
    n = sum(mats[0].shape[0] for mats in summands)
    u = random_unitary(n, seed)
    gens, start = [], 0
    for mats in summands:
        size = mats[0].shape[0]
        for x in mats:
            g = np.zeros((n, n), dtype=complex)
            g[start:start + size, start:start + size] = x
            gens.append(u @ g @ u.conj().T)
        start += size
    return Subalgebra(n, tuple(orthonormal_span(gens))), gens


_PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
# Three anticommuting hermitian 4 x 4 matrices: their span is *-closed
# but not an algebra.
_GAMMAS = [np.kron(_PAULI[0], p) for p in _PAULI]


def _gamma_span(m, seed):
    u = random_unitary(4, seed)
    gens = [np.kron(u @ g @ u.conj().T, np.eye(m)) for g in _GAMMAS]
    return Subalgebra(4 * m, tuple(orthonormal_span(gens))), gens


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
    # Equal-size clusters in different summands, which must stay unlinked.
    "two conjugated M_k (x) 1_l summands with one l": st.builds(
        lambda kkl, seed: _block_sum([_units(kkl[0], kkl[2]), _units(kkl[1], kkl[2])], seed),
        st.sampled_from([(k1, k2, l) for k1 in range(1, 8) for k2 in range(1, 8)
                         for l in range(1, 9) if (k1 + k2) * l <= 16]), _SEED),
    # The cluster of C 1_m has no partner.
    "M_k (x) 1_l + C 1_m": st.builds(
        lambda klm, seed: _block_sum([_units(klm[0], klm[1]), [np.eye(klm[2])]], seed),
        st.sampled_from([(k, l, m) for k in range(1, 8) for l in range(1, 8)
                         for m in range(1, 9) if k * l + m <= 16]), _SEED),
    # A *-closed span that is not an algebra: its clusters of size 2m are
    # not linked, their link block being far from a multiple of a unitary.
    "u (g1, g2, g3) u* (x) 1_m": st.builds(_gamma_span, st.integers(1, 4), _SEED),
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


@pytest.mark.parametrize("a, gens", [
    _block_sum([_units(2, 3), _units(3, 3)], 5),
    _block_sum([_units(1, 4), _units(2, 4)], 6),
    _block_sum([_units(2, 1), _units(3, 1)], 7),
], ids=["M_2 (x) 1_3 + M_3 (x) 1_3", "C 1_4 + M_2 (x) 1_4", "M_2 + M_3"])
def test_linking_every_pair_of_equal_size_clusters_gives_a_wrong_commutant(a, gens, monkeypatch):
    """With no floor and no unitary test, equal-size clusters of different
    summands are linked through a block of rounding noise, and the merged
    candidates miss part of the commutant."""
    dim = len(_reference_commutant(gens, a.ambient))
    assert centralizer(a).dim == dim
    monkeypatch.setitem(linalg.BOUNDS, "link_floor", (0.0, None))
    monkeypatch.setitem(linalg.BOUNDS, "link_unitary", (np.inf, None))
    assert centralizer(a).dim < dim


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
    assert subspace_distance(extracted.mats.reshape(-1, 6, 6), list(alg.basis)) < 1e-8
    from frcalc.frames import verify_frame
    assert verify_frame(extracted, ).max_error < 1e-9


# (k, n) for the spans lambda(alpha) of random frames of M_k (x) 1_l in M_n.
_LINK_GRID = [(2, 24), (3, 24), (4, 24), (3, 9), (5, 20), (6, 12)]


def _components(a, seed=_GENERIC_SEED):
    """The components of the linked eigenbasis that the commutant and
    extraction take for the draw of ``seed``."""
    y, vecs, clusters = _generic_eigenbasis(_unit_scaled(a.basis), a.ambient, seed)
    return _linked_clusters(y, vecs, clusters, linalg.DEFAULT_TOL)


def test_frame_spans_link_into_one_component():
    """The k clusters of M_k (x) 1_l form one component in 239 of these
    240 spans; linking each cluster only to an unlinked head did in 179.
    The exception, k = 2 at seed 20, has one link block, below the
    floor."""
    single = [len(_components(lambda_map(random_frame(k, n, seed)))) == 1
              for k, n in _LINK_GRID for seed in range(40)]
    assert sum(single) >= 235


@pytest.mark.parametrize("k, seed", [(2, 0), (3, 1), (4, 2), (6, 3)])
def test_the_commutant_of_a_frame_span_takes_one_eigensolve(monkeypatch, k, seed):
    """One component of k clusters gives l^2 candidates, which are the
    commutant: the Gram is zero to rounding and takes no eigensolve, so
    the generic element's is the only one."""
    a = lambda_map(random_frame(k, 24, seed))
    calls = _call_counter(monkeypatch, "eigh")
    z = centralizer(a)
    assert calls == [(24, 24)]
    assert z.dim == (24 // k) ** 2
    assert commutation_defect(a, z) <= 1e-13


# M_2 (x) 1_2 in M_4 whose first draw links its two clusters below the
# floor; the next draw links them.  Its basis is the frame u (e_ij (x) 1_2) u*
# of a Haar u times the phases (-1, i, 1, 1), over sqrt(2): already
# orthonormal, so no SVD picks a basis that a BLAS kernel can change.  A
# generic element is then u (Y (x) 1_2) u* with Y read off the draw's
# coefficients alone, and the link s over the element's largest entry is
# 0.022 on the first draw and 0.36 on the next (floor 0.1), whatever u's
# rounding.
_WEAK_LINK = Subalgebra(4, random_frame(2, 4, 54).mats.reshape(4, 4, 4)
                        * np.array([-1, 1j, 1, 1])[:, None, None] / np.sqrt(2))


def test_a_gram_above_the_cut_takes_the_eigensolve(monkeypatch):
    """Two components give 8 candidates for a 4-dimensional commutant,
    and the gamma span's unlinked clusters more than its commutant: the
    Gram is far above the cut, and its eigensolve keeps the commutant."""
    assert len(_components(_WEAK_LINK)) == 2
    gamma, gamma_gens = _gamma_span(2, 5)
    for a, gens in ((_WEAK_LINK, _WEAK_LINK.basis), (gamma, gamma_gens)):
        calls = _call_counter(monkeypatch, "eigh")
        z = centralizer(a)
        monkeypatch.undo()
        assert len(calls) == 2 and calls[0] == (a.ambient, a.ambient)
        ref = _reference_commutant(gens, a.ambient)
        assert z.dim == len(ref)
        assert subspace_distance(z.basis, ref) <= 1e-12


def test_a_sub_floor_link_on_the_first_draw_extracts_with_the_next(monkeypatch):
    assert len(_components(_WEAK_LINK)) == 2
    assert len(_components(_WEAK_LINK, _GENERIC_SEED + 7)) == 1
    calls = _call_counter(monkeypatch, "eigh")
    fr = extract_frame(_WEAK_LINK, 2)
    assert calls == [(4, 4)] * 2
    assert verify_frame(fr).max_error <= linalg.DEFAULT_TOL.bound("extracted_frame")
    assert subspace_distance(fr.mats.reshape(-1, 4, 4) / np.sqrt(2), _WEAK_LINK.basis) <= 1e-12


@pytest.mark.parametrize("k, n, seed", [(2, 24, 0), (3, 24, 1), (4, 24, 2), (3, 6, 3)])
def test_extract_frame_on_an_orthonormal_frame_span_takes_no_svd(monkeypatch, k, n, seed):
    """The frame is read off the linked eigenbasis, and both the frame
    scaled to orthonormal and the span as given are their own bases in
    the span check."""
    a = lambda_map(random_frame(k, n, seed))
    calls = _svd_counter(monkeypatch)
    fr = extract_frame(a, k)
    assert calls == []
    assert verify_frame(fr).max_error <= 1e-13
    assert subspace_distance(fr.mats.reshape(-1, n, n) * np.sqrt(k / n), a.basis) <= 1e-13


def _block_diagonal_span(k, n, seed):
    """The commutative span of the projections onto k^2 blocks of
    coordinates of C^n, conjugated by a random unitary, normalized."""
    basis = np.zeros((k * k, n, n), dtype=complex)
    for i, block in enumerate(np.array_split(np.arange(n), k * k)):
        basis[i, block, block] = 1 / np.sqrt(len(block))
    return Subalgebra(n, conjugate(random_unitary(n, seed), basis))


_E11 = Subalgebra(2, np.diag([1.0, 0.0])[None])


@pytest.mark.parametrize("a, d", [(_block_diagonal_span(k, 24, k), k) for k in (2, 3, 4)]
                         + [(_E11, 1)], ids=["k2", "k3", "k4", "e11"])
def test_a_draw_with_more_than_d_clusters_refuses_after_one_eigensolve(monkeypatch, a, d):
    """Every eigenvalue of a generic element of an M_d (x) 1_m has
    multiplicity a multiple of m, so the k^2 clusters of the block
    projections, and the two of E_11, rule the span out on the first
    draw."""
    calls = _call_counter(monkeypatch, "eigh")
    assert not is_k_subalgebra(a, d)
    assert calls == [(a.ambient, a.ambient)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_extract_frame_of_the_scalars_is_the_identity(n):
    """d = 1 takes the same path as any d: one cluster, the frame {V V*}."""
    fr = extract_frame(Subalgebra(n, np.eye(n)[None]), 1)
    assert fr.mats.shape == (1, 1, n, n)
    assert max_abs(fr.mats[0, 0] - np.eye(n)) <= 1e-14


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


def _centre_and_extraction(a, d):
    """The earlier form of ``is_k_subalgebra``: dimension d^2, a centre
    of dimension 1 solved as the relative centralizer of a in itself,
    and a successful ``extract_frame``."""
    if a.dim != d * d or relative_centralizer(a.basis, a).dim != 1:
        return False
    try:
        extract_frame(a, d)
    except ValueError:
        return False
    return True


def _is_k_cases(seed):
    """Frame spans of M_d in M_dl, the same spans asked for degree d + 1
    and with noise of 1e-10 to 1e-3, random spans of dimension d^2, and
    commutative diagonal spans of dimension d^2."""
    rng = np.random.default_rng(seed)
    for d, l in ((1, 3), (2, 2), (2, 3), (3, 2), (4, 2)):
        n = d * l
        a = lambda_map(random_frame(d, n, seed + 10 * d + l))
        yield a, d
        yield a, d + 1
        for eps in (1e-10, 1e-7, 1e-5, 1e-3):
            noise = rng.standard_normal(a.basis.shape) + 1j * rng.standard_normal(a.basis.shape)
            yield Subalgebra(n, a.basis + eps * noise), d
        r = rng.standard_normal((d * d, n, n)) + 1j * rng.standard_normal((d * d, n, n))
        yield Subalgebra(n, orthonormal_span(r)), d
        diag = np.zeros((d * d, n, n), dtype=complex)
        for i, block in enumerate(np.array_split(np.arange(n), d * d)):
            diag[i, block, block] = 1.0
        yield Subalgebra(n, diag), d


def test_is_k_subalgebra_agrees_with_the_centre_and_extraction_predicate():
    """Extraction alone decides: a frame it returns spans an M_d, whose
    centre is the scalars, so the centre solve never changed the answer.
    The empty span asked for degree 0 is a case of its own."""
    cases = [(Subalgebra(2, ()), 0)] + [c for seed in range(4) for c in _is_k_cases(seed)]
    answers = [(is_k_subalgebra(a, d), _centre_and_extraction(a, d)) for a, d in cases]
    assert [new for new, _ in answers] == [old for _, old in answers]
    assert {new for new, _ in answers} == {True, False}


def test_subalgebra_holds_a_stack_and_refuses_another_shape():
    """Four 3 x 12 matrices were read as 6 x 6 ones by ``centralizer``,
    which returned a 9-dimensional commutant of them."""
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="6x6"):
        Subalgebra(6, tuple(rng.standard_normal((4, 3, 12))))
    with pytest.raises(ValueError):
        Subalgebra(6, rng.standard_normal((36, 6)))
    assert Subalgebra(6, ()).basis.shape == (0, 6, 6)
    a = Subalgebra(6, [np.eye(6), np.ones((6, 6))])
    assert a.basis.shape == (2, 6, 6) and a.basis.dtype == complex
    assert np.array_equal(Subalgebra(6, (m for m in a.basis)).basis, a.basis)
    assert span_subalgebra((g for g in [np.diag([1.0, 2.0])]), 2).dim == 2


def test_star_closed_takes_a_stack():
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    for mats in ([e12], [e12, e12.T], list(lambda_map(random_frame(2, 4, 3)).basis)):
        assert star_closed(np.array(mats)) == star_closed(mats)
    assert star_closed(np.zeros((0, 3, 3), dtype=complex))


@pytest.mark.parametrize("c", [1e-200, 1e-8, 1e-7, 0.5, 1.0, 1e7, 1e200])
def test_centralizers_and_extraction_ignore_the_input_scale(c):
    """A basis scaled by c spans the same algebra: the commutant of
    lambda(alpha) for a frame of M_2 in M_6 is 9-dimensional, that of
    span{I, E_11} in M_4 is M_1 + M_3, and lambda(alpha) is an M_2."""
    a = lambda_map(random_frame(2, 6, 3))
    scaled = Subalgebra(6, tuple(c * b for b in a.basis))
    assert centralizer(scaled).dim == 9
    assert is_k_subalgebra(scaled, 2)
    extracted = extract_frame(scaled, 2)
    assert subspace_distance(extracted.mats.reshape(-1, 6, 6), list(a.basis)) < 1e-8
    e11 = np.zeros((4, 4), dtype=complex)
    e11[0, 0] = c
    assert centralizer(Subalgebra(4, (c * np.eye(4, dtype=complex), e11))).dim == 10



@pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
def test_star_closed_ignores_the_input_scale(c):
    """span{c E_12} is not *-closed at any c; span{c E_12, c E_21} is."""
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = c
    assert not star_closed([e12])
    assert star_closed([e12, e12.T])


@pytest.mark.parametrize("c", [1e-200, 1.0, 1e200])
def test_closure_residual_sees_products_adjoints_and_the_unit(c, monkeypatch):
    """lambda(alpha) for a frame of M_2 in M_4 and M_1 + M_3 are unital
    *-algebras at any scale c.  lambda(alpha) plus a random matrix is not
    closed under products, span{1, E_12} not under adjoints, and span{E_11}
    and the empty span hold no unit: the unit-scaled 1 - E_11 has entries
    1/2.  The residual takes one generic element, no basis products."""
    monkeypatch.setattr(grassmannian, "pair_products", _raise)
    bound = linalg.DEFAULT_TOL.bound("in_span")
    units = np.eye(16, dtype=complex).reshape(4, 4, 4, 4)
    algebra = lambda_map(random_frame(2, 4, 3)).basis
    rng = np.random.default_rng(4)
    extra = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))

    def closure(mats):
        return closure_residual(Subalgebra(mats.shape[-1], c * mats))

    assert closure(algebra) <= bound
    assert closure(np.concatenate([units[:1, 0], units[1:, 1:].reshape(-1, 4, 4)])) <= bound
    assert closure(np.concatenate([algebra, extra])) > bound
    assert closure(np.array([np.eye(4), units[0, 1]])) > bound
    assert closure(units[:1, 0]) >= 0.5
    assert closure(np.zeros((0, 3, 3), dtype=complex)) >= 0.5


def _raise(*args):
    raise AssertionError("closure_residual forms no basis products")


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


@pytest.mark.parametrize("e", [-40, 40])
def test_d_morphism_maps_ignore_the_input_scale(e):
    """Every subalgebra input scaled by 2^e (exactly) spans the same
    subspace: gr_map gives the 16-dimensional span it gives at scale 1,
    and the centralizer tensor identity holds."""
    cfg = MorphismConfig(2, 1, 2, 2)
    fm, gm = random_d_morphism(cfg, 20), random_d_morphism(cfg, 30)
    a_prime = lambda_map(random_source_frame(cfg, 21))

    def scaled(alg):
        return Subalgebra(alg.ambient, 2.0**e * alg.basis)

    assert gr_map(fm.f, a_prime, fm.a, fm.b).dim == 16
    assert gr_map(fm.f, scaled(a_prime), scaled(fm.a), scaled(fm.b)).dim == 16
    ok, dist = centralizer_tensor_check(fm.f, gm.f, scaled(fm.a), scaled(fm.b),
                                        scaled(gm.a), scaled(gm.b))
    assert ok and dist < 1e-10


@pytest.mark.parametrize("e", [-40, 40])
def test_gr_map_refuses_a_scaled_non_morphism(e):
    """f(M_6) for f: X -> X (x) 1_2 does not lie in an M_2 of M_12,
    however M_6's basis is scaled."""
    full = Subalgebra(6, 2.0**e * np.eye(36, dtype=complex).reshape(36, 6, 6))
    with pytest.raises(ValueError, match="D-morphism"):
        gr_map(basepoint_hom(6, 2), full, full, lambda_map(random_frame(2, 12, 10)))


def test_tensor_subalgebra_dim():
    a = lambda_map(random_frame(2, 2, 11))
    b = lambda_map(random_frame(3, 3, 12))
    assert tensor_subalgebra(a, b).dim == 36


def test_centralizer_tensor_identity():
    fm = random_d_morphism(MorphismConfig(2, 1, 2, 2), 13)
    gm = random_d_morphism(MorphismConfig(1, 1, 3, 1), 14)
    ok, dist = centralizer_tensor_check(fm.f, gm.f, fm.a, fm.b, gm.a, gm.b)
    assert ok and dist < 1e-10


def test_subalgebras_compare_and_hash_by_identity():
    a, b = Subalgebra(2, [np.eye(2)]), Subalgebra(2, [np.eye(2)])
    assert not a == b
    assert a != b
    assert a == a
    assert hash(a) != hash(b) and hash(a) == hash(a)
