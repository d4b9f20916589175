"""Unital *-subalgebras of M_N: spans, centralizers, frame extraction.

A Subalgebra is stored as an orthonormal (Hilbert-Schmidt) spanning set
in ambient coordinates.

``span_subalgebra`` grows the unital *-algebra of its generators by
spinning, as in Parker's MeatAxe: the multipliers are an orthonormal
basis M of span(gens, gens*, 1), which is also the starting basis Q.
Each round multiplies only the directions added in the previous round
by M; older directions were multiplied before, so their products lie in
span(Q) already.  The new dimension r is the ``svd_rank`` of the stacked
[Q | products], the only rank rule, and the r - dim(Q) added directions
are the top left singular vectors of that grown basis with span(Q)
projected out.  The loop stops in the first round that adds none; then
span(Q) is closed under right multiplication by M and contains 1, so it
is the algebra.  Every product column has Hilbert-Schmidt norm at most
1, so the rank rule sees all of Q whatever the generators' scale.

Centralizers are joint commutant kernels: the
kernel of the Gram matrix G of X -> ([X, b])_b on a candidate subspace.

Inside all of M_n one spectral path serves ``centralizer`` and
``relative_centralizer``.  An X commuting with a *-closed span also
commutes with a generic hermitian element h = V diag(w) V* of it, so X
lies in the span of the block matrix units V E_ij V* with i, j in one
eigenvalue cluster of h.  On these candidates G has a closed form in the
rotated constraints B_b = V* b V: for p = (i, j) and q = (k, l),

    G[p, q] = d_ik S1[l, j] + d_jl S2[i, k] - T[p, q] - conj(T[q, p]),

with S1 = sum_b B_b B_b*, S2 = sum_b B_b* B_b and
T[p, q] = sum_b B_b[i, k] conj(B_b[j, l]).  T is built one cluster pair
at a time, so no intermediate is larger than G or the stack of B_b.
The cut is valid only for a *-closed span: the commutant of {E_12} in
M_2 is span{I, E_12}, but a generic hermitian element of its *-closure
has only the scalars as commutant.  ``relative_centralizer`` therefore
takes this path only when the adjoints of its matrices lie in their
span and B's basis is an orthonormal basis of M_n, and solves on an
orthonormal basis of B otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    conjugate,
    eye,
    kron_stack,
    max_abs,
    orthonormal_cols,
    orthonormal_span,
    pair_products,
    subspace_distance,
    svd_rank,
    vectorize,
)
from .frames import Frame, verify_frame
from .homspace import StarHom, ev

# Internal seeds for "generic element" draws; fixed so every operation
# is deterministic without threading a seed through the public API.
_GENERIC_SEED = 0x51DE
_EIG_GAP = 1e-7


@dataclass(frozen=True)
class Subalgebra:
    ambient: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def span_subalgebra(gens, ambient: int, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Unital *-closure of the generators by the spinning loop of the
    module docstring: each round multiplies only the directions the
    previous round added by an orthonormal basis of
    span(gens, gens*, 1), and the loop stops in the first round that
    adds none."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    for g in gens:
        if g.shape != (ambient, ambient):
            raise ValueError("generators must be square of the ambient size")
    n = ambient
    q = orthonormal_cols(gens + [g.conj().T for g in gens] + [eye(n)], tol)
    mults = new = q.T.reshape(-1, n, n)
    while len(new):
        products = pair_products(new, mults).reshape(-1, n * n).T
        u, s, _ = np.linalg.svd(np.concatenate([q, products], axis=1), full_matrices=False)
        grown = u[:, :svd_rank(s, tol)]
        # Outside span(q) the grown span leaves singular values near 1,
        # inside it near 0: the top ones are the added directions.
        v, _, _ = np.linalg.svd(grown - q @ (q.conj().T @ grown), full_matrices=False)
        added = v[:, :max(grown.shape[1] - q.shape[1], 0)]
        q = np.concatenate([q, added], axis=1)
        new = added.T.reshape(-1, n, n)
    return Subalgebra(ambient, tuple(q.T.reshape(-1, n, n)))


def _off_span(mats, basis, n: int, tol: Tolerance) -> float:
    """Largest entry of the part of the vectorized ``mats`` that lies
    outside span(basis): one residual C - Q(Q* C) over all of them."""
    if not len(mats):
        return 0.0
    c = np.asarray(mats, dtype=complex).reshape(-1, n * n).T
    q = orthonormal_cols(list(basis), tol) if len(basis) else np.zeros((n * n, 0))
    return max_abs(c - q @ (q.conj().T @ c))


def closure_residual(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> float:
    """Worst distance of a basis product or adjoint from the span."""
    x = np.asarray(a.basis, dtype=complex).reshape(-1, a.ambient, a.ambient)
    cands = np.concatenate([pair_products(x, x).reshape(-1, a.ambient, a.ambient),
                            x.conj().transpose(0, 2, 1)])
    return _off_span(cands, a.basis, a.ambient, tol)


def _generic_hermitian(basis, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    m = sum((ci * bi for ci, bi in zip(c, basis)), np.zeros((n, n), dtype=complex))
    return m + m.conj().T


def _eig_clusters(w: np.ndarray):
    """Index ranges of eigenvalues grouped by gap threshold (w sorted)."""
    scale = max(1.0, float(np.max(np.abs(w))))
    cuts = [i for i in range(1, len(w)) if w[i] - w[i - 1] > _EIG_GAP * scale]
    return [range(a, b) for a, b in zip([0] + cuts, cuts + [len(w)])]


def _gram_kernel(gram: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of a Gram matrix."""
    w, v = np.linalg.eigh(gram)
    scale = max(1.0, float(w[-1]))
    return v[:, w <= 1e4 * tol.rank_cutoff**2 * scale]


def _joint_commutant(q_cols: np.ndarray, constraints, n: int, tol: Tolerance):
    """Kernel of X -> ([X, b])_b restricted to span(q_cols) (orthonormal
    columns of vectorized candidates).  Returns orthonormal matrices."""
    qdim = q_cols.shape[1]
    if qdim == 0:
        return []
    qmats = q_cols.T.reshape(qdim, n, n)
    gram = np.zeros((qdim, qdim), dtype=complex)
    for b in constraints:
        comm = qmats @ b - b @ qmats
        g = comm.reshape(qdim, -1)
        gram += g.conj() @ g.T
    cols = q_cols @ _gram_kernel(gram, tol)
    return [cols[:, j].reshape(n, n) for j in range(cols.shape[1])]


def _full_commutant(mats, n: int, tol: Tolerance):
    """Commutant inside all of M_n of a *-closed span of n x n matrices,
    through the closed-form Gram of the module docstring.  Returns
    orthonormal matrices."""
    mats = np.asarray(mats, dtype=complex).reshape(-1, n, n)
    w, vecs = np.linalg.eigh(_generic_hermitian(mats, n, _GENERIC_SEED))
    rot = conjugate(vecs.conj().T, mats)
    m = len(rot)
    flat = rot.transpose(1, 0, 2).reshape(n, m * n)
    s1 = flat @ flat.conj().T
    flat = rot.reshape(m * n, n)
    s2 = flat.conj().T @ flat
    clusters = _eig_clusters(w)
    rows = np.concatenate([np.repeat(c, len(c)) for c in clusters])
    cols = np.concatenate([np.tile(c, len(c)) for c in clusters])
    offsets = np.cumsum([0] + [len(c) ** 2 for c in clusters])
    t = np.empty((len(rows), len(rows)), dtype=complex)
    for c, oc in zip(clusters, offsets):
        for d, od in zip(clusters, offsets):
            blk = rot[:, c.start:c.stop, d.start:d.stop].reshape(m, len(c) * len(d))
            prod = (blk.T @ blk.conj()).reshape(len(c), len(d), len(c), len(d))
            t[oc:oc + len(c) ** 2, od:od + len(d) ** 2] = (
                prod.transpose(0, 2, 1, 3).reshape(len(c) ** 2, len(d) ** 2))
    gram = ((rows[:, None] == rows) * s1.T[np.ix_(cols, cols)]
            + (cols[:, None] == cols) * s2[np.ix_(rows, rows)])
    gram -= t + t.conj().T
    y = _gram_kernel(gram, tol)
    coeffs = np.zeros((y.shape[1], n, n), dtype=complex)
    coeffs[:, rows, cols] = y.T
    return list(conjugate(vecs, coeffs))


def star_closed(mats, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the adjoint of every matrix lies in the span of all of them."""
    if not mats:
        return True
    adj = np.asarray(mats, dtype=complex).conj().transpose(0, 2, 1)
    return (_off_span(adj, mats, adj.shape[-1], tol)
            <= 1e3 * tol.abs_eps * max(1.0, max_abs(adj)))


def _is_full_algebra(b: Subalgebra, tol: Tolerance) -> bool:
    """True when b's basis is an orthonormal basis of all of M_n, tested
    as x = Q Q* x for one generic x; n^2 matrices that are dependent or
    not orthonormal fail this."""
    n = b.ambient
    if b.dim != n * n:
        return False
    q = vectorize(list(b.basis))
    x = np.random.default_rng(_GENERIC_SEED).standard_normal(n * n)
    return max_abs(x - q @ (q.conj().T @ x)) <= 1e3 * tol.abs_eps * max_abs(x)


def centralizer(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Commutant of the subalgebra inside the full ambient algebra.  The
    span of ``a.basis`` must be *-closed, as a subalgebra's is; a basis
    from outside the package is checked with ``star_closed`` first."""
    return Subalgebra(a.ambient, tuple(_full_commutant(a.basis, a.ambient, tol)))


def relative_centralizer(a_mats, b: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Z_B(A): elements of B commuting with every matrix in a_mats.

    When B's basis is an orthonormal basis of all of M_n and span(a_mats)
    is *-closed, this is the spectral commutant of ``centralizer``;
    otherwise the kernel is solved on an orthonormal basis of B."""
    a_mats = list(a_mats)
    if _is_full_algebra(b, tol) and star_closed(a_mats, tol):
        kernel = _full_commutant(a_mats, b.ambient, tol)
    else:
        q = orthonormal_cols(list(b.basis), tol)
        kernel = _joint_commutant(q, a_mats, b.ambient, tol)
    return Subalgebra(b.ambient, tuple(kernel))


def commutation_defect(a: Subalgebra, z: Subalgebra) -> float:
    """Largest entry of [x, y] over the basis elements x of a and y of z;
    0 when either basis is empty."""
    if not a.dim or not z.dim:
        return 0.0
    x, y = np.asarray(a.basis), np.asarray(z.basis)
    return max_abs(pair_products(x, y) - pair_products(y, x).swapaxes(0, 1))


def extract_frame(a: Subalgebra, d: int, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Frame spanning a subalgebra isomorphic to M_d.

    A generic hermitian element of the algebra is spectrally decomposed;
    its eigenprojections give d minimal equivalent projections p_i, and
    partial isometries p_i y p_1 (polar part, for generic y in the
    algebra) connect them into a full matrix-unit system.  Degenerate
    draws are retried with a fresh internal seed up to 5 times.
    """
    n = a.ambient
    if d == 1:
        if a.dim != 1 or subspace_distance([eye(n)], list(a.basis), tol) > 1e-8:
            raise ValueError("not a d-subalgebra")
        return Frame(1, n, eye(n).reshape(1, 1, n, n))
    if a.dim != d * d or n % d != 0:
        raise ValueError("not a d-subalgebra")
    mult = n // d
    for attempt in range(5):
        fr = _try_extract(a, d, mult, _GENERIC_SEED + 7 * attempt, tol)
        if fr is not None:
            return fr
    raise ValueError("not a d-subalgebra")


def _try_extract(a: Subalgebra, d: int, mult: int, seed: int, tol: Tolerance):
    n = a.ambient
    x = _generic_hermitian(a.basis, n, seed)
    w, vecs = np.linalg.eigh(x)
    clusters = _eig_clusters(w)
    if len(clusters) != d or any(len(c) != mult for c in clusters):
        return None
    projections = [vecs[:, c] @ vecs[:, c].conj().T for c in clusters]
    rng = np.random.default_rng(seed + 1)
    cy = rng.standard_normal(a.dim) + 1j * rng.standard_normal(a.dim)
    y = sum(ci * bi for ci, bi in zip(cy, a.basis))
    iso = [projections[0]]
    for i in range(1, d):
        wmat = projections[i] @ y @ projections[0]
        u, s, vh = np.linalg.svd(wmat)
        if len(s) < mult or s[mult - 1] <= tol.rank_cutoff * s[0]:
            return None
        iso.append(u[:, :mult] @ vh[:mult, :])
    mats = np.zeros((d, d, n, n), dtype=complex)
    for i in range(d):
        for j in range(d):
            mats[i, j] = iso[i] @ iso[j].conj().T
    fr = Frame(d, n, mats)
    if not verify_frame(fr, Tolerance(1e-8, tol.rank_cutoff)).pass_:
        return None
    if subspace_distance(fr.as_list(), list(a.basis), tol) > 1e-8:
        return None
    return fr


def is_k_subalgebra(a: Subalgebra, d: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the span is a unital *-subalgebra isomorphic to M_d:
    dimension d^2, scalar center, and a matrix-unit system exists."""
    if a.dim != d * d:
        return False
    center = relative_centralizer(list(a.basis), a, tol)
    if center.dim != 1:
        return False
    try:
        extract_frame(a, d, tol)
    except ValueError:
        return False
    return True


def lambda_map(alpha: Frame, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Subalgebra spanned by a frame."""
    return Subalgebra(alpha.ambient, tuple(orthonormal_span(alpha.as_list(), tol)))


def _check_d_morphism(f: StarHom, a: Subalgebra, b: Subalgebra, tol: Tolerance):
    if f.src != a.ambient or f.dst != b.ambient:
        raise ValueError("not a D-morphism")
    images = [ev(f, x) for x in a.basis]
    if _off_span(images, b.basis, b.ambient, tol) > 1e3 * tol.abs_eps:
        raise ValueError("not a D-morphism")
    return images


def gr_map(f: StarHom, a_prime: Subalgebra, a: Subalgebra, b: Subalgebra,
           tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Image subalgebra map: the span generated by f(A') together with
    the centralizer of f(A) inside B."""
    if a_prime.ambient != a.ambient or a_prime.dim != a.dim:
        raise ValueError("not a D-morphism")
    images_a = _check_d_morphism(f, a, b, tol)
    c = relative_centralizer(images_a, b, tol)
    images_prime = [ev(f, x) for x in a_prime.basis]
    return span_subalgebra(images_prime + list(c.basis), b.ambient, tol)


def _kron_pairs(xs, ys, nx: int, ny: int) -> np.ndarray:
    """kron(x, y) for every x in xs and y in ys, x-major, as a stack."""
    x = np.asarray(xs, dtype=complex).reshape(-1, 1, nx, nx)
    y = np.asarray(ys, dtype=complex).reshape(1, -1, ny, ny)
    return kron_stack(x, y).reshape(-1, nx * ny, nx * ny)


def tensor_subalgebra(a: Subalgebra, b: Subalgebra) -> Subalgebra:
    mats = _kron_pairs(a.basis, b.basis, a.ambient, b.ambient)
    return Subalgebra(a.ambient * b.ambient, tuple(mats))


def centralizer_tensor_check(f: StarHom, g: StarHom, a: Subalgebra, b: Subalgebra,
                             phi: Subalgebra, psi: Subalgebra,
                             tol: Tolerance = DEFAULT_TOL):
    """Compare Z_{B(x)Psi}(f(A)(x)g(Phi)) with Z_B(f(A)) (x) Z_Psi(g(Phi)).

    Returns (passes, subspace distance).
    """
    images_a = _check_d_morphism(f, a, b, tol)
    images_phi = _check_d_morphism(g, phi, psi, tol)
    big = tensor_subalgebra(b, psi)
    tensored_images = list(_kron_pairs(images_a, images_phi, f.dst, g.dst))
    left = relative_centralizer(tensored_images, big, tol)
    right = tensor_subalgebra(
        relative_centralizer(images_a, b, tol),
        relative_centralizer(images_phi, psi, tol),
    )
    dist = subspace_distance(list(left.basis), list(right.basis), tol)
    return dist <= 1e-8, dist
