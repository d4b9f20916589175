"""Unital *-subalgebras of M_N: spans, centralizers, frame extraction.

A Subalgebra holds an orthonormal (Hilbert-Schmidt) spanning set in
ambient coordinates as a (dim, n, n) stack, the one layout of a family
of matrices (see ``linalg``).  Every function here takes stacks, and
``linalg.vectorize`` is the only step from a stack to columns.

``span_subalgebra`` grows the unital *-algebra of its generators by
spinning, as in Parker's MeatAxe: the multipliers are an orthonormal
basis M of span(gens, gens*, 1), which is also the starting basis Q.
Each round multiplies only the directions added in the previous round
by M; older directions were multiplied before, so their products lie in
span(Q) already.  The products P are projected off span(Q), as the
residual R = P - Q(Q* P) of two products, since Q is orthonormal.  If
the Frobenius norm of R is at most ``rank_cutoff``, so is its largest
singular value, and the loop stops without an SVD: span(Q) is closed
under right multiplication by M and contains 1, so it is the algebra.
Otherwise the round ranks a checked sketch of R, the randomized range
finder of Halko, Martinsson & Tropp ("Finding structure with
randomness", SIAM Review 53, 2011): U is the QR basis of R Omega for a
fixed seeded complex Gaussian P x k matrix Omega, k starts at 2m + 8
for the m directions the round multiplies, and it doubles until
||R - U(U* R)||_F is at most 1e-3 rank_cutoff.  The residual's rank is
the number of directions the round adds, usually far below its P
columns, so the first width or the second passes.  At k = P the sketch
spans every column of R, and at k = n^2 U is unitary, so the doubling
ends.  The singular values of U* R are those of R within the part that
U misses (Weyl), so one SVD of the k x P matrix U* R makes the rank
decision of an SVD of R, save for a singular value within 1e-3
rank_cutoff of the cut, and U misses less of R than one direction the
cut drops.  The added
directions are U times the left singular vectors of U* R above
``svd_rank``'s cut at the unit scale: Q's columns have norm 1 and every
product column has Hilbert-Schmidt norm at most 1, whatever the
generators' scale.  A weak direction, with singular value s, still
carries a component of order eps/s along span(Q), so the kept vectors
are projected off span(Q) once more and orthonormalized by QR before
they join Q ("twice is enough": Giraud, Langou & Rozloznik, Comput.
Math. Appl. 50, 2005).  Each round that adds directions ranks its sketch
with one SVD of k <= min(P, n^2) rows, and the round that closes takes
none.

A verdict on a span reads the span alone, not the scale of its basis.
Every off-span residual goes through ``_off_span``, which scales its
candidates by the power of two that puts their largest entry in
[0.5, 1) and projects them off the span once.  ``star_closed`` projects
the adjoints, the D-morphism test f(A) in B the images, and
``closure_residual``, the one test of a unital *-algebra, the products
x y of each basis element x with one generic y of the span, the
adjoints and the unit: the y with A y in A form a subspace of A, so one
generic y decides closure under products, with probability 1, in dim
products instead of dim^2.

Centralizers are joint commutant kernels: the
kernel of the Gram matrix G of X -> ([X, b])_b on a candidate subspace.

Inside all of M_n one spectral path serves ``centralizer`` and
``relative_centralizer``.  An X commuting with a *-closed span also
commutes with a generic hermitian element h = V diag(w) V* of it, so X
lies in the span of the block matrix units V E_ij V* with i, j in one
eigenvalue cluster of h: in the eigenbasis X = diag(X_c) over clusters c.
One generic element y of the span then links clusters of equal size
(the eigenspace linking of Murota, Kanno, Kojima & Kojima, "A numerical
algorithm for block-diagonal decomposition of matrix *-algebras", Japan
J. Indust. Appl. Math. 27, 2010).  X commutes with y, so
X_c y[c, d] = y[c, d] X_d, and when the block y[c, d] is s U for a
unitary U and s > 0, X_d = U* X_c U.  That uses only that X commutes
with y, so it holds for any *-closed span, algebra or not.  The block
y[c, d] links c to d when it passes both tests: s above a floor
relative to y (between simple summands the block is rounding noise, and
the error of U grows as s falls) and y[c, d]* y[c, d] = s^2 1 within a
tight bound.  The links form a maximum-strength spanning forest, grown
by Prim: each cluster joins through its strongest link to any cluster
already placed, so one weak block does not split a component.  The
joining cluster d's eigenvectors are turned by W_d = U* W_c, the polar
factor composed with the turn of the cluster c it joins (a root's is
1), so V stays unitary and X_d = X_c along the whole tree.  The
clusters of one tree form a component, and the candidates of a
component K are the units E_ij summed over its clusters, scaled to
norm 1; a cluster with no link is a component of its own.  For
M_k (x) 1_l the k clusters of size l form one component, so l^2
candidates take the place of k l^2.

On the merged candidates G has a closed form in the rotated constraints
B_b = V* b V: for p = (i, j) in component K and q = (k, l) in L,

    G[p, q] = (d_KL (d_ik S1_K[l, j] + d_jl S2_K[i, k])
               - T[p, q] - conj(T[q, p])) / sqrt(|K| |L|),

with S1_K and S2_K the sums over the clusters of K of the diagonal
blocks of S1 = sum_b B_b B_b* and S2 = sum_b B_b* B_b, and
T[p, q] = sum_b sum_{c in K, d in L} B_b[c_i, d_k] conj(B_b[c_j, d_l]).
T is one stacked product for each pair of components, so no
intermediate is larger than G or the stack of B_b.  The kernel of G is
its eigenvectors below a cut relative to its largest eigenvalue (at
least 1).  The Frobenius norm bounds every eigenvalue, so when it is
within the cut every candidate is kept and no eigensolve is taken: the
same decision.  That is the usual case: when the span is an algebra and
the clusters of each simple summand form one component, the candidates
are the commutant and G is zero to rounding (6e-15 to 1.2e-14 against a
cut of 1e-12 for M_2 (x) 1_12 in M_24).
The spectral path is valid only for a *-closed span: the commutant of
{E_12} in M_2 is span{I, E_12}, but a generic hermitian element of its
*-closure has only the scalars as commutant.  ``relative_centralizer`` therefore
takes this path only when the adjoints of its matrices lie in their
span and B's basis is an orthonormal basis of M_n, and solves on an
orthonormal basis of B otherwise.

``extract_frame`` reads a frame off the same linked eigenbasis.  In
M_d (x) 1_m, up to a unitary, the generic hermitian element has d
clusters of size m, which form one component, and its turned
eigenvectors are V_c = v_c (x) W for one W up to phases, so
e_ij = V_i V_j* is a system of matrix units spanning the algebra.
There every eigenvalue has multiplicity m, or a multiple of m where a
degenerate draw merges clusters, so one draw with more than d clusters,
or with a cluster whose size is not a multiple of m, rejects the span;
a merged draw or a link below the floor is drawn again.  For d = 1 that leaves
one cluster, all of C^n, and the frame {1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_stack,
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
# How much of a spinning residual, relative to rank_cutoff, its range sketch may miss.
_SKETCH_FRACTION = 1e-3


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """A span in M_ambient; ``basis`` is a (dim, ambient, ambient) stack
    (``as_stack``).  Equality and hashing are by identity."""

    ambient: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", as_stack(self.basis, self.ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)


def span_subalgebra(gens, ambient: int, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Unital *-closure of the generators by the spinning loop of the
    module docstring: each round multiplies only the directions the
    previous round added by an orthonormal basis of
    span(gens, gens*, 1) and projects the products off the span so far.
    The loop stops when that residual's Frobenius norm is at most
    ``rank_cutoff``; a round that goes on ranks a checked range sketch
    of the residual with one SVD of the k x P product U* R and keeps U
    times its left singular vectors above ``rank_cutoff`` (unit scale),
    projected off the span once more before they are appended."""
    n = ambient
    gens = as_stack(gens, n)
    q = orthonormal_cols(np.concatenate([gens, gens.conj().swapaxes(1, 2), eye(n)[None]]), tol)
    mults = new = q.T.reshape(-1, n, n)
    while len(new):
        off = vectorize(pair_products(new, mults).reshape(-1, n, n))
        off -= q @ (q.conj().T @ off)
        if np.linalg.norm(off) <= tol.rank_cutoff:
            break
        basis, coords = _range_sketch(off, 2 * len(new) + 8, tol)
        u, s, _ = np.linalg.svd(coords, full_matrices=False)
        added = basis @ u[:, :svd_rank(s, tol, scale=1.0)]
        added, _ = np.linalg.qr(added - q @ (q.conj().T @ added))
        q = np.concatenate([q, added], axis=1)
        new = added.T.reshape(-1, n, n)
    return Subalgebra(ambient, q.T.reshape(-1, n, n))


def _range_sketch(r: np.ndarray, width: int, tol: Tolerance):
    """Orthonormal columns U holding the columns of r to within
    ``_SKETCH_FRACTION`` times ``rank_cutoff`` in Frobenius norm, and U* r:
    U is the QR basis of r Omega for a cached complex Gaussian Omega with
    ``width`` columns, and the width doubles until U passes that check or
    reaches the column count of r (U then spans every column) or its row
    count (U is unitary), where it is taken unchecked."""
    rows, p = r.shape
    full = min(p, rows)
    k = min(width, full)
    while True:
        u, _ = np.linalg.qr(r @ _generic_coefficients(p * k, _GENERIC_SEED).reshape(p, k))
        coords = u.conj().T @ r
        if k == full or np.linalg.norm(r - u @ coords) <= _SKETCH_FRACTION * tol.rank_cutoff:
            return u, coords
        k = min(2 * k, full)


def _off_span(mats, basis, tol: Tolerance) -> float:
    """Largest entry of the part of the stack ``mats``, scaled by
    ``_unit_scaled``, that lies outside span(basis): one residual
    C - Q(Q* C) over all of them.  Neither stack's scale is read, and an
    orthonormal basis needs no SVD."""
    c = vectorize(_unit_scaled(mats))
    q = orthonormal_cols(basis, tol)
    return max_abs(c - q @ (q.conj().T @ c))


def closure_residual(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> float:
    """How far span(a) is from a unital *-algebra: the ``_off_span``
    residual of the products x y, for each x of the unit-scaled basis
    and one generic y of its span, the adjoints and the unit.  The y of
    the span with x y in the span for every x of it form a subspace, so
    one generic y decides closure under products, with probability 1, in
    dim products."""
    x = _unit_scaled(a.basis)
    y = _unit_scaled(_generic_element(x, a.ambient, _GENERIC_SEED))
    return _off_span(np.concatenate([x @ y, x.conj().transpose(0, 2, 1), eye(a.ambient)[None]]),
                     a.basis, tol)


@lru_cache(maxsize=256)
def _generic_coefficients(count: int, seed: int) -> np.ndarray:
    """``count`` complex Gaussian coefficients drawn from ``seed``, read-only:
    seeding a generator costs more than a small commutant's products."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    c.flags.writeable = False
    return c


def _generic_element(basis, n: int, seed: int) -> np.ndarray:
    """sum_b c_b basis[b] for the coefficients c of ``seed``."""
    return (vectorize(basis) @ _generic_coefficients(len(basis), seed)).reshape(n, n)


def _eig_clusters(w: np.ndarray):
    """Index ranges of eigenvalues grouped by gap threshold (w sorted)."""
    scale = max(1.0, float(np.max(np.abs(w))))
    cuts = [i for i in range(1, len(w)) if w[i] - w[i - 1] > _EIG_GAP * scale]
    return [range(a, b) for a, b in zip([0] + cuts, cuts + [len(w)])]


def _unit_scaled(mats) -> np.ndarray:
    """The complex stack ``mats`` times the power of two that puts its largest
    entry in [0.5, 1): exact, and the kernels' absolute floors see one scale."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    return np.ldexp(mats.view(np.float64), -np.frexp(max_abs(mats))[1]).view(complex)


def _gram_kernel(gram: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel of a Gram matrix:
    the eigenvectors whose eigenvalues are at most 1e4 rank_cutoff^2
    times the largest, or times 1 if that is smaller.  The Frobenius norm
    bounds every eigenvalue, so a Gram within that cut keeps every
    candidate, and takes no eigensolve."""
    cut = 1e4 * tol.rank_cutoff**2
    if np.linalg.norm(gram) <= cut:
        return eye(len(gram))
    w, v = np.linalg.eigh(gram)
    return v[:, w <= cut * max(1.0, float(w[-1]))]


def _joint_commutant(q_cols: np.ndarray, constraints, n: int, tol: Tolerance):
    """Kernel of X -> ([X, b])_b, b in the stack ``constraints``, on span(q_cols)
    (orthonormal columns of vectorized candidates), as an orthonormal stack."""
    qdim = q_cols.shape[1]
    qmats = q_cols.T.reshape(qdim, n, n)
    if qdim == 0:
        return qmats
    gram = np.zeros((qdim, qdim), dtype=complex)
    for b in _unit_scaled(constraints):
        comm = qmats @ b - b @ qmats
        g = comm.reshape(qdim, -1)
        gram += g.conj() @ g.T
    return (q_cols @ _gram_kernel(gram, tol)).T.reshape(-1, n, n)


def _spanning_forest(strength: np.ndarray):
    """Maximum-strength spanning forest of a link graph, grown by Prim
    from each node not yet placed, in order: the edges (c, d) with c
    placed before d, in the order the nodes d were placed, and the nodes
    of each tree, its root first.  strength[c, d] > 0 is a link."""
    m = len(strength)
    placed = np.zeros(m, dtype=bool)
    edges, trees = [], []
    for root in range(m):
        if placed[root]:
            continue
        placed[root] = True
        tree, best, via = [root], strength[root].copy(), np.full(m, root)
        while True:
            reach = np.where(placed, 0.0, best)
            d = int(np.argmax(reach))
            if not reach[d] > 0:
                break
            placed[d] = True
            tree.append(d)
            edges.append((int(via[d]), d))
            stronger = strength[d] > best
            best[stronger], via[stronger] = strength[d][stronger], d
        trees.append(tree)
    return edges, trees


def _linked_clusters(y, vecs, clusters, tol):
    """Link the eigenvalue clusters of the eigenbasis ``vecs`` through a
    generic element y of the span, along a maximum-strength spanning
    forest.

    Clusters c and d of one size are linked when, in the eigenbasis, the
    block B = y[c, d] is s U for a unitary U (B*B = s^2 1 within
    ``link_unitary``) with s above ``link_floor`` relative to y; the
    link's strength is s^2, since the rounding error of U is that of B
    over s.  Each cluster joins its tree through its strongest link to a
    cluster already placed (``_spanning_forest``), so a cluster whose
    link to the root is weak still joins through another member.  The
    block the other way is no second chance: y + y* is diagonal in its
    eigenbasis, so y[d, c] = -y[c, d]*, of the same s.  The
    columns of d in ``vecs`` are then turned, in place, by W_d = U* W_c,
    with W_c the turn of c and that of a root 1: in the turned basis
    y[c, d] is s 1, so every commutant element has the same block on
    every cluster of a tree.  U is the polar factor of B: one
    Newton-Schulz step from B / s, exact to rounding within that bound.
    Returns the components: one (clusters, size) index array per tree,
    its root's indices first, then those of the clusters in the order
    they joined."""
    y = conjugate(vecs.conj().T, y)
    floor = (tol.bound("link_floor") * max_abs(y)) ** 2
    comps = []
    for size in sorted({len(c) for c in clusters}):
        members = np.array([c for c in clusters if len(c) == size])
        blocks = y[members[:, None, :, None], members[None, :, None, :]]
        bb = blocks.conj().swapaxes(-1, -2) @ blocks
        s2 = np.trace(bb, axis1=-2, axis2=-1).real / size
        one = eye(size)
        spread = np.abs(bb - s2[..., None, None] * one).max(axis=(-2, -1))
        strength = np.where((s2 > floor) & (spread <= tol.bound("link_unitary") * s2), s2, 0.0)
        edges, trees = _spanning_forest(strength)
        if edges:
            c, d = np.array(edges).T
            s = np.sqrt(s2[c, d])[:, None, None]
            u = blocks[c, d] / s @ (1.5 * one - 0.5 * bb[c, d] / s ** 2)
            turns = np.tile(one, (len(members), 1, 1))
            for ci, di, ui in zip(c, d, u):
                turns[di] = ui.conj().T @ turns[ci]
            turned = vecs[:, members[d]].transpose(1, 0, 2) @ turns[d]
            vecs[:, members[d]] = turned.transpose(1, 0, 2)
        comps += [members[tree] for tree in trees]
    return comps


def _generic_eigenbasis(mats, n: int, seed: int):
    """The generic element y of ``seed`` of the unit-scaled stack ``mats``,
    and the eigenbasis and eigenvalue clusters of y + y*, which
    ``_linked_clusters`` links."""
    y = _generic_element(mats, n, seed)
    w, vecs = np.linalg.eigh(y + y.conj().T)
    return y, vecs, _eig_clusters(w)


def _full_commutant(mats, n: int, tol: Tolerance):
    """Commutant inside all of M_n of a *-closed span of n x n matrices,
    through the closed-form Gram on linked clusters of the module
    docstring.  Returns a stack of orthonormal matrices."""
    mats = _unit_scaled(mats)
    y, vecs, clusters = _generic_eigenbasis(mats, n, _GENERIC_SEED)
    comps = _linked_clusters(y, vecs, clusters, tol)
    rot = conjugate(vecs.conj().T, mats)
    m = len(rot)
    flat = rot.transpose(1, 0, 2).reshape(n, m * n)
    s1 = flat @ flat.conj().T
    flat = rot.reshape(m * n, n)
    s2 = flat.conj().T @ flat
    offsets = list(accumulate([k.shape[1] ** 2 for k in comps], initial=0))
    gram = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    t = np.empty_like(gram)
    for k, ok in zip(comps, offsets):
        c, diag, i = k.shape[1], (k[:, :, None], k[:, None, :]), np.arange(k.shape[1])
        # The d terms: entry [(i, j), (k, l)] of a diagonal block, viewed
        # as [i, j, k, l].
        block = gram[ok:ok + c * c, ok:ok + c * c].reshape(c, c, c, c)
        block[i, :, i, :] = s1[diag].sum(0).T / len(k)
        block[:, i, :, i] += s2[diag].sum(0) / len(k)
        for l, ol in zip(comps, offsets):
            d = l.shape[1]
            blk = rot[:, k[:, :, None, None], l[None, None]].transpose(0, 1, 3, 2, 4)
            blk = blk.reshape(-1, c * d)
            prod = (blk.T @ blk.conj()).reshape(c, d, c, d) / np.sqrt(len(k) * len(l))
            t[ok:ok + c * c, ol:ol + d * d] = prod.transpose(0, 2, 1, 3).reshape(c * c, d * d)
    gram -= t + t.conj().T
    y = _gram_kernel(gram, tol).T
    coeffs = np.zeros((len(y), n, n), dtype=complex)
    for k, ok in zip(comps, offsets):
        c = k.shape[1]
        coeffs[:, k[:, :, None], k[:, None]] = (y[:, None, ok:ok + c * c].reshape(-1, 1, c, c)
                                                / np.sqrt(len(k)))
    return conjugate(vecs, coeffs)


def star_closed(mats, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the adjoint of every matrix of a stack lies in the span
    of all of them, by the ``_off_span`` residual of the adjoints."""
    adj = np.asarray(mats, dtype=complex).conj().transpose(0, 2, 1)
    return _off_span(adj, mats, tol) <= tol.bound("in_span")


def _is_full_algebra(b: Subalgebra, tol: Tolerance) -> bool:
    """True when b's basis is an orthonormal basis of all of M_n, tested
    as x = Q Q* x for one generic x; n^2 matrices that are dependent or
    not orthonormal fail this."""
    n = b.ambient
    if b.dim != n * n:
        return False
    q = vectorize(b.basis)
    x = _generic_coefficients(n * n, _GENERIC_SEED).real
    return max_abs(x - q @ (q.conj().T @ x)) <= tol.bound("in_span") * max_abs(x)


def centralizer(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Commutant of the subalgebra inside the full ambient algebra.  The
    span of ``a.basis`` must be *-closed, as a subalgebra's is; a basis
    from outside the package is checked with ``star_closed`` first."""
    return Subalgebra(a.ambient, _full_commutant(a.basis, a.ambient, tol))


def relative_centralizer(a_mats, b: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Z_B(A): elements of B commuting with every matrix of the stack a_mats.

    When B's basis is an orthonormal basis of all of M_n and span(a_mats)
    is *-closed, this is the spectral commutant of ``centralizer``;
    otherwise the kernel is solved on an orthonormal basis of B."""
    a_mats = as_stack(a_mats, b.ambient)
    if _is_full_algebra(b, tol) and star_closed(a_mats, tol):
        kernel = _full_commutant(a_mats, b.ambient, tol)
    else:
        kernel = _joint_commutant(orthonormal_cols(b.basis, tol), a_mats, b.ambient, tol)
    return Subalgebra(b.ambient, kernel)


def commutation_defect(a: Subalgebra, z: Subalgebra) -> float:
    """Largest entry of [x, y] over the basis elements x of a and y of z;
    0 when either basis is empty."""
    return max_abs(pair_products(a.basis, z.basis) - pair_products(z.basis, a.basis).swapaxes(0, 1))


def extract_frame(a: Subalgebra, d: int, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Frame spanning a subalgebra isomorphic to M_d, read off the
    linked eigenbasis that the commutant takes.

    Each draw is judged by one rule (module docstring).  More than d
    clusters, or a cluster whose size is not a multiple of n/d, raises
    at once.  Fewer than d clusters, or more than one component, is
    retried with a fresh internal seed, up to 5 draws in all.
    Otherwise e_ij = V_i V_j* is returned if its ``verify_frame``
    residuals are within the ``extracted_frame`` bound and, scaled by
    sqrt(d/n) to orthonormal, it is within the ``subspace_distance``
    bound of span(a)."""
    n = a.ambient
    if d < 1 or a.dim != d * d or n % d != 0:
        raise ValueError("not a d-subalgebra")
    mats = _unit_scaled(a.basis)
    for attempt in range(5):
        y, vecs, clusters = _generic_eigenbasis(mats, n, _GENERIC_SEED + 7 * attempt)
        if len(clusters) > d or any(len(c) % (n // d) for c in clusters):
            raise ValueError("not a d-subalgebra")
        if len(clusters) < d:
            continue
        comps = _linked_clusters(y, vecs, clusters, tol)
        if len(comps) != 1:
            continue
        v = vecs[:, comps[0]].transpose(1, 0, 2)
        fr = Frame(d, n, pair_products(v, v.conj().swapaxes(1, 2)))
        if (verify_frame(fr).max_error <= tol.bound("extracted_frame")
                and subspace_distance(fr.mats.reshape(-1, n, n) * np.sqrt(d / n), a.basis, tol)
                <= tol.bound("subspace_distance")):
            return fr
    raise ValueError("not a d-subalgebra")


def is_k_subalgebra(a: Subalgebra, d: int, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the span is a unital *-subalgebra isomorphic to M_d: iff
    ``extract_frame`` succeeds, for it returns only a frame within the
    ``extracted_frame`` bound of the axioms whose span is within the
    ``subspace_distance`` bound of span(a), of dimension d^2.  That span
    is an M_d, so its centre is the scalars and needs no solve.  A span
    whose first draw has more than d clusters is refused after that one
    eigensolve."""
    try:
        extract_frame(a, d, tol)
    except ValueError:
        return False
    return True


def lambda_map(alpha: Frame, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Subalgebra spanned by a frame."""
    n = alpha.ambient
    return Subalgebra(n, orthonormal_span(alpha.mats.reshape(-1, n, n), tol))


def _check_d_morphism(f: StarHom, a: Subalgebra, b: Subalgebra, tol: Tolerance):
    if f.src != a.ambient or f.dst != b.ambient:
        raise ValueError("not a D-morphism")
    images = ev(f, a.basis)
    if not _off_span(images, b.basis, tol) <= tol.bound("in_span"):
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
    images_prime = _unit_scaled(ev(f, a_prime.basis))
    return span_subalgebra(np.concatenate([images_prime, c.basis]), b.ambient, tol)


def _kron_pairs(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """kron(x, y) for every x of the stack xs and y of ys, x-major, as a stack."""
    out = kron_stack(xs[:, None], ys[None])
    return out.reshape((-1,) + out.shape[-2:])


def tensor_subalgebra(a: Subalgebra, b: Subalgebra) -> Subalgebra:
    return Subalgebra(a.ambient * b.ambient, _kron_pairs(a.basis, b.basis))


def centralizer_tensor_check(f: StarHom, g: StarHom, a: Subalgebra, b: Subalgebra,
                             phi: Subalgebra, psi: Subalgebra,
                             tol: Tolerance = DEFAULT_TOL):
    """Compare Z_{B(x)Psi}(f(A)(x)g(Phi)) with Z_B(f(A)) (x) Z_Psi(g(Phi)).

    Returns (passes, subspace distance).
    """
    images_a = _check_d_morphism(f, a, b, tol)
    images_phi = _check_d_morphism(g, phi, psi, tol)
    big = tensor_subalgebra(b, psi)
    left = relative_centralizer(_kron_pairs(images_a, images_phi), big, tol)
    right = tensor_subalgebra(
        relative_centralizer(images_a, b, tol),
        relative_centralizer(images_phi, psi, tol),
    )
    dist = subspace_distance(left.basis, right.basis, tol)
    return dist <= tol.bound("subspace_distance"), dist
