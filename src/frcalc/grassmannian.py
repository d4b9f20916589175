"""Unital *-subalgebras of M_N: spans, centralizers, frame extraction.

A Subalgebra is stored as an orthonormal (Hilbert-Schmidt) spanning set
in ambient coordinates.  Centralizers are computed as joint commutant
kernels restricted to a candidate subspace; the ambient case first cuts
the search space down to the commutant of one generic hermitian element
of the algebra, which is cheap to obtain spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    eye,
    kron_stack,
    max_abs,
    orthonormal_cols,
    orthonormal_span,
    subspace_distance,
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
    """Unital *-closure of the generators: iterate products with the
    generating set until the span dimension stabilizes."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    for g in gens:
        if g.shape != (ambient, ambient):
            raise ValueError("generators must be square of the ambient size")
    gens = gens + [g.conj().T for g in gens]
    basis = orthonormal_span(gens + [eye(ambient)], tol)
    while True:
        products = [x @ g for x in basis for g in gens]
        new_basis = orthonormal_span(basis + products, tol)
        if len(new_basis) == len(basis):
            return Subalgebra(ambient, tuple(new_basis))
        basis = new_basis


def closure_residual(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> float:
    """Worst distance of a basis product or adjoint from the span."""
    q = orthonormal_cols(list(a.basis), tol)
    proj = q @ q.conj().T
    worst = 0.0
    cands = [x @ y for x in a.basis for y in a.basis] + [x.conj().T for x in a.basis]
    for c in cands:
        v = c.reshape(-1)
        worst = max(worst, float(np.max(np.abs(v - proj @ v))))
    return worst


def _generic_hermitian(basis, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    m = sum(ci * bi for ci, bi in zip(c, basis))
    return m + m.conj().T


def _eig_clusters(w: np.ndarray):
    """Indices of eigenvalues grouped by gap threshold (w sorted)."""
    scale = max(1.0, float(np.max(np.abs(w))))
    clusters = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > _EIG_GAP * scale:
            clusters.append([])
        clusters[-1].append(i)
    return clusters


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
    w, v = np.linalg.eigh(gram)
    scale = max(1.0, float(w[-1]) if len(w) else 1.0)
    keep = w <= 1e4 * tol.rank_cutoff**2 * scale
    cols = q_cols @ v[:, keep]
    return [cols[:, j].reshape(n, n) for j in range(cols.shape[1])]


def centralizer(a: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Commutant of the subalgebra inside the full ambient algebra."""
    n = a.ambient
    if a.dim <= 1:
        units = [np.zeros((n, n), dtype=complex) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                units[i * n + j][i, j] = 1.0
        return Subalgebra(n, tuple(units))
    b0 = _generic_hermitian(a.basis, _GENERIC_SEED)
    w, vecs = np.linalg.eigh(b0)
    cols = []
    for cluster in _eig_clusters(w):
        block = vecs[:, cluster]
        for i in range(len(cluster)):
            for j in range(len(cluster)):
                cols.append(np.outer(block[:, i], block[:, j].conj()).reshape(-1))
    q = np.stack(cols, axis=1)
    kernel = _joint_commutant(q, a.basis, n, tol)
    return Subalgebra(n, tuple(kernel))


def relative_centralizer(a_mats, b: Subalgebra, tol: Tolerance = DEFAULT_TOL) -> Subalgebra:
    """Z_B(A): elements of B commuting with every matrix in a_mats."""
    q = orthonormal_cols(list(b.basis), tol)
    kernel = _joint_commutant(q, list(a_mats), b.ambient, tol)
    return Subalgebra(b.ambient, tuple(kernel))


def commutation_defect(a: Subalgebra, z: Subalgebra) -> float:
    worst = 0.0
    for x in a.basis:
        for y in z.basis:
            worst = max(worst, max_abs(x @ y - y @ x))
    return worst


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
        if a.dim != 1:
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
    x = _generic_hermitian(a.basis, seed)
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
    q = orthonormal_cols(list(b.basis), tol)
    proj = q @ q.conj().T
    for img in images:
        v = img.reshape(-1)
        if float(np.max(np.abs(v - proj @ v))) > 1e3 * tol.abs_eps:
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
