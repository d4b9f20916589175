"""Dense complex-matrix substrate shared by every other module.

Matrices are plain numpy arrays of dtype complex128.  All index
conventions are row-major / first-factor-major: ``kron_stack(a, b)``
puts the ``a`` index in the high digits, and every composite index
elsewhere in the package inherits this choice.

Every contraction over stacks of matrices and every Kronecker product
in the package goes through the four kernels below (``pair_products``,
``apply_frame``, ``conjugate``, ``kron_stack``); each is a reshape or
broadcast plus ``@`` or an elementwise product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: absolute comparison and relative rank cutoff."""

    abs_eps: float = 1e-9
    rank_cutoff: float = 1e-8

    def __post_init__(self):
        if self.abs_eps <= 0 or self.rank_cutoff <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = Tolerance()


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All products of two stacks of n x n matrices: entry (p, q) of the
    (P, Q, n, n) result is a[p] @ b[q]."""
    return a[:, None] @ b[None]


def apply_frame(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Linear extension of e_{u,v} -> mats[u, v], applied to every m x m
    matrix of ``coeffs``: sum_{u,v} coeffs[..., u, v] mats[u, v].

    ``mats`` has shape (m, m, t, t); the result has shape
    (*coeffs.shape[:-2], t, t).  A stack of coefficient matrices takes
    one (count, m*m) @ (m*m, t*t) product.  A single matrix, as in
    h(T), is summed term by term in row-major order, so the result is
    bitwise the defining sum."""
    m, t = mats.shape[0], mats.shape[-1]
    if coeffs.shape[-2:] != (m, m) or mats.shape != (m, m, t, t):
        raise ValueError("coefficient matrices do not match the frame degree")
    if coeffs.ndim == 2:
        return sum(c * x for c, x in zip(coeffs.reshape(-1), mats.reshape(m * m, t, t)))
    out = coeffs.reshape(-1, m * m) @ mats.reshape(m * m, t * t)
    return out.reshape(coeffs.shape[:-2] + (t, t))


def conjugate(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """u x u* for every matrix x of a stack (..., n, n)."""
    return u @ mats @ u.conj().T


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products kron(a[...], b[...]), first factor major, of two
    stacks (..., p, q) and (..., r, s).  The leading axes broadcast as in
    numpy, so inserting axes (``a[:, None]``, ``b[None]``) chooses the
    index layout of the (..., p*r, q*s) result."""
    (p, q), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (p * r, q * s))


def max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def svd_rank(s: np.ndarray, tol: Tolerance) -> int:
    """Number of singular values (sorted descending, as numpy returns
    them) above ``rank_cutoff`` times the largest; 0 when there are none
    or all vanish."""
    if len(s) == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol.rank_cutoff * s[0]))


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic for fixed ``(n, seed)``.

    Complex Ginibre matrix followed by QR with the R diagonal phases
    pushed into Q.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def is_unitary(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    n = u.shape[0]
    return u.shape == (n, n) and max_abs(u @ u.conj().T - eye(n)) <= 1e3 * tol.abs_eps


def vectorize(mats) -> np.ndarray:
    """Stack matrices as columns of an (n*n, count) array."""
    return np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in mats], axis=1)


def orthonormal_span(mats, tol: Tolerance = DEFAULT_TOL):
    """Orthonormal (Hilbert-Schmidt) basis of the span of the given matrices."""
    if not mats:
        return []
    n = mats[0].shape[0]
    q = orthonormal_cols(mats, tol)
    return [q[:, j].reshape(n, n) for j in range(q.shape[1])]


def subspace_distance(basis_a, basis_b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Operator-norm distance between the orthogonal projections onto
    the spans of two matrix families (basis-independent)."""
    qa = orthonormal_cols(basis_a, tol)
    qb = orthonormal_cols(basis_b, tol)
    if qa.shape[1] == 0 and qb.shape[1] == 0:
        return 0.0
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return 1.0
    ra = qa - qb @ (qb.conj().T @ qa)
    rb = qb - qa @ (qa.conj().T @ qb)
    sa = np.linalg.svd(ra, compute_uv=False)
    sb = np.linalg.svd(rb, compute_uv=False)
    return float(max(sa[0] if len(sa) else 0.0, sb[0] if len(sb) else 0.0))


def orthonormal_cols(mats, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the vectorized matrices."""
    if not mats:
        return np.zeros((0, 0), dtype=complex)
    u, s, _ = np.linalg.svd(vectorize(mats), full_matrices=False)
    return u[:, :svd_rank(s, tol)]
