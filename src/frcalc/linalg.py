"""Dense complex-matrix substrate shared by every other module.

Matrices are plain numpy arrays of dtype complex128.  All index
conventions are row-major / first-factor-major: ``kron_stack(a, b)``
puts the ``a`` index in the high digits, and every composite index
elsewhere in the package inherits this choice.

Every contraction over stacks of matrices and every Kronecker product
in the package goes through the four kernels below (``pair_products``,
``apply_frame``, ``conjugate``, ``kron_stack``); each is a reshape or
broadcast plus ``@`` or an elementwise product.

A family of n x n matrices has one layout, a complex (count, n, n)
stack (``as_stack``), and ``vectorize``, one reshape, is the only step
from a stack to (n*n, count) columns.  ``orthonormal_cols`` gives the
orthonormal basis of a span on which ``orthonormal_span``,
``subspace_distance`` and the grassmannian projections work, all of
which take stacks.  A stack whose Gram matrix is the identity within
the ``orthonormal`` bound of ``BOUNDS``, as the bases the package makes
are (to about 1e-14), is its own basis; any other takes the SVD and
the ``svd_rank`` cut.  So projecting onto the span of a subalgebra or a
centralizer costs one Gram product, not an SVD.

Every seeded object of the package is built from Haar unitaries drawn
by ``random_unitaries``: one generator per (size, seed) pair, then one
QR of the whole (count, n, n) stack of each size.  LAPACK factors a
stack one matrix at a time and the phase fix is elementwise, so each
unitary is the same bit for bit whatever else is drawn with it, while
the per-call cost of the QR is paid once per size; ``random_unitary``
is the one-pair case.

Importing this module fixes glibc's heap policy, once per process
(``_keep_freed_heap_resident``): allocations below 32 MB come from the
heap, and up to 16 MB of freed memory at its top stays mapped.  By
default glibc hands the freed top back to the kernel as soon as a large
temporary is freed, and the next MB-sized one (the product sets of
``dot``, compositions, residual differences) faults its pages in anew:
a ``run_suite(seed=7)`` took about 180,000 minor page faults, about a
quarter of its wall time on a 2-core machine, and under 3,000 with the
policy.  It moves where pages come from, not any arithmetic, so every
result is the same; where the C library has no ``mallopt`` (musl,
macOS) nothing is set.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np


_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3  # glibc <malloc.h>
_TOP_PAD_BYTES = 16 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20  # the most glibc's own dynamic threshold rises to, 64-bit


def _keep_freed_heap_resident() -> None:
    """Set glibc's mmap threshold to ``_MMAP_THRESHOLD_BYTES`` and its top
    pad to ``_TOP_PAD_BYTES``; return silently where the C library or its
    ``mallopt`` is missing.

    Either setting switches off glibc's dynamic thresholds, so both are
    set: with the pad alone the mmap threshold stays wherever earlier
    imports moved it, and which temporaries are mapped afresh then
    depends on that history.  Minor faults per op, in process: a
    scale-0.12 ``run_suite`` took about 14,000 with neither setting, 4-5
    with both or with the pad alone, about 10,400 with a 4 MB pad and
    about 30,000 with either threshold alone; a ``subalgebra`` op of
    ``perfbench`` took 1,300-2,000 with neither, 2,400-5,300 with the pad
    alone and under 100 with both."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap_resident()


# The bound of every named pass/fail check, read by ``Tolerance.bound``: (factor, field)
# is factor * tol.<field>, which the config moves, and (bound, None) one that no config moves.
BOUNDS = {
    "frame_axioms": (1.0, "abs_eps"),  # frame verify, alg extract, fred amplify; battery 1
    "commutation": (1e3, "abs_eps"),  # frames.dot, frame dot
    "frame_condition": (1e3, "abs_eps"),  # catverify.is_c_morphism, cat check-morphism
    "in_span": (1e3, "abs_eps"),  # off-span residuals: alg span, star_closed, D-morphisms
    "unitary": (1e3, "abs_eps"),  # is_unitary: frame conj, fred conj, hom intertwiner
    "intertwiner_guard": (1e2, "rank_cutoff"),  # homspace.intertwiner raises above it
    "intertwiner": (1e-8, None),  # hom intertwiner; battery 3
    "extracted_frame": (1e-8, None),  # the frame axioms extract_frame accepts
    "subspace_distance": (1e-8, None),  # extract_frame, alg ztensor; batteries 4, 7
    "centralizer": (1e-8, None),  # alg centralizer: its result commutes with its input
    "naturality": (1e-8, None),  # cat naturality; battery 5
    "tau": (1e-9, None),  # cat tau; battery 6
    "associativity": (0.0, None),  # cat assoc; battery 6
    "entries": (1e-9, None),  # batteries 2, 6, 8, 10: one matrix computed two ways
    "coset_deviation": (1e-7, None),  # battery 3
    "functoriality": (1e-8, None),  # fr_functoriality battery
    "exact": (0.0, None),  # batteries: failure counts, residuals of exact identities
    "orthonormal": (1e-12, None),  # orthonormal_cols: a stack whose Gram is 1 needs no SVD
    "link_floor": (0.1, None),  # grassmannian: a cluster-link block's s, relative to the element
    "link_unitary": (1e-10, None),  # grassmannian: a cluster-link block's B*B - s^2 1, over s^2
}


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: absolute comparison and relative rank cutoff."""

    abs_eps: float = 1e-9
    rank_cutoff: float = 1e-8

    def __post_init__(self):
        if self.abs_eps <= 0 or self.rank_cutoff <= 0:
            raise ValueError("tolerances must be positive")

    def bound(self, check: str) -> float:
        """The bound of the named check of ``BOUNDS`` under this tolerance."""
        factor, field = BOUNDS[check]
        return factor if field is None else factor * getattr(self, field)


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
    (*coeffs.shape[:-2], t, t).  Every shape of ``coeffs``, one matrix
    included, takes one (count, m*m) @ (m*m, t*t) product, object arrays
    of exact integers too.  Its one caller is ``homspace.ev``."""
    m, t = mats.shape[0], mats.shape[-1]
    if coeffs.shape[-2:] != (m, m) or mats.shape != (m, m, t, t):
        raise ValueError("coefficient matrices do not match the frame degree")
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
    return float(np.abs(x).max()) if x.size else 0.0


def svd_rank(s: np.ndarray, tol: Tolerance, scale: float | None = None) -> int:
    """Number of singular values (sorted descending, as numpy returns
    them) above ``rank_cutoff`` times ``scale``, by default the largest;
    0 when there are none or all vanish."""
    if len(s) == 0:
        return 0
    return int(np.sum(s > tol.rank_cutoff * (s[0] if scale is None else scale)))


def random_unitaries(draws) -> list:
    """The Haar-distributed unitaries of (n, seed) pairs of any sizes, in
    order, each deterministic for fixed ``(n, seed)``.

    Each seed starts its own generator, whose first 2 n^2 normals give the
    real and imaginary parts of a complex Ginibre matrix; one QR of the
    stack of each size follows, with the R diagonal phases pushed into Q
    (Mezzadri, Notices AMS 54, 2007).  LAPACK factors a stack one matrix
    at a time and every other step is elementwise, so each unitary is bit
    for bit the one drawn alone."""
    draws = list(draws)
    if any(n < 1 for n, _ in draws):
        raise ValueError("n must be >= 1")
    out = [None] * len(draws)
    for n in dict.fromkeys(n for n, _ in draws):
        slots = [k for k, (m, _) in enumerate(draws) if m == n]
        g = np.empty((len(slots), 2, n, n))
        for row, k in zip(g, slots):
            np.random.default_rng(draws[k][1]).standard_normal(out=row)
        q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
        d = np.diagonal(r, axis1=-2, axis2=-1)
        for k, u in zip(slots, q * (d / np.abs(d))[:, None, :]):
            out[k] = u
    return out


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic for fixed ``(n, seed)``:
    the one-pair case of ``random_unitaries``, the same bit for bit."""
    return random_unitaries([(n, seed)])[0]


def is_unitary(u: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    n = u.shape[0]
    return u.shape == (n, n) and max_abs(u @ u.conj().T - eye(n)) <= tol.bound("unitary")


def as_stack(mats, n: int) -> np.ndarray:
    """A (count, n, n) array or any iterable of n x n matrices as a complex
    (count, n, n) stack, () as (0, n, n).  Any other shape raises
    ValueError: it is never reshaped into n x n matrices."""
    x = np.asarray(mats if isinstance(mats, np.ndarray) else list(mats), dtype=complex)
    if x.shape == (0,):
        x = x.reshape(0, n, n)
    if x.ndim != 3 or x.shape[1:] != (n, n):
        raise ValueError(f"a family of {n}x{n} matrices cannot have shape {x.shape}")
    return x


def vectorize(mats) -> np.ndarray:
    """The (n*n, count) columns of a (count, n, n) stack, one reshape; an
    empty stack keeps its count axis, as (n*n, 0)."""
    x = np.asarray(mats, dtype=complex)
    return x.reshape(x.shape[0], math.prod(x.shape[1:])).T


def orthonormal_span(mats, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis of the span of a stack of
    matrices, as a (dim, n, n) stack; an orthonormal stack comes back as
    a view of itself."""
    x = np.asarray(mats, dtype=complex)
    return orthonormal_cols(x, tol).T.reshape((-1,) + x.shape[1:])


def subspace_distance(basis_a, basis_b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Operator-norm distance between the orthogonal projections onto
    the spans of two stacks of matrices (basis-independent)."""
    qa = orthonormal_cols(basis_a, tol)
    qb = orthonormal_cols(basis_b, tol)
    if not qa.shape[1] or not qb.shape[1]:  # the zero subspace is at distance 1 from any other
        return float(qa.shape[1] != qb.shape[1])
    ra = qa - qb @ (qb.conj().T @ qa)
    rb = qb - qa @ (qa.conj().T @ qb)
    return float(max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2)))


def orthonormal_cols(mats, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of a stack of matrices:
    its ``vectorize`` columns themselves when their Gram matrix is the
    identity within the ``orthonormal`` bound, else the left singular
    vectors above the ``svd_rank`` cut.  A non-finite entry raises
    ValueError before the SVD, which may never return on a matrix that
    holds an inf."""
    cols = vectorize(mats)
    if not np.isfinite(cols).all():
        raise ValueError("cannot span matrices with a non-finite entry")
    bound = tol.bound("orthonormal")
    # No entry of an orthonormal column exceeds 1, and the Gram of such
    # columns cannot overflow.
    if (max_abs(cols) <= 1.0 + bound
            and max_abs(cols.conj().T @ cols - eye(cols.shape[1])) <= bound):
        return cols
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :svd_rank(s, tol)]
