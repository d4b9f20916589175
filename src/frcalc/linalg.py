"""Dense complex-matrix substrate shared by every other module.

Matrices are plain numpy arrays of dtype complex128.  All index
conventions are row-major / first-factor-major: ``kron_stack(a, b)``
puts the ``a`` index in the high digits, and every composite index
elsewhere in the package inherits this choice.

No other module calls numpy's ``einsum`` or ``kron``: frame products,
hom application, conjugation and Kronecker products go through the four
kernels below (``pair_products``, ``apply_frame``, ``conjugate``,
``kron_stack``), each a reshape or broadcast plus ``@`` or an elementwise
product.  A few stack products are written with ``@`` in place, in
``closure_residual``, ``_joint_commutant``, ``_linked_clusters`` and ``intertwiner``.

A family of n x n matrices has one layout, a complex (count, n, n) stack
(``as_stack``); ``vectorize``, one reshape, is the only step to its
(n*n, count) columns.  ``orthonormal_cols``, behind ``orthonormal_span``,
``subspace_distance`` and the grassmannian projections, keeps an
orthonormal stack, as the package's bases are (to 1e-14), as its basis:
projecting onto the span of a subalgebra or a centralizer costs one Gram
product, and the distance of two such spans one k x k ``eigvalsh``.

One rule picks every orthonormal basis the package outputs (a Haar
unitary, a written subalgebra's canonical basis, an intertwiner's basis
of range h(e_11)): ``positive_qr`` of the range's image of a fixed
reference, a slice of the cached ``generic_coefficients`` like every
generic element.  An SVD basis of a degenerate range would move by O(1)
under rounding.  ``random_unitaries`` takes one ``positive_qr`` per size
of stacked Ginibre draws, each the same bit for bit as drawn alone.

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
from functools import lru_cache

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


def positive_qr(x: np.ndarray) -> np.ndarray:
    """The Q of x = QR, of a matrix or of each matrix of a stack, with R's
    diagonal made real positive (Mezzadri, Notices AMS 54, 2007): for x of
    full column rank a continuous function of x alone; a zero of R's
    diagonal (x of deficient rank) keeps its column.  LAPACK factors a
    stack one matrix at a time, so each Q is bit for bit its matrix's."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * np.divide(d, np.abs(d), out=np.ones_like(d), where=d != 0)[..., None, :]


@lru_cache(maxsize=256)
def generic_coefficients(count: int, seed: int) -> np.ndarray:
    """``count`` complex Gaussian coefficients drawn from ``seed``, read-only
    and cached: seeding costs more than a small commutant's products."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    c.flags.writeable = False
    return c


def random_unitaries(draws) -> list:
    """The Haar-distributed unitaries of (n, seed) pairs of any sizes, in
    order: each seed's first 2 n^2 normals are the real and imaginary
    parts of a complex Ginibre matrix, and one ``positive_qr`` of the
    stack of each size turns them into unitaries."""
    draws = list(draws)
    if any(n < 1 for n, _ in draws):
        raise ValueError("n must be >= 1")
    out = [None] * len(draws)
    for n in dict.fromkeys(n for n, _ in draws):
        slots = [k for k, (m, _) in enumerate(draws) if m == n]
        g = np.empty((len(slots), 2, n, n))
        for row, k in zip(g, slots):
            np.random.default_rng(draws[k][1]).standard_normal(out=row)
        for k, u in zip(slots, positive_qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))):
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
    """||P_A - P_B|| for the projections onto the spans of two stacks:
    exactly 1 for spans of different dimensions (P_A - P_B fixes a unit
    vector of the larger orthogonal to the smaller), else sin theta_max =
    ||R|| for R = (1 - P_B) Q_A, the root of the top ``eigvalsh`` eigenvalue
    of R* R.  R keeps a 1e-15 distance to full relative accuracy, which
    1 - sigma_min(Q_B* Q_A)^2 would cancel to 0 or about 1e-8."""
    qa = orthonormal_cols(basis_a, tol)
    qb = orthonormal_cols(basis_b, tol)
    if qa.shape[1] != qb.shape[1]:
        return 1.0
    ra = qa - qb @ (qb.conj().T @ qa)
    return math.sqrt(np.max(np.linalg.eigvalsh(ra.conj().T @ ra), initial=0.0))


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
