"""Frame calculus: systems of d^2 matrix-unit-like matrices in M_N.

A frame of degree d in ambient size N (d | N) is an ordered list of d^2
matrices alpha[i,j] satisfying

  (i)   alpha[i,j] alpha[r,s] = delta_{j,r} alpha[i,s]
  (ii)  sum_i alpha[i,i] = E_N
  (iii) pairwise orthogonality with common norm^2 = N/d for the
        Hilbert-Schmidt inner product.

Axiom (iii) is the orthonormality requirement rescaled so that the
basepoint frame {e_{i,j} (x) E_{N/d}} passes with error exactly 0; the
common squared norm of a partial isometry of rank N/d is N/d, not 1.

``verify_frame`` checks (i) as the one identity sum_j alpha[i,j] alpha[j,l]
= d alpha[i,l] and reports its residual divided by d as ``axiom_i_maxerr``:
with (ii) and (iii) the identity makes the frame's block matrix d times an
orthogonal projection, which forces all of (i) (argument in its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    conjugate,
    eye,
    is_unitary,
    kron_stack,
    max_abs,
    pair_products,
    random_unitary,
)


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered frame: mats has shape (d, d, ambient, ambient).  Equality
    and hashing are by identity."""

    d: int
    ambient: int
    mats: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.ambient < 1 or self.ambient % self.d != 0:
            raise ValueError("frame degree must divide ambient size")
        if self.mats.shape != (self.d, self.d, self.ambient, self.ambient):
            raise ValueError("frame matrix array has wrong shape")


@dataclass(frozen=True)
class FrameReport:
    axiom_i_maxerr: float
    axiom_ii_maxerr: float
    axiom_iii_maxerr: float

    @property
    def max_error(self) -> float:
        return float(np.max([self.axiom_i_maxerr, self.axiom_ii_maxerr, self.axiom_iii_maxerr]))


def matrix_unit_frame(d: int, cofactor: int) -> Frame:
    """The basepoint frame {e_{i,j} (x) E_cofactor} in M_{d*cofactor}."""
    if d < 1 or cofactor < 1:
        raise ValueError("d and cofactor must be positive")
    units = eye(d * d).reshape(d, d, d, d)
    return Frame(d, d * cofactor, kron_stack(units, eye(cofactor)))


def trivial_frame(ambient: int) -> Frame:
    """Degree-1 frame {E_ambient}."""
    return matrix_unit_frame(1, ambient)


def verify_frame(candidate: Frame) -> FrameReport:
    """Report the worst violation of each frame axiom; a caller compares
    ``max_error`` with its own bound.  (i) is checked, in d^3 products, as
    sum_j alpha[i,j] alpha[j,l] = d alpha[i,l], and its residual over d is
    ``axiom_i_maxerr``.  With (ii) and (iii) that is all of (i): for F the
    block matrix of the frame (Choi, Linear Algebra Appl. 10, 1975), P = F/d
    is idempotent with tr P = ||P||_F^2 = N/d, so P = sum_k psi_k psi_k* is an
    orthogonal projection, psi_k = sum_i |i> (x) v_ik; by (ii) the sqrt(d) v_ik
    are the columns of a unitary W, and alpha[i,j] = sum_k w_ik w_jk*."""
    stack, d, n = candidate.mats, candidate.d, candidate.ambient

    prod = sum(pair_products(stack[:, j], stack[j]) for j in range(d))
    err_i = max_abs(prod - d * stack) / d

    err_ii = max_abs(np.trace(stack) - eye(n))

    # (iii): gram matrix should be (n/d) * identity on index pairs.
    flat = stack.reshape(d * d, n * n)
    gram = flat @ flat.conj().T
    err_iii = max_abs(gram - (n / d) * np.eye(d * d))
    return FrameReport(err_i, err_ii, err_iii)


def _partial_trace(beta: Frame, d1: int, traced: int) -> Frame:
    """The frame index of beta read as (d1, d2) pairs, summed over the
    diagonal of factor ``traced`` (0 for d1, 1 for d2)."""
    if d1 < 1 or beta.d % d1 != 0:
        raise ValueError(f"{d1} does not split frame degree {beta.d}")
    m = beta.mats.reshape(d1, beta.d // d1, d1, beta.d // d1, beta.ambient, beta.ambient)
    kept = np.trace(m, axis1=traced, axis2=traced + 2)
    return Frame(len(kept), beta.ambient, kept)


def pi1(beta: Frame, d1: int) -> Frame:
    """First projection for the split beta.d = d1 * d2: block-sums over
    the trailing index, alpha[i,j] = sum_t beta[(i,t),(j,t)]."""
    return _partial_trace(beta, d1, 1)


def pi2(beta: Frame, d1: int) -> Frame:
    """Second projection: gamma[u,v] = sum_t beta[(t,u),(t,v)]."""
    return _partial_trace(beta, d1, 0)


def dot_with_residual(alpha: Frame, gamma: Frame,
                      tol: Tolerance = DEFAULT_TOL) -> tuple[Frame, float]:
    """``dot(alpha, gamma, tol)`` and the largest commutator
    alpha[i,j] gamma[u,v] - gamma[u,v] alpha[i,j] it was checked with."""
    if alpha.ambient != gamma.ambient:
        raise ValueError("frames live in different ambient algebras")
    d1, d2, n = alpha.d, gamma.d, alpha.ambient
    a, g = alpha.mats.reshape(-1, n, n), gamma.mats.reshape(-1, n, n)
    prod = pair_products(a, g)
    residual = max_abs(prod - pair_products(g, a).swapaxes(0, 1))
    if not residual <= tol.bound("commutation"):
        raise ValueError("frames do not commute")
    mats = prod.reshape(d1, d1, d2, d2, n, n).transpose(0, 2, 1, 3, 4, 5)
    return Frame(d1 * d2, n, mats.reshape(d1 * d2, d1 * d2, n, n)), residual


def dot(alpha: Frame, gamma: Frame, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Frame of all pairwise products of two commuting frames, ordered
    first-factor-major: entry ((i,u),(j,v)) = alpha[i,j] gamma[u,v]."""
    return dot_with_residual(alpha, gamma, tol)[0]


def tensor_frame(alpha: Frame, phi: Frame) -> Frame:
    """Kronecker product frame, alpha-major in both the frame index and
    the ambient index."""
    d = alpha.d * phi.d
    n = alpha.ambient * phi.ambient
    mats = kron_stack(alpha.mats[:, None, :, None], phi.mats[None, :, None, :])
    return Frame(d, n, mats.reshape(d, d, n, n))


def conjugate_frame(u: np.ndarray, alpha: Frame, tol: Tolerance = DEFAULT_TOL) -> Frame:
    if u.shape != (alpha.ambient, alpha.ambient) or not is_unitary(u, tol):
        raise ValueError("conjugator must be a unitary of the ambient size")
    return Frame(alpha.d, alpha.ambient, conjugate(u, alpha.mats))


def unitary_frame(u: np.ndarray, d: int) -> Frame:
    """The frame U (e_{i,j} (x) E_l) U* of a square U in M_N, N = d l, read
    off its column blocks: with V_i the i-th block of l columns of U,
    e_{i,j} = V_i V_j*, one ``pair_products`` of the (d, N, l) isometry
    stack, d N^3 work against 2 d^2 N^3 for the dense conjugation."""
    n = u.shape[0]
    if u.shape != (n, n) or d < 1 or n % d != 0:
        raise ValueError("frame degree must divide the size of a square matrix")
    v = u.reshape(n, d, n // d).transpose(1, 0, 2)
    return Frame(d, n, pair_products(v, v.conj().swapaxes(1, 2)))


def random_frame(d: int, ambient: int, seed: int) -> Frame:
    """Seeded random frame: the unitary conjugate U (e_{i,j} (x) E_l) U*
    of the basepoint frame for the Haar unitary U = ``random_unitary(ambient,
    seed)``, read off U's column blocks by ``unitary_frame``.  A degree
    below 1 or one that does not divide ``ambient`` raises before U is
    drawn.

    Transitivity of the unitary group on frames makes every frame
    reachable this way.
    """
    if d < 1 or ambient % d != 0:
        raise ValueError("frame degree must divide ambient size")
    return unitary_frame(random_unitary(ambient, seed), d)


def frames_close(a: Frame, b: Frame) -> float:
    if a.d != b.d or a.ambient != b.ambient:
        raise ValueError("frames have different shape")
    return max_abs(a.mats - b.mats)


def reindex_frame(beta: Frame, radices, perm) -> Frame:
    """Relabel the frame index by a mixed-radix digit permutation.

    ``radices`` are the digit sizes of the current index (product equals
    beta.d) and ``perm`` sends digit position p of the new index to
    position perm[p] of the old one.  Ambient matrices are untouched;
    this realizes the "appropriate ordering" identifications between
    tensor/dot flattenings.
    """
    if int(np.prod(radices)) != beta.d:
        raise ValueError("radices do not factor the frame degree")
    k = len(radices)
    shape = tuple(radices) + tuple(radices) + (beta.ambient, beta.ambient)
    m = beta.mats.reshape(shape)
    axes = [perm[p] for p in range(k)] + [k + perm[p] for p in range(k)] + [2 * k, 2 * k + 1]
    mats = np.transpose(m, axes).reshape(beta.d, beta.d, beta.ambient, beta.ambient)
    return Frame(beta.d, beta.ambient, mats)

