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


@dataclass(frozen=True)
class Frame:
    """Ordered frame: mats has shape (d, d, ambient, ambient)."""

    d: int
    ambient: int
    mats: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.ambient < 1 or self.ambient % self.d != 0:
            raise ValueError("frame degree must divide ambient size")
        if self.mats.shape != (self.d, self.d, self.ambient, self.ambient):
            raise ValueError("frame matrix array has wrong shape")

    def as_list(self):
        """Row-major (i, j) list of the d^2 matrices."""
        return [self.mats[i, j] for i in range(self.d) for j in range(self.d)]


@dataclass(frozen=True)
class FrameReport:
    axiom_i_maxerr: float
    axiom_ii_maxerr: float
    axiom_iii_maxerr: float
    pass_: bool

    @property
    def max_error(self) -> float:
        return max(self.axiom_i_maxerr, self.axiom_ii_maxerr, self.axiom_iii_maxerr)


def matrix_unit_frame(d: int, cofactor: int) -> Frame:
    """The basepoint frame {e_{i,j} (x) E_cofactor} in M_{d*cofactor}."""
    if d < 1 or cofactor < 1:
        raise ValueError("d and cofactor must be positive")
    units = eye(d * d).reshape(d, d, d, d)
    return Frame(d, d * cofactor, kron_stack(units, eye(cofactor)))


def trivial_frame(ambient: int) -> Frame:
    """Degree-1 frame {E_ambient}."""
    return matrix_unit_frame(1, ambient)


def verify_frame(candidate, tol: Tolerance = DEFAULT_TOL) -> FrameReport:
    """Report the worst violation of each frame axiom.

    ``candidate`` is a Frame or a row-major list of equal-size square
    matrices whose count must be a perfect square.
    """
    if isinstance(candidate, Frame):
        stack, d, n = candidate.mats, candidate.d, candidate.ambient
    else:
        mats = [np.asarray(m, dtype=complex) for m in candidate]
        d = round(np.sqrt(len(mats)))
        if d * d != len(mats) or not mats:
            raise ValueError("not a d²-list")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ValueError("frame matrices must be square of equal size")
        stack = np.stack(mats).reshape(d, d, n, n)

    # (i): alpha[i,j] alpha[r,s] = delta_{j,r} alpha[i,s], all d^4 pairs;
    # the j = r products have alpha[i,s] subtracted in place.
    seq = stack.reshape(d * d, n, n)
    prod = pair_products(seq, seq).reshape(d, d, d, d, n, n)
    diag = np.arange(d)
    prod[:, diag, diag] -= stack[:, None]
    err_i = max_abs(prod)

    err_ii = max_abs(np.trace(stack) - eye(n))

    # (iii): gram matrix should be (n/d) * identity on index pairs.
    flat = stack.reshape(d * d, n * n)
    gram = flat @ flat.conj().T
    err_iii = max_abs(gram - (n / d) * np.eye(d * d))

    threshold = tol.abs_eps
    ok = err_i <= threshold and err_ii <= threshold and err_iii <= threshold
    return FrameReport(err_i, err_ii, err_iii, ok)


def pi1(beta: Frame, d1: int) -> Frame:
    """First projection for the split beta.d = d1 * d2: block-sums over
    the trailing index, alpha[i,j] = sum_t beta[(i,t),(j,t)]."""
    if d1 < 1 or beta.d % d1 != 0:
        raise ValueError(f"{d1} does not split frame degree {beta.d}")
    d2 = beta.d // d1
    m = beta.mats.reshape(d1, d2, d1, d2, beta.ambient, beta.ambient)
    return Frame(d1, beta.ambient, np.trace(m, axis1=1, axis2=3))


def pi2(beta: Frame, d1: int) -> Frame:
    """Second projection: gamma[u,v] = sum_t beta[(t,u),(t,v)]."""
    if d1 < 1 or beta.d % d1 != 0:
        raise ValueError(f"{d1} does not split frame degree {beta.d}")
    d2 = beta.d // d1
    m = beta.mats.reshape(d1, d2, d1, d2, beta.ambient, beta.ambient)
    return Frame(d2, beta.ambient, np.trace(m, axis1=0, axis2=2))


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
    if residual > 1e3 * tol.abs_eps:
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


def random_frame(d: int, ambient: int, seed: int) -> Frame:
    """Seeded random frame: unitary conjugate of the basepoint frame.

    Transitivity of the unitary group on frames makes every frame
    reachable this way.
    """
    if ambient % d != 0:
        raise ValueError("frame degree must divide ambient size")
    return conjugate_frame(random_unitary(ambient, seed), matrix_unit_frame(d, ambient // d))


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


def shuffle_permutation(a: int, b: int) -> np.ndarray:
    """Perfect-shuffle unitary S with S kron(X, Y) S* = kron(Y, X)
    for X in M_a, Y in M_b."""
    s = np.zeros((a * b, a * b), dtype=complex)
    for i in range(a):
        for p in range(b):
            s[p * a + i, i * b + p] = 1.0
    return s
