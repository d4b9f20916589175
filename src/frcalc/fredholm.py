"""Finite-window model of Fredholm elements of M_n(B(H)).

An operator is represented as ``finite_part (+) identity`` on the tail:
the domain window carries ``win_dom`` copies of C^n and the codomain
window ``win_cod`` copies, so kernel and cokernel live entirely in the
windows and the index is computable by numerical rank.  Window vectors
are indexed component-major: position (i, slot) -> i * win + slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, eye, is_unitary, kron_stack, svd_rank
from .homspace import StarHom, intertwiner


@dataclass(frozen=True)
class DeskFredholm:
    n: int
    win_dom: int
    win_cod: int
    finite_part: np.ndarray

    def __post_init__(self):
        expected = (self.n * self.win_cod, self.n * self.win_dom)
        if self.finite_part.shape != expected:
            raise ValueError(f"finite part must have shape {expected}")


def kernel_cokernel_dims(t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """(dim ker, dim coker) via numerical rank of the window block.

    Rank ambiguity (singular values within a factor 10 of the cutoff)
    is reported instead of silently resolved.
    """
    fp = t.finite_part
    s = np.linalg.svd(fp, compute_uv=False) if fp.size else np.zeros(0)
    cutoff = tol.rank_cutoff * float(s[0]) if len(s) else 0.0
    if cutoff and np.any((s > cutoff / 10) & (s < cutoff * 10)):
        raise ValueError("ill-conditioned index")
    rank = svd_rank(s, tol)
    return t.n * t.win_dom - rank, t.n * t.win_cod - rank


def index(t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> int:
    """dim ker - dim coker of the window block.  The rank cancels, so
    this is n*(win_dom - win_cod) for every well-conditioned block; the
    checks that can fail compare ``kernel_cokernel_dims``."""
    dim_ker, dim_coker = kernel_cokernel_dims(t, tol)
    return dim_ker - dim_coker


def conjugate(g: np.ndarray, t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> DeskFredholm:
    """Conjugation action by a unitary scalar part g, acting as g (x) Id."""
    if g.shape != (t.n, t.n) or not is_unitary(g, tol):
        raise ValueError("conjugator must be an n x n unitary")
    fp = kron_stack(g, eye(t.win_cod)) @ t.finite_part @ kron_stack(g.conj().T, eye(t.win_dom))
    return DeskFredholm(t.n, t.win_dom, t.win_cod, fp)


def amplify(h: StarHom, t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> DeskFredholm:
    """Apply a unital embedding entrywise to the operator model.

    With U the intertwiner of h this sends the window block to
    (U (x) E) (T (x) E_l, reindexed) (U* (x) E); the index multiplies by
    l = h.dst / h.src.
    """
    if h.src != t.n:
        raise ValueError("hom source must match the operator's algebra size")
    l = h.mult
    n2 = t.n * l
    # Block (i, j) of T, a win_cod x win_dom matrix, becomes E_l (x) T_ij.
    blocks = t.finite_part.reshape(t.n, t.win_cod, t.n, t.win_dom).transpose(0, 2, 1, 3)
    amp = kron_stack(eye(l), blocks).transpose(0, 2, 1, 3).reshape(n2 * t.win_cod, n2 * t.win_dom)
    u = intertwiner(h, tol)
    fp_new = kron_stack(u, eye(t.win_cod)) @ amp @ kron_stack(u.conj().T, eye(t.win_dom))
    return DeskFredholm(n2, t.win_dom, t.win_cod, fp_new)


def localize_index(stages, l: int, start_stage: int = 0,
                   tol: Tolerance = DEFAULT_TOL) -> Fraction:
    """Stable index index(stage_m) / l^m across an amplification chain,
    returned as an exact rational (denominator a power of l)."""
    if not stages or l < 1:
        raise ValueError("need at least one stage and l >= 1")
    values = [
        Fraction(index(t, tol), l ** (start_stage + m))
        for m, t in enumerate(stages)
    ]
    if any(v != values[0] for v in values):
        raise ValueError("inconsistent stages")
    return values[0]
