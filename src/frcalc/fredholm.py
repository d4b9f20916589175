"""Finite-window model of Fredholm elements of M_n(B(H)).

An operator is represented as ``finite_part (+) identity`` on the tail:
the domain window carries ``win_dom`` copies of C^n and the codomain
window ``win_cod`` copies, so kernel and cokernel live entirely in the
windows and the index is computable by numerical rank.  Window vectors
are indexed component-major: position (i, slot) -> i * win + slot.

Conjugation by g and amplification by an embedding h: M_n -> M_N are
one action, h (Ad g for conjugation) applied entrywise to the window
blocks T_{i,j}: (h (x) id)(T) = sum_{i,j} h(e_{i,j}) (x) T_{i,j}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, conjugate as conjugate_stack, is_unitary, svd_rank
from .frames import verify_frame
from .homspace import StarHom, ev


@dataclass(frozen=True, eq=False)
class DeskFredholm:
    """``finite_part (+) identity``, as in the module docstring.
    Equality and hashing are by identity."""

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


def _entrywise(act, t: DeskFredholm) -> DeskFredholm:
    """(h (x) id)(T) for h: M_n -> M_m given as ``act`` on a stack (..., n, n):
    the blocks T_{i,j} as one (win_cod, win_dom, n, n) stack, through ``act``."""
    n, w_cod, w_dom = t.n, t.win_cod, t.win_dom
    image = act(t.finite_part.reshape(n, w_cod, n, w_dom).transpose(1, 3, 0, 2))
    m = image.shape[-1]
    return DeskFredholm(m, w_dom, w_cod, image.transpose(2, 0, 3, 1).reshape(m * w_cod, m * w_dom))


def conjugate(g: np.ndarray, t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> DeskFredholm:
    """Conjugation by a unitary g, acting as g (x) Id: Ad g entrywise, as
    g T_{i,j} g* on each block (Ad g's frame would have n^4 entries)."""
    if g.shape != (t.n, t.n) or not is_unitary(g, tol):
        raise ValueError("conjugator must be a unitary of the operator's algebra size")
    return _entrywise(lambda blocks: conjugate_stack(g, blocks), t)


def amplify(h: StarHom, t: DeskFredholm, tol: Tolerance = DEFAULT_TOL) -> DeskFredholm:
    """Apply a unital *-homomorphism h: M_n -> M_nl entrywise, which multiplies
    dim ker and dim coker by l; h must meet the frame axioms (``frame_axioms``)."""
    if h.src != t.n:
        raise ValueError("hom source must match the operator's algebra size")
    if not verify_frame(h.image_frame).max_error <= tol.bound("frame_axioms"):
        raise ValueError("input not a unital *-homomorphism")
    return _entrywise(lambda blocks: ev(h, blocks), t)


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
