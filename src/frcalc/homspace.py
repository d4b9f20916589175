"""Unital *-homomorphisms M_d -> M_N stored by their image frame.

A hom is determined by where it sends the matrix units of the source
algebra; that image collection is exactly a frame of degree d in M_N, so
the two notions are mutually convertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    apply_frame,
    eye,
    is_unitary,
    kron_stack,
    max_abs,
)
from .frames import Frame, matrix_unit_frame, random_frame, tensor_frame, unitary_frame

_PHASE_PIVOT = 1e-6  # the first entry this large of a basis vector fixes its phase


@dataclass(frozen=True)
class StarHom:
    """Unital *-homomorphism M_src -> M_dst; image_frame[i,j] = h(e_{i,j})."""

    src: int
    dst: int
    image_frame: Frame

    def __post_init__(self):
        if self.image_frame.d != self.src or self.image_frame.ambient != self.dst:
            raise ValueError("image frame shape does not match hom sizes")

    @property
    def mult(self) -> int:
        """Multiplicity l = dst / src of the embedding."""
        return self.dst // self.src


def basepoint_hom(src: int, l: int) -> StarHom:
    """The hom X -> X (x) E_l."""
    return StarHom(src, src * l, matrix_unit_frame(src, l))


def identity_hom(n: int) -> StarHom:
    """The basepoint hom with l = 1."""
    return basepoint_hom(n, 1)


def random_hom(src: int, l: int, seed: int) -> StarHom:
    """Seeded random unital embedding X -> V (X (x) E_l) V*, its image
    frame ``random_frame(src, src * l, seed)``."""
    return StarHom(src, src * l, random_frame(src, src * l, seed))


def ev(h: StarHom, t: np.ndarray) -> np.ndarray:
    """h(T) = sum_{i,j} T[i,j] h(e_{i,j}) of one src x src matrix, bitwise the
    defining sum, or of each matrix of a stack (..., src, src) in one product."""
    t = np.asarray(t, dtype=complex)
    if t.ndim < 2 or t.shape[-2:] != (h.src, h.src):
        raise ValueError(f"argument must be {h.src}x{h.src}")
    return apply_frame(t, h.image_frame.mats)


def iota(h: StarHom, l: int) -> StarHom:
    """Suspension h (x) id_{M_l}: M_{src*l} -> M_{dst*l}."""
    if l < 1:
        raise ValueError("l must be positive")
    return tensor_hom(h, identity_hom(l))


def compose_plain(h2: StarHom, h1: StarHom) -> StarHom:
    """h2 after h1, sizes matching exactly."""
    if h1.dst != h2.src:
        raise ValueError("homs are not composable")
    mats = apply_frame(h1.image_frame.mats, h2.image_frame.mats)
    return StarHom(h1.src, h2.dst, Frame(h1.src, h2.dst, mats))


def compose_phi(h2: StarHom, h1: StarHom) -> StarHom:
    """Monoid composition iota(h2, ratio) after h1, the ratio read off
    from the sizes (ratio 1 is plain composition)."""
    if h1.dst % h2.src != 0:
        raise ValueError("homs are not composable: sizes do not divide")
    ratio = h1.dst // h2.src
    return compose_plain(iota(h2, ratio), h1)


def tensor_hom(h1: StarHom, h2: StarHom) -> StarHom:
    """h1 (x) h2 with first-factor-major index conventions throughout."""
    fr = tensor_frame(h1.image_frame, h2.image_frame)
    return StarHom(h1.src * h2.src, h1.dst * h2.dst, fr)


def push_frame(h: StarHom, alpha: Frame) -> Frame:
    """h_*(alpha): the image frame of a frame under a hom."""
    if alpha.ambient != h.src:
        raise ValueError("frame must live in the hom's source algebra")
    return Frame(alpha.d, h.dst, apply_frame(alpha.mats, h.image_frame.mats))


def intertwiner(h: StarHom, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary U with h(X) = U (X (x) E_l) U* for all X.

    Construction: the h(e_{ii}) are rank-l projections; pick an
    orthonormal basis {v_s} of range h(e_{11}) and take columns
    u_{(i,s)} = h(e_{i,1}) v_s in first-index-major order.  Each v_s is
    phase-normalized (first significant entry of h(e_{11}) v_s real
    positive) so the output is deterministic.
    """
    n, l = h.dst, h.mult
    mats = h.image_frame.mats
    w, s, _ = np.linalg.svd(mats[0, 0])
    if int(np.sum(s > 0.5)) != l:
        raise ValueError("input not a unital *-homomorphism")
    v = w[:, :l]
    pivot = v[np.argmax(np.abs(v) > _PHASE_PIVOT, axis=0), np.arange(l)]
    v = v / (pivot / np.abs(pivot))
    u = (mats[:, 0] @ v).transpose(1, 0, 2).reshape(n, n)
    if not intertwiner_residual(h, u) <= tol.bound("intertwiner_guard") or not is_unitary(u, tol):
        raise ValueError("input not a unital *-homomorphism")
    return u


def intertwiner_residual(h: StarHom, u: np.ndarray) -> float:
    """max_{i,j} || h(e_{i,j}) - U (e_{i,j} (x) E_l) U* ||_max, the model
    frame read off U's column blocks by ``unitary_frame``."""
    return max_abs(h.image_frame.mats - unitary_frame(u, h.src).mats)


def block_scalar_deviation(w: np.ndarray, k: int, l: int) -> float:
    """Distance of a kl x kl unitary from E_k (x) U(l): the off-diagonal
    k-blocks must vanish and the diagonal k-blocks must all coincide."""
    ref = w.reshape(k, l, k, l)[0, :, 0, :]
    return max_abs(w - kron_stack(eye(k), ref))

