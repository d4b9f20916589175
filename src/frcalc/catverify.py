"""Finite witnesses for the categorical structure: frame-preserving
morphisms, the induced maps on frame spaces, naturality and coherence
diagrams for the tensor multiplication, and nerve face/degeneracy maps.

Composite index conventions: the tensor of two morphism data sets keeps
its target frame in "dot order" (source-part digits leading), and
comparisons between tensor-of-dots and dot-of-tensors go through an
explicit mixed-radix digit permutation; the underlying ambient matrices
are identical on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, conjugate
from .frames import (
    Frame,
    dot,
    frames_close,
    pi1,
    pi2,
    reindex_frame,
    shuffle_permutation,
    tensor_frame,
    trivial_frame,
)
from .homspace import (
    StarHom,
    compose_plain,
    ev,
    identity_hom,
    push_frame,
    tensor_hom,
)


@dataclass(frozen=True)
class CMorphism:
    """A hom f together with source/target frames and the split: the
    defining condition is f_*(src_frame) = pi1(dst_frame, src_frame.d)."""

    f: StarHom
    src_frame: Frame
    dst_frame: Frame

    @property
    def split(self) -> int:
        return self.src_frame.d


def is_c_morphism(f: StarHom, alpha: Frame, beta: Frame, d1: int,
                  tol: Tolerance = DEFAULT_TOL):
    """Check f_*(alpha) = pi1(beta, d1); returns (ok, residual)."""
    if alpha.ambient != f.src or beta.ambient != f.dst or beta.d % d1 != 0:
        raise ValueError("morphism data has incompatible sizes")
    pushed = push_frame(f, alpha)
    if pushed.d != d1:
        raise ValueError("split does not match the source frame degree")
    residual = frames_close(pushed, pi1(beta, d1))
    return residual <= tol.bound("frame_condition"), residual


def make_c_morphism(f: StarHom, alpha: Frame, beta: Frame,
                    tol: Tolerance = DEFAULT_TOL) -> CMorphism:
    ok, residual = is_c_morphism(f, alpha, beta, alpha.d, tol)
    if not ok:
        raise ValueError(f"frame condition fails with residual {residual:.2e}")
    return CMorphism(f, alpha, beta)


def fr_map(data: CMorphism, alpha_prime: Frame, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Induced map on frame spaces: alpha' -> f_*(alpha') . pi2(beta)."""
    if alpha_prime.d != data.src_frame.d or alpha_prime.ambient != data.src_frame.ambient:
        raise ValueError("argument frame has wrong degree or ambient size")
    return dot(push_frame(data.f, alpha_prime), pi2(data.dst_frame, data.split), tol)


def tensor_c_morphism(fd: CMorphism, gd: CMorphism, tol: Tolerance = DEFAULT_TOL) -> CMorphism:
    """Tensor of morphism data.  The target frame is rebuilt in dot
    order, dot(pi1 (x) pi1, pi2 (x) pi2), so the defining frame
    condition holds for the tensor hom without reindexing."""
    h = tensor_hom(fd.f, gd.f)
    src = tensor_frame(fd.src_frame, gd.src_frame)
    b1, g1 = pi1(fd.dst_frame, fd.split), pi2(fd.dst_frame, fd.split)
    b2, g2 = pi1(gd.dst_frame, gd.split), pi2(gd.dst_frame, gd.split)
    dst = dot(tensor_frame(b1, b2), tensor_frame(g1, g2), tol)
    return make_c_morphism(h, src, dst, tol)


def _tensor_to_dot_order(frame: Frame, d_parts) -> Frame:
    """Relabel ((i1,u1),(i2,u2)) tensor-order digits into dot order
    ((i1,i2),(u1,u2)).  d_parts = (d_i1, d_u1, d_i2, d_u2)."""
    return reindex_frame(frame, d_parts, (0, 2, 1, 3))


def check_naturality(fd: CMorphism, gd: CMorphism, alpha_prime: Frame,
                     phi_prime: Frame, tol: Tolerance = DEFAULT_TOL):
    """Both paths around the tensor-compatibility square, plus the
    witness frame solved from the target data against the predicted
    tensor of second projections.

    Returns (square residual, witness residual).
    """
    tens = tensor_c_morphism(fd, gd, tol)
    # Path 1: map each factor, then tensor.
    path1 = tensor_frame(fr_map(fd, alpha_prime, tol), fr_map(gd, phi_prime, tol))
    # Path 2: tensor, then map; result is in dot order.
    path2 = fr_map(tens, tensor_frame(alpha_prime, phi_prime), tol)
    g1 = pi2(fd.dst_frame, fd.split)
    g2 = pi2(gd.dst_frame, gd.split)
    d_parts = (fd.split, g1.d, gd.split, g2.d)
    square_residual = frames_close(_tensor_to_dot_order(path1, d_parts), path2)

    # The witness: the unique frame completing the pushed source tensor
    # to the target tensor, read off as a second projection.
    xi_solved = pi2(tens.dst_frame, fd.split * gd.split)
    xi_predicted = tensor_frame(g1, g2)
    witness_residual = frames_close(xi_solved, xi_predicted)
    return square_residual, witness_residual


def _gaussian_frame(frame: Frame):
    """(re, im, s): frames of Python ints with frame.mats = (re + i im) / 2**s.

    Every finite float is a dyadic rational, so the 53-bit mantissas of
    np.frexp, shifted to a common exponent, give the entries exactly."""
    parts = np.stack([frame.mats.real, frame.mats.imag])
    if not np.isfinite(parts).all():
        raise ValueError("frame entries must be finite")
    mantissa, exponent = np.frexp(parts)
    digits = (mantissa * 2.0**53).astype(np.int64)
    exponent = exponent - 53
    s = -int(exponent[digits != 0].min(initial=0))
    ints = digits.astype(object) << np.where(digits != 0, exponent + s, 0).astype(object)
    return Frame(frame.d, frame.ambient, ints[0]), Frame(frame.d, frame.ambient, ints[1]), s


def _tensor_gaussian(x, y):
    """tensor_frame of two Gaussian-integer frames, by four real tensors."""
    (xr, xi, xs), (yr, yi, ys) = x, y
    re = tensor_frame(xr, yr).mats - tensor_frame(xi, yi).mats
    im = tensor_frame(xr, yi).mats + tensor_frame(xi, yr).mats
    d, n = xr.d * yr.d, xr.ambient * yr.ambient
    return Frame(d, n, re), Frame(d, n, im), xs + ys


def check_associativity(a: Frame, b: Frame, c: Frame) -> float:
    """Tensor reassociation residual of tensor_frame, evaluated exactly.

    Both association orders are formed by tensor_frame on the frames'
    exact Gaussian-integer forms, so the result is exactly 0 whenever
    the mixed-radix index bookkeeping of tensor_frame is correct, and
    otherwise the worst entry of |left - right|."""
    ga, gb, gc = (_gaussian_frame(f) for f in (a, b, c))
    left_re, left_im, s = _tensor_gaussian(_tensor_gaussian(ga, gb), gc)
    right_re, right_im, _ = _tensor_gaussian(ga, _tensor_gaussian(gb, gc))
    diff_re, diff_im = left_re.mats - right_re.mats, left_im.mats - right_im.mats
    if not (diff_re.any() or diff_im.any()):
        return 0.0
    scale = 1 << s
    worst = np.hypot((diff_re / scale).astype(float), (diff_im / scale).astype(float))
    return float(worst.max())


def check_identity_embedding(phi_prime: Frame) -> float:
    """Tensoring with the unit frame is the identity embedding."""
    unit = trivial_frame(1)
    left = frames_close(tensor_frame(unit, phi_prime), phi_prime)
    right = frames_close(tensor_frame(phi_prime, unit), phi_prime)
    return float(np.max([left, right]))


def check_tau(alpha: Frame, phi: Frame) -> float:
    """Factor swap equals perfect-shuffle conjugation plus the index
    transposition (i,p) -> (p,i)."""
    swapped = tensor_frame(phi, alpha)
    straight = tensor_frame(alpha, phi)
    s = shuffle_permutation(alpha.ambient, phi.ambient)
    transposed = reindex_frame(
        Frame(straight.d, straight.ambient, conjugate(s, straight.mats)), (alpha.d, phi.d), (1, 0))
    return frames_close(transposed, swapped)


@dataclass(frozen=True)
class NerveChain:
    """Composable chain, first-applied morphism first: homs[i].dst must
    equal homs[i+1].src."""

    homs: tuple

    def __post_init__(self):
        for a, b in zip(self.homs, self.homs[1:]):
            if a.dst != b.src:
                raise ValueError("chain morphisms are not composable")

    def __len__(self) -> int:
        return len(self.homs)

    @property
    def levels(self):
        if not self.homs:
            return ()
        return (self.homs[0].src,) + tuple(h.dst for h in self.homs)


def nerve_face(i: int, chain: NerveChain) -> NerveChain:
    """Face map: deletion at the ends, composition in the middle."""
    p = len(chain)
    if p < 1 or i < 0 or i > p:
        raise ValueError("face index out of range")
    homs = list(chain.homs)
    if i == 0:
        return NerveChain(tuple(homs[1:]))
    if i == p:
        return NerveChain(tuple(homs[:-1]))
    composed = compose_plain(homs[i], homs[i - 1])
    return NerveChain(tuple(homs[:i - 1] + [composed] + homs[i + 1:]))


def nerve_degeneracy(i: int, chain: NerveChain) -> NerveChain:
    """Insert an identity morphism at vertex i."""
    p = len(chain)
    if i < 0 or i > p:
        raise ValueError("degeneracy index out of range")
    homs = list(chain.homs)
    size = chain.levels[i] if chain.homs else None
    if size is None:
        raise ValueError("cannot take a degeneracy of an empty chain")
    return NerveChain(tuple(homs[:i] + [identity_hom(size)] + homs[i:]))


def bundle_face(i: int, chain: NerveChain, t: np.ndarray):
    """Face maps of the algebra-bundle nerve: the 0th face also pushes
    the fiber element forward through the deleted morphism."""
    t = np.asarray(t, dtype=complex)
    if not chain.homs or t.shape != (chain.homs[0].src,) * 2:
        raise ValueError("fiber element must be square of the first source size")
    if i == 0:
        return nerve_face(0, chain), ev(chain.homs[0], t)
    return nerve_face(i, chain), t
