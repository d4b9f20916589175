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

from .linalg import DEFAULT_TOL, Tolerance
from .frames import (
    Frame,
    dot,
    frames_close,
    pi1,
    pi2,
    reindex_frame,
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


def is_c_morphism(f: StarHom, alpha: Frame, beta: Frame, tol: Tolerance = DEFAULT_TOL):
    """Check f_*(alpha) = pi1(beta, alpha.d), the split read off the
    source frame's degree; returns (ok, residual)."""
    if alpha.ambient != f.src or beta.ambient != f.dst or beta.d % alpha.d != 0:
        raise ValueError("morphism data has incompatible sizes")
    residual = frames_close(push_frame(f, alpha), pi1(beta, alpha.d))
    return residual <= tol.bound("frame_condition"), residual


def make_c_morphism(f: StarHom, alpha: Frame, beta: Frame,
                    tol: Tolerance = DEFAULT_TOL) -> CMorphism:
    ok, residual = is_c_morphism(f, alpha, beta, tol)
    if not ok:
        raise ValueError(f"frame condition fails with residual {residual:.2e}")
    return CMorphism(f, alpha, beta)


def fr_map(data: CMorphism, alpha_prime: Frame, tol: Tolerance = DEFAULT_TOL) -> Frame:
    """Induced map on frame spaces: alpha' -> f_*(alpha') . pi2(beta)."""
    if alpha_prime.d != data.src_frame.d or alpha_prime.ambient != data.src_frame.ambient:
        raise ValueError("argument frame has wrong degree or ambient size")
    return dot(push_frame(data.f, alpha_prime), pi2(data.dst_frame, data.split), tol)


def tensor_c_morphism(fd: CMorphism, gd: CMorphism, tol: Tolerance = DEFAULT_TOL) -> CMorphism:
    """Tensor of morphism data.  The target frame is the tensor of the
    target frames relabelled into dot order, by reconstruction equal to
    dot(pi1 (x) pi1, pi2 (x) pi2), so the frame condition, which
    ``make_c_morphism`` checks, holds for the tensor hom as it is."""
    h = tensor_hom(fd.f, gd.f)
    src = tensor_frame(fd.src_frame, gd.src_frame)
    dst = _tensor_to_dot_order(tensor_frame(fd.dst_frame, gd.dst_frame), fd, gd)
    return make_c_morphism(h, src, dst, tol)


def _tensor_to_dot_order(frame: Frame, fd: CMorphism, gd: CMorphism) -> Frame:
    """Relabel ((i1,u1),(i2,u2)) tensor-order digits into dot order
    ((i1,i2),(u1,u2)), the digit sizes read off fd's and gd's splits."""
    d_parts = (fd.split, fd.dst_frame.d // fd.split, gd.split, gd.dst_frame.d // gd.split)
    return reindex_frame(frame, d_parts, (0, 2, 1, 3))


def check_naturality(fd: CMorphism, gd: CMorphism, alpha_prime: Frame,
                     phi_prime: Frame, tol: Tolerance = DEFAULT_TOL):
    """Both paths around the tensor-compatibility square, each through
    ``fr_map``, plus the witness: the second projection of the tensor
    target against the tensor of the two second projections.

    Returns (square residual, witness residual).
    """
    tens = tensor_c_morphism(fd, gd, tol)
    # Path 1: map each factor, then tensor.
    path1 = tensor_frame(fr_map(fd, alpha_prime, tol), fr_map(gd, phi_prime, tol))
    # Path 2: tensor, then map; result is in dot order.
    path2 = fr_map(tens, tensor_frame(alpha_prime, phi_prime), tol)
    square_residual = frames_close(_tensor_to_dot_order(path1, fd, gd), path2)

    # The witness: the unique frame completing the pushed source tensor
    # to the target tensor, read off as a second projection.
    xi_solved = pi2(tens.dst_frame, tens.split)
    xi_predicted = tensor_frame(pi2(fd.dst_frame, fd.split), pi2(gd.dst_frame, gd.split))
    witness_residual = frames_close(xi_solved, xi_predicted)
    return square_residual, witness_residual


def _gaussian_frame(frame: Frame):
    """(re, im, s): frames of Python ints with frame.mats = (re + i im) / 2**s,
    for a frame of finite entries.

    Every finite float is a dyadic rational, so the 53-bit mantissas of
    np.frexp, shifted to a common exponent, give the entries exactly."""
    parts = np.stack([frame.mats.real, frame.mats.imag])
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


def _exact_residual(a: Frame, b: Frame, c: Frame) -> float:
    """Worst entry of |(a (x) b) (x) c - a (x) (b (x) c)|, both orders
    formed by tensor_frame on the frames' exact Gaussian-integer forms."""
    ga, gb, gc = (_gaussian_frame(f) for f in (a, b, c))
    left_re, left_im, s = _tensor_gaussian(_tensor_gaussian(ga, gb), gc)
    right_re, right_im, _ = _tensor_gaussian(ga, _tensor_gaussian(gb, gc))
    diff_re, diff_im = left_re.mats - right_re.mats, left_im.mats - right_im.mats
    if not (diff_re.any() or diff_im.any()):
        return 0.0
    scale = 1 << s
    worst = np.hypot((diff_re / scale).astype(float), (diff_im / scale).astype(float))
    return float(worst.max())


def check_associativity(a: Frame, b: Frame, c: Frame) -> float:
    """Tensor reassociation residual of tensor_frame, evaluated exactly:
    exactly 0 whenever the mixed-radix index bookkeeping of tensor_frame
    is correct, and otherwise the worst entry of |left - right|.

    tensor_frame forms each entry as a product of one entry of each
    factor, so the zero is certified on value classes first.  In each of
    three passes one factor becomes its labels, 1 + the index of each
    entry's value among the frame's distinct values, and the other two
    become all-ones frames; every entry of both orders is then one label
    times ones, which float64 forms exactly.  When all three passes
    agree, both orders multiply equal values at every index and the
    residual is 0.  Only otherwise are both orders formed on the frames'
    exact Gaussian-integer forms (``_exact_residual``).  Non-finite
    entries raise ValueError before any tensor is formed."""
    frames = (a, b, c)
    if not all(np.isfinite(f.mats).all() for f in frames):
        raise ValueError("frame entries must be finite")
    ones = [Frame(f.d, f.ambient, np.ones(f.mats.shape)) for f in frames]
    for p, f in enumerate(frames):
        labels = 1.0 + np.unique(f.mats, return_inverse=True)[1].reshape(f.mats.shape)
        x, y, z = ones[:p] + [Frame(f.d, f.ambient, labels)] + ones[p + 1:]
        left = tensor_frame(tensor_frame(x, y), z)
        right = tensor_frame(x, tensor_frame(y, z))
        if not np.array_equal(left.mats, right.mats):
            return _exact_residual(a, b, c)
    return 0.0


def check_identity_embedding(phi_prime: Frame) -> float:
    """Tensoring with the unit frame is the identity embedding."""
    unit = trivial_frame(1)
    left = frames_close(tensor_frame(unit, phi_prime), phi_prime)
    right = frames_close(tensor_frame(phi_prime, unit), phi_prime)
    return float(np.max([left, right]))


def check_tau(alpha: Frame, phi: Frame) -> float:
    """Factor swap equals the perfect shuffle (i,p) -> (p,i) of the ambient
    digits, a relabelling, plus that transposition of the frame index."""
    swapped = tensor_frame(phi, alpha)
    straight = tensor_frame(alpha, phi)
    d, a, b = straight.d, alpha.ambient, phi.ambient
    shuffled = straight.mats.reshape(d, d, a, b, a, b).transpose(0, 1, 3, 2, 5, 4)
    transposed = reindex_frame(Frame(d, a * b, shuffled.reshape(d, d, a * b, a * b)),
                               (alpha.d, phi.d), (1, 0))
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
    if not chain.homs:
        raise ValueError("cannot take a degeneracy of an empty chain")
    if i < 0 or i > len(chain):
        raise ValueError("degeneracy index out of range")
    return NerveChain(chain.homs[:i] + (identity_hom(chain.levels[i]),) + chain.homs[i:])


def bundle_face(i: int, chain: NerveChain, t: np.ndarray):
    """Face maps of the algebra-bundle nerve: the 0th face also pushes
    the fiber element forward through the deleted morphism."""
    t = np.asarray(t, dtype=complex)
    if not chain.homs or t.shape != (chain.homs[0].src,) * 2:
        raise ValueError("fiber element must be square of the first source size")
    if i == 0:
        return nerve_face(0, chain), ev(chain.homs[0], t)
    return nerve_face(i, chain), t
