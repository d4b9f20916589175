"""Seeded generators of structured test data.

Frame-condition morphisms are produced constructively: take the hom as
a conjugated block embedding, and the target frame as the push-forward
of the source frame dotted with a commuting frame in its centralizer,
which is the frame of one product of unitaries (``random_c_morphism``).
Rejection sampling for the frame condition would essentially never
succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import eye, kron_stack, random_unitaries_of
from .frames import Frame, random_frames, unitary_frame
from .homspace import StarHom
from .catverify import CMorphism, make_c_morphism
from .grassmannian import Subalgebra, lambda_map
from .fredholm import DeskFredholm


@dataclass(frozen=True)
class MorphismConfig:
    """Shape of a generated morphism: source frame degree d1 with
    cofactor cof (source ambient d1*cof), size ratio t of the hom, and
    degree d2 of the commuting completion (d2 must divide cof*t)."""

    d1: int
    cof: int
    t: int
    d2: int

    @property
    def src_ambient(self) -> int:
        return self.d1 * self.cof

    @property
    def dst_ambient(self) -> int:
        return self.src_ambient * self.t


def random_c_morphisms(specs) -> Iterator[CMorphism]:
    """Seeded frame-condition morphisms (f, alpha, beta) of (cfg, seed)
    pairs, in order.  Every unitary is drawn at the call, one
    ``random_unitaries`` stack per size, and each morphism is built by
    ``c_morphism_of_unitaries`` as the iterator reaches it.

    With the Haar unitaries u (source, ``seed``), w (target, seed + 1) and
    m (size cof t, seed + 2, the unitary behind ``random_frame(d2, cof t,
    seed + 2)``), alpha = u (e_ij (x) 1) u* and f(X) = w (X (x) 1_t) w*
    are read off the column blocks of u and w by ``unitary_frame``.  The
    commuting completion is rho_uv = v (1_d1 (x) m (e_uv (x) 1) m*) v* with
    v = w kron(u, 1_t), so f(alpha_ij) = v (e_ij (x) 1_{cof t}) v* and

        beta[(i,u),(j,v)] = f(alpha_ij) rho_uv = R (e_ij (x) e_uv (x) 1) R*,
        R = w kron(u, 1_t) kron(1_d1, m):

    beta is ``unitary_frame(R, d1 d2)``, built without ``dot`` or rho
    (``c_morphism_of_unitaries``).  ``make_c_morphism`` still checks the
    frame condition."""
    specs = list(specs)
    if any((cfg.cof * cfg.t) % cfg.d2 != 0 for cfg, _ in specs):
        raise ValueError("completion degree must divide the available cofactor")
    unitaries = random_unitaries_of(
        (n, seed + k) for cfg, seed in specs
        for k, n in enumerate((cfg.src_ambient, cfg.dst_ambient, cfg.cof * cfg.t)))
    return (c_morphism_of_unitaries(*unitaries[3 * i:3 * i + 3], cfg.d1, cfg.d2)[0]
            for i, (cfg, _) in enumerate(specs))


def random_c_morphism(cfg: MorphismConfig, seed: int) -> CMorphism:
    """The one morphism of ``random_c_morphisms([(cfg, seed)])``."""
    return next(random_c_morphisms([(cfg, seed)]))


def c_morphism_of_unitaries(u: np.ndarray, w: np.ndarray, m: np.ndarray, d1: int, d2: int):
    """The frame-condition morphism that ``random_c_morphism`` builds from
    the unitaries u (source), w (target) and m (completion), and the
    unitary R = w kron(u, 1_t) kron(1_d1, m) whose column blocks give its
    target frame, so that a second leg out of that frame takes R as its u."""
    t = w.shape[0] // u.shape[0]
    r = w @ kron_stack(u, eye(t)) @ kron_stack(eye(d1), m)
    f = StarHom(u.shape[0], w.shape[0], unitary_frame(w, u.shape[0]))
    return make_c_morphism(f, unitary_frame(u, d1), unitary_frame(r, d1 * d2)), r


def random_source_frames(specs) -> Iterator[Frame]:
    """For (cfg, seed) pairs, in order, frames on which the induced map of
    a cfg-shaped morphism acts, drawn as ``random_frames`` draws them."""
    return random_frames((cfg.d1, cfg.src_ambient, seed) for cfg, seed in specs)


def random_source_frame(cfg: MorphismConfig, seed: int) -> Frame:
    """The one frame of ``random_source_frames([(cfg, seed)])``."""
    return next(random_source_frames([(cfg, seed)]))


@dataclass(frozen=True)
class DMorphismData:
    f: StarHom
    a: Subalgebra
    b: Subalgebra


def random_d_morphisms(specs) -> Iterator[DMorphismData]:
    """Subalgebra-level morphisms of (cfg, seed) pairs, in order, derived
    from the frame-level ones that ``random_c_morphisms`` draws at the call."""
    return (DMorphismData(cm.f, lambda_map(cm.src_frame), lambda_map(cm.dst_frame))
            for cm in random_c_morphisms(specs))


def random_d_morphism(cfg: MorphismConfig, seed: int) -> DMorphismData:
    """The one morphism of ``random_d_morphisms([(cfg, seed)])``."""
    return next(random_d_morphisms([(cfg, seed)]))


def random_fredholm(n: int, win_dom: int, win_cod: int, seed: int,
                    deficiency: int = 0) -> DeskFredholm:
    """Window model with a prescribed extra rank deficiency: kernel and
    cokernel both grow by ``deficiency`` without changing the index."""
    rng = np.random.default_rng(seed)
    r, c = n * win_cod, n * win_dom
    inner = max(min(r, c) - deficiency, 0)
    a = rng.standard_normal((r, inner)) + 1j * rng.standard_normal((r, inner))
    b = rng.standard_normal((inner, c)) + 1j * rng.standard_normal((inner, c))
    return DeskFredholm(n, win_dom, win_cod, a @ b)
