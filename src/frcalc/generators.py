"""Seeded generators of structured test data.

Frame-condition morphisms are produced constructively: take the hom as
a conjugated block embedding, and the target frame as the push-forward
of the source frame dotted with a commuting frame in its centralizer,
which is the frame of one product of unitaries (``random_c_morphism``).
Rejection sampling for the frame condition would essentially never
succeed.

Every constructor here is a builder applied to Haar unitaries of
``linalg.random_unitaries``: a morphism's (size, seed) pairs are
``MorphismConfig.draws`` and its builder ``c_morphism_of_unitaries``, a
frame's builder ``unitary_frame``.  So a caller that needs many samples,
such as a suite battery, draws all their unitaries in one call and
builds each sample from them as it reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eye, kron_stack, random_unitaries
from .frames import Frame, random_frame, unitary_frame
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

    def draws(self, seed: int) -> list:
        """The (size, seed) pairs of the Haar unitaries behind
        ``random_c_morphism(self, seed)``: source (src_ambient, seed),
        target (dst_ambient, seed + 1) and completion (cof t, seed + 2).
        A completion degree below 1 or not dividing cof t raises."""
        if self.d2 < 1 or (self.cof * self.t) % self.d2 != 0:
            raise ValueError("completion degree must divide the available cofactor")
        return [(self.src_ambient, seed), (self.dst_ambient, seed + 1),
                (self.cof * self.t, seed + 2)]


def random_c_morphism(cfg: MorphismConfig, seed: int) -> CMorphism:
    """Seeded frame-condition morphism (f, alpha, beta), built by
    ``c_morphism_of_unitaries`` from the unitaries of ``cfg.draws(seed)``.

    With the Haar unitaries u (source, ``seed``), w (target, seed + 1) and
    m (size cof t, seed + 2, the unitary behind ``random_frame(d2, cof t,
    seed + 2)``), alpha = u (e_ij (x) 1) u* and f(X) = w (X (x) 1_t) w*
    are read off the column blocks of u and w by ``unitary_frame``.  The
    commuting completion is rho_uv = v (1_d1 (x) m (e_uv (x) 1) m*) v* with
    v = w kron(u, 1_t), so f(alpha_ij) = v (e_ij (x) 1_{cof t}) v* and

        beta[(i,u),(j,v)] = f(alpha_ij) rho_uv = R (e_ij (x) e_uv (x) 1) R*,
        R = w kron(u, 1_t) kron(1_d1, m):

    beta is ``unitary_frame(R, d1 d2)``, built without ``dot`` or rho.
    ``make_c_morphism`` still checks the frame condition."""
    return c_morphism_of_unitaries(*random_unitaries(cfg.draws(seed)), cfg.d1, cfg.d2)[0]


def c_morphism_of_unitaries(u: np.ndarray, w: np.ndarray, m: np.ndarray, d1: int, d2: int):
    """The frame-condition morphism that ``random_c_morphism`` builds from
    the unitaries u (source), w (target) and m (completion), and the
    unitary R = w kron(u, 1_t) kron(1_d1, m) whose column blocks give its
    target frame, so that a second leg out of that frame takes R as its u."""
    t = w.shape[0] // u.shape[0]
    r = w @ kron_stack(u, eye(t)) @ kron_stack(eye(d1), m)
    f = StarHom(u.shape[0], w.shape[0], unitary_frame(w, u.shape[0]))
    return make_c_morphism(f, unitary_frame(u, d1), unitary_frame(r, d1 * d2)), r


def random_source_frame(cfg: MorphismConfig, seed: int) -> Frame:
    """A frame on which the induced map of a cfg-shaped morphism acts:
    ``random_frame(cfg.d1, cfg.src_ambient, seed)``."""
    return random_frame(cfg.d1, cfg.src_ambient, seed)


@dataclass(frozen=True)
class DMorphismData:
    f: StarHom
    a: Subalgebra
    b: Subalgebra


def random_d_morphism(cfg: MorphismConfig, seed: int) -> DMorphismData:
    """The subalgebra-level morphism of ``random_c_morphism(cfg, seed)``, kept
    because the benchmark's ``subalgebra`` workload draws its inputs with it."""
    cm = random_c_morphism(cfg, seed)
    return DMorphismData(cm.f, lambda_map(cm.src_frame), lambda_map(cm.dst_frame))


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
