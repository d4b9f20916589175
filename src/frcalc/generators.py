"""Seeded generators of structured test data.

Frame-condition morphisms are produced constructively: take the hom as
a conjugated block embedding, push the source frame forward, and dot it
with a commuting frame living in its centralizer.  Rejection sampling
for the frame condition would essentially never succeed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import eye, kron_stack, random_unitary
from .frames import (
    Frame,
    conjugate_frame,
    dot,
    matrix_unit_frame,
    random_frame,
    tensor_frame,
    trivial_frame,
)
from .homspace import StarHom, push_frame
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


def random_c_morphism(cfg: MorphismConfig, seed: int) -> CMorphism:
    if (cfg.cof * cfg.t) % cfg.d2 != 0:
        raise ValueError("completion degree must divide the available cofactor")
    src_amb, dst_amb = cfg.src_ambient, cfg.dst_ambient
    u = random_unitary(src_amb, seed)
    alpha = conjugate_frame(u, matrix_unit_frame(cfg.d1, cfg.cof))
    w = random_unitary(dst_amb, seed + 1)
    f = StarHom(src_amb, dst_amb, conjugate_frame(w, matrix_unit_frame(src_amb, cfg.t)))
    # Commuting completion: a degree-d2 frame inside the centralizer of
    # the pushed source frame, built in the same conjugated coordinates.
    v = w @ kron_stack(u, eye(cfg.t))
    mu = random_frame(cfg.d2, cfg.cof * cfg.t, seed + 2)
    rho = conjugate_frame(v, tensor_frame(trivial_frame(cfg.d1), mu))
    beta = dot(push_frame(f, alpha), rho)
    return make_c_morphism(f, alpha, beta)


def random_source_frame(cfg: MorphismConfig, seed: int) -> Frame:
    """A frame on which the induced map of a cfg-shaped morphism acts."""
    return random_frame(cfg.d1, cfg.src_ambient, seed)


@dataclass(frozen=True)
class DMorphismData:
    f: StarHom
    a: Subalgebra
    b: Subalgebra


def random_d_morphism(cfg: MorphismConfig, seed: int) -> DMorphismData:
    """Subalgebra-level morphism derived from a frame-level one."""
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
