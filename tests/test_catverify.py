import sys

import numpy as np
import pytest

from frcalc import catverify, suite
from frcalc import frames as frames_module
from frcalc.catverify import (
    NerveChain,
    bundle_face,
    check_associativity,
    check_identity_embedding,
    check_naturality,
    check_tau,
    fr_map,
    is_c_morphism,
    make_c_morphism,
    nerve_degeneracy,
    nerve_face,
    tensor_c_morphism,
)
from frcalc.frames import (
    Frame,
    conjugate_frame,
    dot,
    frames_close,
    matrix_unit_frame,
    pi1,
    pi2,
    random_frame,
    tensor_frame,
    trivial_frame,
    verify_frame,
)
from frcalc.generators import MorphismConfig, random_c_morphism, random_source_frame
from frcalc.homspace import compose_plain, ev, identity_hom, push_frame, random_hom
from frcalc.linalg import DEFAULT_TOL, conjugate, kron_stack, max_abs, random_unitary


def test_is_c_morphism_positive_and_negative():
    cfg = MorphismConfig(2, 1, 2, 2)
    data = random_c_morphism(cfg, 1)
    ok, residual = is_c_morphism(data.f, data.src_frame, data.dst_frame)
    assert ok and residual < 1e-12
    # a random unrelated target frame fails the condition
    bad = random_frame(4, 4, 99)
    ok2, residual2 = is_c_morphism(data.f, data.src_frame, bad)
    assert not ok2 and residual2 > 1e-3


def test_make_c_morphism_raises_on_violation():
    cfg = MorphismConfig(2, 1, 2, 2)
    data = random_c_morphism(cfg, 2)
    with pytest.raises(ValueError, match="frame condition"):
        make_c_morphism(data.f, data.src_frame, random_frame(4, 4, 98))


def test_fr_map_frame_condition():
    # the induced map of any valid morphism datum sends frames to frames
    data = random_c_morphism(MorphismConfig(2, 1, 2, 2), 3)
    out = fr_map(data, random_source_frame(MorphismConfig(2, 1, 2, 2), 4))
    assert verify_frame(out).max_error <= DEFAULT_TOL.bound("frame_axioms")
    # and the source frame itself maps to the target frame
    assert frames_close(fr_map(data, data.src_frame), data.dst_frame) < 1e-12


def test_fr_map_identity_morphism():
    # identity hom with equal source and target frames induces identity
    fr = random_frame(2, 4, 5)
    data = make_c_morphism(identity_hom(4), fr, fr)
    arg = random_frame(2, 4, 6)
    assert frames_close(fr_map(data, arg), arg) < 1e-12


def test_tensor_c_morphism_is_morphism():
    fd = random_c_morphism(MorphismConfig(2, 1, 2, 2), 7)
    gd = random_c_morphism(MorphismConfig(1, 1, 6, 2), 8)
    tens = tensor_c_morphism(fd, gd)
    ok, residual = is_c_morphism(tens.f, tens.src_frame, tens.dst_frame)
    assert ok and residual < 1e-12


@pytest.mark.parametrize("pair", range(len(suite._NAT_CONFIGS)))
def test_tensor_target_is_the_dot_of_the_tensors_of_the_projections(pair):
    """The relabelled tensor of the target frames is, by reconstruction,
    the frame dot(pi1 (x) pi1, pi2 (x) pi2) built from the projections."""
    fd, gd = (random_c_morphism(cfg, seed) for cfg, seed in zip(suite._NAT_CONFIGS[pair], (61, 62)))
    b1, b2 = fd.dst_frame, gd.dst_frame
    reference = dot(tensor_frame(pi1(b1, fd.split), pi1(b2, gd.split)),
                    tensor_frame(pi2(b1, fd.split), pi2(b2, gd.split)))
    assert frames_close(tensor_c_morphism(fd, gd).dst_frame, reference) <= 1e-14


def test_naturality_square():
    fd = random_c_morphism(MorphismConfig(2, 1, 2, 2), 9)
    gd = random_c_morphism(MorphismConfig(1, 3, 2, 2), 10)
    square, witness = check_naturality(
        fd, gd,
        random_source_frame(MorphismConfig(2, 1, 2, 2), 11),
        random_source_frame(MorphismConfig(1, 3, 2, 2), 12))
    assert square < 1e-10
    assert witness < 1e-10


def test_associativity_exact_zero():
    residual = check_associativity(random_frame(2, 2, 13),
                                   random_frame(2, 4, 14),
                                   random_frame(1, 2, 15))
    assert residual == 0.0
    # Basepoint frames hold exact zeros beside their ones.
    units = (matrix_unit_frame(2, 1), matrix_unit_frame(2, 2), matrix_unit_frame(2, 1))
    assert check_associativity(*units) == 0.0


def _second_factor_transposed(original):
    """tensor_frame that transposes its second factor's frame index."""
    def transposed(alpha, phi):
        return original(alpha, Frame(phi.d, phi.ambient, np.swapaxes(phi.mats, 0, 1)))
    return transposed


def test_associativity_runs_tensor_frame(monkeypatch):
    """A tensor_frame that transposes its second factor's frame index
    breaks associativity, and the exact check sees it."""
    frames = (random_frame(2, 2, 13), random_frame(2, 4, 14), random_frame(2, 2, 15))
    assert check_associativity(*frames) == 0.0
    monkeypatch.setattr(catverify, "tensor_frame", _second_factor_transposed(tensor_frame))
    assert check_associativity(*frames) > 0.0


ASSOCIATIVITY_FRAMES = {
    "degree-1 third factor": lambda: (random_frame(2, 2, 13), random_frame(2, 4, 14),
                                      random_frame(1, 2, 15)),
    "degree-2 third factor": lambda: (random_frame(2, 2, 13), random_frame(2, 4, 14),
                                      random_frame(2, 2, 15)),
    # Exact zeros beside their ones: many entries share a value class.
    "basepoint frames": lambda: (matrix_unit_frame(2, 1), matrix_unit_frame(2, 2),
                                 matrix_unit_frame(2, 1)),
}
TENSOR_VARIANTS = {
    "tensor_frame": None,
    "second-factor transposition": (catverify, "tensor_frame",
                                    _second_factor_transposed(tensor_frame)),
    "kron_stack with the factors swapped": (frames_module, "kron_stack",
                                            lambda a, b: kron_stack(b, a)),
}


@pytest.mark.parametrize("variant", TENSOR_VARIANTS)
@pytest.mark.parametrize("frames", ASSOCIATIVITY_FRAMES)
def test_associativity_certificate_matches_the_exact_evaluation(monkeypatch, frames, variant):
    """The value-class certificate returns what the exact Gaussian-integer
    evaluation of both orders gives, right or wrong tensor_frame, also
    where a wrong one comes out 0 by coincidence (the transposition on a
    degree-1 third factor)."""
    if TENSOR_VARIANTS[variant]:
        monkeypatch.setattr(*TENSOR_VARIANTS[variant])
    a, b, c = ASSOCIATIVITY_FRAMES[frames]()
    exact = catverify._exact_residual(a, b, c)
    assert check_associativity(a, b, c) == exact
    if (frames, variant) == ("degree-1 third factor", "second-factor transposition"):
        assert exact == 0.0


def test_associativity_certifies_a_zero_without_the_gaussian_forms(monkeypatch):
    def unreachable(frame):
        raise AssertionError("the exact evaluation ran on a passing input")

    monkeypatch.setattr(catverify, "_gaussian_frame", unreachable)
    for make in ASSOCIATIVITY_FRAMES.values():
        assert check_associativity(*make()) == 0.0


@pytest.mark.parametrize("position", range(3))
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_associativity_rejects_non_finite_entries(position, value):
    frames = [random_frame(2, 2, 13 + i) for i in range(3)]
    mats = frames[position].mats.copy()
    mats[0, 1, 1, 0] = value
    frames[position] = Frame(2, 2, mats)
    with pytest.raises(ValueError, match="finite"):
        check_associativity(*frames)


def test_identity_embedding_zero():
    assert check_identity_embedding(random_frame(2, 6, 16)) == 0.0



@pytest.mark.parametrize("side", [0, 1])
def test_identity_embedding_keeps_a_nan_of_either_side(monkeypatch, side):
    residuals = iter([np.nan if i == side else 0.0 for i in range(2)])
    monkeypatch.setattr(catverify, "frames_close", lambda a, b: next(residuals))
    assert np.isnan(check_identity_embedding(random_frame(2, 6, 16)))


def test_tau_small_residual():
    assert check_tau(random_frame(2, 2, 17), random_frame(2, 6, 18)) < 1e-12


def test_nerve_faces_simplicial_identity():
    homs = (random_hom(2, 3, 19), random_hom(6, 1, 20), random_hom(6, 3, 21))
    chain = NerveChain(homs)
    for j in range(4):
        for k in range(j + 1, 4):
            left = nerve_face(j, nerve_face(k, chain))
            right = nerve_face(k - 1, nerve_face(j, chain))
            assert left.levels == right.levels
            for h1, h2 in zip(left.homs, right.homs):
                assert max_abs(h1.image_frame.mats - h2.image_frame.mats) < 1e-12


def test_nerve_face_composition_against_manual():
    h1, h2 = random_hom(2, 3, 22), random_hom(6, 2, 23)
    chain = NerveChain((h1, h2))
    mid = nerve_face(1, chain)
    assert mid.levels == (2, 12)
    manual = compose_plain(h2, h1)
    assert max_abs(mid.homs[0].image_frame.mats - manual.image_frame.mats) == 0.0


def test_nerve_degeneracy_face_roundtrip():
    chain = NerveChain((random_hom(2, 3, 24), random_hom(6, 2, 25)))
    for j in range(3):
        degen = nerve_degeneracy(j, chain)
        assert len(degen) == 3
        back = nerve_face(j, degen)
        for h1, h2 in zip(back.homs, chain.homs):
            assert max_abs(h1.image_frame.mats - h2.image_frame.mats) == 0.0


@pytest.mark.parametrize("i, chain, error", [
    (-1, NerveChain((random_hom(2, 3, 24),)), "out of range"),
    (0, NerveChain(()), "empty chain"),
])
def test_nerve_degeneracy_refuses_a_bad_index_or_an_empty_chain(i, chain, error):
    with pytest.raises(ValueError, match=error):
        nerve_degeneracy(i, chain)


def test_bundle_face_pushes_fiber():
    h1, h2 = random_hom(2, 2, 26), random_hom(4, 2, 27)
    chain = NerveChain((h1, h2))
    t = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    chain0, t0 = bundle_face(0, chain, t)
    assert chain0.levels == (4, 8)
    assert max_abs(t0 - ev(h1, t)) == 0.0
    chain1, t1 = bundle_face(1, chain, t)
    assert max_abs(t1 - t) == 0.0
    # stepwise vs composed evaluation agree
    assert max_abs(ev(chain0.homs[0], t0) - ev(chain1.homs[0], t1)) < 1e-12


def test_chain_requires_composability():
    with pytest.raises(ValueError, match="composable"):
        NerveChain((random_hom(2, 3, 28), random_hom(5, 2, 29)))


@pytest.mark.parametrize("pair", range(len(suite._NAT_CONFIGS)))
def test_generated_target_frame_is_the_dot_of_the_pushed_frame_and_the_completion(pair):
    """random_c_morphism builds beta as the frame of R = w kron(u, 1_t)
    kron(1_d1, m); that is f(alpha) dotted with the commuting completion
    rho = v (1_d1 (x) mu) v*, v = w kron(u, 1_t), mu the frame of m."""
    for cfg, seed in zip(suite._NAT_CONFIGS[pair], (31, 32)):
        data = random_c_morphism(cfg, seed)
        v = random_unitary(cfg.dst_ambient, seed + 1) @ np.kron(
            random_unitary(cfg.src_ambient, seed), np.eye(cfg.t))
        mu = random_frame(cfg.d2, cfg.cof * cfg.t, seed + 2)
        rho = conjugate_frame(v, tensor_frame(trivial_frame(cfg.d1), mu))
        assert frames_close(dot(push_frame(data.f, data.src_frame), rho), data.dst_frame) <= 1e-14


def test_seeded_frames_and_morphisms_take_no_dense_conjugation(monkeypatch):
    def refuse(u, mats):
        raise AssertionError("dense conjugation")

    for name, module in list(sys.modules.items()):
        if name.startswith("frcalc") and getattr(module, "conjugate", None) is conjugate:
            monkeypatch.setattr(module, "conjugate", refuse)
    assert verify_frame(random_frame(3, 6, 11)).max_error <= DEFAULT_TOL.bound("frame_axioms")
    data = random_c_morphism(MorphismConfig(2, 3, 2, 3), 5)
    assert is_c_morphism(data.f, data.src_frame, data.dst_frame)[0]
