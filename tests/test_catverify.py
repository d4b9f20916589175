import numpy as np
import pytest

from frcalc import catverify
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
    frames_close,
    matrix_unit_frame,
    random_frame,
    verify_frame,
)
from frcalc.generators import MorphismConfig, random_c_morphism, random_source_frame
from frcalc.homspace import compose_plain, ev, identity_hom, random_hom
from frcalc.linalg import DEFAULT_TOL, max_abs


def test_is_c_morphism_positive_and_negative():
    cfg = MorphismConfig(2, 1, 2, 2)
    data = random_c_morphism(cfg, 1)
    ok, residual = is_c_morphism(data.f, data.src_frame, data.dst_frame, 2)
    assert ok and residual < 1e-12
    # a random unrelated target frame fails the condition
    bad = random_frame(4, 4, 99)
    ok2, residual2 = is_c_morphism(data.f, data.src_frame, bad, 2)
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
    ok, residual = is_c_morphism(tens.f, tens.src_frame, tens.dst_frame,
                                 fd.split * gd.split)
    assert ok and residual < 1e-12


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


def test_associativity_runs_tensor_frame(monkeypatch):
    """A tensor_frame that transposes its second factor's frame index
    breaks associativity, and the exact check sees it."""
    original = catverify.tensor_frame

    def transposed(alpha, phi):
        return original(alpha, Frame(phi.d, phi.ambient, np.swapaxes(phi.mats, 0, 1)))

    frames = (random_frame(2, 2, 13), random_frame(2, 4, 14), random_frame(2, 2, 15))
    assert check_associativity(*frames) == 0.0
    monkeypatch.setattr(catverify, "tensor_frame", transposed)
    assert check_associativity(*frames) > 0.0


def test_associativity_rejects_non_finite_entries():
    a = random_frame(2, 2, 13)
    mats = a.mats.copy()
    mats[0, 1, 1, 0] = np.nan
    with pytest.raises(ValueError):
        check_associativity(Frame(2, 2, mats), a, a)


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
