import itertools
import json

import numpy as np
import pytest

from frcalc.cli import run

from frcalc.frames import (
    Frame,
    FrameReport,
    conjugate_frame,
    dot,
    dot_with_residual,
    frames_close,
    matrix_unit_frame,
    pi1,
    pi2,
    random_frame,
    reindex_frame,
    shuffle_permutation,
    tensor_frame,
    trivial_frame,
    unitary_frame,
    verify_frame,
)
from frcalc.generators import (MorphismConfig, c_morphism_of_unitaries, random_c_morphism,
                               random_d_morphism, random_source_frame)
from frcalc.grassmannian import lambda_map
from frcalc.homspace import random_hom
from frcalc.linalg import DEFAULT_TOL, conjugate, max_abs, random_unitaries, random_unitary
from frcalc.serialize import dump_json


def test_basepoint_frame_passes_exactly():
    report = verify_frame(matrix_unit_frame(3, 2))
    assert report.axiom_i_maxerr == 0.0
    assert report.axiom_ii_maxerr == 0.0
    assert report.axiom_iii_maxerr == 0.0


def test_basepoint_entries_are_shifted_identities():
    fr = matrix_unit_frame(2, 3)
    e12 = np.zeros((6, 6))
    e12[0:3, 3:6] = np.eye(3)
    assert np.array_equal(fr.mats[0, 1], e12)



@pytest.mark.parametrize("axiom", range(3))
def test_frame_report_max_error_keeps_a_nan_of_any_axiom(axiom):
    errors = [0.0, 0.0, 0.0]
    errors[axiom] = np.nan
    assert np.isnan(FrameReport(*errors).max_error)


def test_random_frame_passes_axioms():
    for seed in range(5):
        report = verify_frame(random_frame(2, 6, seed))
        assert report.max_error <= DEFAULT_TOL.bound("frame_axioms"), report


def test_verify_rejects_scaled_frame():
    fr = matrix_unit_frame(2, 2)
    report = verify_frame(Frame(2, 4, 0.5 * fr.mats))
    assert not report.max_error <= DEFAULT_TOL.bound("frame_axioms")


def test_axiom_i_sees_every_left_factor():
    """Only alpha[2,2] is off, by 1.5.  Then sum_j alpha[0,j] alpha[j,2] =
    (1 + 1 + 1.5) e_02 = 3.5 e_02 against d e_02 = 3 e_02, and so is the
    sum for alpha[2,0]: the residual 0.5, divided by d = 3, is 1/6, and the
    off factor is the last one taken.  A NaN entry gives a NaN."""
    mats = matrix_unit_frame(3, 2).mats.copy()
    mats[2, 2] *= 1.5
    assert verify_frame(Frame(3, 6, mats)).axiom_i_maxerr == pytest.approx(1 / 6)
    mats[2, 2, 5, 5] = np.nan
    assert np.isnan(verify_frame(Frame(3, 6, mats)).axiom_i_maxerr)


def _axiom_i_all_pairs(stack):
    """The d^4 form of axiom (i): max |alpha[i,j] alpha[r,s] - delta_jr alpha[i,s]|."""
    d = len(stack)
    return max_abs(np.einsum("ijab,rsbc->ijrsac", stack, stack)
                   - np.einsum("jr,isac->ijrsac", np.eye(d), stack))


def _both_max_errors(fr):
    """``max_error`` of verify_frame, and the same with axiom (i) in its d^4 form."""
    report = verify_frame(fr)
    old = max(_axiom_i_all_pairs(fr.mats), report.axiom_ii_maxerr, report.axiom_iii_maxerr)
    return old, report.max_error


def test_axiom_i_identity_tracks_all_pairs_on_perturbed_frames():
    """On 288 random frames (d 2-5, cofactor 1-3) perturbed by 1e-13 to
    1e-2, the d^4 form's ``max_error`` is 1 to 2 times that of the identity."""
    rng = np.random.default_rng(26)
    for d, cofactor, noise, _ in itertools.product(range(2, 6), (1, 2, 3),
                                                   10.0 ** np.arange(-13, -1), range(2)):
        fr = random_frame(d, d * cofactor, int(rng.integers(1 << 30)))
        shape = fr.mats.shape
        mats = fr.mats + noise * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        old, new = _both_max_errors(Frame(d, d * cofactor, mats))
        assert 1.0 <= old / new <= 2.0, (d, cofactor, noise, old, new)


@pytest.mark.parametrize("fault", ["index_pair", "entrywise_transpose", "adjoint_e01", "scale"])
@pytest.mark.parametrize("d, cofactor", [(2, 2), (3, 2), (4, 3)])
def test_structured_faults_stay_large_under_both_forms(fault, d, cofactor):
    n = d * cofactor
    mats = random_frame(d, n, 5 * d + cofactor).mats.copy()
    if fault == "index_pair":
        mats = mats.transpose(1, 0, 2, 3)
    elif fault == "entrywise_transpose":
        mats = mats.transpose(0, 1, 3, 2)
    elif fault == "adjoint_e01":
        mats[0, 1] = mats[0, 1].conj().T
    else:
        mats = 1.01 * mats
    old, new = _both_max_errors(Frame(d, n, mats))
    assert min(old, new) >= 0.04, (old, new)


def _refused_by_frame_verify(fr, tmp_path, capsys):
    path = tmp_path / "frame.json"
    dump_json("frame", fr, str(path))
    code = run(["frame", "verify", "--in", str(path)])
    report = json.loads(capsys.readouterr().out)
    return code == 1 and report["pass"] is False


def test_axioms_ii_and_iii_refuse_exact_product_relations(tmp_path, capsys):
    """Two systems whose products obey axiom (i) exactly: S e_ij S^-1 for
    an invertible, non-unitary S breaks only (iii); e_ij (x) P for a
    proper projection P breaks (ii) (and, with it, the norms of (iii))."""
    bound = DEFAULT_TOL.bound("frame_axioms")
    units = matrix_unit_frame(2, 3)
    s = np.eye(6) + 0.5 * np.triu(np.ones((6, 6)), 1)
    similar = Frame(2, 6, s @ units.mats @ np.linalg.inv(s))
    report = verify_frame(similar)
    assert report.axiom_i_maxerr < 1e-14 and report.axiom_ii_maxerr < 1e-14
    assert report.axiom_iii_maxerr > bound
    assert _refused_by_frame_verify(similar, tmp_path, capsys)

    proj = np.diag([1.0, 1.0, 0.0])
    compressed = Frame(2, 6, np.kron(matrix_unit_frame(2, 1).mats, proj))
    report = verify_frame(compressed)
    assert report.axiom_i_maxerr == 0.0 and report.axiom_ii_maxerr > bound
    assert _refused_by_frame_verify(compressed, tmp_path, capsys)


def _pi1_oracle(beta, d1):
    # independent loop-based block sum
    d2 = beta.d // d1
    n = beta.ambient
    out = np.zeros((d1, d1, n, n), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for t in range(d2):
                out[i, j] += beta.mats[i * d2 + t, j * d2 + t]
    return out


def _pi2_oracle(beta, d1):
    d2 = beta.d // d1
    n = beta.ambient
    out = np.zeros((d2, d2, n, n), dtype=complex)
    for u in range(d2):
        for v in range(d2):
            for t in range(d1):
                out[u, v] += beta.mats[t * d2 + u, t * d2 + v]
    return out


def test_projections_match_loop_oracle():
    beta = random_frame(6, 12, 17)
    for d1 in (2, 3):
        assert max_abs(pi1(beta, d1).mats - _pi1_oracle(beta, d1)) == 0.0
        assert max_abs(pi2(beta, d1).mats - _pi2_oracle(beta, d1)) == 0.0


def test_projection_rejects_bad_split():
    with pytest.raises(ValueError):
        pi1(random_frame(6, 6, 0), 4)


def test_dot_of_basepoint_factors():
    # alpha = e_{ij} (x) E_3 and gamma = E_2 (x) mu commute; their dot is
    # the full basepoint frame of degree 6 in M_6.
    alpha = matrix_unit_frame(2, 3)
    gamma = reindex_ambient_of_second_factor()
    combined = dot(alpha, gamma)
    assert frames_close(combined, matrix_unit_frame(6, 1)) == 0.0


def reindex_ambient_of_second_factor():
    # E_2 (x) mu for mu the degree-3 basepoint frame of M_3
    mu = matrix_unit_frame(3, 1)
    n = 6
    mats = np.zeros((3, 3, n, n), dtype=complex)
    for u in range(3):
        for v in range(3):
            mats[u, v] = np.kron(np.eye(2), mu.mats[u, v])
    return Frame(3, 6, mats)


def test_dot_projections_recover_factors():
    u = random_unitary(6, 8)
    alpha = conjugate_frame(u, matrix_unit_frame(2, 3))
    gamma = conjugate_frame(u, reindex_ambient_of_second_factor())
    combined = dot(alpha, gamma)
    assert frames_close(pi1(combined, 2), alpha) < 1e-12
    assert frames_close(pi2(combined, 2), gamma) < 1e-12


def test_dot_rejects_noncommuting():
    a = random_frame(2, 4, 1)
    b = random_frame(2, 4, 2)
    assert max_abs(a.mats[0, 0] @ b.mats[0, 0] - b.mats[0, 0] @ a.mats[0, 0]) > 1e-3
    for product in (dot, dot_with_residual):
        with pytest.raises(ValueError, match="commute"):
            product(a, b)


def test_dot_rejects_a_nan_commutator():
    """At scale 1e200 the products of the matrix units of M_2 in M_4
    overflow, so the commutator residual is NaN: that is no evidence
    that the frames commute, and the guard refuses it as it refuses
    them at scale 1."""
    f = Frame(2, 4, matrix_unit_frame(2, 2).mats * 1e200)
    for product in (dot, dot_with_residual):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="commute"):
            product(f, f)
        with pytest.raises(ValueError, match="commute"):
            product(matrix_unit_frame(2, 2), matrix_unit_frame(2, 2))


def test_reconstruction_identity():
    beta = random_frame(6, 6, 23)
    for d1 in (2, 3):
        rebuilt = dot(pi1(beta, d1), pi2(beta, d1))
        assert frames_close(rebuilt, beta) < 1e-12


def test_tensor_frame_against_kron_oracle():
    a = random_frame(2, 2, 4)
    b = random_frame(2, 4, 5)
    t = tensor_frame(a, b)
    assert t.d == 4 and t.ambient == 8
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    expected = np.kron(a.mats[i, j], b.mats[p, q])
                    got = t.mats[i * 2 + p, j * 2 + q]
                    assert max_abs(got - expected) == 0.0


def test_tensor_of_frames_is_frame():
    t = tensor_frame(random_frame(2, 2, 6), random_frame(3, 3, 7))
    assert verify_frame(t).max_error <= DEFAULT_TOL.bound("frame_axioms")


def test_unit_frame_tensor_is_identity_embedding():
    fr = random_frame(2, 4, 9)
    assert frames_close(tensor_frame(trivial_frame(1), fr), fr) == 0.0


def test_conjugate_frame_requires_unitary():
    fr = matrix_unit_frame(2, 2)
    with pytest.raises(ValueError, match="unitary"):
        conjugate_frame(np.ones((4, 4)), fr)


def test_reindex_frame_swaps_digits():
    # build a degree-6 frame as dot of commuting factors, then swap the
    # two digit positions; entry ((u,i),(v,j)) must equal ((i,u),(j,v)).
    u = random_unitary(6, 31)
    alpha = conjugate_frame(u, matrix_unit_frame(2, 3))
    gamma = conjugate_frame(u, reindex_ambient_of_second_factor())
    beta = dot(alpha, gamma)
    swapped = reindex_frame(beta, (2, 3), (1, 0))
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    lhs = swapped.mats[p * 2 + i, q * 2 + j]
                    rhs = beta.mats[i * 3 + p, j * 3 + q]
                    assert max_abs(lhs - rhs) == 0.0


def test_shuffle_permutation_swaps_kron_factors():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = shuffle_permutation(2, 3)
    assert max_abs(s @ s.conj().T - np.eye(6)) == 0.0
    assert max_abs(s @ np.kron(x, y) @ s.conj().T - np.kron(y, x)) < 1e-13


def test_frames_compare_and_hash_by_identity():
    # Two frames with equal fields are distinct objects: == must answer
    # rather than compare the ndarray fields.
    a, b = matrix_unit_frame(2, 1), matrix_unit_frame(2, 1)
    assert not a == b
    assert a != b
    assert a == a
    assert hash(a) != hash(b) and hash(a) == hash(a)


@pytest.mark.parametrize("d, l", [(1, 1), (1, 4), (2, 1), (2, 3), (3, 2), (4, 4),
                                  (6, 3), (12, 2), (18, 1)])
def test_unitary_frame_is_the_conjugated_basepoint(d, l):
    """Read off the column blocks, the frame is U (e_ij (x) E_l) U* to
    rounding, in d N^3 work instead of 2 d^2 N^3."""
    u = random_unitary(d * l, 10 * d + l)
    fr = unitary_frame(u, d)
    assert (fr.d, fr.ambient) == (d, d * l)
    assert max_abs(fr.mats - conjugate(u, matrix_unit_frame(d, l).mats)) <= 1e-15


@pytest.mark.parametrize("u, d", [(np.eye(6)[:4], 2), (np.eye(6), 4), (np.eye(6), 0)])
def test_unitary_frame_refuses_a_degree_that_does_not_divide_a_square(u, d):
    with pytest.raises(ValueError):
        unitary_frame(u, d)


def _same_frames(a, b):
    return a.d == b.d and a.ambient == b.ambient and a.mats.tobytes() == b.mats.tobytes()


def test_each_singular_constructor_is_its_builder_on_one_shared_draw():
    """Every unitary below comes from one ``random_unitaries`` call of
    mixed sizes, with repeated sizes and a repeated seed, while each
    singular constructor draws its own: a stack of many draws against
    stacks of one, bit for bit."""
    frame_shapes = [(2, 6, 4), (3, 6, 5), (1, 2, 4), (2, 2, 9), (6, 12, 4), (2, 6, 4)]
    hom_shapes = [(2, 3, 1), (6, 1, 12), (2, 3, 2), (6, 3, 23)]
    pairs = [(MorphismConfig(2, 1, 2, 2), 7), (MorphismConfig(1, 1, 6, 2), 57),
             (MorphismConfig(1, 3, 2, 2), 8)]
    unitaries = iter(random_unitaries(
        [(n, s) for _, n, s in frame_shapes] + [(src * l, s) for src, l, s in hom_shapes]
        + [draw for cfg, s in pairs for draw in cfg.draws(s)]
        + [(cfg.src_ambient, s) for cfg, s in pairs]))
    for d, n, s in frame_shapes:
        assert _same_frames(random_frame(d, n, s), unitary_frame(next(unitaries), d))
    for src, l, s in hom_shapes:
        h = random_hom(src, l, s)
        assert (h.src, h.dst) == (src, src * l)
        assert _same_frames(h.image_frame, unitary_frame(next(unitaries), src))
    for cfg, s in pairs:
        want, _ = c_morphism_of_unitaries(*[next(unitaries) for _ in range(3)], cfg.d1, cfg.d2)
        got, sub = random_c_morphism(cfg, s), random_d_morphism(cfg, s)
        assert all(_same_frames(x, y) for x, y in ((got.src_frame, want.src_frame),
                                                   (got.dst_frame, want.dst_frame),
                                                   (got.f.image_frame, want.f.image_frame),
                                                   (sub.f.image_frame, want.f.image_frame)))
        assert sub.a.basis.tobytes() == lambda_map(want.src_frame).basis.tobytes()
        assert sub.b.basis.tobytes() == lambda_map(want.dst_frame).basis.tobytes()
    for cfg, s in pairs:
        assert _same_frames(random_source_frame(cfg, s), unitary_frame(next(unitaries), cfg.d1))
    assert next(unitaries, None) is None


@pytest.mark.parametrize("make", [
    pytest.param(lambda: random_frame(0, 6, 1), id="frame degree 0"),
    pytest.param(lambda: random_frame(-2, 6, 1), id="frame degree -2"),
    pytest.param(lambda: random_frame(4, 6, 2), id="frame degree not dividing the ambient size"),
    pytest.param(lambda: random_hom(0, 3, 1), id="hom out of M_0"),
    pytest.param(lambda: MorphismConfig(2, 1, 3, 2).draws(2), id="completion degree 2 of 3"),
    pytest.param(lambda: MorphismConfig(2, 1, 2, 0).draws(2), id="completion degree 0"),
    pytest.param(lambda: random_c_morphism(MorphismConfig(2, 1, 3, 2), 2),
                 id="morphism with completion degree 2 of 3"),
])
def test_a_bad_shape_is_refused_before_any_draw(monkeypatch, make):
    def no_draw(*args, **kwargs):
        raise AssertionError("a unitary was drawn")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    monkeypatch.setattr(np.linalg, "qr", no_draw)
    with pytest.raises(ValueError, match="frame degree must divide ambient size|completion degree"):
        make()
