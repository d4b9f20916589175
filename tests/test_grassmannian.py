import numpy as np
import pytest

from frcalc.frames import frames_close, matrix_unit_frame, random_frame
from frcalc.grassmannian import (
    Subalgebra,
    centralizer,
    centralizer_tensor_check,
    closure_residual,
    commutation_defect,
    extract_frame,
    gr_map,
    is_k_subalgebra,
    lambda_map,
    relative_centralizer,
    span_subalgebra,
    tensor_subalgebra,
)
from frcalc.generators import MorphismConfig, random_d_morphism
from frcalc.homspace import basepoint_hom
from frcalc.linalg import max_abs, random_unitary, subspace_distance


def test_span_of_single_generator_closes():
    # one generic matrix generates the full algebra
    rng = np.random.default_rng(0)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = span_subalgebra([g], 3)
    assert alg.dim == 9
    assert closure_residual(alg) < 1e-10


def test_span_of_diagonal_matrix():
    g = np.diag([1.0, 2.0, 3.0])
    alg = span_subalgebra([g], 3)
    assert alg.dim == 3


def test_lambda_map_dimension():
    alg = lambda_map(random_frame(2, 6, 1))
    assert alg.dim == 4
    assert closure_residual(alg) < 1e-10


def test_centralizer_of_embedded_matrix_algebra():
    alg = lambda_map(random_frame(2, 6, 2))
    z = centralizer(alg)
    assert z.dim == 9
    assert commutation_defect(alg, z) < 1e-10


def test_centralizer_of_scalars_is_everything():
    alg = Subalgebra(3, ((np.eye(3) / np.sqrt(3)).astype(complex),))
    assert centralizer(alg).dim == 9


def test_double_centralizer_returns_original():
    alg = lambda_map(random_frame(3, 6, 3))
    zz = centralizer(centralizer(alg))
    assert zz.dim == alg.dim
    assert subspace_distance(list(zz.basis), list(alg.basis)) < 1e-10


def test_relative_centralizer_of_factor():
    # inside M_2 (x) M_3, the commutant of M_2 (x) 1 within the whole
    # algebra is 1 (x) M_3
    a_mats = [np.kron(e, np.eye(3)) for e in matrix_unit_frame(2, 1).as_list()]
    full = Subalgebra(6, tuple(np.eye(6)[:, [i]] @ np.eye(6)[[j], :]
                               for i in range(6) for j in range(6)))
    z = relative_centralizer(a_mats, full)
    assert z.dim == 9
    expected = [np.kron(np.eye(2), e) for e in matrix_unit_frame(3, 1).as_list()]
    assert subspace_distance(list(z.basis), expected) < 1e-10


def test_extract_frame_roundtrip():
    fr = random_frame(2, 6, 5)
    alg = lambda_map(fr)
    extracted = extract_frame(alg, 2)
    # same span, valid frame
    assert subspace_distance(extracted.as_list(), list(alg.basis)) < 1e-8
    from frcalc.frames import verify_frame
    assert verify_frame(extracted, ).max_error < 1e-9


def test_extract_frame_rejects_wrong_degree():
    alg = lambda_map(random_frame(2, 6, 6))
    with pytest.raises(ValueError, match="subalgebra"):
        extract_frame(alg, 3)


def test_is_k_subalgebra():
    assert is_k_subalgebra(lambda_map(random_frame(2, 6, 7)), 2)
    # a commutative 4-dim span is not an M_2
    diag = Subalgebra(4, tuple(np.diag(np.eye(4)[i]).astype(complex) for i in range(4)))
    assert not is_k_subalgebra(diag, 2)


def test_gr_map_with_basepoint_hom():
    # f : M_6 -> M_12, X -> X (x) E_2; A' = A = lambda(alpha) for a
    # 2-frame; the image span must contain f(A') and the centralizer
    # relation must commute with f(A).
    fr = random_frame(2, 6, 8)
    a = lambda_map(fr)
    f = basepoint_hom(6, 2)
    b = Subalgebra(12, tuple(np.eye(12)[:, [i]] @ np.eye(12)[[j], :]
                             for i in range(12) for j in range(12)))
    result = gr_map(f, a, a, b)
    # Gr(f)(A) = f(A) . Z_B(f(A)): here the full commutant construction
    from frcalc.homspace import ev
    images = [ev(f, x) for x in a.basis]
    q = subspace_distance(images, list(result.basis))
    # images are contained in the result span (one-sided containment)
    from frcalc.linalg import orthonormal_cols, DEFAULT_TOL
    cols = orthonormal_cols(list(result.basis), DEFAULT_TOL)
    proj = cols @ cols.conj().T
    for img in images:
        v = img.reshape(-1)
        assert float(np.max(np.abs(v - proj @ v))) < 1e-10


def test_gr_map_rejects_non_morphism():
    a = lambda_map(random_frame(2, 6, 9))
    small = lambda_map(random_frame(2, 12, 10))
    f = basepoint_hom(6, 2)
    with pytest.raises(ValueError, match="D-morphism"):
        gr_map(f, a, a, small)


def test_tensor_subalgebra_dim():
    a = lambda_map(random_frame(2, 2, 11))
    b = lambda_map(random_frame(3, 3, 12))
    assert tensor_subalgebra(a, b).dim == 36


def test_centralizer_tensor_identity():
    fm = random_d_morphism(MorphismConfig(2, 1, 2, 2), 13)
    gm = random_d_morphism(MorphismConfig(1, 1, 3, 1), 14)
    ok, dist = centralizer_tensor_check(fm.f, gm.f, fm.a, fm.b, gm.a, gm.b)
    assert ok and dist < 1e-10
