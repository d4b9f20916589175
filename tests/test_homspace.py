import numpy as np
import pytest

from frcalc.frames import Frame, matrix_unit_frame, random_frame
from frcalc.homspace import (
    StarHom,
    basepoint_hom,
    block_scalar_deviation,
    compose_phi,
    compose_plain,
    ev,
    identity_hom,
    intertwiner,
    intertwiner_residual,
    iota,
    push_frame,
    random_hom,
    tensor_hom,
)
from frcalc.linalg import DEFAULT_TOL, max_abs, random_unitary


def test_ev_matches_manual_sum():
    h = random_hom(2, 3, 1)
    t = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]])
    manual = sum(t[i, j] * h.image_frame.mats[i, j]
                 for i in range(2) for j in range(2))
    assert max_abs(ev(h, t) - manual) < 1e-15


def test_ev_of_one_matrix_is_ev_of_its_one_matrix_stack():
    h = random_hom(6, 3, 5)
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.array_equal(ev(h, t), ev(h, t[None])[0])
    assert np.array_equal(ev(h, t.real), ev(h, t.real.astype(complex)))


def test_ev_of_a_stack_is_ev_of_each_matrix():
    h = random_hom(2, 3, 2)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 5, 2, 2)) + 1j * rng.standard_normal((4, 5, 2, 2))
    each = np.array([[ev(h, x) for x in row] for row in stack])
    assert ev(h, stack).shape == (4, 5, 6, 6)
    assert max_abs(ev(h, stack) - each) < 1e-15
    with pytest.raises(ValueError, match="2x2"):
        ev(h, np.ones(4))


def test_ev_is_multiplicative_and_unital():
    h = random_hom(3, 2, 2)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(ev(h, x @ y) - ev(h, x) @ ev(h, y)) < 1e-12
    assert max_abs(ev(h, np.eye(3)) - np.eye(6)) < 1e-12


def test_basepoint_hom_is_block_embedding():
    h = basepoint_hom(2, 2)
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs(ev(h, x) - np.kron(x, np.eye(2))) == 0.0


def test_iota_matches_kron_oracle():
    h = random_hom(2, 2, 3)
    lifted = iota(h, 3)
    assert lifted.src == 6 and lifted.dst == 12
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    # iota(h)(x (x) y) = h(x) (x) y, checked through ev
    assert max_abs(ev(lifted, np.kron(x, y)) - np.kron(ev(h, x), y)) < 1e-12


def test_compose_plain_with_identity():
    h = random_hom(2, 3, 4)
    assert max_abs(compose_plain(h, identity_hom(2)).image_frame.mats
                   - h.image_frame.mats) == 0.0
    assert max_abs(compose_plain(identity_hom(6), h).image_frame.mats
                   - h.image_frame.mats) == 0.0


def test_compose_phi_evaluates_stepwise():
    h1 = random_hom(2, 3, 5)
    h2 = random_hom(2, 3, 6)
    t = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    composed = compose_phi(h2, h1)
    assert composed.src == 2 and composed.dst == 18
    stepped = ev(iota(h2, 3), ev(h1, t))
    assert max_abs(ev(composed, t) - stepped) < 1e-12


def test_tensor_hom_on_simple_tensors():
    h1 = random_hom(2, 2, 7)
    h2 = random_hom(2, 1, 8)
    big = tensor_hom(h1, h2)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert max_abs(ev(big, np.kron(x, y)) - np.kron(ev(h1, x), ev(h2, y))) < 1e-12


def test_push_frame_preserves_axioms():
    from frcalc.frames import verify_frame

    h = random_hom(4, 2, 9)
    fr = random_frame(2, 4, 10)
    pushed = push_frame(h, fr)
    assert verify_frame(pushed).max_error <= DEFAULT_TOL.bound("frame_axioms")


def test_push_and_compose_keep_an_exact_integer_frame_exact():
    """An object array of Python ints goes through ``ev``'s product as it
    is: the entries, about 1e41, come out as exact ints."""
    mats = np.arange(16).reshape(2, 2, 2, 2).astype(object) * 10**20
    fr = Frame(2, 2, mats)
    h = StarHom(2, 2, fr)
    want = [[[[sum(mats[i, j, u, v] * mats[u, v, a, b] for u in range(2) for v in range(2))
               for b in range(2)] for a in range(2)] for j in range(2)] for i in range(2)]
    for got in (push_frame(h, fr).mats, compose_plain(h, h).image_frame.mats):
        assert got.dtype == object and all(type(x) is int for x in got.flat)
        assert got.tolist() == want


def test_intertwiner_recovers_conjugator_coset():
    # build h = Ad_v(basepoint); the computed intertwiner must agree
    # with v up to the commutant block scalar.
    v = random_unitary(6, 11)
    h = StarHom(2, 6, Frame(2, 6, np.einsum(
        "ab,ijbc,dc->ijad", v, matrix_unit_frame(2, 3).mats, v.conj())))
    u = intertwiner(h)
    assert intertwiner_residual(h, u) < 1e-12
    assert block_scalar_deviation(v.conj().T @ u, 2, 3) < 1e-10


def test_intertwiner_on_basepoint_is_identity_up_to_phase():
    h = basepoint_hom(3, 2)
    u = intertwiner(h)
    assert intertwiner_residual(h, u) < 1e-12


@pytest.mark.parametrize("k, l", [(2, 2), (2, 3), (3, 2)])
def test_intertwiner_is_continuous_in_the_hom(k, l, monkeypatch):
    """A 1e-16 change of the image frame moves U by rounding, not by a new
    choice of basis inside the degenerate range of h(e_11); no SVD runs."""
    svd, svds = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(a) or svd(*a, **kw))
    rng = np.random.default_rng(0)
    for seed in range(10):
        h = random_hom(k, l, seed)
        m = h.image_frame.mats
        noise = 1e-16 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        moved = StarHom(k, k * l, Frame(k, k * l, m + noise))
        assert max_abs(intertwiner(moved) - intertwiner(h)) < 1e-12
    assert svds == []


def test_intertwiner_rejects_non_hom():
    bad = StarHom.__new__(StarHom)
    object.__setattr__(bad, "src", 2)
    object.__setattr__(bad, "dst", 6)
    object.__setattr__(bad, "image_frame", Frame(2, 6, 0.3 * matrix_unit_frame(2, 3).mats))
    with pytest.raises(ValueError, match="homomorphism"):
        intertwiner(bad)


def test_block_scalar_deviation_detects_off_diagonal():
    w = np.kron(np.eye(2), random_unitary(3, 12))
    assert block_scalar_deviation(w, 2, 3) == 0.0
    w2 = random_unitary(6, 13)
    assert block_scalar_deviation(w2, 2, 3) > 1e-2

