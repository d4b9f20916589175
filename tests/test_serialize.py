import numpy as np
import pytest

from frcalc.abgroup import AbGroupPresentation, GroupHom
from frcalc.frames import frames_close, random_frame
from frcalc.generators import random_fredholm
from frcalc.grassmannian import lambda_map
from frcalc.homspace import random_hom
from frcalc.linalg import max_abs
from frcalc.serialize import (
    FormatError,
    frame_from_json,
    frame_to_json,
    fredholm_from_json,
    fredholm_to_json,
    grouphom_from_json,
    grouphom_to_json,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    matrix_from_json,
    matrix_to_json,
    subalgebra_from_json,
    subalgebra_to_json,
)


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    assert max_abs(matrix_from_json(matrix_to_json(m)) - m) == 0.0
    assert matrix_to_json(m)["entries"] == [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    assert matrix_from_json(matrix_to_json(np.zeros((0, 3)))).shape == (0, 3)


def test_matrix_rejects_bad_payloads():
    for payload in (
        {"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]},
        {"rows": 1, "cols": 1, "entries": [[float("nan"), 0.0]]},
        ["not", "a", "matrix"],
        {"rows": -1, "cols": -1, "entries": [[1.0, 0.0]]},
        {"rows": 1, "cols": 2, "entries": [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
        {"rows": 1, "cols": 1, "entries": [["1", "0"]]},
        {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [1.0]]},
    ):
        with pytest.raises(FormatError):
            matrix_from_json(payload)


def test_frame_roundtrip():
    fr = random_frame(2, 4, 1)
    assert frames_close(frame_from_json(frame_to_json(fr)), fr) == 0.0


def test_frame_rejects_wrong_count():
    payload = frame_to_json(random_frame(2, 4, 2))
    payload["mats"] = payload["mats"][:3]
    with pytest.raises(FormatError):
        frame_from_json(payload)


def test_hom_roundtrip():
    h = random_hom(2, 3, 3)
    back = hom_from_json(hom_to_json(h))
    assert back.src == 2 and back.dst == 6
    assert max_abs(back.image_frame.mats - h.image_frame.mats) == 0.0


def test_subalgebra_roundtrip():
    a = lambda_map(random_frame(2, 4, 4))
    back = subalgebra_from_json(subalgebra_to_json(a))
    assert back.ambient == 4 and back.dim == a.dim


def test_fredholm_roundtrip():
    t = random_fredholm(2, 3, 2, 5)
    back = fredholm_from_json(fredholm_to_json(t))
    assert (back.n, back.win_dom, back.win_cod) == (2, 3, 2)
    assert max_abs(back.finite_part - t.finite_part) == 0.0


def test_group_and_hom_roundtrip():
    g = AbGroupPresentation.from_rows(2, [[2, 0], [0, 6]])
    assert group_from_json(group_to_json(g)) == g
    f = GroupHom.from_rows(g, g, [[1, 0], [0, 3]])
    back = grouphom_from_json(grouphom_to_json(f))
    assert back.matrix == f.matrix and back.src == g
