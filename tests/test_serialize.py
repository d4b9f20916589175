import math

import numpy as np
import pytest

from frcalc.abgroup import AbGroupPresentation, GroupHom
from frcalc.catverify import NerveChain
from frcalc.cli import VERBS
from frcalc.fredholm import DeskFredholm
from frcalc.frames import Frame, frames_close, random_frame
from frcalc.generators import random_fredholm
from frcalc.grassmannian import Subalgebra, lambda_map
from frcalc.homspace import StarHom, random_hom
from frcalc.linalg import max_abs, random_unitary
from frcalc.serialize import (
    CODECS,
    FormatError,
    decode,
    dump_json,
    frame_from_json,
    frame_to_json,
    fredholm_from_json,
    fredholm_to_json,
    grouphom_from_json,
    group_from_json,
    group_to_json,
    hom_from_json,
    hom_to_json,
    load_json,
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


def test_matrix_to_json_refuses_non_finite_entries():
    for x in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 0.0)):
        m = np.eye(2, dtype=complex)
        m[1, 0] = x
        with pytest.raises(ValueError, match="non-finite"):
            matrix_to_json(m)


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
            decode("matrix", payload)


def test_frame_roundtrip():
    fr = random_frame(2, 4, 1)
    assert frames_close(frame_from_json(frame_to_json(fr)), fr) == 0.0


def test_frame_rejects_wrong_count():
    payload = frame_to_json(random_frame(2, 4, 2))
    payload["mats"] = payload["mats"][:3]
    with pytest.raises(FormatError):
        decode("frame", payload)


def test_hom_roundtrip():
    h = random_hom(2, 3, 3)
    back = hom_from_json(hom_to_json(h))
    assert back.src == 2 and back.dst == 6
    assert max_abs(back.image_frame.mats - h.image_frame.mats) == 0.0


def test_subalgebra_roundtrip():
    a = lambda_map(random_frame(2, 4, 4))
    back = subalgebra_from_json(subalgebra_to_json(a))
    assert back.ambient == 4 and back.dim == a.dim
    # The written basis is a function of the span: another orthonormal
    # basis of it, or the decoded one, is written the same way.
    w = random_unitary(a.dim, 5)
    rotated = Subalgebra(4, tuple(np.tensordot(w, np.array(a.basis), axes=1)))
    for other in (rotated, back):
        assert max_abs(np.array(subalgebra_from_json(subalgebra_to_json(other)).basis)
                       - np.array(back.basis)) < 1e-12


def test_fredholm_roundtrip():
    t = random_fredholm(2, 3, 2, 5)
    back = fredholm_from_json(fredholm_to_json(t))
    assert (back.n, back.win_dom, back.win_cod) == (2, 3, 2)
    assert max_abs(back.finite_part - t.finite_part) == 0.0


def test_group_and_hom_roundtrip():
    g = AbGroupPresentation.from_rows(2, [[2, 0], [0, 6]])
    assert group_from_json(group_to_json(g)) == g
    f = GroupHom.from_rows(g, g, [[1, 0], [0, 3]])
    back = grouphom_from_json({"src": group_to_json(g), "dst": group_to_json(g),
                               "matrix": [[1, 0], [0, 3]]})
    assert back.matrix == f.matrix and back.src == g


# Floats whose shortest round-trip digits the two writers spell differently
# (1e-05 and 0.00001) or that sit at the ends of the double range.
EDGE = np.array([[complex(-0.0, 5e-324), complex(1e-5, 1e16)],
                 [complex(1.7976931348623157e308, -1e-5), complex(0.1, -0.0)]])
_EDGE_HOM = StarHom(1, 2, Frame(1, 2, EDGE.reshape(1, 1, 2, 2)))
OUT_PAYLOADS = {
    "frame": _EDGE_HOM.image_frame,
    "hom": _EDGE_HOM,
    "alg": lambda_map(random_frame(2, 4, 4)),
    "matrix": EDGE,
    "operator": DeskFredholm(1, 2, 2, EDGE),
    "group": AbGroupPresentation.from_rows(2, [[2 ** 70, 3], [0, -(2 ** 64)]]),
    "chain": NerveChain((_EDGE_HOM,)),
    "fiber": (NerveChain((_EDGE_HOM,)), EDGE),
    "json": {"u": [[2 ** 70, -1]], "x": [-0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308]},
}
# kind -> the complex array of a decoded payload
ARRAY_OF = {
    "frame": lambda fr: fr.mats,
    "hom": lambda h: h.image_frame.mats,
    "alg": lambda a: np.array(a.basis),
    "matrix": lambda m: m,
    "operator": lambda t: t.finite_part,
    "chain": lambda c: np.array([h.image_frame.mats for h in c.homs]),
}


def _leaves(obj):
    """Every number of a JSON value, in key order."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _leaves(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _leaves(item)]
    return [obj]


def test_every_out_kind_is_covered():
    assert set(OUT_PAYLOADS) == {v.out for v in VERBS if v.out}


@pytest.mark.parametrize("kind", OUT_PAYLOADS)
def test_dump_json_roundtrips_exactly(kind, tmp_path):
    """A payload written by ``dump_json`` and read back through
    ``load_json`` gives the very numbers its codec gave in memory, and
    decodes to the same array."""
    path = str(tmp_path / "out.json")
    dump_json(kind, OUT_PAYLOADS[kind], path)
    written, encoded = load_json(path), CODECS[kind][1](OUT_PAYLOADS[kind])
    got, want = _leaves(written), _leaves(encoded)
    assert [type(x) for x in got] == [type(x) for x in want] and got == want
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
    if kind in ARRAY_OF:
        a, b = (ARRAY_OF[kind](decode(kind, obj)) for obj in (written, encoded))
        assert a.shape == b.shape and max_abs(a - b) == 0.0
    if kind == "group":
        assert decode(kind, written) == OUT_PAYLOADS[kind]
