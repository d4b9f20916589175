import json
import math

import numpy as np
import pytest

from frcalc import serialize
from frcalc.abgroup import AbGroupPresentation, GroupHom
from frcalc.catverify import NerveChain
from frcalc.cli import VERBS, _flags
from frcalc.fredholm import DeskFredholm
from frcalc.frames import Frame, frames_close, pi1, pi2, random_frame
from frcalc.generators import random_fredholm
from frcalc.grassmannian import Subalgebra, lambda_map
from frcalc.homspace import StarHom, random_hom
from frcalc.linalg import max_abs, random_unitary
from frcalc.serialize import (
    CODECS,
    EXACT_KINDS,
    FormatError,
    _canonical_basis,
    _depth,
    decode,
    dump_json,
    frame_from_json,
    frame_to_json,
    fredholm_from_json,
    grouphom_from_json,
    group_from_json,
    group_to_json,
    hom_from_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    subalgebra_from_json,
    subalgebra_to_json,
)
from test_cli_golden import CASES, _working_dir, write_inputs


def _written(kind, payload, tmp_path):
    """``payload`` written by ``dump_json`` and read back by ``load_json``:
    the JSON value of its file."""
    path = str(tmp_path / f"{kind}.json")
    dump_json(kind, payload, path)
    return load_json(path, kind)


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    pairs = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    written = _written("matrix", m, tmp_path)
    assert max_abs(matrix_from_json(written) - m) == 0.0
    assert written["entries"] == pairs
    entries = matrix_to_json(m)["entries"]  # the encoder's tree holds the pairs as an array
    assert entries.dtype == np.float64 and entries.flags.c_contiguous
    assert entries.tolist() == pairs
    assert matrix_from_json(_written("matrix", np.zeros((0, 3)), tmp_path)).shape == (0, 3)


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


def test_frame_roundtrip(tmp_path):
    fr = random_frame(2, 4, 1)
    assert frames_close(frame_from_json(_written("frame", fr, tmp_path)), fr) == 0.0


def test_frame_rejects_wrong_count():
    payload = frame_to_json(random_frame(2, 4, 2))
    payload["mats"] = payload["mats"][:3]
    with pytest.raises(FormatError):
        decode("frame", payload)


def test_hom_roundtrip(tmp_path):
    h = random_hom(2, 3, 3)
    back = hom_from_json(_written("hom", h, tmp_path))
    assert back.src == 2 and back.dst == 6
    assert max_abs(back.image_frame.mats - h.image_frame.mats) == 0.0


def test_subalgebra_roundtrip(tmp_path):
    a = lambda_map(random_frame(2, 4, 4))
    back = subalgebra_from_json(_written("alg", a, tmp_path))
    assert back.ambient == 4 and back.dim == a.dim
    # The written basis is a function of the span: another orthonormal
    # basis of it, or the decoded one, is written the same way.
    w = random_unitary(a.dim, 5)
    rotated = Subalgebra(4, tuple(np.tensordot(w, np.array(a.basis), axes=1)))
    for other in (rotated, back):
        assert max_abs(np.array(subalgebra_from_json(_written("alg", other, tmp_path)).basis)
                       - np.array(back.basis)) < 1e-12


def test_fredholm_roundtrip(tmp_path):
    t = random_fredholm(2, 3, 2, 5)
    back = fredholm_from_json(_written("operator", t, tmp_path))
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


def _listed(obj):
    """A codec's tree with each array in it replaced by the list it
    stands for."""
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_listed(item) for item in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def _leaves(obj):
    """Every number of a JSON value, in key order."""
    if isinstance(obj, dict):
        return [x for key in sorted(obj) for x in _leaves(obj[key])]
    if isinstance(obj, list):
        return [x for item in obj for x in _leaves(item)]
    return [obj]


def _same_leaves(got, want):
    """Two parsed JSON values hold the same tree of leaves: the same
    types, values and signs of zero."""
    assert got == want
    got, want = _leaves(got), _leaves(want)
    assert [type(x) for x in got] == [type(x) for x in want]
    assert [math.copysign(1.0, x) for x in got if type(x) is float] == \
        [math.copysign(1.0, x) for x in want if type(x) is float]


def test_every_out_kind_is_covered():
    assert set(OUT_PAYLOADS) == {v.out for v in VERBS if v.out}


@pytest.mark.parametrize("kind", OUT_PAYLOADS)
def test_dump_json_roundtrips_exactly(kind, tmp_path):
    """A payload written by ``dump_json`` and read back through
    ``load_json`` gives the very numbers its codec gave in memory, in
    list form, and decodes to the same array."""
    path = str(tmp_path / "out.json")
    dump_json(kind, OUT_PAYLOADS[kind], path)
    written, encoded = load_json(path, kind), _listed(CODECS[kind][1](OUT_PAYLOADS[kind]))
    _same_leaves(written, encoded)
    if kind in ARRAY_OF:
        a, b = (ARRAY_OF[kind](decode(kind, obj)) for obj in (written, encoded))
        assert a.shape == b.shape and max_abs(a - b) == 0.0
    if kind == "group":
        assert decode(kind, written) == OUT_PAYLOADS[kind]


def _list_matrix(m):
    """A matrix's wire form with its entries as nested Python lists, as
    the encoders built it before they handed orjson float64 arrays."""
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "entries": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist()}


def _list_frame(fr):
    mats = fr.mats.reshape(-1, fr.ambient, fr.ambient)
    return {"d": fr.d, "ambient": fr.ambient, "mats": [_list_matrix(m) for m in mats]}


def _list_hom(h):
    return {"src": h.src, "dst": h.dst, "frame": _list_frame(h.image_frame)}


def _list_chain(c):
    return {"homs": [_list_hom(h) for h in c.homs]}


# kind -> the wire form of a payload, built one matrix at a time as lists
LIST_TREES = {
    "frame": _list_frame,
    "hom": _list_hom,
    "alg": lambda a: {"ambient": a.ambient, "basis": [_list_matrix(m) for m in _canonical_basis(a)]},
    "matrix": _list_matrix,
    "operator": lambda t: {"n": t.n, "win_dom": t.win_dom, "win_cod": t.win_cod,
                           "finite_part": _list_matrix(t.finite_part)},
    "chain": _list_chain,
    "fiber": lambda p: {"chain": _list_chain(p[0]), "fiber": _list_matrix(p[1])},
}
_F44 = random_frame(4, 4, 2)
_CHAIN = NerveChain((random_hom(1, 2, 5), random_hom(2, 2, 3)))
_ALG = lambda_map(random_frame(2, 4, 4))
# Payloads of every float kind: the edge values of EDGE, and matrices
# that are views whose memory is not in C order (a transpose, the
# canonical basis of a subalgebra) or that come out of a kernel.
BYTE_CASES = {
    "frame-edge": ("frame", _EDGE_HOM.image_frame),
    "frame-transposed": ("frame", Frame(1, 2, EDGE.T[None, None])),
    "frame-pi1": ("frame", pi1(_F44, 2)),
    "frame-pi2": ("frame", pi2(_F44, 2)),
    "hom-edge": ("hom", _EDGE_HOM),
    "hom-random": ("hom", random_hom(2, 2, 3)),
    "alg": ("alg", _ALG),
    "alg-empty": ("alg", Subalgebra(3, ())),
    "matrix-edge": ("matrix", EDGE),
    "matrix-transposed": ("matrix", EDGE.T),
    "matrix-empty": ("matrix", np.zeros((0, 3))),
    "operator-edge": ("operator", DeskFredholm(1, 2, 2, EDGE)),
    "chain-edge": ("chain", NerveChain((_EDGE_HOM,))),
    "chain-random": ("chain", _CHAIN),
    "fiber": ("fiber", (_CHAIN, EDGE.T)),
}


def test_byte_cases_cover_every_float_kind_and_strided_inputs():
    assert {kind for kind, _ in BYTE_CASES.values()} == set(OUT_PAYLOADS) - EXACT_KINDS
    assert not EDGE.T.flags.c_contiguous and not _canonical_basis(_ALG).flags.c_contiguous


@pytest.mark.parametrize("kind, payload", BYTE_CASES.values(), ids=BYTE_CASES)
def test_dump_json_writes_the_bytes_of_the_list_form(kind, payload, tmp_path):
    """Each float kind is written byte for byte as orjson writes its list
    form, the trees the encoders built before they held arrays; and a
    codec tree written under the stdlib kind ``json`` is written as the
    stdlib writes that list form."""
    path = tmp_path / "out.json"
    dump_json(kind, payload, str(path))
    fast = serialize.orjson
    want = fast.dumps(LIST_TREES[kind](payload), option=fast.OPT_SORT_KEYS | fast.OPT_APPEND_NEWLINE)
    assert path.read_bytes() == want
    dump_json("json", CODECS[kind][1](payload), str(path))
    assert path.read_text() == json.dumps(LIST_TREES[kind](payload), sort_keys=True) + "\n"


@pytest.mark.parametrize("x", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_batch_encoders_refuse_a_non_finite_entry_in_any_matrix(x):
    """A frame or a subalgebra basis with a non-finite entry in any one
    of its matrices has no JSON form.  A subalgebra's basis is checked
    before the SVD that takes its canonical basis: on an inf that SVD
    does not return."""
    fr, alg = random_frame(2, 4, 1), lambda_map(random_frame(2, 4, 2))
    for k in range(4):
        mats, basis = fr.mats.copy(), [m.copy() for m in alg.basis]
        mats[k // 2, k % 2, 1, 0] = x
        basis[k][1, 0] = x
        with pytest.raises(ValueError, match="non-finite"):
            frame_to_json(Frame(2, 4, mats))
        with pytest.raises(ValueError, match="non-finite"):
            subalgebra_to_json(Subalgebra(4, tuple(basis)))


def _golden_inputs():
    """(file name, kind) of every JSON input of the golden CLI calls."""
    for case in CASES:
        verb = next(v for v in VERBS if f"{case} ".startswith(f"{v.name} "))
        kinds = {flag: kind for flag, kind, _, _ in _flags(verb.flags)}
        argv = case.split()
        yield from ((name, kinds[flag]) for flag, name in zip(argv, argv[1:])
                    if name.endswith(".json") and flag != "--out")


def test_float_kinds_read_the_golden_inputs_as_the_stdlib_does(tmp_path):
    """Every float kind's golden input, read by ``load_json`` through
    orjson, gives the leaves the stdlib reader gives."""
    with _working_dir(tmp_path):
        write_inputs()
    read = set()
    for name, kind in sorted(set(_golden_inputs())):
        if kind not in EXACT_KINDS:
            path = tmp_path / name
            _same_leaves(load_json(str(path), kind), json.loads(path.read_text()))
            read.add(kind)
    assert read == {kind for kind, (from_json, _) in CODECS.items() if from_json} - EXACT_KINDS


def test_orjson_reads_extreme_doubles_as_the_stdlib_does(tmp_path):
    """Doubles at the ends of the range, signed zeros, and random bit
    patterns, each spelled three ways, read back as the stdlib reads them."""
    bits = np.random.default_rng(5).integers(0, 2 ** 64, 4000, dtype=np.uint64)
    rand = bits.view(np.float64)
    values = [5e-324, -5e-324, -0.0, 0.0, 1e16, 1e-5, 1.7976931348623157e308,
              -1.7976931348623157e308, 2.2250738585072014e-308, *rand[np.isfinite(rand)][:3000]]
    path = tmp_path / "doubles.json"
    for spell in (repr, "{:.17g}".format, "{:.16e}".format):
        pairs = ", ".join(f"[{spell(float(x))}, {spell(float(-x))}]" for x in values)
        path.write_text(f'{{"rows": 1, "cols": {len(values)}, "entries": [{pairs}]}}')
        _same_leaves(load_json(str(path), "matrix"), json.loads(path.read_text()))


def test_float_kinds_read_a_huge_integer_entry_as_the_nearest_double(tmp_path):
    """orjson reads an int outside [-2^63, 2^64) as a float, so a matrix
    entry 2**70 in a float-kind file decodes to the nearest double; the
    integer kinds keep it exact."""
    path = tmp_path / "m.json"
    path.write_text(f'{{"rows": 1, "cols": 1, "entries": [[{2 ** 70}, 0]]}}')
    assert decode("matrix", load_json(str(path), "matrix"))[0, 0] == float(2 ** 70)
    path.write_text(f'{{"note": "a\\n\\"b\\\\", "rows": 1, "cols": 1, "entries": [[{2 ** 70}, 0]]}}')
    assert decode("matrix", load_json(str(path), "matrix"))[0, 0] == float(2 ** 70)
    path.write_text(f"[[{2 ** 70}]]")
    assert decode("ints", load_json(str(path), "ints")) == [[2 ** 70]]


def _nesting(obj):
    if isinstance(obj, dict):
        return 1 + max(map(_nesting, obj.values()), default=0)
    if isinstance(obj, list):
        return 1 + max(map(_nesting, obj), default=0)
    return 0


def test_depth_skips_strings_with_escaped_quotes_and_backslashes():
    """``_depth`` counts only the brackets outside strings, whatever
    escaped quotes, backslashes and brackets the strings hold."""
    rng = np.random.default_rng(11)
    alphabet = ['"', "\\", "[", "]", "{", "}", "a", "\n", "\u00e9"]

    def text():
        return "".join(rng.choice(alphabet, rng.integers(0, 6)))

    def value(depth):
        if depth == 0 or rng.random() < 0.3:
            return text() if rng.random() < 0.5 else 1.5
        items = [value(depth - 1) for _ in range(rng.integers(0, 3))]
        return {text(): v for v in items} if rng.random() < 0.5 else items

    for _ in range(300):
        obj = value(int(rng.integers(0, 7)))
        data = json.dumps(obj, ensure_ascii=bool(rng.integers(2))).encode()
        assert _depth(data) == _nesting(obj), data


_PAIR = [1.0, 0.0]
_BAD_PAIRS = [[1.0], [1.0, 0.0, 0.0], ["1.0", 0.0], {"re": 1.0, "im": 0.0},
              [[1.0, 0.0], [0.0, 0.0]], [math.nan, 0.0], [math.inf, 0.0], [None, 0.0], "10", 1.0]


@pytest.mark.parametrize("entries", [[_PAIR] * 3 + [pair] for pair in _BAD_PAIRS] +
                         [[_PAIR] * 3, [_PAIR] * 5, [_PAIR, _PAIR, [1.0, 0.0, 0.0], [1.0]]])
def test_frame_decode_rejects_bad_entries_in_any_matrix(entries):
    """Bad [re, im] entries in the last matrix of a frame, whose matrices
    are decoded together, are a format error: a bad pair, too few or too
    many pairs, or pairs whose lengths make up the count between them."""
    good = {"rows": 2, "cols": 2, "entries": [_PAIR] * 4}
    bad = {"rows": 2, "cols": 2, "entries": entries}
    with pytest.raises(FormatError):
        decode("frame", {"d": 2, "ambient": 2, "mats": [good] * 3 + [bad]})


def test_frame_decode_rejects_a_matrix_of_another_size():
    one = {"rows": 1, "cols": 1, "entries": [_PAIR]}
    two = {"rows": 1, "cols": 2, "entries": [_PAIR, _PAIR]}
    with pytest.raises(FormatError, match="a matrix must be 1x1, not 1x2"):
        decode("frame", {"d": 2, "ambient": 1, "mats": [one] * 3 + [two]})
    with pytest.raises(FormatError):
        decode("alg", {"ambient": 1, "basis": [one, two]})
