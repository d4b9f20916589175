"""JSON wire formats for every domain type, and the one decode boundary.

Matrices: {"rows": N, "cols": M, "entries": [[re, im], ...]} row-major.
Composite types carry their fields verbatim; see each codec, except
that a subalgebra is written in a canonical basis of its span,
``_canonical_basis``, picked by ``linalg``'s one rule, ``positive_qr``.

``CODECS`` maps each kind to its (decode, encode) pair.  The codecs hold
no error handling: ``decode(kind, obj)`` is the only place that turns an
error raised on a malformed payload into ``FormatError``.

``load_json(path, kind)`` reads a file and ``dump_json(kind, payload,
path)`` writes one; both pick their engine by one rule.  Payloads of
the kinds in ``EXACT_KINDS`` (the abelian-group kinds and the identity
kind ``json``) may hold Python ints of any size and are read and
written by the stdlib ``json``, which keeps every int exact.  All
other payloads are floats and small ints, read and written by orjson:
it spells each float as the shortest digits that read back to it and
reads them back to the same double, several times faster (Ryu), but
it reads an int outside [-2^63, 2^64) as a float and cannot write one.
orjson has no nesting limit of its own and overflows the C stack on a
deeply nested file, so ``load_json`` rejects a file nested deeper than
``MAX_DEPTH`` before orjson sees it (the stdlib reader's recursion limit
stops a deep file of the exact kinds).

The float encoders do not build lists of numbers: each matrix's
entries stand in the tree they return as a C-contiguous float64 array
of shape (rows*cols, 2), its [re, im] pairs.  The matrices of a frame
or a subalgebra basis become such arrays together, by one copy of their
stack and one finiteness check; a matrix with a non-finite entry has no
JSON form, so the encoders refuse it (a subalgebra's own basis is
checked too, before the SVD that takes its canonical basis, which may
never return on an inf).  ``dump_json`` is the only writer
of these trees: orjson writes each array as the list it stands for,
with the digits it gives a list of the same Python floats, and the
stdlib path turns every array into that list first.  On the way back
the matrices of a frame or a subalgebra basis are decoded together, by
one numpy conversion of all their [re, im] pairs.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np
import orjson

from .frames import Frame
from .homspace import StarHom
from .grassmannian import Subalgebra
from .fredholm import DeskFredholm
from .abgroup import AbGroupPresentation, GroupHom
from .catverify import NerveChain
from .linalg import DEFAULT_TOL, generic_coefficients, orthonormal_cols, positive_qr

# Seed of the fixed reference matrix that picks the canonical basis.
_CANONICAL_SEED = 0xBA515
_NON_FINITE = "a matrix with a non-finite entry has no JSON form"


class FormatError(ValueError):
    """Malformed JSON payload for one of the wire formats."""


def _int(x, least=None, name="an integer entry"):
    """x, which must be a JSON integer of at least ``least``."""
    if type(x) is not int or (least is not None and x < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be a JSON integer{bound}, not {x!r:.40}")
    return x


def _list(x, name, least=0):
    """x, which must be a JSON list of at least ``least`` items."""
    if not isinstance(x, list) or len(x) < least:
        bound = f" of at least {least} items" if least else ""
        raise ValueError(f"{name} must be a JSON list{bound}, not {x!r:.40}")
    return x


def _int_rows(x, name="an integer matrix"):
    """A rectangular JSON list of rows of integers."""
    rows = [[_int(v) for v in _list(row, "a row")] for row in _list(x, name)]
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"{name} is ragged: its rows differ in length")
    return rows


def _matrices_to_json(ms) -> list:
    """The JSON matrices of a stack ``ms`` of equal-size complex matrices.
    Their entries are one copy of the stack in C order, viewed as float64:
    a complex128 array holds each entry as its real and imaginary parts
    side by side, so matrix k's [re, im] pairs are the C-contiguous
    (rows*cols, 2) block k of the view, which orjson writes as the list
    it stands for (it refuses an array that is not C-contiguous)."""
    ms = np.array(ms, dtype=complex, order="C")
    if not np.isfinite(ms).all():
        raise ValueError(_NON_FINITE)
    count, rows, cols = ms.shape
    pairs = ms.view(np.float64).reshape(count, rows * cols, 2)
    return [{"rows": rows, "cols": cols, "entries": entries} for entries in pairs]


def matrix_to_json(m: np.ndarray) -> dict:
    return _matrices_to_json([m])[0]


def _matrices_from_json(objs, rows: int, cols: int) -> np.ndarray:
    """The JSON matrices ``objs``, each of which must be rows x cols, as one
    complex array of shape (len(objs), rows, cols).  Their pairs go to
    numpy as one flat list of numbers, which it converts about twice as
    fast as one nested list per matrix."""
    for obj in objs:
        size = _int(obj["rows"], 0, "rows"), _int(obj["cols"], 0, "cols")
        if size != (rows, cols):
            raise ValueError(f"a matrix must be {rows}x{cols}, not {size[0]}x{size[1]}")
    pairs = list(chain.from_iterable([_list(obj["entries"], "entries") for obj in objs]))
    numbers = np.array(list(chain.from_iterable(pairs)))
    if (len(pairs) != len(objs) * rows * cols or not set(map(len, pairs)) <= {2}
            or numbers.shape != (2 * len(pairs),) or numbers.dtype.kind not in "iuf"
            or not np.all(np.isfinite(numbers))):
        raise ValueError("entries must be rows*cols [re, im] pairs of finite numbers")
    pairs = numbers.reshape(-1, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(len(objs), rows, cols)


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = _int(obj["rows"], 0, "rows"), _int(obj["cols"], 0, "cols")
    return _matrices_from_json([obj], rows, cols)[0]


def frame_to_json(fr: Frame) -> dict:
    return {
        "d": fr.d,
        "ambient": fr.ambient,
        "mats": _matrices_to_json(fr.mats.reshape(-1, fr.ambient, fr.ambient)),
    }


def frame_from_json(obj) -> Frame:
    d, ambient = _int(obj["d"], 1, "d"), _int(obj["ambient"], 1, "ambient")
    mats = _list(obj["mats"], "mats")
    if len(mats) != d * d:
        raise ValueError(f"a frame must hold d^2 = {d * d} matrices of size {ambient}x{ambient}")
    return Frame(d, ambient, _matrices_from_json(mats, ambient, ambient).reshape(
        d, d, ambient, ambient))


def hom_to_json(h: StarHom) -> dict:
    return {"src": h.src, "dst": h.dst, "frame": frame_to_json(h.image_frame)}


def hom_from_json(obj) -> StarHom:
    return StarHom(_int(obj["src"], 1, "src"), _int(obj["dst"], 1, "dst"),
                   frame_from_json(obj["frame"]))


def _canonical_basis(a: Subalgebra) -> np.ndarray:
    """``positive_qr`` of P R_ref, as a (dim, n, n) stack: P projects onto
    the span and R_ref is the real part of the cached n^2 dim
    ``generic_coefficients`` of ``_CANONICAL_SEED``, so the basis is a
    function of the span alone.  The stack is a view of Q's transpose."""
    n = a.ambient
    q0 = orthonormal_cols(a.basis, DEFAULT_TOL)
    dim = q0.shape[1]
    ref = generic_coefficients(n * n * dim, _CANONICAL_SEED).real.reshape(n * n, dim)
    return positive_qr(q0 @ (q0.conj().T @ ref)).T.reshape(-1, n, n)


def subalgebra_to_json(a: Subalgebra) -> dict:
    """Writes the subalgebra in its canonical basis."""
    return {"ambient": a.ambient, "basis": _matrices_to_json(_canonical_basis(a))}


def subalgebra_from_json(obj) -> Subalgebra:
    ambient = _int(obj["ambient"], 1, "ambient")
    return Subalgebra(ambient, _matrices_from_json(_list(obj["basis"], "basis"), ambient, ambient))


def fredholm_to_json(t: DeskFredholm) -> dict:
    return {
        "n": t.n,
        "win_dom": t.win_dom,
        "win_cod": t.win_cod,
        "finite_part": matrix_to_json(t.finite_part),
    }


def fredholm_from_json(obj) -> DeskFredholm:
    return DeskFredholm(_int(obj["n"], 1, "n"), _int(obj["win_dom"], 0, "win_dom"),
                        _int(obj["win_cod"], 0, "win_cod"), matrix_from_json(obj["finite_part"]))


def group_to_json(g: AbGroupPresentation) -> dict:
    return {"gens": g.gens, "rels": [list(r) for r in g.rels]}


def group_from_json(obj) -> AbGroupPresentation:
    return AbGroupPresentation.from_rows(_int(obj["gens"], 0, "gens"),
                                         _int_rows(obj["rels"], "rels"))


def grouphom_from_json(obj) -> GroupHom:
    return GroupHom.from_rows(group_from_json(obj["src"]), group_from_json(obj["dst"]),
                              _int_rows(obj["matrix"], "matrix"))


def colimit_from_json(obj):
    """The groups of a chain and the maps between consecutive ones."""
    groups = [group_from_json(g) for g in _list(obj["groups"], "groups")]
    maps = _list(obj["maps"], "maps")
    if len(maps) != len(groups) - 1:
        raise ValueError("a colimit chain needs one map between each pair of groups")
    return groups, [GroupHom.from_rows(groups[i], groups[i + 1], _int_rows(rows, "a map"))
                    for i, rows in enumerate(maps)]


def chain_to_json(chain: NerveChain) -> dict:
    return {"homs": [hom_to_json(h) for h in chain.homs]}


def chain_from_json(obj) -> NerveChain:
    return NerveChain(tuple(hom_from_json(h) for h in _list(obj["homs"], "homs")))


def bundle_from_json(obj):
    """(hom, source frame, target frame) of f and of g, then alpha' and
    phi'; the frame condition of f and g is left to the caller."""
    f, g = ((hom_from_json(obj[k]["hom"]), frame_from_json(obj[k]["src_frame"]),
             frame_from_json(obj[k]["dst_frame"])) for k in "fg")
    return f, g, frame_from_json(obj["alpha_prime"]), frame_from_json(obj["phi_prime"])


# kind -> (decode a parsed JSON payload, encode a result as one)
CODECS = {
    "frame": (frame_from_json, frame_to_json),
    "hom": (hom_from_json, hom_to_json),
    "alg": (subalgebra_from_json, subalgebra_to_json),
    "matrix": (matrix_from_json, matrix_to_json),
    "operator": (fredholm_from_json, fredholm_to_json),
    "operators": (lambda obj: [fredholm_from_json(o) for o in _list(obj, "operators", 1)], None),
    "group": (group_from_json, group_to_json),
    "grouphom": (grouphom_from_json, None),
    "ints": (_int_rows, None),
    "chain": (chain_from_json, chain_to_json),
    "fiber": (None, lambda p: {"chain": chain_to_json(p[0]), "fiber": matrix_to_json(p[1])}),
    "bundle": (bundle_from_json, None),
    "colimit": (colimit_from_json, None),
    "json": (None, lambda obj: obj),
}

# Kinds whose payloads may hold ints beyond 64 bits, read and written by
# the stdlib: integer matrices, groups, group homs, colimit chains, and
# the identity kind (``ab snf``'s U, D and V).
EXACT_KINDS = frozenset({"ints", "group", "grouphom", "colimit", "json"})

# Deepest nesting of a file read by orjson; the deepest wire formats,
# ``bundle`` and ``chain``, nest 8 deep.
MAX_DEPTH = 32
_NOT_MARKS = bytes(sorted(set(range(256)) - set(b'[]{}"')))
_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")  # +1 and -1 as int8


def _depth(data: bytes) -> int:
    """Deepest nesting of arrays and objects outside strings.  Escaped
    backslashes and then escaped quotes are dropped first, so that the
    quotes left cut the text into pieces that lie outside and inside
    strings in turn.  A parser of the text nests no deeper before it
    meets an error."""
    if b"\\" in data:  # one memchr; the replaces would double the check
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = data.translate(None, _NOT_MARKS)
    outside = b"".join(marks.split(b'"')[::2])
    return int(np.frombuffer(outside.translate(_STEPS), np.int8).cumsum().max(initial=0))


def decode(kind: str, obj):
    """``obj`` decoded by the codec of ``kind``; whatever the codec raises
    on a malformed payload becomes one ``FormatError``."""
    from_json = CODECS[kind][0]
    try:
        return from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind} payload: {type(exc).__name__}: {exc}") from exc


def load_json(path: str, kind: str):
    """The JSON value in the file at ``path``, read by the engine of
    ``kind``; a file that cannot be read, is not UTF-8, is not JSON or
    is nested too deep becomes one ``FormatError``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if kind in EXACT_KINDS:
            return json.loads(data.decode())
        if _depth(data) > MAX_DEPTH:
            raise ValueError(f"nested deeper than {MAX_DEPTH}")
        return orjson.loads(data)
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def dump_json(kind: str, payload, path: str):
    """Write ``payload`` encoded by the codec of ``kind`` to ``path``; the
    payload is encoded in full before the file is opened."""
    obj = CODECS[kind][1](payload)
    if kind in EXACT_KINDS:
        data = (json.dumps(obj, sort_keys=True, default=np.ndarray.tolist) + "\n").encode()
    else:
        data = orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                            | orjson.OPT_SERIALIZE_NUMPY)
    with open(path, "wb") as fh:
        fh.write(data)
