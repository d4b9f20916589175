"""JSON wire formats for every domain type, and the one decode boundary.

Matrices: {"rows": N, "cols": M, "entries": [[re, im], ...]} row-major.
Composite types carry their fields verbatim; see each codec, except
that a subalgebra is written in a canonical basis of its span.

``CODECS`` maps each kind to its (decode, encode) pair.  The codecs hold
no error handling: ``decode(kind, obj)`` is the only place that turns an
error raised on a malformed payload into ``FormatError``.

``dump_json(kind, payload, path)`` is its write-side mirror.  Payloads of
the kinds in ``EXACT_KINDS`` may hold Python ints of any size and are
written by the stdlib ``json``, which writes every int exactly.  All
others are written by orjson: like ``float.__repr__`` it writes each
float as the shortest digits that read back to it, and it does so
several times faster (Ryu), but it cannot write an int outside
[-2^63, 2^64).  A matrix with a non-finite entry has no JSON form, so
``matrix_to_json`` refuses it.  Every file is read by the stdlib
``json``, because orjson reads an int beyond 64 bits as a float.
"""

from __future__ import annotations

import json

import numpy as np
import orjson

from .frames import Frame
from .homspace import StarHom
from .grassmannian import Subalgebra
from .fredholm import DeskFredholm
from .abgroup import AbGroupPresentation, GroupHom
from .catverify import NerveChain
from .linalg import DEFAULT_TOL, orthonormal_cols

# Seed of the fixed reference matrix that picks the canonical basis.
_CANONICAL_SEED = 0xBA515


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


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("a matrix with a non-finite entry has no JSON form")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = _int(obj["rows"], 0, "rows"), _int(obj["cols"], 0, "cols")
    entries = _list(obj["entries"], "entries")
    pairs = np.asarray(entries) if entries else np.zeros((0, 2))
    if (pairs.shape != (rows * cols, 2) or pairs.dtype.kind not in "iuf"
            or not np.all(np.isfinite(pairs))):
        raise ValueError("entries must be rows*cols [re, im] pairs of finite numbers")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(rows, cols)


def frame_to_json(fr: Frame) -> dict:
    return {
        "d": fr.d,
        "ambient": fr.ambient,
        "mats": [matrix_to_json(m) for m in fr.as_list()],
    }


def frame_from_json(obj) -> Frame:
    d, ambient = _int(obj["d"], 1, "d"), _int(obj["ambient"], 1, "ambient")
    mats = [matrix_from_json(m) for m in _list(obj["mats"], "mats")]
    if len(mats) != d * d or any(m.shape != (ambient, ambient) for m in mats):
        raise ValueError(f"a frame must hold d^2 = {d * d} matrices of size {ambient}x{ambient}")
    return Frame(d, ambient, np.stack(mats).reshape(d, d, ambient, ambient))


def hom_to_json(h: StarHom) -> dict:
    return {"src": h.src, "dst": h.dst, "frame": frame_to_json(h.image_frame)}


def hom_from_json(obj) -> StarHom:
    return StarHom(_int(obj["src"], 1, "src"), _int(obj["dst"], 1, "dst"),
                   frame_from_json(obj["frame"]))


def subalgebra_to_json(a: Subalgebra) -> dict:
    """Writes the Q factor, with R's diagonal made positive, of P R_ref:
    P projects onto the span and R_ref is a fixed seeded n^2 x dim
    matrix, so the basis is a function of the span alone (an SVD or
    eigh basis of a degenerate subspace moves by O(1) under rounding)."""
    n = a.ambient
    q0 = orthonormal_cols(list(a.basis), DEFAULT_TOL) if a.basis else np.zeros((n * n, 0))
    ref = np.random.default_rng(_CANONICAL_SEED).standard_normal((n * n, q0.shape[1]))
    q, r = np.linalg.qr(q0 @ (q0.conj().T @ ref))
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return {"ambient": n, "basis": [matrix_to_json(m.reshape(n, n)) for m in q.T]}


def subalgebra_from_json(obj) -> Subalgebra:
    ambient = _int(obj["ambient"], 1, "ambient")
    basis = tuple(matrix_from_json(m) for m in _list(obj["basis"], "basis"))
    if any(m.shape != (ambient, ambient) for m in basis):
        raise ValueError(f"subalgebra basis matrices must be {ambient}x{ambient}")
    return Subalgebra(ambient, basis)


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

# Kinds whose payloads may hold ints beyond 64 bits, written by the stdlib:
# a group's relations, and the identity kind (``ab snf``'s U, D and V).
EXACT_KINDS = frozenset({"group", "json"})


def decode(kind: str, obj):
    """``obj`` decoded by the codec of ``kind``; whatever the codec raises
    on a malformed payload becomes one ``FormatError``."""
    from_json = CODECS[kind][0]
    try:
        return from_json(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind} payload: {type(exc).__name__}: {exc}") from exc


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def dump_json(kind: str, payload, path: str):
    """Write ``payload`` encoded by the codec of ``kind`` to ``path``; the
    payload is encoded in full before the file is opened."""
    obj = CODECS[kind][1](payload)
    if kind in EXACT_KINDS:
        data = (json.dumps(obj, sort_keys=True) + "\n").encode()
    else:
        data = orjson.dumps(obj, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
    with open(path, "wb") as fh:
        fh.write(data)
