"""JSON wire formats for every domain type.

Matrices: {"rows": N, "cols": M, "entries": [[re, im], ...]} row-major.
Composite types carry their fields verbatim; see each codec.
"""

from __future__ import annotations

import json

import numpy as np

from .frames import Frame
from .homspace import StarHom
from .grassmannian import Subalgebra
from .fredholm import DeskFredholm
from .abgroup import AbGroupPresentation, GroupHom
from .catverify import NerveChain


class FormatError(ValueError):
    """Malformed JSON payload for one of the wire formats."""


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        pairs = np.asarray(obj["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix payload: {exc}") from exc
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if min(rows, cols) < 0 or pairs.shape != (rows * cols, 2):
        raise FormatError("entries must be rows*cols [re, im] pairs")
    if pairs.dtype.kind not in "biuf" or not np.all(np.isfinite(pairs)):
        raise FormatError("matrix entries must be finite numbers")
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(rows, cols)


def frame_to_json(fr: Frame) -> dict:
    return {
        "d": fr.d,
        "ambient": fr.ambient,
        "mats": [matrix_to_json(m) for m in fr.as_list()],
    }


def frame_from_json(obj) -> Frame:
    try:
        d, ambient = int(obj["d"]), int(obj["ambient"])
        mats = [matrix_from_json(m) for m in obj["mats"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad frame payload: {exc}") from exc
    if d < 1 or len(mats) != d * d:
        raise FormatError("frame must contain d^2 matrices")
    if any(m.shape != (ambient, ambient) for m in mats):
        raise FormatError(f"frame matrices must be {ambient}x{ambient}")
    arr = np.stack(mats).reshape(d, d, ambient, ambient)
    return Frame(d, ambient, arr)


def hom_to_json(h: StarHom) -> dict:
    return {"src": h.src, "dst": h.dst, "frame": frame_to_json(h.image_frame)}


def hom_from_json(obj) -> StarHom:
    try:
        return StarHom(int(obj["src"]), int(obj["dst"]), frame_from_json(obj["frame"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad hom payload: {exc}") from exc


def subalgebra_to_json(a: Subalgebra) -> dict:
    return {"ambient": a.ambient, "basis": [matrix_to_json(m) for m in a.basis]}


def subalgebra_from_json(obj) -> Subalgebra:
    try:
        ambient = int(obj["ambient"])
        basis = tuple(matrix_from_json(m) for m in obj["basis"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad subalgebra payload: {exc}") from exc
    if any(m.shape != (ambient, ambient) for m in basis):
        raise FormatError(f"subalgebra basis matrices must be {ambient}x{ambient}")
    return Subalgebra(ambient, basis)


def fredholm_to_json(t: DeskFredholm) -> dict:
    return {
        "n": t.n,
        "win_dom": t.win_dom,
        "win_cod": t.win_cod,
        "finite_part": matrix_to_json(t.finite_part),
    }


def fredholm_from_json(obj) -> DeskFredholm:
    try:
        return DeskFredholm(int(obj["n"]), int(obj["win_dom"]), int(obj["win_cod"]),
                            matrix_from_json(obj["finite_part"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad operator payload: {exc}") from exc


def group_to_json(g: AbGroupPresentation) -> dict:
    return {"gens": g.gens, "rels": [list(r) for r in g.rels]}


def group_from_json(obj) -> AbGroupPresentation:
    try:
        return AbGroupPresentation.from_rows(int(obj["gens"]), obj["rels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad group payload: {exc}") from exc


def grouphom_to_json(f: GroupHom) -> dict:
    return {
        "src": group_to_json(f.src),
        "dst": group_to_json(f.dst),
        "matrix": [list(r) for r in f.matrix],
    }


def grouphom_from_json(obj) -> GroupHom:
    try:
        return GroupHom.from_rows(group_from_json(obj["src"]),
                                  group_from_json(obj["dst"]), obj["matrix"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad group hom payload: {exc}") from exc


def int_matrix_from_json(obj) -> list:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise FormatError("expected a JSON list of integer rows")
    try:
        return [[int(x) for x in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad integer matrix: {exc}") from exc


def chain_to_json(chain: NerveChain) -> dict:
    return {"homs": [hom_to_json(h) for h in chain.homs]}


def chain_from_json(obj) -> NerveChain:
    try:
        homs = tuple(hom_from_json(h) for h in obj["homs"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad chain payload: {exc}") from exc
    return NerveChain(homs)


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def dump_json(obj, path: str):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
