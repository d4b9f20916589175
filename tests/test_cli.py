import argparse
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import frcalc
from frcalc import catverify, cli, frames, grassmannian, homspace, suite
from frcalc.catverify import NerveChain
from frcalc.cli import run
from frcalc.config import UsageError, load_settings, parse_config
from frcalc.frames import Frame, matrix_unit_frame, random_frame
from frcalc.grassmannian import Subalgebra, lambda_map
from frcalc.generators import (MorphismConfig, random_c_morphism, random_d_morphism,
                               random_fredholm, random_source_frame)
from frcalc.homspace import random_hom
from frcalc.linalg import eye, kron_stack, orthonormal_span
from frcalc.serialize import (MAX_DEPTH, dump_json, frame_to_json, hom_to_json, load_json,
                              matrix_to_json)

SUITE_STDOUT = pathlib.Path(__file__).with_name("suite_seed7_stdout.json")


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_frame_verify_pass(tmp_path, capsys):
    path = tmp_path / "f.json"
    dump_json("frame", matrix_unit_frame(2, 3), str(path))
    code, report = _run(capsys, ["frame", "verify", "--in", str(path)])
    assert code == 0
    assert report["pass"] is True
    assert report["verb"] == "frame verify"
    assert set(report["residuals"]) == {"axiom_i", "axiom_ii", "axiom_iii"}


def test_frame_verify_fails_on_bad_frame(tmp_path, capsys):
    payload = frame_to_json(matrix_unit_frame(2, 3))
    for m in payload["mats"]:
        m["entries"] = [[0.5 * re, 0.5 * im] for re, im in m["entries"]]
    path = tmp_path / "bad.json"
    dump_json("json", payload, str(path))
    code, report = _run(capsys, ["frame", "verify", "--in", str(path)])
    assert code == 1
    assert report["pass"] is False


def test_format_error_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, report = _run(capsys, ["frame", "verify", "--in", str(path)])
    assert code == 2


# Usage errors that need no input file: flag values out of range.
_BAD_FLAGS = {
    "degree not dividing ambient": "frame random --d 4 --ambient 6",
    "zero frame degree": "frame make-units --d 0 --cofactor 2",
    "zero multiplicity": "hom random --src 2 --l 0",
    "negative seed": "frame random --d 2 --ambient 4 --seed -1",
    "NaN scale": "suite --scale nan",
    "infinite scale": "suite --scale inf",
    "zero scale": "suite --scale 0",
    "negative scale": "suite --scale -1",
}


def _nested(depth, objects=False):
    """JSON text of arrays, or of objects, nested ``depth`` deep."""
    if objects:
        return b'{"a":' * depth + b"0" + b"}" * depth
    return b"[" * depth + b"]" * depth


_EYE3 = {"rows": 3, "cols": 3, "entries": [[float(i == j), 0.0] for i in range(3)
                                           for j in range(3)]}
_ONE = {"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}
_UNIT_FRAME = {"d": 1, "ambient": 1, "mats": [_ONE]}
_CHAIN = {"homs": [{"src": 1, "dst": 1, "frame": _UNIT_FRAME}]}
_STAGES = [{"n": 1, "win_dom": 1, "win_cod": 1, "finite_part": _ONE}]

# Errors of calls that read one input file, malformed or with a flag out
# of range: (argv with IN for the file, its contents as a JSON value or as
# raw bytes).  The file nested 200,000 deep here is of an integer kind,
# read by the stdlib; the orjson reader's depth guard is tested in a
# subprocess, where a crash cannot take pytest down.
_BAD_FILES = {
    "frame of the wrong size": ("frame verify --in IN",
                                {"d": 2, "ambient": 4, "mats": [_EYE3] * 4}),
    "degree not dividing the ambient size": ("frame verify --in IN",
                                             {"d": 2, "ambient": 3, "mats": [_EYE3] * 4}),
    "degree given as a string": ("frame verify --in IN", {"d": "x", "ambient": 3, "mats": [_EYE3]}),
    "degree given as a float": ("frame verify --in IN", {"d": 1.5, "ambient": 3, "mats": [_EYE3]}),
    "subalgebra of the wrong size": ("alg centralizer --in IN", {"ambient": 4, "basis": [_EYE3]}),
    "subalgebra of M_0": ("alg span --in IN", {"ambient": 0, "basis": []}),
    "subalgebra of M_-1": ("alg span --in IN", {"ambient": -1, "basis": []}),
    "ragged integer matrix": ("ab snf --in IN", [[1, 2], [3]]),
    "float in an integer matrix": ("ab snf --in IN", [[1.5]]),
    "negative generator count": ("ab localize --in IN --l 2", {"gens": -3, "rels": []}),
    "colimit map of the wrong shape": ("ab colim --file IN --invert 3",
                                       {"groups": [{"gens": 1, "rels": []}] * 2,
                                        "maps": [[[1, 2]]]}),
    "negative face index": ("cat nerve-face --chain IN --i -1", _CHAIN),
    "negative start stage": ("fred localize --stages IN --l 2 --start-stage -1", _STAGES),
    "no operator stages": ("fred localize --stages IN --l 2", []),
    "frame file that is not UTF-8": ("frame verify --in IN", b"\xff\xfe{}"),
    "integer matrix file that is not UTF-8": ("ab snf --in IN", b"\xff\xfe[]"),
    "integer matrix nested 200,000 deep": ("ab snf --in IN", _nested(200_000)),
    "hom whose dst disagrees with its frame": ("hom iota --hom IN --l 2",
                                               {"src": 1, "dst": 2, "frame": _UNIT_FRAME}),
    "operator block of the wrong shape": (
        "fred index --in IN",
        {"n": 2, "win_dom": 3, "win_cod": 2,
         "finite_part": {"rows": 4, "cols": 5, "entries": [[0.0, 0.0]] * 20}}),
    "relation shorter than the generators": ("ab localize --in IN --l 2",
                                             {"gens": 2, "rels": [[2]]}),
    "colimit of two groups with no map": ("ab colim --file IN --invert 2",
                                          {"groups": [{"gens": 1, "rels": []}] * 2, "maps": []}),
}


def _malformed(tmp_path, case):
    """argv of one format or usage error, with its input files written."""
    if case in _BAD_FILES:
        argv, payload = _BAD_FILES[case]
        path = tmp_path / "in.json"
        path.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        return [str(path) if word == "IN" else word for word in argv.split()]
    if case == "negative abs_eps":
        frame = tmp_path / "frame.json"
        dump_json("frame", matrix_unit_frame(2, 2), str(frame))
        config = tmp_path / "bad.toml"
        config.write_text("abs_eps = -1\n")
        return ["--config", str(config), "frame", "verify", "--in", str(frame)]
    return _BAD_FLAGS[case].split()


@pytest.mark.parametrize("case", [*_BAD_FILES, "negative abs_eps", *_BAD_FLAGS])
def test_format_and_usage_errors_exit_2(tmp_path, capsys, monkeypatch, case):
    argv = _malformed(tmp_path, case)
    clock = itertools.count(0.0, 0.25)
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1 and err == ""
    report = json.loads(out)
    assert report["pass"] is False and report["error"]
    assert report["elapsed_ms"] == 250


def test_face_index_past_the_chain_exits_1(tmp_path, capsys):
    """An ``--i`` past the chain's length is a mismatch between a flag and
    a file, not a usage error; the inputs of the exit-2 cases above pass
    with flags in range."""
    chain, stages = tmp_path / "chain.json", tmp_path / "stages.json"
    dump_json("json", _CHAIN, str(chain))
    dump_json("json", _STAGES, str(stages))
    assert _run(capsys, ["cat", "nerve-face", "--chain", str(chain), "--i", "1"])[0] == 0
    assert _run(capsys, ["fred", "localize", "--stages", str(stages), "--l", "2",
                         "--start-stage", "1"])[0] == 0
    code, report = _run(capsys, ["cat", "nerve-face", "--chain", str(chain), "--i", "2"])
    assert code == 1 and "out of range" in report["error"]


def _cmorphism_files(source="SRC"):
    """The hom H and frames SRC and DST of a morphism datum, with the
    frame named ``source`` written as SRC."""
    m = random_c_morphism(MorphismConfig(2, 1, 2, 2), 40)
    files = {"H": ("hom", m.f), "SRC": ("frame", m.src_frame), "DST": ("frame", m.dst_frame)}
    return {**files, "SRC": files[source]}


_MORPHISM_ARGV = "--hom H --src-frame SRC --dst-frame DST"
_GRMAP_ARGV = "alg grmap --hom H --aprime AP --a A --b B"


def _grmap_files(hom, aprime, a, b):
    """The hom H and the algebras AP, A and B of ``alg grmap``."""
    return {"H": ("hom", hom), "AP": ("alg", aprime), "A": ("alg", a), "B": ("alg", b)}


def _full(n):
    """The full matrix algebra M_n."""
    return lambda_map(matrix_unit_frame(n, 1))


# Well-formed inputs whose sizes do not fit together: (argv with a name
# for each input file, a function giving each name's (kind, payload), the
# error).  Each is a mathematical failure, so it exits 1.
_MISFITS = {
    "dot of an M_4 frame and an M_6 frame": (
        "frame dot --left A --right B",
        lambda: {"A": ("frame", matrix_unit_frame(2, 2)), "B": ("frame", matrix_unit_frame(2, 3))},
        "different ambient algebras"),
    "compose of M_4 -> M_8 after M_2 -> M_6": (
        "hom compose --outer A --inner B",
        lambda: {"A": ("hom", random_hom(4, 2, 1)), "B": ("hom", random_hom(2, 3, 2))},
        "sizes do not divide"),
    "amplify of an n = 2 operator by an M_3 hom": (
        "fred amplify --in T --hom H",
        lambda: {"T": ("operator", random_fredholm(2, 3, 2, 9)), "H": ("hom", random_hom(3, 2, 3))},
        "hom source must match"),
    "bundle face of a 3x3 fiber on a chain out of M_2": (
        "cat bundle-face --chain C --i 0 --matrix X",
        lambda: {"C": ("chain", NerveChain((random_hom(2, 2, 3),))), "X": ("matrix", eye(3))},
        "first source size"),
    "frmap of a degree-1 frame": (
        f"cat frmap {_MORPHISM_ARGV} --arg ARG",
        lambda: {**_cmorphism_files(), "ARG": ("frame", matrix_unit_frame(1, 2))},
        "wrong degree or ambient size"),
    "check-morphism with the target frame as the source frame": (
        f"cat check-morphism {_MORPHISM_ARGV}",
        lambda: _cmorphism_files(source="DST"),
        "incompatible sizes"),
    "grmap of span(1) in M_2 with A = M_2": (
        _GRMAP_ARGV,
        lambda: _grmap_files(random_hom(2, 2, 5), lambda_map(matrix_unit_frame(1, 2)), _full(2),
                             _full(4)),
        "not a D-morphism"),
    "grmap of A' = A = M_3 through an M_2 -> M_6 hom": (
        _GRMAP_ARGV,
        lambda: _grmap_files(random_hom(2, 3, 6), _full(3), _full(3), _full(6)),
        "not a D-morphism"),
}


@pytest.mark.parametrize("case", _MISFITS)
def test_inputs_whose_sizes_do_not_fit_exit_1(tmp_path, capsys, case):
    argv, files, error = _MISFITS[case]
    paths = {}
    for name, (kind, payload) in files().items():
        paths[name] = tmp_path / f"{name}.json"
        dump_json(kind, payload, str(paths[name]))
    code = run([str(paths[word]) if word in paths else word for word in argv.split()])
    out = capsys.readouterr().out
    assert code == 1 and len(out.splitlines()) == 1
    report = json.loads(out)
    assert report["pass"] is False and error in report["error"]


def test_colimit_of_one_group_is_stable_from_stage_0(tmp_path, capsys):
    path = tmp_path / "colim.json"
    dump_json("json", {"groups": [{"gens": 2, "rels": [[4, 0]]}], "maps": []}, str(path))
    code, report = _run(capsys, ["ab", "colim", "--file", str(path), "--invert", "2"])
    assert code == 0
    assert report["result"] == {"free_rank": 1, "invariant_factors": [], "stable_from": 0}


def test_non_finite_result_exits_1_and_writes_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(homspace, "ev", lambda h, x: np.full((2, 2), np.nan))
    hom, x, out = tmp_path / "h.json", tmp_path / "x.json", tmp_path / "out.json"
    dump_json("hom", random_hom(1, 2, 3), str(hom))
    dump_json("matrix", np.eye(1), str(x))
    code, report = _run(capsys, ["hom", "ev", "--hom", str(hom), "--matrix", str(x),
                                 "--out", str(out)])
    assert code == 1 and "non-finite" in report["error"]
    assert report["artifacts"] == [] and not out.exists()


@pytest.mark.parametrize("k", [0, 3])
def test_non_finite_entry_in_any_matrix_of_a_batch_exits_1(tmp_path, capsys, monkeypatch, k):
    """A frame or subalgebra result whose k-th matrix holds a NaN, the
    first or the last, exits 1 and writes no file: the matrices of one
    payload are checked together, every one of them."""
    fr, alg = random_frame(2, 4, 1), lambda_map(random_frame(2, 4, 2))
    mats, basis = fr.mats.copy(), [m.copy() for m in alg.basis]
    mats[k // 2, k % 2, 1, 0] = np.nan
    basis[k][1, 0] = np.nan
    monkeypatch.setattr(frames, "pi1", lambda fr, split: Frame(2, 4, mats))
    monkeypatch.setattr(grassmannian, "centralizer", lambda alg, tol: Subalgebra(4, tuple(basis)))
    frame_in, alg_in, out = tmp_path / "f.json", tmp_path / "a.json", tmp_path / "out.json"
    dump_json("frame", fr, str(frame_in))
    dump_json("alg", alg, str(alg_in))
    for argv in (["frame", "pi1", "--in", str(frame_in), "--split", "2"],
                 ["alg", "centralizer", "--in", str(alg_in)]):
        code, report = _run(capsys, argv + ["--out", str(out)])
        assert code == 1 and "non-finite" in report["error"], argv
        assert report["artifacts"] == [] and not out.exists()


def test_alg_extract_fails_by_the_rule_of_frame_verify(tmp_path, capsys, monkeypatch):
    """``alg extract`` passes an extracted frame only if ``frame verify``
    would: a frame with axiom error 5e-9, above the default ``abs_eps``
    of 1e-9, exits 1, and so does ``frame verify`` on the file it wrote."""
    mats = matrix_unit_frame(2, 3).mats.copy()
    mats[0, 0, 0, 0] += 2.5e-9  # the Gram axiom is off by twice that
    monkeypatch.setattr(grassmannian, "extract_frame", lambda alg, d, tol: Frame(2, 6, mats))
    alg, out = tmp_path / "alg.json", tmp_path / "fr.json"
    dump_json("alg", lambda_map(matrix_unit_frame(2, 3)), str(alg))
    code, report = _run(capsys, ["alg", "extract", "--in", str(alg), "--d", "2",
                                 "--out", str(out)])
    assert code == 1 and report["pass"] is False
    assert 4e-9 < report["residuals"]["frame_axioms"] < 6e-9
    code, report = _run(capsys, ["frame", "verify", "--in", str(out)])
    assert code == 1 and report["pass"] is False


def _files(tmp_path, **payloads):
    """Write each ``name=(kind, payload)`` to its own file; the paths."""
    paths = {}
    for name, (kind, payload) in payloads.items():
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(kind, payload, paths[name])
    return paths


def _off_frame():
    """The basepoint frame of M_2 in M_6 with one entry moved by 1e-9:
    its Gram axiom is off by 2e-9."""
    mats = matrix_unit_frame(2, 3).mats.copy()
    mats[0, 0, 0, 0] += 1e-9
    return Frame(2, 6, mats)


def _frame_verify_case(tmp_path, monkeypatch):
    return ["frame", "verify", "--in", _files(tmp_path, fr=("frame", _off_frame()))["fr"]]


def _alg_extract_case(tmp_path, monkeypatch):
    monkeypatch.setattr(grassmannian, "extract_frame", lambda alg, d, tol: _off_frame())
    alg = _files(tmp_path, alg=("alg", lambda_map(matrix_unit_frame(2, 3))))["alg"]
    return ["alg", "extract", "--in", alg, "--d", "2"]


def _frame_dot_case(tmp_path, monkeypatch):
    """e_ij (x) 1_2 and 1_2 (x) e_uv in M_4, the second with entry (0, 2)
    of its (0, 0) matrix moved by 1.5e-6: the commutator is exactly that."""
    right = kron_stack(eye(2), eye(4).reshape(2, 2, 2, 2))
    right[0, 0, 0, 2] += 1.5e-6
    paths = _files(tmp_path, left=("frame", matrix_unit_frame(2, 2)),
                   right=("frame", Frame(2, 4, right)))
    return ["frame", "dot", "--left", paths["left"], "--right", paths["right"]]


def _alg_span_case(tmp_path, monkeypatch):
    monkeypatch.setattr(grassmannian, "closure_residual", lambda alg, tol: 1.5e-6)
    alg = _files(tmp_path, alg=("alg", lambda_map(matrix_unit_frame(2, 3))))["alg"]
    return ["alg", "span", "--in", alg]


def _check_morphism_case(tmp_path, monkeypatch):
    m = random_c_morphism(MorphismConfig(2, 1, 2, 2), 5)
    monkeypatch.setattr(catverify, "frames_close", lambda a, b: 1.5e-6)
    paths = _files(tmp_path, h=("hom", m.f), src=("frame", m.src_frame),
                   dst=("frame", m.dst_frame))
    return ["cat", "check-morphism", "--hom", paths["h"], "--src-frame", paths["src"],
            "--dst-frame", paths["dst"]]


def _naturality_case(tmp_path, monkeypatch):
    monkeypatch.setattr(catverify, "check_naturality", lambda *data: (1.5e-8, 0.0))
    return ["cat", "naturality"]


def _tau_case(tmp_path, monkeypatch):
    monkeypatch.setattr(catverify, "check_tau", lambda a, b: 1.5e-9)
    return ["cat", "tau"]


def _assoc_case(tmp_path, monkeypatch):
    monkeypatch.setattr(catverify, "check_associativity", lambda a, b, c: 5e-324)
    return ["cat", "assoc"]


def _intertwiner_case(tmp_path, monkeypatch):
    monkeypatch.setattr(homspace, "intertwiner_residual", lambda h, u: 1.5e-8)
    return ["hom", "intertwiner", "--hom", _files(tmp_path, h=("hom", random_hom(2, 3, 4)))["h"]]


def _centralizer_case(tmp_path, monkeypatch):
    monkeypatch.setattr(grassmannian, "commutation_defect", lambda a, z: 1.5e-8)
    alg = _files(tmp_path, alg=("alg", lambda_map(random_frame(2, 6, 5))))["alg"]
    return ["alg", "centralizer", "--in", alg]


def _ztensor_case(tmp_path, monkeypatch):
    monkeypatch.setattr(grassmannian, "subspace_distance", lambda a, b, tol: 1.5e-8)
    cfg = MorphismConfig(2, 1, 2, 2)
    f, g = random_d_morphism(cfg, 6), random_d_morphism(cfg, 7)
    paths = _files(tmp_path, f=("hom", f.f), g=("hom", g.f), a=("alg", f.a), b=("alg", f.b),
                   phi=("alg", g.a), psi=("alg", g.b))
    return ["alg", "ztensor", *(x for name in "f g a b phi psi".split()
                                for x in (f"--{name}", paths[name]))]


# Each verb that compares a residual with a bound, fed a residual just
# above its default bound, and whether ``abs_eps = 1e-6`` moves that bound
# past the residual.
_BOUND_CASES = {
    "frame verify": (_frame_verify_case, True),
    "alg extract": (_alg_extract_case, True),
    "frame dot": (_frame_dot_case, True),
    "alg span": (_alg_span_case, True),
    "cat check-morphism": (_check_morphism_case, True),
    "cat naturality": (_naturality_case, False),
    "cat tau": (_tau_case, False),
    "cat assoc": (_assoc_case, False),
    "hom intertwiner": (_intertwiner_case, False),
    "alg centralizer": (_centralizer_case, False),
    "alg ztensor": (_ztensor_case, False),
}


@pytest.mark.parametrize("verb", list(_BOUND_CASES))
def test_which_decisions_the_abs_eps_config_moves(tmp_path, capsys, monkeypatch, verb):
    """A residual just above its default bound fails the verb; under
    ``abs_eps = 1e-6`` it passes exactly the verbs whose bound follows
    ``abs_eps`` (``linalg.BOUNDS``), and the others still fail it."""
    case, moves = _BOUND_CASES[verb]
    argv = case(tmp_path, monkeypatch)
    config = tmp_path / "loose.toml"
    config.write_text("abs_eps = 1e-6\n")
    code, report = _run(capsys, argv)
    assert code == 1 and report["pass"] is False and report["verb"] == verb
    code, report = _run(capsys, ["--config", str(config), *argv])
    assert code == (0 if moves else 1) and report["pass"] is moves


def _int_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_ab_verbs_write_ints_beyond_64_bits_exactly(tmp_path, capsys):
    m = [[2 ** 70 + 1, 2 ** 66, 3], [2 ** 64, 5, 7], [11, 2 ** 65 + 3, 13]]
    path, out = tmp_path / "m.json", tmp_path / "out.json"
    dump_json("json", m, str(path))
    code, report = _run(capsys, ["ab", "snf", "--in", str(path), "--out", str(out)])
    assert code == 0
    snf = load_json(str(out), "json")
    assert _int_product(_int_product(snf["u"], m), snf["v"]) == snf["d"]
    assert [snf["d"][i][i] for i in range(3)] == report["result"]["diagonal"]
    assert max(abs(x) for row in snf["u"] + snf["d"] + snf["v"] for x in row) >= 2 ** 64
    dump_json("json", {"src": {"gens": 1, "rels": []}, "dst": {"gens": 1, "rels": [[2 ** 70]]},
                       "matrix": [[2 ** 65]]}, str(path))
    code, report = _run(capsys, ["ab", "coker", "--in", str(path), "--out", str(out)])
    assert code == 0 and report["result"]["invariant_factors"] == [2 ** 65]
    assert load_json(str(out), "group") == {"gens": 1, "rels": [[2 ** 65]]}


def test_ab_verbs_read_ints_beyond_64_bits_exactly(tmp_path, capsys):
    """Integer payloads are read by the stdlib ``json``: orjson reads 2**70
    as a float, which no integer payload allows."""
    cyclic = {"gens": 1, "rels": [[2 ** 70]]}
    by_2_65 = {"src": cyclic, "dst": cyclic, "matrix": [[2 ** 65]]}
    calls = [("ab coker --in IN", by_2_65, [2 ** 65]),
             ("ab ker --in IN", by_2_65, [2 ** 65]),
             ("ab localize --in IN --l 3", {"gens": 2, "rels": [[2 ** 70, 0], [0, 3 * 2 ** 70]]},
              [2 ** 70, 2 ** 70]),
             ("ab colim --file IN --invert 3", {"groups": [cyclic, cyclic], "maps": [[[1]]]},
              [2 ** 70])]
    path = tmp_path / "in.json"
    for argv, payload, factors in calls:
        dump_json("json", payload, str(path))
        code, report = _run(capsys, [str(path) if w == "IN" else w for w in argv.split()])
        assert code == 0 and report["result"]["invariant_factors"] == factors


_DEPTH_SCRIPT = """
import contextlib, io, json, sys
from frcalc import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_orjson_reads_stop_at_the_depth_cap(tmp_path):
    """Float-kind files nested 200,000 deep, or one level past
    ``MAX_DEPTH``, exit 2 with one JSON line instead of overflowing
    orjson's stack, also behind strings whose escaped quote and escaped
    backslash would hide the brackets from a count that took every
    quote for a string's end; a bundle, the deepest wire format, still
    decodes.  The calls run in a subprocess, so a crash fails this test
    only."""
    deep = {"arrays.json": _nested(200_000), "objects.json": _nested(200_000, objects=True),
            "past_cap.json": _nested(MAX_DEPTH + 1),
            "escapes.json": b'["\\"", "\\\\", ' + _nested(200_000) + b"]"}
    for name, text in deep.items():
        (tmp_path / name).write_bytes(text)
    bundle = tmp_path / "bundle.json"
    dump_json("json", _bundle(), str(bundle))
    argvs = [["frame", "verify", "--in", str(tmp_path / name)] for name in deep]
    argvs.append(["cat", "naturality", "--in", str(bundle)])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frcalc.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DEPTH_SCRIPT, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    for code, out in results[:-1]:
        assert code == 2 and len(out.splitlines()) == 1
        assert f"nested deeper than {MAX_DEPTH}" in json.loads(out)["error"]
    code, out = results[-1]
    assert code == 0 and json.loads(out)["pass"] is True


def test_suite_stdout_matches_the_recording(suite_seed7_runs):
    """The stdout report is written by the stdlib ``json``: byte for byte
    the recorded ``frcalc suite --seed 7`` line, but for ``elapsed_ms``."""
    assert suite_seed7_runs.codes[0] == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', suite_seed7_runs.outputs[0])
    assert out == SUITE_STDOUT.read_text()


def _bundle():
    """A well-formed ``cat naturality`` bundle whose morphisms pass the
    frame condition."""
    cfg = MorphismConfig(2, 1, 2, 2)
    f, g = random_c_morphism(cfg, 50), random_c_morphism(cfg, 51)
    bundle = {k: {"hom": hom_to_json(m.f), "src_frame": frame_to_json(m.src_frame),
                  "dst_frame": frame_to_json(m.dst_frame)} for k, m in (("f", f), ("g", g))}
    bundle.update(alpha_prime=frame_to_json(random_source_frame(cfg, 52)),
                  phi_prime=frame_to_json(random_source_frame(cfg, 53)))
    return bundle


def test_naturality_bundle_failing_the_frame_condition_exits_1(tmp_path, capsys):
    """A well-formed bundle whose morphism f fails the frame condition is
    a mathematical failure, not a format error."""
    bundle = _bundle()
    path = tmp_path / "bundle.json"
    dump_json("json", bundle, str(path))
    code, report = _run(capsys, ["cat", "naturality", "--in", str(path)])
    assert code == 0 and report["pass"]
    dst = bundle["f"]["dst_frame"]
    bundle["f"]["dst_frame"] = frame_to_json(random_frame(dst["d"], dst["ambient"], 9))
    dump_json("json", bundle, str(path))
    code, report = _run(capsys, ["cat", "naturality", "--in", str(path)])
    assert code == 1 and "frame condition" in report["error"]


def test_run_builds_the_parser_once(capsys, monkeypatch):
    assert run(["list-ops"]) == 0
    monkeypatch.setattr(argparse, "ArgumentParser", None)
    assert run(["list-ops"]) == 0
    capsys.readouterr()


def test_module_entry_point_under_python_O(tmp_path):
    """`python -O -m frcalc.cli`: the exit codes do not rest on assert."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(frcalc.__file__)))
    for argv, want in (["list-ops"], 0), (_malformed(tmp_path, "frame of the wrong size"), 2):
        proc = subprocess.run([sys.executable, "-O", "-m", "frcalc.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == want
        assert len(proc.stdout.splitlines()) == 1 and isinstance(json.loads(proc.stdout), dict)
        assert "Traceback" not in proc.stderr


def test_unknown_verb_exit_code(capsys):
    assert run(["frame", "nonsense"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()


def test_pipeline_roundtrip(tmp_path, capsys):
    f = tmp_path / "f.json"
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    d = tmp_path / "dot.json"
    assert run(["frame", "random", "--d", "6", "--ambient", "6",
                "--seed", "3", "--out", str(f)]) == 0
    capsys.readouterr()
    assert run(["frame", "pi1", "--in", str(f), "--split", "2",
                "--out", str(p1)]) == 0
    capsys.readouterr()
    assert run(["frame", "pi2", "--in", str(f), "--split", "2",
                "--out", str(p2)]) == 0
    capsys.readouterr()
    code, report = _run(capsys, ["frame", "dot", "--left", str(p1),
                                 "--right", str(p2), "--out", str(d)])
    assert code == 0
    # projections of a frame recombine to the original frame
    original = load_json(str(f), "frame")
    recombined = load_json(str(d), "frame")
    for a, b in zip(original["mats"], recombined["mats"]):
        for (re1, im1), (re2, im2) in zip(a["entries"], b["entries"]):
            assert abs(re1 - re2) < 1e-9 and abs(im1 - im2) < 1e-9


def _strict_json(text):
    """``json.loads`` that refuses the NaN and Infinity tokens, which
    RFC 8259 does not have and orjson does not read."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_a_nan_suite_residual_is_reported_as_json(capsys, monkeypatch):
    """A NaN residual fails its battery, and the report still parses as
    JSON (RFC 8259 has no NaN token): the residual is the string "nan"."""
    monkeypatch.setattr(suite, "frames_close", lambda a, b: math.nan)
    monkeypatch.setattr(suite, "BATTERIES",
                        tuple(b for b in suite.BATTERIES if b.name == "reconstruction"))
    code = run(["suite", "--seed", "7"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    assert report["residuals"] == {"reconstruction.max_entry_error": "nan"}
    assert report["result"]["batteries"][0]["residuals"] == {"max_entry_error": "nan"}


@pytest.mark.parametrize("residual,code", [(math.nan, 1), (math.inf, 1), (-math.inf, 0)])
def test_a_non_finite_verb_residual_is_reported_as_json(tmp_path, capsys, monkeypatch,
                                                        residual, code):
    path = tmp_path / "f.json"
    dump_json("frame", matrix_unit_frame(2, 3), str(path))
    monkeypatch.setattr(frames, "dot_with_residual", lambda left, right, tol: (left, residual))
    assert run(["frame", "dot", "--left", str(path), "--right", str(path)]) == code
    report = _strict_json(capsys.readouterr().out)
    assert report["residuals"] == {"commutation": repr(residual)}


def test_hom_intertwiner_verb(tmp_path, capsys):
    h = tmp_path / "h.json"
    u = tmp_path / "u.json"
    assert run(["hom", "random", "--src", "2", "--l", "3",
                "--seed", "4", "--out", str(h)]) == 0
    capsys.readouterr()
    code, report = _run(capsys, ["hom", "intertwiner", "--hom", str(h),
                                 "--out", str(u)])
    assert code == 0
    assert report["residuals"]["intertwiner"] < 1e-9
    assert report["artifacts"] == [str(u)]


def test_intertwiner_of_an_oblique_hom_exits_1(tmp_path, capsys):
    """S (E_ij (x) 1_3) S^-1 for an invertible, non-unitary S meets the
    frame's product rules, and each h(e_ii) has rank 3, so the rank test
    passes; the intertwiner it builds is not unitary, and the verb exits 1."""
    s = np.eye(6) + 0.3 * np.random.default_rng(3).standard_normal((6, 6))
    mats = s @ matrix_unit_frame(2, 3).mats @ np.linalg.inv(s)
    assert np.sum(np.linalg.svd(mats[0, 0], compute_uv=False) > 0.5) == 3
    h = _files(tmp_path, h=("hom", homspace.StarHom(2, 6, Frame(2, 6, mats.astype(complex)))))["h"]
    assert run(["hom", "intertwiner", "--hom", h]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    report = json.loads(out)
    assert report["pass"] is False and report["error"] == "input not a unital *-homomorphism"


def test_ab_colim_verb(tmp_path, capsys):
    chain = {
        "groups": [{"gens": 1, "rels": [[2 * 3 ** n]]} for n in range(4)],
        "maps": [[[3]], [[3]], [[3]]],
    }
    path = tmp_path / "chain.json"
    dump_json("json", chain, str(path))
    code, report = _run(capsys, ["ab", "colim", "--file", str(path),
                                 "--invert", "3"])
    assert code == 0
    assert report["result"]["invariant_factors"] == [2]
    assert report["result"]["free_rank"] == 0


def test_ab_snf_of_empty_matrix(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    code, report = _run(capsys, ["ab", "snf", "--in", str(path)])
    assert code == 0 and report["result"]["diagonal"] == []


def _with_non_algebra_b(tmp_path):
    """The inputs of ``alg grmap`` and ``alg ztensor`` for D-morphisms of
    M_2 into M_4, with B replaced by the span of f(A) and one random
    matrix: f(A) still lies in it, so only the algebra check can fail."""
    cfg = MorphismConfig(2, 1, 2, 2)
    f, g = random_d_morphism(cfg, 20), random_d_morphism(cfg, 30)
    rng = np.random.default_rng(3)
    extra = rng.standard_normal((1, 4, 4)) + 1j * rng.standard_normal((1, 4, 4))
    b = Subalgebra(4, orthonormal_span(np.concatenate([homspace.ev(f.f, f.a.basis), extra])))
    return _files(tmp_path, f=("hom", f.f), g=("hom", g.f), a=("alg", f.a), b=("alg", b),
                  phi=("alg", g.a), psi=("alg", g.b))


@pytest.mark.parametrize("verb", ["grmap", "ztensor"])
def test_alg_verbs_refuse_an_input_that_is_not_an_algebra(tmp_path, capsys, verb):
    paths = _with_non_algebra_b(tmp_path)
    flags = {"grmap": "--hom f --aprime a --a a --b b",
             "ztensor": "--f f --g g --a a --b b --phi phi --psi psi"}[verb].split()
    argv = ["alg", verb] + [paths[x] if x in paths else x for x in flags]
    code, report = _run(capsys, argv)
    assert code == 1 and report["pass"] is False
    assert report["error"] == "--b does not span a unital *-algebra"


def test_alg_centralizer_verb(tmp_path, capsys):
    f = tmp_path / "f.json"
    a = tmp_path / "a.json"
    assert run(["frame", "random", "--d", "2", "--ambient", "6",
                "--seed", "5", "--out", str(f)]) == 0
    capsys.readouterr()
    # span the frame into a subalgebra file
    payload = load_json(str(f), "frame")
    dump_json("json", {"ambient": 6, "basis": payload["mats"]}, str(a))
    code, report = _run(capsys, ["alg", "centralizer", "--in", str(a)])
    assert code == 0
    assert report["result"]["dim"] == 9
    # span{I, E_12} is not *-closed: its commutant is itself, not the
    # scalars that the spectral cut would give.  Nor is span{c E_12} at
    # any scale c.
    e12 = {"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0], [0, 0], [0, 0]]}
    eye = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    small, large = ({**e12, "entries": [[0, 0], [c, 0], [0, 0], [0, 0]]} for c in (1e-200, 1e200))
    for basis in ([e12], [eye, e12], [small], [large]):
        dump_json("json", {"ambient": 2, "basis": basis}, str(a))
        code, report = _run(capsys, ["alg", "centralizer", "--in", str(a)])
        assert code == 1 and "*-closed" in report["error"]


@pytest.mark.parametrize("c", [1e-10, 1e10])
def test_alg_centralizer_judges_commutation_whatever_the_input_scale(tmp_path, capsys,
                                                                      monkeypatch, c):
    """The commutation residual is taken on an orthonormal basis of the
    input span: the centralizer of lambda(alpha) scaled by c passes, and a
    wrong one, all of M_6, fails at either scale."""
    basis = [matrix_to_json(c * m) for m in lambda_map(random_frame(2, 6, 5)).basis]
    path = _files(tmp_path, alg=("json", {"ambient": 6, "basis": basis}))["alg"]
    code, report = _run(capsys, ["alg", "centralizer", "--in", path])
    assert code == 0 and report["result"]["dim"] == 9
    assert report["residuals"]["commutation"] < 1e-13
    full = Subalgebra(6, eye(36).reshape(36, 6, 6))
    monkeypatch.setattr(grassmannian, "centralizer", lambda alg, tol: full)
    code, report = _run(capsys, ["alg", "centralizer", "--in", path])
    assert code == 1 and report["residuals"]["commutation"] > 0.1


def test_cat_seeded_verbs(capsys):
    code, report = _run(capsys, ["cat", "naturality", "--seed", "8"])
    assert code == 0 and report["pass"]
    code, report = _run(capsys, ["cat", "assoc", "--seed", "8"])
    assert code == 0 and report["residuals"]["associativity"] == 0.0
    code, report = _run(capsys, ["cat", "tau", "--seed", "8"])
    assert code == 0


def test_fred_verbs(tmp_path, capsys):
    from frcalc.generators import random_fredholm

    t = random_fredholm(2, 3, 2, 6)
    path = tmp_path / "t.json"
    dump_json("operator", t, str(path))
    code, report = _run(capsys, ["fred", "index", "--in", str(path)])
    assert code == 0
    assert report["result"]["index"] == 2


def test_fred_amplify_of_a_non_hom_exits_1_with_an_error(tmp_path, capsys):
    """0.3 times the matrix units has the shape of a hom but fails the
    frame axioms, so it is refused with one JSON line."""
    from frcalc.generators import random_fredholm

    bad = homspace.StarHom(2, 6, Frame(2, 6, 0.3 * matrix_unit_frame(2, 3).mats))
    paths = _files(tmp_path, t=("operator", random_fredholm(2, 3, 2, 6)), h=("hom", bad))
    code = run(["fred", "amplify", "--in", paths["t"], "--hom", paths["h"]])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1 and len(lines) == 1
    report = json.loads(lines[0])
    assert report["pass"] is False and report["error"] == "input not a unital *-homomorphism"
    # a hom off the axioms by 2e-9 is refused at the default abs_eps only
    off = _files(tmp_path, off=("hom", homspace.StarHom(2, 6, _off_frame())))["off"]
    argv = ["fred", "amplify", "--in", paths["t"], "--hom", off]
    config = tmp_path / "loose.toml"
    config.write_text("abs_eps = 1e-6\n")
    assert _run(capsys, argv)[0] == 1
    code, report = _run(capsys, ["--config", str(config), *argv])
    assert code == 0 and report["result"]["index"] == 6


def test_alg_isk_of_a_commutative_span_exits_1_with_an_error(tmp_path, capsys):
    """The diagonal matrices of M_4 span a 4-dimensional algebra that is
    not an M_2: a failure with no residual, reported as an error."""
    diag = Subalgebra(4, tuple(np.diag(np.eye(4)[i]).astype(complex) for i in range(4)))
    alg = _files(tmp_path, alg=("alg", diag))["alg"]
    code, report = _run(capsys, ["alg", "isk", "--in", alg, "--d", "2"])
    assert code == 1 and report["pass"] is False
    assert report["error"] == "not a 2-subalgebra" and report["residuals"] == {}
    alg = _files(tmp_path, alg=("alg", lambda_map(random_frame(2, 6, 7))))["alg"]
    code, report = _run(capsys, ["alg", "isk", "--in", alg, "--d", "2"])
    assert code == 0 and report["result"] == {"is_k_subalgebra": True}


def test_fred_conj_that_moves_the_kernel_exits_1_with_an_error(tmp_path, capsys, monkeypatch):
    from frcalc import fredholm
    from frcalc.generators import random_fredholm

    paths = _files(tmp_path, t=("operator", random_fredholm(2, 3, 2, 6)),
                   g=("matrix", np.eye(2, dtype=complex)))
    argv = ["fred", "conj", "--in", paths["t"], "--unitary", paths["g"]]
    code, report = _run(capsys, argv)
    assert code == 0 and report["pass"] is True
    monkeypatch.setattr(fredholm, "kernel_cokernel_dims", lambda t, tol: (id(t), 0))
    code, report = _run(capsys, argv)
    assert code == 1 and report["pass"] is False
    assert report["error"] == "conjugation changed the kernel or cokernel dimension"


def test_a_suite_battery_that_raises_reports_nan_residuals(capsys, monkeypatch):
    """A battery that raised has no residual: the suite reports each of
    its keys as NaN, which fails, and keeps the other batteries' values."""
    def broken(a, b):
        raise ValueError("broken kernel")

    monkeypatch.setattr(suite, "frames_close", broken)
    monkeypatch.setattr(suite, "BATTERIES", tuple(b for b in suite.BATTERIES
                                                  if b.name in ("frame_axioms", "reconstruction")))
    code = run(["suite", "--seed", "7", "--scale", "0.01"])
    report = _strict_json(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    assert report["residuals"]["reconstruction.max_entry_error"] == "nan"
    assert 0 <= report["residuals"]["frame_axioms.max_axiom_error"] < 1e-9
    assert [b["pass"] for b in report["result"]["batteries"]] == [True, False]
    assert "broken kernel" in report["result"]["batteries"][1]["error"]


def test_failed_arithmetic_check_exits_1(tmp_path, capsys, monkeypatch):
    """An ArithmeticError raised by a library check (as by the Smith
    normal form's unimodularity check) is a mathematical failure."""
    from frcalc import abgroup

    def broken(m):
        raise ArithmeticError("Smith normal form transforms are not unimodular")

    monkeypatch.setattr(abgroup, "smith_normal_form", broken)
    path = tmp_path / "m.json"
    path.write_text("[[2, 4], [6, 8]]")
    code, report = _run(capsys, ["ab", "snf", "--in", str(path)])
    assert code == 1
    assert report["pass"] is False and "unimodular" in report["error"]


def test_config_parsing():
    settings = parse_config("# tolerances\n\nabs_eps = 1e-7\nrank_cutoff = 1e-6  # comment\n"
                            "   \n  # and the seed\nseed = 11\n")
    assert settings.tol.abs_eps == 1e-7
    assert settings.tol.rank_cutoff == 1e-6
    assert settings.seed == 11
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus = 3\n")
    for text in ("abs_eps = -1\n", "rank_cutoff = nan\n", "abs_eps = inf\n", "seed = -2\n",
                 "seed = x\n", "abs_eps\n"):
        with pytest.raises(UsageError):
            parse_config(text)


def test_config_falls_back_to_frcalc_toml_in_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.delenv("FRCALC_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    assert load_settings().seed == 7
    (tmp_path / "frcalc.toml").write_text("seed = 42\n")
    assert load_settings().seed == 42
    # FRCALC_CONFIG takes precedence over that file.
    env = tmp_path / "env.txt"
    env.write_text("seed = 99\n")
    monkeypatch.setenv("FRCALC_CONFIG", str(env))
    assert load_settings().seed == 99


def test_config_env_override(tmp_path, monkeypatch):
    path = tmp_path / "conf.txt"
    path.write_text("seed = 99\n")
    monkeypatch.setenv("FRCALC_CONFIG", str(path))
    assert load_settings().seed == 99
    monkeypatch.delenv("FRCALC_CONFIG")
    assert load_settings().seed == 7


def test_list_ops_covers_every_verb(capsys):
    code, report = _run(capsys, ["list-ops"])
    assert code == 0
    ops = report["result"]["operations"]
    for module, verbs in {
        "frame": ["make-units", "verify", "pi1", "pi2", "dot", "tensor", "conj", "random"],
        "hom": ["ev", "iota", "compose", "tensor", "intertwiner", "random"],
        "alg": ["span", "centralizer", "isk", "extract", "grmap", "ztensor"],
        "cat": ["check-morphism", "frmap", "naturality", "assoc", "tau",
                "nerve-face", "bundle-face"],
        "fred": ["index", "conj", "amplify", "localize"],
        "ab": ["snf", "coker", "ker", "localize", "colim"],
    }.items():
        for verb in verbs:
            assert f"{module} {verb}" in ops
    assert "suite" in ops
