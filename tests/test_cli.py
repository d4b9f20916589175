import argparse
import itertools
import json
import os
import subprocess
import sys

import pytest

import frcalc
from frcalc import cli
from frcalc.cli import run
from frcalc.config import UsageError, load_settings, parse_config
from frcalc.frames import matrix_unit_frame
from frcalc.serialize import dump_json, frame_to_json, load_json


def _run(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_frame_verify_pass(tmp_path, capsys):
    path = tmp_path / "f.json"
    dump_json(frame_to_json(matrix_unit_frame(2, 3)), str(path))
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
    dump_json(payload, str(path))
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
}


def _malformed(tmp_path, case):
    """argv of one format or usage error, with its input files written."""
    eye3 = {"rows": 3, "cols": 3, "entries": [[float(i == j), 0.0] for i in range(3)
                                              for j in range(3)]}
    frame = tmp_path / "frame.json"
    if case == "frame of the wrong size":
        frame.write_text(json.dumps({"d": 2, "ambient": 4, "mats": [eye3] * 4}))
        return ["frame", "verify", "--in", str(frame)]
    if case == "subalgebra of the wrong size":
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"ambient": 4, "basis": [eye3]}))
        return ["alg", "centralizer", "--in", str(path)]
    if case == "negative abs_eps":
        dump_json(frame_to_json(matrix_unit_frame(2, 2)), str(frame))
        config = tmp_path / "bad.toml"
        config.write_text("abs_eps = -1\n")
        return ["--config", str(config), "frame", "verify", "--in", str(frame)]
    return _BAD_FLAGS[case].split()


@pytest.mark.parametrize("case", ["frame of the wrong size", "subalgebra of the wrong size",
                                  "negative abs_eps", *_BAD_FLAGS])
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
    original = load_json(str(f))
    recombined = load_json(str(d))
    for a, b in zip(original["mats"], recombined["mats"]):
        for (re1, im1), (re2, im2) in zip(a["entries"], b["entries"]):
            assert abs(re1 - re2) < 1e-9 and abs(im1 - im2) < 1e-9


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


def test_ab_colim_verb(tmp_path, capsys):
    chain = {
        "groups": [{"gens": 1, "rels": [[2 * 3 ** n]]} for n in range(4)],
        "maps": [[[3]], [[3]], [[3]]],
    }
    path = tmp_path / "chain.json"
    dump_json(chain, str(path))
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


def test_alg_centralizer_verb(tmp_path, capsys):
    f = tmp_path / "f.json"
    a = tmp_path / "a.json"
    assert run(["frame", "random", "--d", "2", "--ambient", "6",
                "--seed", "5", "--out", str(f)]) == 0
    capsys.readouterr()
    # span the frame into a subalgebra file
    payload = load_json(str(f))
    dump_json({"ambient": 6, "basis": payload["mats"]}, str(a))
    code, report = _run(capsys, ["alg", "centralizer", "--in", str(a)])
    assert code == 0
    assert report["result"]["dim"] == 9


def test_cat_seeded_verbs(capsys):
    code, report = _run(capsys, ["cat", "naturality", "--seed", "8"])
    assert code == 0 and report["pass"]
    code, report = _run(capsys, ["cat", "assoc", "--seed", "8"])
    assert code == 0 and report["residuals"]["associativity"] == 0.0
    code, report = _run(capsys, ["cat", "tau", "--seed", "8"])
    assert code == 0


def test_fred_verbs(tmp_path, capsys):
    from frcalc.generators import random_fredholm
    from frcalc.serialize import fredholm_to_json

    t = random_fredholm(2, 3, 2, 6)
    path = tmp_path / "t.json"
    dump_json(fredholm_to_json(t), str(path))
    code, report = _run(capsys, ["fred", "index", "--in", str(path)])
    assert code == 0
    assert report["result"]["index"] == 2


def test_config_parsing():
    settings = parse_config("abs_eps = 1e-7\nrank_cutoff = 1e-6  # comment\nseed = 11\n")
    assert settings.tol.abs_eps == 1e-7
    assert settings.tol.rank_cutoff == 1e-6
    assert settings.seed == 11
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus = 3\n")
    for text in ("abs_eps = -1\n", "rank_cutoff = nan\n", "abs_eps = inf\n", "seed = -2\n",
                 "seed = x\n", "abs_eps\n"):
        with pytest.raises(UsageError):
            parse_config(text)


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
