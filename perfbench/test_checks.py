"""Each correctness check of the benchmark rejects a deliberately
corrupted output.

    python3 -m pytest perfbench/test_checks.py -q

Every test runs one real op, confirms that its check accepts the real
output, then corrupts one field and expects ``CheckFailed``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from frcalc.frames import Frame  # noqa: E402
from frcalc.grassmannian import Subalgebra  # noqa: E402

import oracles  # noqa: E402
from workloads import CheckFailed  # noqa: E402
from workloads import cli, exact, subalgebra, suite  # noqa: E402


def _rejects(check, out):
    with pytest.raises(CheckFailed):
        check(out)


# ---- suite -------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_op():
    op = suite.make_ops(seed=5, rounds=1, workdir=None)[0]
    out = op.run()
    suite.ReportCheck()(out)
    return out


def _set_residual(report, battery, key, value):
    bad = copy.deepcopy(report)
    next(b for b in bad["batteries"] if b["name"] == battery)["residuals"][key] = value
    return bad


@pytest.mark.parametrize("battery,key,value", [
    ("frame_axioms", "max_axiom_error", 2e-9),
    ("naturality", "square_residual", float("nan")),
    ("nerve", "simplicial_identity", float("inf")),
    ("coherence_diagrams", "associativity", 1e-300),
    ("nerve", "degeneracy_roundtrip", 5e-324),
    ("fredholm_index", "amplification_violations", 1.0),
    ("centralizer", "wrong_dimension_count", 1.0),
])
def test_suite_rejects_residual(suite_op, battery, key, value):
    _rejects(suite.ReportCheck(), _set_residual(suite_op, battery, key, value))


def test_suite_rejects_failing_report_and_missing_battery(suite_op):
    bad = copy.deepcopy(suite_op)
    bad["pass"] = False
    _rejects(suite.ReportCheck(), bad)
    bad = copy.deepcopy(suite_op)
    bad["batteries"].pop()
    _rejects(suite.ReportCheck(), bad)


def test_suite_rejects_nondeterministic_report(suite_op):
    check = suite.ReportCheck()
    check(suite_op)
    other = copy.deepcopy(suite_op)
    other["batteries"][0]["residuals"]["max_axiom_error"] /= 2
    _rejects(check, other)


# ---- subalgebra --------------------------------------------------------

@pytest.fixture(scope="module")
def subalgebra_op():
    op = subalgebra.make_ops(seed=5, rounds=1, workdir=None)[0]
    out = op.run()
    op.check(out)
    return op, out


def _replace_split(out, field, value, split=1):
    bad = dict(out, splits=[dict(s) for s in out["splits"]])
    bad["splits"][split][field] = value
    return bad


def _perturbed(alg, scale=1e-6):
    rng = np.random.default_rng(0)
    basis = [m + scale * rng.standard_normal(m.shape) for m in alg.basis]
    return Subalgebra(alg.ambient, tuple(basis))


def test_subalgebra_rejects_corrupted_centralizer(subalgebra_op):
    op, out = subalgebra_op
    z = out["splits"][1]["z"]
    _rejects(op.check, _replace_split(out, "z", Subalgebra(z.ambient, z.basis[:-1])))
    _rejects(op.check, _replace_split(out, "z", _perturbed(z)))
    _rejects(op.check, _replace_split(out, "zz", out["splits"][1]["z"]))
    _rejects(op.check, _replace_split(out, "zz", _perturbed(out["splits"][1]["zz"])))


def test_subalgebra_rejects_wrong_verdicts(subalgebra_op):
    op, out = subalgebra_op
    _rejects(op.check, _replace_split(out, "is_k", False))
    _rejects(op.check, _replace_split(out, "diagonal_is_k", True))


def test_subalgebra_rejects_corrupted_frame_and_spans(subalgebra_op):
    op, out = subalgebra_op
    fr = out["splits"][0]["extracted"]
    mats = fr.mats.copy()
    mats[0, 1] *= 1.001
    _rejects(op.check, _replace_split(out, "extracted", Frame(fr.d, fr.ambient, mats), split=0))
    _rejects(op.check, _replace_split(out, "span", out["splits"][2]["span"]))
    _rejects(op.check, dict(out, grmap=_perturbed(out["grmap"], 1e-4)))
    _rejects(op.check, dict(out, ztensor=(True, 1e-6)))


# ---- exact -------------------------------------------------------------

@pytest.fixture(scope="module")
def exact_op():
    saved = (exact.SNF_SIZES, exact.QUOTIENT_MAPS, exact.FULL_RANK_MAPS, exact.CHAINS,
             exact.ASSOCIATIVITY)
    exact.SNF_SIZES, exact.QUOTIENT_MAPS, exact.FULL_RANK_MAPS = {4: 3, 5: 3}, 3, 3
    exact.CHAINS, exact.ASSOCIATIVITY = 3, 1
    try:
        op = exact.make_ops(seed=5, rounds=1, workdir=None)[0]
    finally:
        (exact.SNF_SIZES, exact.QUOTIENT_MAPS, exact.FULL_RANK_MAPS, exact.CHAINS,
         exact.ASSOCIATIVITY) = saved
    out = op.run()
    op.check(out)
    return op, out


def _replace(out, field, index, value):
    bad = dict(out)
    bad[field] = list(out[field])
    bad[field][index] = value
    return bad


def test_exact_rejects_corrupted_smith_form(exact_op):
    op, out = exact_op
    u, d, v = copy.deepcopy(out["snf"][4])
    d[0][0] += 1
    _rejects(op.check, _replace(out, "snf", 4, (u, d, v)))
    # Doubling a row of both U and D keeps U M V = D but breaks unimodularity.
    u, d, v = copy.deepcopy(out["snf"][4])
    u[0] = [2 * x for x in u[0]]
    d[0] = [2 * x for x in d[0]]
    _rejects(op.check, _replace(out, "snf", 4, (u, d, v)))


def test_exact_rejects_corrupted_groups(exact_op):
    op, out = exact_op
    ker, coker = out["quotient"][0]
    wrong = exact.AbGroupPresentation.from_rows(coker.gens + 1, [list(r) + [0] for r in coker.rels])
    _rejects(op.check, _replace(out, "quotient", 0, (ker, wrong)))
    ker, coker = out["full"][0]
    _rejects(op.check, _replace(out, "full", 0, (exact.AbGroupPresentation.free(1), coker)))
    (colim, stage), loc = out["chains"][0]
    _rejects(op.check, _replace(out, "chains", 0, ((colim, stage + 1), loc)))
    _rejects(op.check, _replace(out, "assoc", 0, 1e-17))


def test_exact_rejects_diagonal_that_is_no_divisibility_chain():
    eye = [[1, 0], [0, 1]]
    exact.check_snf([[2, 0], [0, 4]], (eye, [[2, 0], [0, 4]], eye))
    with pytest.raises(CheckFailed):
        exact.check_snf([[2, 0], [0, 3]], (eye, [[2, 0], [0, 3]], eye))


# ---- cli ---------------------------------------------------------------

@pytest.fixture()
def workdir():
    """A scratch directory inside the checkout's benchmark work area."""
    work = HERE.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=work))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture()
def cli_op(workdir):
    ops = cli.make_ops(seed=5, rounds=1, workdir=str(workdir))
    op = ops[0]
    out = op.run()
    op.check(out)
    return op, out, ops[cli.CHAINS_PER_ROUND:]


def _edit_frame_file(op_dir, name, edit, key=None):
    path = os.path.join(op_dir, name)
    with open(path) as fh:
        obj = json.load(fh)
    target = obj[key] if key else obj
    edit(target)
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.mark.parametrize("name,key", [
    ("t.json", None), ("fd.json", None), ("hi.json", "frame"), ("hc.json", "frame"),
])
def test_cli_rejects_corrupted_frame_file(cli_op, workdir, name, key):
    op, out, _ = cli_op

    def bump(frame):
        frame["mats"][1]["entries"][0][0] += 1e-6
    _edit_frame_file(str(workdir / "chain0"), name, bump, key)
    _rejects(op.check, out)


def test_cli_rejects_corrupted_matrices(cli_op, workdir):
    op, out, _ = cli_op
    path = workdir / "chain0" / "u.json"
    u = json.loads(path.read_text())
    u["entries"][0][0] += 1e-6
    path.write_text(json.dumps(u))
    _rejects(op.check, out)


def test_cli_rejects_wrong_rank(cli_op, workdir):
    op, out, _ = cli_op
    amp = json.loads((workdir / "chain0" / "amp.json").read_text())
    m = oracles.matrix_from_wire(amp["finite_part"])
    u, s, vh = np.linalg.svd(m)
    m -= s[0] * np.outer(u[:, 0], vh[0])  # one rank less
    amp["finite_part"] = oracles.matrix_to_wire(m)
    (workdir / "chain0" / "amp.json").write_text(json.dumps(amp))
    _rejects(op.check, out)


def test_cli_rejects_snf_output(cli_op, workdir):
    op, out, _ = cli_op
    snf = json.loads((workdir / "chain0" / "snf_out.json").read_text())
    snf["d"][0][0] += 1
    (workdir / "chain0" / "snf_out.json").write_text(json.dumps(snf))
    _rejects(op.check, out)


def test_cli_rejects_bad_exit_and_extra_output(cli_op):
    op, out, _ = cli_op
    code, stdout = out[1]
    _rejects(op.check, out[:1] + [(1, stdout)] + out[2:])
    _rejects(op.check, out[:1] + [(0, stdout + stdout)] + out[2:])


def test_cli_rejects_wrong_invariant_factors(cli_op):
    op, out, _ = cli_op
    i = next(i for i, (_, stdout) in enumerate(out) if json.loads(stdout)["verb"] == "ab snf")
    code, stdout = out[i]
    report = json.loads(stdout)
    report["result"]["invariant_factors"] = report["result"]["invariant_factors"] + [2]
    _rejects(op.check, out[:i] + [(code, json.dumps(report) + "\n")] + out[i + 1:])


def test_cli_usage_error_check(cli_op):
    _, _, malformed = cli_op
    assert len(malformed) == 4 and all(op.known_fault for op in malformed)
    report = json.dumps({"verb": "frame verify", "pass": False, "error": "bad"})
    cli._check_usage_error((2, report + "\n"))
    _rejects(cli._check_usage_error, (1, report + "\n"))
    _rejects(cli._check_usage_error, (2, ""))
