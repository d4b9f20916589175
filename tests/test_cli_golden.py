"""Golden CLI output: one small seeded call per verb (plus a few second
calls for optional flags), compared with the reports and output files
recorded in ``cli_golden.json``.

Every call runs in one directory holding the inputs that
``write_inputs`` makes with the library, so the calls do not depend on
each other.  Reports are compared without ``elapsed_ms``; ints, strings
and keys must match exactly and floats within 1e-12.  A subalgebra is
written in a canonical basis of its span, so the output of every verb
that writes one moves by less than 1e-12 when its inputs move by 1e-16.
"""

import contextlib
import io
import json
import math
import os
import pathlib

import numpy as np
import pytest

from frcalc import cli, fredholm, frames, generators, homspace, linalg
from frcalc.generators import MorphismConfig
from frcalc.grassmannian import lambda_map
from frcalc.serialize import (
    dump_json,
    fredholm_to_json,
    frame_to_json,
    hom_to_json,
    matrix_to_json,
    subalgebra_to_json,
)

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

CASES = [
    "frame make-units --d 2 --cofactor 3 --out mu.json",
    "frame verify --in f6.json",
    "frame pi1 --in f44.json --split 2 --out pi1.json",
    "frame pi2 --in f44.json --split 2 --out pi2.json",
    "frame dot --left p1.json --right p2.json --out dot.json",
    "frame tensor --left f22.json --right f12.json --out tensor.json",
    "frame conj --in f6.json --unitary u6.json --out conj.json",
    "frame random --d 2 --ambient 4 --seed 3 --out random.json",
    "hom ev --hom h.json --matrix x2.json --out ev.json",
    "hom iota --hom h.json --l 2 --out iota.json",
    "hom compose --outer h2.json --inner h.json --out compose.json",
    "hom tensor --left h.json --right h12.json --out htensor.json",
    "hom intertwiner --hom h.json --out intertwiner.json",
    "hom random --src 2 --l 2 --seed 5 --out hrandom.json",
    "alg span --in gens.json --out span.json",
    "alg centralizer --in alg6.json --out centralizer.json",
    "alg isk --in alg6.json --d 2",
    "alg extract --in alg6.json --d 2 --out extract.json",
    "alg grmap --hom df.json --aprime da_prime.json --a da.json --b db.json --out grmap.json",
    "alg ztensor --f df.json --g dg.json --a da.json --b db.json --phi dphi.json --psi dpsi.json",
    "cat check-morphism --hom cf.json --src-frame calpha.json --dst-frame cbeta.json",
    "cat check-morphism --hom cf.json --src-frame calpha.json --dst-frame cbeta.json --split 2",
    "cat frmap --hom cf.json --src-frame calpha.json --dst-frame cbeta.json --arg carg.json "
    "--out frmap.json",
    "cat naturality --in bundle.json",
    "cat naturality --seed 8",
    "cat assoc --seed 8",
    "cat assoc --a f22.json --b f24.json --c f12.json",
    "cat tau --seed 8",
    "cat nerve-face --chain chain.json --i 1 --out nerve.json",
    "cat bundle-face --chain chain.json --i 0 --matrix x1.json --out bundle_face.json",
    "fred index --in op.json",
    "fred conj --in op.json --unitary u2.json --out fconj.json",
    "fred amplify --in op.json --hom h.json --out amplify.json",
    "fred localize --stages stages.json --l 2",
    "fred localize --stages stages.json --l 2 --start-stage 1",
    "ab snf --in snf.json --out snf_out.json",
    "ab coker --in gh.json --out coker.json",
    "ab ker --in gh.json --out ker.json",
    "ab localize --in grp.json --l 2 --out localize.json",
    "ab colim --file colim.json --invert 3 --out colim_out.json",
    "suite --seed 7 --scale 0.02",
    "list-ops",
]


def _cmorphism_to_json(m):
    return {"hom": hom_to_json(m.f), "src_frame": frame_to_json(m.src_frame),
            "dst_frame": frame_to_json(m.dst_frame)}


def write_inputs():
    """Write every input file the cases read into the working directory."""
    def put(name, obj):
        dump_json("json", obj, name)

    f44 = frames.random_frame(4, 4, 2)
    for name, fr in {"f6.json": frames.random_frame(2, 6, 1), "f44.json": f44,
                     "p1.json": frames.pi1(f44, 2), "p2.json": frames.pi2(f44, 2),
                     "f24.json": frames.random_frame(2, 4, 3),
                     "f22.json": frames.random_frame(2, 2, 4),
                     "f12.json": frames.random_frame(1, 2, 5)}.items():
        put(name, frame_to_json(fr))
    rng = np.random.default_rng(11)
    put("x2.json", matrix_to_json(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))
    put("x1.json", matrix_to_json(np.array([[0.5 - 2j]])))
    put("u6.json", matrix_to_json(linalg.random_unitary(6, 6)))
    put("u2.json", matrix_to_json(linalg.random_unitary(2, 7)))
    h, h2 = homspace.random_hom(2, 2, 3), homspace.random_hom(4, 2, 4)
    put("h.json", hom_to_json(h))
    put("h2.json", hom_to_json(h2))
    h12 = homspace.random_hom(1, 2, 5)
    put("h12.json", hom_to_json(h12))
    f6 = frames.random_frame(2, 6, 1)
    put("alg6.json", {"ambient": 6, "basis": frame_to_json(f6)["mats"]})
    gens = frame_to_json(frames.random_frame(2, 4, 8))["mats"][:2]
    put("gens.json", {"ambient": 4, "basis": gens})
    cfg = MorphismConfig(2, 1, 2, 2)
    dm, dm2 = generators.random_d_morphism(cfg, 20), generators.random_d_morphism(cfg, 30)
    put("df.json", hom_to_json(dm.f))
    put("da.json", subalgebra_to_json(dm.a))
    put("db.json", subalgebra_to_json(dm.b))
    put("da_prime.json", subalgebra_to_json(lambda_map(generators.random_source_frame(cfg, 21))))
    put("dg.json", hom_to_json(dm2.f))
    put("dphi.json", subalgebra_to_json(dm2.a))
    put("dpsi.json", subalgebra_to_json(dm2.b))
    cm = generators.random_c_morphism(cfg, 40)
    put("cf.json", hom_to_json(cm.f))
    put("calpha.json", frame_to_json(cm.src_frame))
    put("cbeta.json", frame_to_json(cm.dst_frame))
    put("carg.json", frame_to_json(generators.random_source_frame(cfg, 41)))
    put("bundle.json", {
        "f": _cmorphism_to_json(generators.random_c_morphism(cfg, 50)),
        "g": _cmorphism_to_json(generators.random_c_morphism(cfg, 51)),
        "alpha_prime": frame_to_json(generators.random_source_frame(cfg, 52)),
        "phi_prime": frame_to_json(generators.random_source_frame(cfg, 53)),
    })
    put("chain.json", {"homs": [hom_to_json(h12), hom_to_json(h)]})
    op = generators.random_fredholm(2, 3, 2, 9)
    put("op.json", fredholm_to_json(op))
    put("stages.json", [fredholm_to_json(op), fredholm_to_json(fredholm.amplify(h, op))])
    put("snf.json", [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    put("gh.json", {"src": {"gens": 2, "rels": []}, "dst": {"gens": 2, "rels": [[4, 0]]},
                    "matrix": [[2, 0], [0, 3]]})
    put("grp.json", {"gens": 2, "rels": [[6, 0], [0, 4]]})
    put("colim.json", {"groups": [{"gens": 1, "rels": [[2 * 3 ** n]]} for n in range(4)],
                       "maps": [[[3]], [[3]], [[3]]]})


def call(case):
    """Run one case in the working directory: its exit code, its report
    without ``elapsed_ms`` and the parsed contents of each file it wrote."""
    argv = case.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    report = json.loads(out.getvalue())
    report.pop("elapsed_ms")
    files = {}
    for path in report["artifacts"]:
        with open(path) as fh:
            files[path] = json.load(fh)
        os.remove(path)
    return {"exit": code, "report": report, "files": files}


@contextlib.contextmanager
def _working_dir(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def collect(workdir):
    """Write the inputs into workdir and run every case there: each
    case's call() result, keyed by the case."""
    with _working_dir(workdir):
        write_inputs()
        return {case: call(case) for case in CASES}


def _assert_same(got, want, where="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), f"{where}: {got} != {want}"
        return
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    with _working_dir(d):
        write_inputs()
    return d


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(case, inputs_dir, golden, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    _assert_same(call(case), golden[case])


ALG_OUT_CASES = [case for case in CASES
                 if any(case.startswith(v.name + " ") for v in cli.VERBS if v.out == "alg")]


def _perturb(obj, rng):
    """The payload with about 1e-16 added to every float."""
    if isinstance(obj, float):
        return obj + 1e-16 * rng.standard_normal()
    if isinstance(obj, list):
        return [_perturb(x, rng) for x in obj]
    if isinstance(obj, dict):
        return {key: _perturb(x, rng) for key, x in obj.items()}
    return obj


def _basis_entries(result):
    (payload,) = result["files"].values()
    return np.array([m["entries"] for m in payload["basis"]])


@pytest.mark.parametrize("case", ALG_OUT_CASES)
def test_alg_output_is_stable_under_rounding(case, inputs_dir, tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    for path in inputs_dir.glob("*.json"):
        (tmp_path / path.name).write_text(json.dumps(_perturb(json.loads(path.read_text()), rng)))
    monkeypatch.chdir(inputs_dir)
    want = _basis_entries(call(case))
    monkeypatch.chdir(tmp_path)
    got = _basis_entries(call(case))
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want))) < 1e-12
