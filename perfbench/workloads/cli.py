"""`cli`: each op is one seeded chain of verbs through
``frcalc.cli.run(argv)`` on JSON files in a temporary directory, with
stdout captured.

A round is CHAINS_PER_ROUND chains plus four malformed-input calls.  The
malformed calls are format or usage errors for which the README promises
exit code 2; frcalc exits 1 on each of them today, so they are counted
as failed (known fault).  Their inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from frcalc import cli, generators
from frcalc.generators import MorphismConfig

import oracles
from workloads import Op, expect
from workloads.exact import check_snf

CHAINS_PER_ROUND = 4
ROUND_S = 2.5
ALG_D, ALG_AMBIENT = 2, 12
FRED_N, FRED_DOM, FRED_COD = 2, 3, 2
HOM_SRC, HOM_L = 2, 3
IOTA_L = 2
NAT_CONFIG = MorphismConfig(2, 1, 2, 2)
TOL = 1e-9


def _call(argv):
    """One cli.run call: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def _chain_argv(d, s):
    p = lambda name: os.path.join(d, name)  # noqa: E731
    return [
        ["frame", "random", "--d", "4", "--ambient", "8", "--seed", str(s), "--out", p("f.json")],
        ["frame", "verify", "--in", p("f.json")],
        ["frame", "pi1", "--in", p("f.json"), "--split", "2", "--out", p("p1.json")],
        ["frame", "pi2", "--in", p("f.json"), "--split", "2", "--out", p("p2.json")],
        ["frame", "dot", "--left", p("p1.json"), "--right", p("p2.json"), "--out", p("fd.json")],
        ["frame", "random", "--d", "2", "--ambient", "6", "--seed", str(s + 1), "--out", p("g.json")],
        ["frame", "random", "--d", "2", "--ambient", "6", "--seed", str(s + 2), "--out", p("g2.json")],
        ["frame", "tensor", "--left", p("g.json"), "--right", p("g2.json"), "--out", p("t.json")],
        ["hom", "random", "--src", str(HOM_SRC), "--l", str(HOM_L), "--seed", str(s + 3),
         "--out", p("h.json")],
        ["hom", "intertwiner", "--hom", p("h.json"), "--out", p("u.json")],
        ["hom", "iota", "--hom", p("h.json"), "--l", str(IOTA_L), "--out", p("hi.json")],
        ["hom", "random", "--src", str(HOM_SRC * HOM_L), "--l", "2", "--seed", str(s + 4),
         "--out", p("h2.json")],
        ["hom", "compose", "--outer", p("h2.json"), "--inner", p("h.json"), "--out", p("hc.json")],
        ["alg", "centralizer", "--in", p("alg.json"), "--out", p("z.json")],
        ["fred", "amplify", "--in", p("op.json"), "--hom", p("h.json"), "--out", p("amp.json")],
        ["fred", "index", "--in", p("amp.json")],
        ["ab", "snf", "--in", p("snf.json"), "--out", p("snf_out.json")],
        ["cat", "naturality", "--in", p("bundle.json")],
    ]


def _cmorphism_to_wire(m):
    return {"hom": oracles.hom_to_wire(m.f.src, m.f.dst, m.f.image_frame.mats),
            "src_frame": oracles.frame_to_wire(m.src_frame.mats),
            "dst_frame": oracles.frame_to_wire(m.dst_frame.mats)}


def _chain_inputs(d, seed):
    """Write the files a chain reads besides those it makes itself."""
    os.makedirs(d)
    rng = np.random.default_rng(seed)
    alpha = oracles.conjugate(oracles.haar_unitary(ALG_AMBIENT, rng),
                              oracles.basepoint_frame(ALG_D, ALG_AMBIENT // ALG_D))
    q = oracles.orthonormal_columns(alpha.reshape(ALG_D ** 2, ALG_AMBIENT, ALG_AMBIENT))
    alg = [q[:, j].reshape(ALG_AMBIENT, ALG_AMBIENT) for j in range(q.shape[1])]
    _write(os.path.join(d, "alg.json"),
           {"ambient": ALG_AMBIENT, "basis": [oracles.matrix_to_wire(m) for m in alg]})
    rows, cols = FRED_N * FRED_COD, FRED_N * FRED_DOM
    inner = min(rows, cols) - 1  # one extra kernel and cokernel dimension
    block = ((rng.standard_normal((rows, inner)) + 1j * rng.standard_normal((rows, inner))) @
             (rng.standard_normal((inner, cols)) + 1j * rng.standard_normal((inner, cols))))
    _write(os.path.join(d, "op.json"), {"n": FRED_N, "win_dom": FRED_DOM, "win_cod": FRED_COD,
                                        "finite_part": oracles.matrix_to_wire(block)})
    snf = rng.integers(-9, 10, (4, 4)).tolist()
    _write(os.path.join(d, "snf.json"), snf)
    s = int(rng.integers(1, 2 ** 31))
    _write(os.path.join(d, "bundle.json"), {
        "f": _cmorphism_to_wire(generators.random_c_morphism(NAT_CONFIG, s)),
        "g": _cmorphism_to_wire(generators.random_c_morphism(NAT_CONFIG, s + 1)),
        "alpha_prime": oracles.frame_to_wire(generators.random_source_frame(NAT_CONFIG, s + 2).mats),
        "phi_prime": oracles.frame_to_wire(generators.random_source_frame(NAT_CONFIG, s + 3).mats),
    })
    return {"dir": d, "alg": alg, "block": block, "snf": snf}


def _run_chain(argvs):
    return [_call(argv) for argv in argvs]


def _one_json_object(stdout):
    lines = stdout.splitlines()
    expect(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    report = json.loads(lines[0])
    expect(isinstance(report, dict), "stdout is not a JSON object")
    return report


def _frame(d, name):
    return oracles.frame_from_wire(_read(os.path.join(d, name)))


def _check_chain(inputs, calls):
    d = inputs["dir"]
    reports = {}
    for code, stdout in calls:
        report = _one_json_object(stdout)
        expect(code == 0 and report["pass"] is True, f"{report.get('verb')} exited {code}")
        reports[report["verb"]] = report
    f = _frame(d, "f.json")
    expect(oracles.frame_axiom_error(f) <= TOL, "random frame fails the axioms")
    expect(np.abs(_frame(d, "fd.json") - f).max() <= TOL, "pi1 . pi2 does not rebuild the frame")
    g, g2, t = _frame(d, "g.json"), _frame(d, "g2.json"), _frame(d, "t.json")
    want = np.einsum("ijab,pqcd->ipjqacbd", g, g2).reshape(t.shape)
    expect(np.abs(t - want).max() <= TOL, "tensor is not the Kronecker product of its factors")
    h = oracles.frame_from_wire(_read(os.path.join(d, "h.json"))["frame"])
    u = oracles.matrix_from_wire(_read(os.path.join(d, "u.json")))
    n = HOM_SRC * HOM_L
    expect(np.abs(u @ u.conj().T - np.eye(n)).max() <= TOL, "intertwiner is not unitary")
    model = oracles.conjugate(u, oracles.basepoint_frame(HOM_SRC, HOM_L))
    expect(np.abs(model - h).max() <= 1e-8, "intertwiner does not reproduce h(e_ij)")
    hi = oracles.frame_from_wire(_read(os.path.join(d, "hi.json"))["frame"])
    units = np.eye(IOTA_L * IOTA_L).reshape(IOTA_L, IOTA_L, IOTA_L, IOTA_L)
    want = np.einsum("ijxy,abuv->iajbxuyv", h, units).reshape(hi.shape)
    expect(np.abs(hi - want).max() <= TOL, "iota is not h (x) id")
    h2 = oracles.frame_from_wire(_read(os.path.join(d, "h2.json"))["frame"])
    hc = oracles.frame_from_wire(_read(os.path.join(d, "hc.json"))["frame"])
    expect(np.abs(hc - np.einsum("ijuv,uvab->ijab", h, h2)).max() <= TOL, "compose is not h2 after h")
    z = [oracles.matrix_from_wire(m) for m in _read(os.path.join(d, "z.json"))["basis"]]
    l = ALG_AMBIENT // ALG_D
    expect(len(z) == l * l, f"centralizer has dimension {len(z)}, not {l * l}")
    expect(oracles.max_commutator(z, inputs["alg"]) <= 1e-8, "centralizer does not commute")
    expect(oracles.orthonormal_columns(z).shape[1] == l * l, "centralizer basis is not independent")
    amp = oracles.matrix_from_wire(_read(os.path.join(d, "amp.json"))["finite_part"])
    rank = oracles.numerical_rank(inputs["block"])
    expect(oracles.numerical_rank(amp) == HOM_L * rank, "amplify does not multiply the rank by l")
    index = (FRED_N * FRED_DOM - rank) - (FRED_N * FRED_COD - rank)
    expect(reports["fred index"]["result"]["index"] == HOM_L * index, "index of the amplified operator")
    snf = _read(os.path.join(d, "snf_out.json"))
    check_snf(inputs["snf"], (snf["u"], snf["d"], snf["v"]))
    expect(reports["ab snf"]["result"]["invariant_factors"] ==
           [x for x in oracles.nonzero_invariant_factors(inputs["snf"]) if x != 1],
           "snf invariant factors differ from sympy")
    nat = reports["cat naturality"]["residuals"]
    expect(all(math.isfinite(v) and v <= 1e-8 for v in nat.values()), f"naturality residuals {nat}")


# ---- malformed input (known fault: exits 1, README promises 2) --------

def _malformed_inputs(d):
    os.makedirs(d)
    bad_frame = {"d": 2, "ambient": 4,
                 "mats": [oracles.matrix_to_wire(np.eye(3)) for _ in range(4)]}
    bad_alg = {"ambient": 4, "basis": [oracles.matrix_to_wire(np.eye(3))]}
    good_frame = oracles.frame_to_wire(oracles.basepoint_frame(2, 2))
    p = lambda name: os.path.join(d, name)  # noqa: E731
    _write(p("bad_frame.json"), bad_frame)
    _write(p("bad_alg.json"), bad_alg)
    _write(p("good_frame.json"), good_frame)
    with open(p("bad.toml"), "w") as fh:
        fh.write("abs_eps = -1\n")
    return [
        ["frame", "verify", "--in", p("bad_frame.json")],
        ["alg", "centralizer", "--in", p("bad_alg.json")],
        ["--config", p("bad.toml"), "frame", "verify", "--in", p("good_frame.json")],
        ["frame", "random", "--d", "4", "--ambient", "6"],
    ]


def _check_usage_error(result):
    code, stdout = result
    report = _one_json_object(stdout)
    expect(code == 2 and report["pass"] is False, f"{report.get('verb')}: exit {code}, not 2")


def make_ops(seed, rounds, workdir):
    malformed = _malformed_inputs(os.path.join(workdir, "malformed"))
    ops = []
    for i in range(rounds * CHAINS_PER_ROUND):
        s = seed * 1000 + i
        inputs = _chain_inputs(os.path.join(workdir, f"chain{i}"), s)
        argvs = _chain_argv(inputs["dir"], s)
        ops.append(Op(lambda a=argvs: _run_chain(a), lambda out, x=inputs: _check_chain(x, out)))
        if i % CHAINS_PER_ROUND == CHAINS_PER_ROUND - 1:
            ops.extend(Op(lambda a=argv: _call(a), _check_usage_error, known_fault=True)
                       for argv in malformed)
    return ops
