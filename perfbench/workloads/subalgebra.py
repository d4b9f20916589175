"""`subalgebra`: each op is one seeded case through `grassmannian`.

For each split k * l of the ambient size 24 (2 * 12, 3 * 8, 4 * 6) a
case takes a random degree-k frame alpha = V (e_ij (x) E_l) V*, and runs
lambda_map, the centralizer, the double centralizer, is_k_subalgebra (on
the span and on a commutative span of diagonal projections),
extract_frame and span_subalgebra.  It ends with one gr_map in M_12 and
one centralizer_tensor_check in M_24.  Time goes to LAPACK eigh/svd and
to Python loops over bases, with almost no einsum.
"""

from __future__ import annotations

import math

import numpy as np

from frcalc import generators, grassmannian
from frcalc.frames import Frame
from frcalc.generators import MorphismConfig
from frcalc.grassmannian import Subalgebra

import oracles
from workloads import Op, expect

AMBIENT = 24
SPLITS = ((2, 12), (3, 8), (4, 6))
GRMAP_CONFIG = MorphismConfig(2, 3, 2, 3)
ZTENSOR_CONFIGS = (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2))
ROUND_S = 0.95
TOL = 1e-8


def _diagonal_span(k, n, u):
    """A commutative unital span of dimension k^2: conjugated diagonal
    projections onto k^2 blocks of coordinates, HS-normalized."""
    basis = []
    for block in np.array_split(np.arange(n), k * k):
        p = np.zeros((n, n), dtype=complex)
        p[block, block] = 1.0
        basis.append(oracles.conjugate(u, p) / math.sqrt(len(block)))
    return Subalgebra(n, tuple(basis))


def _case_inputs(seed):
    rng = np.random.default_rng(seed)
    splits = []
    for k, l in SPLITS:
        v = oracles.haar_unitary(AMBIENT, rng)
        alpha = oracles.conjugate(v, oracles.basepoint_frame(k, l))
        commutant = [oracles.conjugate(v, np.kron(np.eye(k), unit))
                     for unit in np.eye(l * l).reshape(l * l, l, l)]
        gens = [alpha[i, i + 1] for i in range(k - 1)]
        diagonal = _diagonal_span(k, AMBIENT, oracles.haar_unitary(AMBIENT, rng))
        splits.append({"k": k, "frame": Frame(k, AMBIENT, alpha), "commutant": commutant,
                       "gens": gens, "diagonal": diagonal})
    d = generators.random_d_morphism(GRMAP_CONFIG, seed)
    # A second orthonormal basis of the same algebra A, so that
    # gr_map(f, A', A, B) must give B.
    w = oracles.haar_unitary(d.a.dim, rng)
    a_prime = Subalgebra(d.a.ambient, tuple(np.einsum("ij,jab->iab", w, np.array(d.a.basis))))
    zf = generators.random_d_morphism(ZTENSOR_CONFIGS[0], seed + 1)
    zg = generators.random_d_morphism(ZTENSOR_CONFIGS[1], seed + 2)
    return {"splits": splits, "grmap": (d, a_prime), "ztensor": (zf, zg)}


def _run(case):
    out = {"splits": []}
    for sp in case["splits"]:
        a = grassmannian.lambda_map(sp["frame"])
        z = grassmannian.centralizer(a)
        zz = grassmannian.centralizer(z)
        out["splits"].append({
            "a": a, "z": z, "zz": zz,
            "is_k": grassmannian.is_k_subalgebra(a, sp["k"]),
            "diagonal_is_k": grassmannian.is_k_subalgebra(sp["diagonal"], sp["k"]),
            "extracted": grassmannian.extract_frame(a, sp["k"]),
            "span": grassmannian.span_subalgebra(sp["gens"], AMBIENT),
        })
    d, a_prime = case["grmap"]
    out["grmap"] = grassmannian.gr_map(d.f, a_prime, d.a, d.b)
    zf, zg = case["ztensor"]
    out["ztensor"] = grassmannian.centralizer_tensor_check(zf.f, zg.f, zf.a, zf.b, zg.a, zg.b)
    return out


def _check(case, out):
    for sp, res in zip(case["splits"], out["splits"]):
        k = sp["k"]
        alpha = list(sp["frame"].mats.reshape(k * k, AMBIENT, AMBIENT))
        a, z, zz = res["a"], res["z"], res["zz"]
        expect(oracles.span_gap(a.basis, alpha) <= TOL, f"k={k}: lambda_map span is not the frame's")
        l2 = (AMBIENT // k) ** 2
        expect(z.dim == l2, f"k={k}: centralizer has dimension {z.dim}, not {l2}")
        expect(oracles.span_gap(z.basis, sp["commutant"]) <= TOL,
               f"k={k}: centralizer is not V (E_k (x) M_l) V*")
        expect(oracles.max_commutator(z.basis, alpha) <= TOL, f"k={k}: centralizer does not commute")
        expect(oracles.span_gap(zz.basis, alpha) <= TOL, f"k={k}: double centralizer is not the span")
        expect(oracles.max_commutator(zz.basis, z.basis) <= TOL,
               f"k={k}: double centralizer does not commute with the centralizer")
        expect(res["is_k"] is True, f"k={k}: is_k_subalgebra rejects a frame span")
        expect(res["diagonal_is_k"] is False, f"k={k}: is_k_subalgebra accepts a commutative span")
        ex = res["extracted"].mats
        expect(oracles.frame_axiom_error(ex) <= TOL, f"k={k}: extracted frame fails the axioms")
        expect(oracles.span_gap(list(ex.reshape(k * k, AMBIENT, AMBIENT)), alpha) <= TOL,
               f"k={k}: extracted frame spans another algebra")
        expect(oracles.span_gap(res["span"].basis, alpha) <= TOL,
               f"k={k}: generated subalgebra is not the frame's span")
    d, _ = case["grmap"]
    expect(oracles.span_gap(out["grmap"].basis, d.b.basis) <= TOL, "gr_map(f, A', A, B) is not B")
    ok, dist = out["ztensor"]
    expect(ok is True and math.isfinite(dist) and dist <= TOL,
           f"centralizer of a tensor does not factor (distance {dist!r})")


def make_ops(seed, rounds, workdir):
    cases = [_case_inputs(seed * 1000 + i) for i in range(rounds)]
    return [Op(lambda c=c: _run(c), lambda out, c=c: _check(c, out)) for c in cases]
