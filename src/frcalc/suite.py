"""Property batteries over seeded random data.

Each battery returns a plain dict {"name", "pass", "residuals"} whose
residuals are worst cases over the whole batch; the CLI `suite` verb and
the acceptance tests both run through these, so a battery is the single
source of truth for its check.
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np

from .linalg import max_abs, random_unitary, subspace_distance
from .frames import (
    conjugate_frame,
    dot,
    frames_close,
    matrix_unit_frame,
    pi1,
    pi2,
    random_frame,
    tensor_frame,
    trivial_frame,
    verify_frame,
)
from .homspace import (
    StarHom,
    block_scalar_deviation,
    compose_phi,
    compose_plain,
    ev,
    intertwiner,
    intertwiner_residual,
    iota,
    push_frame,
    random_hom,
)
from .grassmannian import centralizer, centralizer_tensor_check, lambda_map
from .catverify import (
    NerveChain,
    bundle_face,
    check_associativity,
    check_identity_embedding,
    check_naturality,
    check_tau,
    fr_map,
    make_c_morphism,
    nerve_degeneracy,
    nerve_face,
)
from .fredholm import amplify, conjugate, index, localize_index
from .abgroup import (
    AbGroupPresentation,
    GroupHom,
    cokernel,
    kernel,
    localize,
    sequential_colimit,
    smith_normal_form,
)
from .generators import (
    MorphismConfig,
    random_c_morphism,
    random_d_morphism,
    random_fredholm,
    random_source_frame,
)


def _report(name, residuals, thresholds):
    ok = all(residuals[k] <= thresholds[k] for k in residuals)
    return {"name": name, "pass": bool(ok), "residuals": residuals,
            "thresholds": thresholds}


def frame_axioms_battery(seed=7, count=200, pairs=((2, 3), (3, 2), (2, 5))):
    worst = 0.0
    for k, l in pairs:
        for i in range(count):
            fr = random_frame(k, k * l, seed * 1_000_003 + 97 * i + k * 13 + l)
            worst = max(worst, verify_frame(fr).max_error)
    return _report("frame_axioms", {"max_axiom_error": worst},
                   {"max_axiom_error": 1e-9})


def reconstruction_battery(seed=7, count=200, splits=((2, 2), (2, 3), (3, 2))):
    worst = 0.0
    for d1, d2 in splits:
        for i in range(count):
            beta = random_frame(d1 * d2, d1 * d2 * 2, seed * 999_983 + 31 * i + d1 + 7 * d2)
            rebuilt = dot(pi1(beta, d1), pi2(beta, d1))
            worst = max(worst, frames_close(rebuilt, beta))
    return _report("reconstruction", {"max_entry_error": worst},
                   {"max_entry_error": 1e-9})


def intertwiner_battery(seed=7, count=100, pairs=((2, 3), (3, 2), (2, 5))):
    worst_res, worst_coset = 0.0, 0.0
    for k, l in pairs:
        for i in range(count):
            s = seed * 7_368_787 + 101 * i + 17 * k + l
            v = random_unitary(k * l, s)
            h = StarHom(k, k * l, conjugate_frame(v, matrix_unit_frame(k, l)))
            u = intertwiner(h)
            worst_res = max(worst_res, intertwiner_residual(h, u))
            # v is a second, independently known intertwiner of h.
            worst_coset = max(worst_coset,
                              block_scalar_deviation(v.conj().T @ u, k, l))
    return _report("intertwiner",
                   {"residual": worst_res, "coset_deviation": worst_coset},
                   {"residual": 1e-8, "coset_deviation": 1e-7})


def centralizer_battery(seed=7, count=100, k=2, l=3):
    bad_dim = 0
    worst_dist = 0.0
    for i in range(count):
        a = lambda_map(random_frame(k, k * l, seed * 2_750_159 + 53 * i))
        z = centralizer(a)
        if z.dim != l * l:
            bad_dim += 1
        zz = centralizer(z)
        worst_dist = max(worst_dist,
                         subspace_distance(list(zz.basis), list(a.basis)))
    return _report("centralizer",
                   {"wrong_dimension_count": float(bad_dim),
                    "double_centralizer_distance": worst_dist},
                   {"wrong_dimension_count": 0.0,
                    "double_centralizer_distance": 1e-8})


_NAT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 6, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
    (MorphismConfig(1, 1, 6, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 4, 4)),
]


def naturality_battery(seed=7, count=100):
    worst_square, worst_witness = 0.0, 0.0
    for i in range(count):
        cfg_f, cfg_g = _NAT_CONFIGS[i % len(_NAT_CONFIGS)]
        s = seed * 15_485_863 + 211 * i
        fd = random_c_morphism(cfg_f, s)
        gd = random_c_morphism(cfg_g, s + 50)
        ap = random_source_frame(cfg_f, s + 90)
        pp = random_source_frame(cfg_g, s + 91)
        sq, wit = check_naturality(fd, gd, ap, pp)
        worst_square = max(worst_square, sq)
        worst_witness = max(worst_witness, wit)
    return _report("naturality",
                   {"square_residual": worst_square, "witness_residual": worst_witness},
                   {"square_residual": 1e-8, "witness_residual": 1e-8})


def diagrams_battery(seed=7, count=50):
    worst_assoc, worst_ident, worst_tau = 0.0, 0.0, 0.0
    for i in range(count):
        s = seed * 32_452_843 + 307 * i
        a = random_frame(2, 2, s)
        b = random_frame(2, 6, s + 1)
        worst_assoc = max(worst_assoc, check_associativity(
            a, random_frame(2, 4, s + 2), random_frame(1, 2, s + 3)))
        worst_ident = max(worst_ident, check_identity_embedding(b))
        worst_tau = max(worst_tau, check_tau(a, b))
    return _report("coherence_diagrams",
                   {"associativity": worst_assoc, "identity": worst_ident,
                    "tau": worst_tau},
                   {"associativity": 0.0, "identity": 1e-9, "tau": 1e-9})


_ZT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 6, 2), MorphismConfig(1, 1, 3, 1)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
]


def centralizer_tensor_battery(seed=7, count=25):
    worst = 0.0
    for i in range(count):
        cfg_f, cfg_g = _ZT_CONFIGS[i % len(_ZT_CONFIGS)]
        s = seed * 49_979_687 + 401 * i
        fd = random_d_morphism(cfg_f, s)
        gd = random_d_morphism(cfg_g, s + 60)
        _, dist = centralizer_tensor_check(fd.f, gd.f, fd.a, fd.b, gd.a, gd.b)
        worst = max(worst, dist)
    return _report("centralizer_tensor", {"subspace_distance": worst},
                   {"subspace_distance": 1e-8})


def ev_composition_battery(seed=7, count=100, k=2, l=3):
    worst = 0.0
    rng = np.random.default_rng(seed + 424242)
    for i in range(count):
        s = seed * 86_028_121 + 503 * i
        h1 = random_hom(k, l, s)
        h2 = random_hom(k, l, s + 1)
        t = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        composed = compose_phi(h2, h1)
        stepped = ev(iota(h2, h1.dst // h2.src), ev(h1, t))
        worst = max(worst, max_abs(ev(composed, t) - stepped))
    return _report("ev_composition", {"max_entry_error": worst},
                   {"max_entry_error": 1e-9})


def fredholm_battery(seed=7, count=100, k=2, l=3):
    conj_violations = 0
    amp_violations = 0
    for i in range(count):
        s = seed * 67_867_967 + 601 * i
        t = random_fredholm(k, 3, 2, s, deficiency=i % 3)
        base = index(t)
        g = random_unitary(k, s + 1)
        if index(conjugate(g, t)) != base:
            conj_violations += 1
        h = random_hom(k, l, s + 2)
        amped = amplify(h, t)
        if index(amped) != l * base:
            amp_violations += 1
        stable = localize_index([t, amped], l)
        if stable != Fraction(base, 1):
            amp_violations += 1
    return _report("fredholm_index",
                   {"conjugation_violations": float(conj_violations),
                    "amplification_violations": float(amp_violations)},
                   {"conjugation_violations": 0.0,
                    "amplification_violations": 0.0})


def _random_chain(seed: int, length: int) -> NerveChain:
    # Levels alternate genuine size jumps (ratio l=3) with automorphisms.
    specs = [(2, 3), (6, 1), (6, 3), (18, 1)][:length]
    homs = tuple(random_hom(n, l, seed + 11 * j) for j, (n, l) in enumerate(specs))
    return NerveChain(homs)


def _chain_residual(c1: NerveChain, c2: NerveChain) -> float:
    if len(c1) != len(c2) or c1.levels != c2.levels:
        return float("inf")
    worst = 0.0
    for h1, h2 in zip(c1.homs, c2.homs):
        worst = max(worst, max_abs(h1.image_frame.mats - h2.image_frame.mats))
    return worst


def nerve_battery(seed=7, count=50):
    worst_simplicial = 0.0
    worst_bundle = 0.0
    worst_degeneracy = 0.0
    rng = np.random.default_rng(seed + 555)
    for i in range(count):
        s = seed * 23_456_789 + 701 * i
        length = 2 + (i % 3)
        chain = _random_chain(s, length)
        for j in range(length + 1):
            for k_ in range(j + 1, length + 1):
                left = nerve_face(j, nerve_face(k_, chain))
                right = nerve_face(k_ - 1, nerve_face(j, chain))
                worst_simplicial = max(worst_simplicial, _chain_residual(left, right))
        # Degeneracy: adjacent face undoes the identity insertion.
        for j in range(length + 1):
            degen = nerve_degeneracy(j, chain)
            worst_degeneracy = max(worst_degeneracy,
                                   _chain_residual(nerve_face(j, degen), chain))
        # Bundle faces: stepwise evaluation agrees with composed evaluation.
        n0 = chain.homs[0].src
        t = rng.standard_normal((n0, n0)) + 1j * rng.standard_normal((n0, n0))
        two = NerveChain(chain.homs[:2])
        after0_chain, after0_t = bundle_face(0, two, t)
        after1_chain, after1_t = bundle_face(1, two, t)
        stepwise = ev(after0_chain.homs[0], after0_t)
        composed = ev(after1_chain.homs[0], after1_t)
        worst_bundle = max(worst_bundle, max_abs(stepwise - composed))
        _, t_kept = bundle_face(2, two, t)
        worst_bundle = max(worst_bundle, max_abs(t_kept - t))
    return _report("nerve",
                   {"simplicial_identity": worst_simplicial,
                    "bundle_compatibility": worst_bundle,
                    "degeneracy_roundtrip": worst_degeneracy},
                   {"simplicial_identity": 1e-9,
                    "bundle_compatibility": 1e-9,
                    "degeneracy_roundtrip": 0.0})


def functoriality_battery(seed=7, count=50):
    """fr_map respects composition of frame-condition morphisms."""
    worst = 0.0
    for i in range(count):
        s = seed * 54_018_521 + 809 * i
        fd = random_c_morphism(MorphismConfig(2, 1, 2, 2), s)
        # Second leg consumes fd's target object (ambient 4, degree-4 frame).
        u = random_unitary(8, s + 3)
        g = StarHom(4, 8, conjugate_frame(u, matrix_unit_frame(4, 2)))
        rho = conjugate_frame(u, tensor_frame(trivial_frame(4), random_frame(2, 2, s + 4)))
        delta = dot(push_frame(g, fd.dst_frame), rho)
        gd = make_c_morphism(g, fd.dst_frame, delta)
        composed = make_c_morphism(compose_plain(g, fd.f), fd.src_frame, delta)
        ap = random_source_frame(MorphismConfig(2, 1, 2, 2), s + 5)
        worst = max(worst, frames_close(fr_map(composed, ap),
                                        fr_map(gd, fr_map(fd, ap))))
    return _report("fr_functoriality", {"max_entry_error": worst},
                   {"max_entry_error": 1e-8})


def _gcd_minors_factors(m):
    """Invariant factors via gcds of i x i minors (independent oracle)."""
    rows, cols = len(m), len(m[0])
    prev = 1
    factors = []
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), size):
            for ci in combinations(range(cols), size):
                sub = [[m[a][b] for b in ci] for a in ri]
                g = gcd(g, _int_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def abgroup_battery(seed=7, count=200):
    rng = np.random.default_rng(seed + 99)
    snf_failures = 0
    for _ in range(count):
        m = rng.integers(-9, 10, size=(4, 4)).tolist()
        u, d, v = smith_normal_form(m)
        product = np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object)
        diag = [int(d[i][i]) for i in range(4)]
        if not np.array_equal(product, np.array(d, dtype=object)):
            snf_failures += 1
            continue
        if any(diag[i] and diag[i + 1] % diag[i] for i in range(3) if diag[i]):
            snf_failures += 1
            continue
        oracle = _gcd_minors_factors(m)
        if [x for x in diag if x] != oracle:
            snf_failures += 1

    coker_ok = True
    z = AbGroupPresentation.free(1)
    zk = cokernel(GroupHom.from_rows(z, z, [[2]]))
    coker_ok &= zk.canonical() == ([2], 0)
    coker_ok &= kernel(GroupHom.from_rows(z, z, [[2]])).is_trivial()
    z12 = AbGroupPresentation.cyclic(12)
    coker_ok &= cokernel(GroupHom.from_rows(z12, z12, [[6]])).canonical() == ([6], 0)
    coker_ok &= kernel(GroupHom.from_rows(z12, z12, [[6]])).canonical() == ([6], 0)

    groups = [AbGroupPresentation.cyclic(2 * 3 ** n) for n in range(4)]
    maps = [GroupHom.from_rows(groups[n], groups[n + 1], [[3]]) for n in range(3)]
    colim, stage = sequential_colimit(groups, maps, 3)
    colim_ok = colim.canonical() == ([2], 0) and stage == 0

    zs = [AbGroupPresentation.free(1) for _ in range(4)]
    zmaps = [GroupHom.from_rows(zs[n], zs[n + 1], [[3]]) for n in range(3)]
    zcolim, zstage = sequential_colimit(zs, zmaps, 3)
    colim_ok = colim_ok and zcolim.canonical() == ([], 1) and zstage == 0

    loc_ok = localize(AbGroupPresentation.cyclic(12), 2).canonical() == ([3], 0)

    return _report("abgroup",
                   {"snf_failures": float(snf_failures),
                    "coker_ker_failures": 0.0 if coker_ok else 1.0,
                    "colimit_failures": 0.0 if colim_ok else 1.0,
                    "localize_failures": 0.0 if loc_ok else 1.0},
                   {"snf_failures": 0.0, "coker_ker_failures": 0.0,
                    "colimit_failures": 0.0, "localize_failures": 0.0})


ALL_BATTERIES = [
    frame_axioms_battery,
    reconstruction_battery,
    intertwiner_battery,
    centralizer_battery,
    naturality_battery,
    diagrams_battery,
    centralizer_tensor_battery,
    ev_composition_battery,
    fredholm_battery,
    nerve_battery,
    functoriality_battery,
    abgroup_battery,
]


def run_suite(seed=7, scale=1.0):
    """Run every battery; scale < 1 shrinks the per-battery sample
    counts proportionally (minimum 1).  A battery whose computation
    raises reports ``pass: False`` with the error instead of ending the
    run."""
    results = []
    for battery in ALL_BATTERIES:
        default = inspect.signature(battery).parameters["count"].default
        try:
            results.append(battery(seed=seed, count=max(1, int(default * scale))))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            results.append({"name": battery.__name__, "pass": False,
                            "residuals": {}, "thresholds": {},
                            "error": f"{type(exc).__name__}: {exc}"})
    return {"seed": seed, "pass": all(r["pass"] for r in results),
            "batteries": results}
