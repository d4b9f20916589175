"""Property batteries over seeded random data, declared once each in
``BATTERIES``.  ``run_battery`` turns an entry into a plain report
{"name", "pass", "residuals", "thresholds"} whose residuals are worst
cases over the whole batch; ``run_suite``, the CLI ``suite`` verb, the
acceptance tests and the kernel mutation tests all run through it."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, NamedTuple

import numpy as np

from .abgroup import (AbGroupPresentation, GroupHom, cokernel, kernel, localize,
                      sequential_colimit, smith_normal_form)
from .catverify import (NerveChain, bundle_face, check_associativity, check_identity_embedding,
                        check_naturality, check_tau, fr_map, make_c_morphism, nerve_degeneracy,
                        nerve_face)
from .frames import (conjugate_frame, dot, frames_close, matrix_unit_frame, pi1, pi2,
                     random_frame, tensor_frame, trivial_frame, verify_frame)
from .fredholm import amplify, conjugate, kernel_cokernel_dims, localize_index
from .generators import (MorphismConfig, random_c_morphism, random_d_morphism, random_fredholm,
                         random_source_frame)
from .grassmannian import centralizer, centralizer_tensor_check, lambda_map
from .homspace import (StarHom, block_scalar_deviation, compose_phi, compose_plain, ev,
                       intertwiner, intertwiner_residual, iota, push_frame, random_hom)
from .linalg import max_abs, random_unitary, subspace_distance


def _frame_axioms(seed, count):
    worst = 0.0
    for k, l in ((2, 3), (3, 2), (2, 5)):
        for i in range(count):
            fr = random_frame(k, k * l, seed * 1_000_003 + 97 * i + k * 13 + l)
            worst = max(worst, verify_frame(fr).max_error)
    return {"max_axiom_error": worst}


def _reconstruction(seed, count):
    worst = 0.0
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        for i in range(count):
            beta = random_frame(d1 * d2, d1 * d2 * 2, seed * 999_983 + 31 * i + d1 + 7 * d2)
            rebuilt = dot(pi1(beta, d1), pi2(beta, d1))
            worst = max(worst, frames_close(rebuilt, beta))
    return {"max_entry_error": worst}


def _intertwiner(seed, count):
    worst_res, worst_coset = 0.0, 0.0
    for k, l in ((2, 3), (3, 2), (2, 5)):
        for i in range(count):
            s = seed * 7_368_787 + 101 * i + 17 * k + l
            v = random_unitary(k * l, s)
            h = StarHom(k, k * l, conjugate_frame(v, matrix_unit_frame(k, l)))
            u = intertwiner(h)
            worst_res = max(worst_res, intertwiner_residual(h, u))
            # v is a second, independently known intertwiner of h.
            worst_coset = max(worst_coset, block_scalar_deviation(v.conj().T @ u, k, l))
    return {"residual": worst_res, "coset_deviation": worst_coset}


def _centralizer(seed, count):
    k, l = 2, 3
    bad_dim, worst_dist = 0, 0.0
    for i in range(count):
        a = lambda_map(random_frame(k, k * l, seed * 2_750_159 + 53 * i))
        z = centralizer(a)
        if z.dim != l * l:
            bad_dim += 1
        zz = centralizer(z)
        worst_dist = max(worst_dist, subspace_distance(list(zz.basis), list(a.basis)))
    return {"wrong_dimension_count": float(bad_dim), "double_centralizer_distance": worst_dist}


_NAT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 6, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
    (MorphismConfig(1, 1, 6, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 4, 4)),
]


def _naturality(seed, count):
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
    return {"square_residual": worst_square, "witness_residual": worst_witness}


def _coherence_diagrams(seed, count):
    worst_assoc, worst_ident, worst_tau = 0.0, 0.0, 0.0
    for i in range(count):
        s = seed * 32_452_843 + 307 * i
        a = random_frame(2, 2, s)
        b = random_frame(2, 6, s + 1)
        worst_assoc = max(worst_assoc, check_associativity(
            a, random_frame(2, 4, s + 2), random_frame(1, 2, s + 3)))
        worst_ident = max(worst_ident, check_identity_embedding(b))
        worst_tau = max(worst_tau, check_tau(a, b))
    return {"associativity": worst_assoc, "identity": worst_ident, "tau": worst_tau}


_ZT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 6, 2), MorphismConfig(1, 1, 3, 1)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
]


def _centralizer_tensor(seed, count):
    worst = 0.0
    for i in range(count):
        cfg_f, cfg_g = _ZT_CONFIGS[i % len(_ZT_CONFIGS)]
        s = seed * 49_979_687 + 401 * i
        fd = random_d_morphism(cfg_f, s)
        gd = random_d_morphism(cfg_g, s + 60)
        _, dist = centralizer_tensor_check(fd.f, gd.f, fd.a, fd.b, gd.a, gd.b)
        worst = max(worst, dist)
    return {"subspace_distance": worst}


def _ev_composition(seed, count):
    k, l = 2, 3
    worst = 0.0
    rng = np.random.default_rng(seed + 424242)
    a, b = np.arange(l)[:, None], np.arange(l)
    units = np.eye(k * k).reshape(k, k, k, k)
    for i in range(count):
        s = seed * 86_028_121 + 503 * i
        h1 = random_hom(k, l, s)
        h2 = random_hom(k, l, s + 1)
        t = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        composed = compose_phi(h2, h1)
        suspended = iota(h2, h1.dst // h2.src)
        stepped = ev(suspended, ev(h1, t))
        # compose_phi is built from iota, so iota(h2, l) is compared exactly with h2 (x) id_l:
        # entry ((i,a),(j,b)), ((p,c),(q,d)) is h2(e_ij)[p, q] if a = c and b = d, else 0.
        blocks = suspended.image_frame.mats.reshape(k, l, k, l, k * l, l, k * l, l).copy()
        blocks[:, a, :, b, :, a, :, b] -= h2.image_frame.mats
        # ev at the matrix units gives the frame back exactly.
        at_units = max(max_abs(ev(h1, units[p, q]) - h1.image_frame.mats[p, q])
                       for p in range(k) for q in range(k))
        worst = max(worst, max_abs(ev(composed, t) - stepped), max_abs(blocks), at_units)
    return {"max_entry_error": worst}


def _fredholm_index(seed, count):
    k, l = 2, 3
    conj_violations, amp_violations = 0, 0
    for i in range(count):
        s = seed * 67_867_967 + 601 * i
        t = random_fredholm(k, 3, 2, s, deficiency=i % 3)
        dim_ker, dim_coker = kernel_cokernel_dims(t)
        g = random_unitary(k, s + 1)
        if kernel_cokernel_dims(conjugate(g, t)) != (dim_ker, dim_coker):
            conj_violations += 1
        h = random_hom(k, l, s + 2)
        amped = amplify(h, t)
        if kernel_cokernel_dims(amped) != (l * dim_ker, l * dim_coker):
            amp_violations += 1
        stable = localize_index([t, amped], l)
        if stable != Fraction(dim_ker - dim_coker, 1):
            amp_violations += 1
    return {"conjugation_violations": float(conj_violations),
            "amplification_violations": float(amp_violations)}


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


def _nerve(seed, count):
    worst_simplicial, worst_bundle, worst_degeneracy = 0.0, 0.0, 0.0
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
            worst_degeneracy = max(worst_degeneracy, _chain_residual(nerve_face(j, degen), chain))
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
    return {"simplicial_identity": worst_simplicial, "bundle_compatibility": worst_bundle,
            "degeneracy_roundtrip": worst_degeneracy}


def _fr_functoriality(seed, count):
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
        worst = max(worst, frames_close(fr_map(composed, ap), fr_map(gd, fr_map(fd, ap))))
    return {"max_entry_error": worst}


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


def _abgroup(seed, count):
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

    return {"snf_failures": float(snf_failures),
            "coker_ker_failures": 0.0 if coker_ok else 1.0,
            "colimit_failures": 0.0 if colim_ok else 1.0,
            "localize_failures": 0.0 if loc_ok else 1.0}


class Battery(NamedTuple):
    """One seeded battery.  ``sample(seed, count)`` returns the worst
    residuals over ``count`` samples; each must be at most its entry of
    ``thresholds``.  ``criterion`` is the acceptance criterion the
    battery checks (None if no criterion names it) and ``budget_s`` its
    runtime budget there, at the default ``count``."""

    criterion: int | None
    name: str
    count: int
    budget_s: float
    thresholds: dict
    sample: Callable


BATTERIES = (
    Battery(1, "frame_axioms", 200, 5.0, {"max_axiom_error": 1e-9}, _frame_axioms),
    Battery(2, "reconstruction", 200, 5.0, {"max_entry_error": 1e-9}, _reconstruction),
    Battery(3, "intertwiner", 100, 10.0, {"residual": 1e-8, "coset_deviation": 1e-7},
            _intertwiner),
    Battery(4, "centralizer", 100, 10.0,
            {"wrong_dimension_count": 0.0, "double_centralizer_distance": 1e-8}, _centralizer),
    Battery(5, "naturality", 100, 20.0, {"square_residual": 1e-8, "witness_residual": 1e-8},
            _naturality),
    Battery(6, "coherence_diagrams", 50, 10.0,
            {"associativity": 0.0, "identity": 1e-9, "tau": 1e-9}, _coherence_diagrams),
    Battery(7, "centralizer_tensor", 25, 30.0, {"subspace_distance": 1e-8}, _centralizer_tensor),
    Battery(8, "ev_composition", 100, 5.0, {"max_entry_error": 1e-9}, _ev_composition),
    Battery(9, "fredholm_index", 100, 10.0,
            {"conjugation_violations": 0.0, "amplification_violations": 0.0}, _fredholm_index),
    Battery(10, "nerve", 50, 10.0,
            {"simplicial_identity": 1e-9, "bundle_compatibility": 1e-9,
             "degeneracy_roundtrip": 0.0}, _nerve),
    Battery(None, "fr_functoriality", 50, 10.0, {"max_entry_error": 1e-8}, _fr_functoriality),
    Battery(11, "abgroup", 200, 5.0,
            {"snf_failures": 0.0, "coker_ker_failures": 0.0, "colimit_failures": 0.0,
             "localize_failures": 0.0}, _abgroup),
)


def run_battery(battery: Battery, seed, count=None):
    """Report of one battery on ``count`` samples (default
    ``battery.count``).  A battery whose computation raises reports
    ``pass: False`` with the error instead of raising."""
    report = {"name": battery.name, "pass": False, "residuals": {},
              "thresholds": dict(battery.thresholds)}
    try:
        residuals = battery.sample(seed, battery.count if count is None else count)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return {**report, "error": f"{type(exc).__name__}: {exc}"}
    ok = all(residuals[k] <= battery.thresholds[k] for k in residuals)
    return {**report, "pass": bool(ok), "residuals": residuals}


def run_suite(seed=7, scale=1.0):
    """Run every battery through ``run_battery``; scale < 1 shrinks the
    per-battery sample counts proportionally (minimum 1)."""
    results = [run_battery(b, seed, max(1, int(b.count * scale))) for b in BATTERIES]
    return {"seed": seed, "pass": all(r["pass"] for r in results),
            "batteries": results}


def _keyword_battery(battery: Battery):
    def run(seed=7, count=battery.count):
        return run_battery(battery, seed, count)
    return run


# The benchmark calls these as f(seed=..., count=...) and reads the
# default count from their signatures; remove at its next change, when it
# iterates BATTERIES instead.
ALL_BATTERIES = [_keyword_battery(b) for b in BATTERIES]
