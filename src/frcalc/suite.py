"""Property batteries over seeded random data, declared once each in
``BATTERIES``.  Each battery's ``sample(seed, count)`` is a generator
that yields one dict of residuals per sample or sub-check.  ``judge``,
the one place where a residual meets its bound, for CLI verbs too,
keeps the largest float of each key (a NaN propagates and fails) and
counts its True bools.  The report {"name", "pass", "residuals",
"thresholds"} holds exactly the keys of the thresholds; a yielded key
outside them raises.  ``run_suite``, the CLI ``suite`` verb, the
acceptance tests and the kernel mutation tests run ``run_battery``."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .abgroup import (AbGroupPresentation, GroupHom, cokernel, kernel, localize,
                      sequential_colimit, smith_normal_form)
from .catverify import (NerveChain, bundle_face, check_associativity, check_identity_embedding,
                        check_naturality, check_tau, fr_map, make_c_morphism, nerve_degeneracy,
                        nerve_face)
from .frames import dot, frames_close, pi1, pi2, unitary_frame, verify_frame
from .fredholm import amplify, conjugate, kernel_cokernel_dims, localize_index
from .generators import MorphismConfig, c_morphism_of_unitaries, random_fredholm
from .grassmannian import centralizer, centralizer_tensor_check, lambda_map
from .homspace import (StarHom, block_scalar_deviation, compose_phi, compose_plain, ev,
                       intertwiner, intertwiner_residual, iota)
from .linalg import DEFAULT_TOL, max_abs, random_unitaries, subspace_distance


def _groups(items, size):
    """Consecutive ``size``-tuples of ``items``: a battery draws the
    unitaries of all its samples in one ``random_unitaries`` call and
    takes them a sample at a time."""
    it = iter(items)
    return zip(*[it] * size)


def _frame_axioms(seed, count):
    shapes = [(k, l, seed * 1_000_003 + 97 * i + k * 13 + l)
              for k, l in ((2, 3), (3, 2), (2, 5)) for i in range(count)]
    for (k, _, _), u in zip(shapes, random_unitaries((k * l, s) for k, l, s in shapes)):
        yield {"max_axiom_error": verify_frame(unitary_frame(u, k)).max_error}


def _reconstruction(seed, count):
    splits = [(d1, d2, seed * 999_983 + 31 * i + d1 + 7 * d2)
              for d1, d2 in ((2, 2), (2, 3), (3, 2)) for i in range(count)]
    for (d1, d2, _), u in zip(splits, random_unitaries((2 * d1 * d2, s) for d1, d2, s in splits)):
        beta = unitary_frame(u, d1 * d2)
        rebuilt = dot(pi1(beta, d1), pi2(beta, d1))
        yield {"max_entry_error": frames_close(rebuilt, beta)}


def _intertwiner(seed, count):
    shapes = [(k, l, seed * 7_368_787 + 101 * i + 17 * k + l)
              for k, l in ((2, 3), (3, 2), (2, 5)) for i in range(count)]
    for (k, l, _), v in zip(shapes, random_unitaries((k * l, s) for k, l, s in shapes)):
        h = StarHom(k, k * l, unitary_frame(v, k))
        u = intertwiner(h)
        # v is a second, independently known intertwiner of h.
        yield {"residual": intertwiner_residual(h, u),
               "coset_deviation": block_scalar_deviation(v.conj().T @ u, k, l)}


def _centralizer(seed, count):
    k, l = 2, 3
    for u in random_unitaries((k * l, seed * 2_750_159 + 53 * i) for i in range(count)):
        a = lambda_map(unitary_frame(u, k))
        z = centralizer(a)
        zz = centralizer(z)
        yield {"wrong_dimension_count": z.dim != l * l,
               "double_centralizer_distance": subspace_distance(zz.basis, a.basis)}


_NAT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 6, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
    (MorphismConfig(1, 1, 6, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 1, 4, 4)),
]


def _naturality(seed, count):
    samples = [(*_NAT_CONFIGS[i % len(_NAT_CONFIGS)], seed * 15_485_863 + 211 * i)
               for i in range(count)]
    # The unitaries of f, g and of their source frames, as random_c_morphism
    # and random_source_frame draw them.
    unitaries = random_unitaries(
        draw for cfg_f, cfg_g, s in samples
        for draw in (*cfg_f.draws(s), *cfg_g.draws(s + 50),
                     (cfg_f.src_ambient, s + 90), (cfg_g.src_ambient, s + 91)))
    for (cfg_f, cfg_g, _), us in zip(samples, _groups(unitaries, 8)):
        fd, _ = c_morphism_of_unitaries(*us[:3], cfg_f.d1, cfg_f.d2)
        gd, _ = c_morphism_of_unitaries(*us[3:6], cfg_g.d1, cfg_g.d2)
        sq, wit = check_naturality(fd, gd, unitary_frame(us[6], cfg_f.d1),
                                   unitary_frame(us[7], cfg_g.d1))
        yield {"square_residual": sq, "witness_residual": wit}


def _coherence_diagrams(seed, count):
    unitaries = random_unitaries(draw for s in (seed * 32_452_843 + 307 * i for i in range(count))
                                 for draw in ((2, s), (6, s + 1), (4, s + 2), (2, s + 3)))
    for us in _groups(unitaries, 4):
        a, b, c, e = map(unitary_frame, us, (2, 2, 2, 2))
        yield {"associativity": check_associativity(a, c, e),
               "identity": check_identity_embedding(b),
               "tau": check_tau(a, b)}


_ZT_CONFIGS = [
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(2, 1, 2, 2)),
    (MorphismConfig(2, 1, 6, 2), MorphismConfig(1, 1, 3, 1)),
    (MorphismConfig(2, 1, 2, 2), MorphismConfig(1, 3, 2, 2)),
]


def _centralizer_tensor(seed, count):
    samples = [(*_ZT_CONFIGS[i % len(_ZT_CONFIGS)], seed * 49_979_687 + 401 * i)
               for i in range(count)]
    unitaries = random_unitaries(draw for cfg_f, cfg_g, s in samples
                                 for draw in (*cfg_f.draws(s), *cfg_g.draws(s + 60)))
    for (cfg_f, cfg_g, _), us in zip(samples, _groups(unitaries, 6)):
        fd, _ = c_morphism_of_unitaries(*us[:3], cfg_f.d1, cfg_f.d2)
        gd, _ = c_morphism_of_unitaries(*us[3:], cfg_g.d1, cfg_g.d2)
        _, dist = centralizer_tensor_check(fd.f, gd.f, *map(lambda_map, (
            fd.src_frame, fd.dst_frame, gd.src_frame, gd.dst_frame)))
        yield {"subspace_distance": dist}


def _ev_composition(seed, count):
    k, l = 2, 3
    rng = np.random.default_rng(seed + 424242)
    a, b = np.arange(l)[:, None], np.arange(l)
    units = np.eye(k * k).reshape(k, k, k, k)
    unitaries = random_unitaries((k * l, seed * 86_028_121 + 503 * i + j)
                                 for i in range(count) for j in (0, 1))
    for v1, v2 in _groups(unitaries, 2):
        h1, h2 = (StarHom(k, k * l, unitary_frame(v, k)) for v in (v1, v2))
        t = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        composed = compose_phi(h2, h1)
        suspended = iota(h2, h1.dst // h2.src)
        stepped = ev(suspended, ev(h1, t))
        # compose_phi is built from iota, so iota(h2, l) is compared exactly with h2 (x) id_l:
        # entry ((i,a),(j,b)), ((p,c),(q,d)) is h2(e_ij)[p, q] if a = c and b = d, else 0.
        blocks = suspended.image_frame.mats.reshape(k, l, k, l, k * l, l, k * l, l).copy()
        blocks[:, a, :, b, :, a, :, b] -= h2.image_frame.mats
        # ev at the matrix units gives the frame back exactly.
        for p, q in np.ndindex(k, k):
            yield {"max_entry_error": max_abs(ev(h1, units[p, q]) - h1.image_frame.mats[p, q])}
        yield {"max_entry_error": max_abs(ev(composed, t) - stepped)}
        yield {"max_entry_error": max_abs(blocks)}


def _fredholm_index(seed, count):
    k, l = 2, 3
    seeds = [seed * 67_867_967 + 601 * i for i in range(count)]
    unitaries = random_unitaries(draw for s in seeds for draw in ((k, s + 1), (k * l, s + 2)))
    for i, (s, (g, v)) in enumerate(zip(seeds, _groups(unitaries, 2))):
        h = StarHom(k, k * l, unitary_frame(v, k))
        t = random_fredholm(k, 3, 2, s, deficiency=i % 3)
        dim_ker, dim_coker = kernel_cokernel_dims(t)
        yield {"conjugation_violations":
               kernel_cokernel_dims(conjugate(g, t)) != (dim_ker, dim_coker)}
        amped = amplify(h, t)
        yield {"amplification_violations":
               kernel_cokernel_dims(amped) != (l * dim_ker, l * dim_coker)}
        stable = localize_index([t, amped], l)
        yield {"amplification_violations": stable != Fraction(dim_ker - dim_coker, 1)}


def _random_chains(starts):
    """The chains of (seed, length) pairs, in order: level j is a random
    hom drawn at seed + 11 j.  Levels alternate genuine size jumps (ratio
    l=3) with automorphisms."""
    starts = list(starts)
    levels = ((2, 3), (6, 1), (6, 3), (18, 1))
    unitaries = iter(random_unitaries((n * l, seed + 11 * j) for seed, length in starts
                                      for j, (n, l) in enumerate(levels[:length])))
    return (NerveChain(tuple(StarHom(n, n * l, unitary_frame(v, n))
                             for (n, l), v in zip(levels[:length], unitaries)))
            for _, length in starts)


def _chain_residual(c1: NerveChain, c2: NerveChain) -> float:
    if len(c1) != len(c2) or c1.levels != c2.levels:
        return float("inf")
    # A position where both chains hold the same hom (a deletion face kept
    # it) differs by exactly 0 and is skipped; every hom still meets its
    # composite with an identity in the degeneracy round trip.
    return float(np.max([max_abs(h1.image_frame.mats - h2.image_frame.mats)
                         for h1, h2 in zip(c1.homs, c2.homs) if h1 is not h2], initial=0.0))


def _nerve(seed, count):
    rng = np.random.default_rng(seed + 555)
    for chain in _random_chains((seed * 23_456_789 + 701 * i, 2 + (i % 3)) for i in range(count)):
        length = len(chain)
        faces = [nerve_face(k_, chain) for k_ in range(length + 1)]
        for j in range(length + 1):
            for k_ in range(j + 1, length + 1):
                left = nerve_face(j, faces[k_])
                right = nerve_face(k_ - 1, faces[j])
                yield {"simplicial_identity": _chain_residual(left, right)}
        # Degeneracy: adjacent face undoes the identity insertion.
        for j in range(length + 1):
            degen = nerve_degeneracy(j, chain)
            yield {"degeneracy_roundtrip": _chain_residual(nerve_face(j, degen), chain)}
        # Bundle faces: stepwise evaluation agrees with composed evaluation.
        n0 = chain.homs[0].src
        t = rng.standard_normal((n0, n0)) + 1j * rng.standard_normal((n0, n0))
        two = NerveChain(chain.homs[:2])
        after0_chain, after0_t = bundle_face(0, two, t)
        after1_chain, after1_t = bundle_face(1, two, t)
        stepwise = ev(after0_chain.homs[0], after0_t)
        composed = ev(after1_chain.homs[0], after1_t)
        yield {"bundle_compatibility": max_abs(stepwise - composed)}
        _, t_kept = bundle_face(2, two, t)
        yield {"bundle_compatibility": max_abs(t_kept - t)}


_FR_FIRST_LEG = MorphismConfig(2, 1, 2, 2)


def _fr_functoriality(seed, count):
    """fr_map respects composition of frame-condition morphisms."""
    # The first leg is random_c_morphism(_FR_FIRST_LEG, s), its source frame
    # random_source_frame(_FR_FIRST_LEG, s + 5).
    unitaries = random_unitaries(draw for s in (seed * 54_018_521 + 809 * i for i in range(count))
                                 for draw in (*_FR_FIRST_LEG.draws(s), (8, s + 3), (2, s + 4),
                                              (2, s + 5)))
    for u, w, m, w2, m2, a in _groups(unitaries, 6):
        fd, r = c_morphism_of_unitaries(u, w, m, 2, 2)
        # Second leg out of fd's target frame (ambient 4, degree 4), the
        # frame of r, into M_8.
        gd, _ = c_morphism_of_unitaries(r, w2, m2, 4, 2)
        composed = make_c_morphism(compose_plain(gd.f, fd.f), fd.src_frame, gd.dst_frame)
        ap = unitary_frame(a, 2)
        yield {"max_entry_error": frames_close(fr_map(composed, ap), fr_map(gd, fr_map(fd, ap)))}


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


# Two singular samples, of ranks 2 and 3, checked after the random draws,
# which almost never are: their Smith forms end in zeros.
_RANK_DEFICIENT = ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 3, 0, 6], [1, 5, 3, 10]],
                   [[2, 0, 4, 0], [0, 6, 0, 3], [2, 6, 4, 3], [1, 1, 1, 1]])


def _abgroup(seed, count):
    rng = np.random.default_rng(seed + 99)
    draws = [rng.integers(-9, 10, size=(4, 4)).tolist() for _ in range(count)]
    for m in [*draws, *_RANK_DEFICIENT]:
        u, d, v = smith_normal_form(m)
        product = np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object)
        diag = [d[i][i] for i in range(4)]
        # A certificate that D is the Smith form of m, which is unique:
        # U m V = D with |det U| = |det V| = 1, by this module's own
        # determinant and not abgroup's, makes D equivalent to m; and a
        # diagonal D >= 0 whose entries each divide the next, so that a
        # zero comes only after every nonzero, is in Smith form.
        diagonal = [[x if i == j else 0 for j in range(4)] for i, x in enumerate(diag)]
        yield {"snf_failures": not (product.tolist() == d == diagonal and min(diag) >= 0
                                    and all(b % a == 0 if a else b == 0
                                            for a, b in zip(diag, diag[1:]))
                                    and abs(_int_det(u)) == abs(_int_det(v)) == 1)}

    z, z12 = AbGroupPresentation.free(1), AbGroupPresentation.cyclic(12)
    z2, zz = AbGroupPresentation.cyclic(2), AbGroupPresentation.free(2)
    coker_ker = [cokernel(GroupHom.from_rows(z, z, [[2]])).canonical() == ([2], 0),
                 kernel(GroupHom.from_rows(z, z, [[2]])).is_trivial(),
                 kernel(GroupHom.from_rows(z, z2, [[1]])).canonical() == ([], 1),
                 cokernel(GroupHom.from_rows(z12, z12, [[6]])).canonical() == ([6], 0),
                 kernel(GroupHom.from_rows(z12, z12, [[6]])).canonical() == ([6], 0),
                 kernel(GroupHom.from_rows(zz, zz, [[2, 0], [0, 3]])).is_trivial()]
    yield {"coker_ker_failures": not all(coker_ker)}

    groups = [AbGroupPresentation.cyclic(2 * 3 ** n) for n in range(4)]
    maps = [GroupHom.from_rows(groups[n], groups[n + 1], [[3]]) for n in range(3)]
    colim, stage = sequential_colimit(groups, maps, 3)
    colim_ok = colim.canonical() == ([2], 0) and stage == 0
    zs = [AbGroupPresentation.free(1) for _ in range(4)]
    zmaps = [GroupHom.from_rows(zs[n], zs[n + 1], [[3]]) for n in range(3)]
    zcolim, zstage = sequential_colimit(zs, zmaps, 3)
    yield {"colimit_failures": not (colim_ok and zcolim.canonical() == ([], 1) and zstage == 0)}

    yield {"localize_failures":
           localize(AbGroupPresentation.cyclic(12), 2).canonical() != ([3], 0)}


class Battery(NamedTuple):
    """One seeded battery.  ``sample(seed, count)`` is a generator that
    yields dicts of residuals over ``count`` samples, a key as often as
    it likes; ``judge`` keeps the largest float and counts the True
    bools of each key, which must be one of ``thresholds`` and at most
    its entry there.  ``criterion`` is the acceptance criterion the
    battery checks (None if no criterion names it) and ``budget_s`` its
    runtime budget there, at the default ``count``."""

    criterion: int | None
    name: str
    count: int
    budget_s: float
    thresholds: dict
    sample: Callable


def _bounds(**checks):
    """Thresholds: each residual's bound is the default one of its check."""
    return {name: DEFAULT_TOL.bound(check) for name, check in checks.items()}


BATTERIES = (
    Battery(1, "frame_axioms", 200, 5.0, _bounds(max_axiom_error="frame_axioms"), _frame_axioms),
    Battery(2, "reconstruction", 200, 5.0, _bounds(max_entry_error="entries"), _reconstruction),
    Battery(3, "intertwiner", 100, 10.0,
            _bounds(residual="intertwiner", coset_deviation="coset_deviation"), _intertwiner),
    Battery(4, "centralizer", 100, 10.0,
            _bounds(wrong_dimension_count="exact", double_centralizer_distance="subspace_distance"),
            _centralizer),
    Battery(5, "naturality", 100, 20.0,
            _bounds(square_residual="naturality", witness_residual="naturality"), _naturality),
    Battery(6, "coherence_diagrams", 50, 10.0,
            _bounds(associativity="associativity", identity="entries", tau="tau"),
            _coherence_diagrams),
    Battery(7, "centralizer_tensor", 25, 30.0, _bounds(subspace_distance="subspace_distance"),
            _centralizer_tensor),
    Battery(8, "ev_composition", 100, 5.0, _bounds(max_entry_error="entries"), _ev_composition),
    Battery(9, "fredholm_index", 100, 10.0,
            _bounds(conjugation_violations="exact", amplification_violations="exact"),
            _fredholm_index),
    Battery(10, "nerve", 50, 10.0,
            _bounds(simplicial_identity="entries", bundle_compatibility="entries",
                    degeneracy_roundtrip="exact"), _nerve),
    Battery(None, "fr_functoriality", 50, 10.0, _bounds(max_entry_error="functoriality"),
            _fr_functoriality),
    Battery(11, "abgroup", 200, 5.0,
            _bounds(snf_failures="exact", coker_ker_failures="exact", colimit_failures="exact",
                    localize_failures="exact"), _abgroup),
)


def judge(samples, thresholds: dict):
    """(pass, residuals): per key of ``thresholds``, the largest yielded
    float (a NaN propagates) or the count of True bools, 0.0 if never
    yielded; pass iff each is at most its threshold, which a NaN is not.
    A key outside ``thresholds`` raises KeyError."""
    values = {key: [] for key in thresholds}
    for sample in samples:
        for key, x in sample.items():
            if key not in values:
                raise KeyError(f"residual {key!r} has no threshold")
            values[key].append(x)
    residuals = {key: float(sum(xs)) if xs and isinstance(xs[0], bool)
                 else float(np.max(xs)) if xs else 0.0 for key, xs in values.items()}
    return all(residuals[k] <= thresholds[k] for k in residuals), residuals


def run_battery(battery: Battery, seed, count=None):
    """Report of one battery on ``count`` samples (default
    ``battery.count``), its yielded residuals decided by ``judge``.  A
    battery whose computation raises reports ``pass: False`` with the
    error instead of raising."""
    report = {"name": battery.name, "pass": False, "residuals": {},
              "thresholds": dict(battery.thresholds)}
    try:
        passed, residuals = judge(battery.sample(seed, battery.count if count is None else count),
                                  battery.thresholds)
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return {**report, "error": f"{type(exc).__name__}: {exc}"}
    return {**report, "pass": passed, "residuals": residuals}


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
