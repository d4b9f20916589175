"""`exact`: each op is one seeded batch of exact integer work.

Pure-Python arithmetic with no BLAS: Smith normal forms of 4x4 matrices
with entries in [-9, 9], kernels and cokernels of maps
Z^3 -> Z^3 / <2 random relations> and of full-rank maps Z^3 -> Z^3,
localizations and sequential colimits of cyclic chains, and a minority
share of check_associativity.  These sizes are the largest at which
every generated input finishes: Smith normal form lets its transforms
grow without bound on larger ones, and about one 5x5 matrix in 18,000
with entries in [-9, 9] never returns (see CHANGES.md).
"""

from __future__ import annotations

import numpy as np

from frcalc import abgroup, catverify
from frcalc.abgroup import AbGroupPresentation, GroupHom
from frcalc.frames import Frame

import oracles
from workloads import Op, expect

SNF_SIZES = {4: 2400}
QUOTIENT_MAPS = 800
FULL_RANK_MAPS = 400
CHAINS = 200
CHAIN_LENGTH = 4
ASSOCIATIVITY = 8
ENTRY = 9
# U M V = D with U, V unimodular and D a nonnegative divisibility chain
# already determines D (the Smith form is unique); sympy's invariant
# factors are compared as a second oracle on every SYMPY_EVERY-th matrix.
SYMPY_EVERY = 8
ROUND_S = 1.0


def _random_frame(d, n, rng):
    u = oracles.haar_unitary(n, rng)
    return Frame(d, n, oracles.conjugate(u, oracles.basepoint_frame(d, n // d)))


def _batch_inputs(seed):
    rng = np.random.default_rng(seed)

    def ints(shape):
        return rng.integers(-ENTRY, ENTRY + 1, shape).tolist()

    free3 = AbGroupPresentation.free(3)
    quotient = [GroupHom.from_rows(free3, AbGroupPresentation.from_rows(3, ints((2, 3))), ints((3, 3)))
                for _ in range(QUOTIENT_MAPS)]
    full = []
    while len(full) < FULL_RANK_MAPS:
        m = ints((3, 3))
        if oracles.int_det(m):
            full.append(GroupHom.from_rows(free3, free3, m))
    chains = []
    for _ in range(CHAINS):
        m, p = int(rng.integers(2, 60)), int(rng.choice([2, 3, 5, 7]))
        groups = [AbGroupPresentation.cyclic(m * p ** n) for n in range(CHAIN_LENGTH)]
        maps = [GroupHom.from_rows(groups[n], groups[n + 1], [[p]]) for n in range(CHAIN_LENGTH - 1)]
        chains.append((m, p, groups, maps))
    return {
        "snf": [ints((n, n)) for n, count in SNF_SIZES.items() for _ in range(count)],
        "quotient": quotient,
        "full": full,
        "chains": chains,
        "assoc": [(_random_frame(2, 2, rng), _random_frame(2, 4, rng), _random_frame(1, 2, rng))
                  for _ in range(ASSOCIATIVITY)],
    }


def _run(batch):
    return {
        "snf": [abgroup.smith_normal_form(m) for m in batch["snf"]],
        "quotient": [(abgroup.kernel(f), abgroup.cokernel(f)) for f in batch["quotient"]],
        "full": [(abgroup.kernel(f), abgroup.cokernel(f)) for f in batch["full"]],
        "chains": [(abgroup.sequential_colimit(groups, maps, p),
                    abgroup.localize(groups[-1], p)) for _, p, groups, maps in batch["chains"]],
        "assoc": [catverify.check_associativity(a, b, c) for a, b, c in batch["assoc"]],
    }


def _canonical(g: AbGroupPresentation):
    """(invariant factors, free rank) read off a canonical presentation:
    one diagonal relation per factor, the remaining generators free."""
    factors = []
    for i, row in enumerate(g.rels):
        expect(all(x == 0 for j, x in enumerate(row) if j != i) and row[i] > 1,
               f"presentation is not canonical: {g.rels}")
        factors.append(row[i])
    expect(all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)),
           f"factors {factors} are not a divisibility chain")
    return factors, g.gens - len(factors)


def check_snf(m, result, sympy=True):
    u, d, v = result
    n = len(m)
    expect(oracles.int_matmul(oracles.int_matmul(u, m), v) == d, "U M V != D")
    expect(all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j), "D is not diagonal")
    diag = [d[i][i] for i in range(n)]
    expect(all(x >= 0 for x in diag), f"negative diagonal {diag}")
    expect(all(diag[i + 1] % diag[i] == 0 for i in range(n - 1) if diag[i]) and
           all(x == 0 for i, x in enumerate(diag) if i and diag[i - 1] == 0),
           f"diagonal {diag} is not a divisibility chain")
    expect(abs(oracles.int_det(u)) == 1 and abs(oracles.int_det(v)) == 1, "U or V is not unimodular")
    if sympy:
        want = oracles.nonzero_invariant_factors(m)
        expect([x for x in diag if x] == want, f"diagonal {diag} != sympy invariant factors {want}")


def _check(batch, out):
    for i, (m, result) in enumerate(zip(batch["snf"], out["snf"])):
        check_snf(m, result, sympy=i % SYMPY_EVERY == 0)
    for f, (ker, coker) in zip(batch["quotient"], out["quotient"]):
        rels = [list(r) for r in f.dst.rels]
        image = [[f.matrix[i][j] for i in range(3)] for j in range(3)]
        rank_rels = np.linalg.matrix_rank(np.array(rels, dtype=float))
        rank_all = np.linalg.matrix_rank(np.array(rels + image, dtype=float))
        factors = [x for x in oracles.nonzero_invariant_factors(rels + image) if x != 1]
        expect(_canonical(coker) == (factors, 3 - rank_all), "cokernel differs from sympy")
        # A subgroup of Z^3 is free, of rank 3 minus the rank of the image
        # in the quotient tensored with Q.
        expect(_canonical(ker) == ([], 3 - (rank_all - rank_rels)), "kernel has the wrong type")
    for f, (ker, coker) in zip(batch["full"], out["full"]):
        factors, free_rank = _canonical(coker)
        expect(free_rank == 0 and int(np.prod(factors, dtype=object)) == abs(oracles.int_det(f.matrix)),
               "cokernel order of a full-rank map is not |det|")
        expect(ker.gens == 0, "full-rank map has a nontrivial kernel")
    for (m, p, _, _), ((colim, stage), loc) in zip(batch["chains"], out["chains"]):
        stripped = oracles.strip_prime_part(m, p)
        want = ([stripped] if stripped > 1 else [], 0)
        expect(_canonical(colim) == want and stage == 0, f"colimit of Z/{m}p^n under x{p} is wrong")
        expect(_canonical(loc) == want, f"localization of Z/{m}p^3 away from {p} is wrong")
    expect(all(r == 0.0 for r in out["assoc"]), f"associativity residuals {out['assoc']}")


def make_ops(seed, rounds, workdir):
    batches = [_batch_inputs(seed * 1000 + i) for i in range(rounds)]
    return [Op(lambda b=b: _run(b), lambda out, b=b: _check(b, out)) for b in batches]
