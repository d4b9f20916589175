import json
import os
import subprocess
import sys
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

from frcalc import abgroup
from frcalc.abgroup import (
    AbGroupPresentation,
    GroupHom,
    cokernel,
    integer_kernel,
    invariant_factors,
    kernel,
    localize,
    sequential_colimit,
    smith_normal_form,
)


def _int_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * _int_det(minor)
    return total


def _gcd_minors_factors(m):
    """Invariant factors via gcds of all i x i minors."""
    rows, cols = len(m), len(m[0])
    prev = 1
    factors = []
    for size in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), size):
            for ci in combinations(range(cols), size):
                g = gcd(g, _int_det([[m[a][b] for b in ci] for a in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def test_snf_unimodular_transform_and_divisibility():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = rng.integers(-9, 10, size=(3, 4)).tolist()
        u, d, v = smith_normal_form(m)
        prod = np.array(u, dtype=object) @ np.array(m, dtype=object) @ np.array(v, dtype=object)
        assert np.array_equal(prod, np.array(d, dtype=object))
        diag = [int(d[i][i]) for i in range(3)]
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert all(x >= 0 for x in diag)


def test_snf_unimodularity_check_raises(monkeypatch):
    """The unimodularity check is an explicit raise, so it also runs
    under ``python -O``; a transform of determinant 2 trips it."""
    monkeypatch.setattr(abgroup, "_det_unimodular", lambda m: 2)
    with pytest.raises(ArithmeticError, match="unimodular"):
        smith_normal_form([[2, 4], [6, 8]])


def _check_snf_against_sympy(m, u, d, v):
    """U M V = D with unimodular U, V, D a nonnegative diagonal
    divisibility chain, and its nonzero entries sympy's invariant factors."""
    rows, cols = len(m), len(m[0])
    assert Matrix(u) * Matrix(m) * Matrix(v) == Matrix(d)
    assert abs(Matrix(u).det()) == 1 and abs(Matrix(v).det()) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(d[i][j] == 0 for i in range(rows) for j in range(cols) if i != j)
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert diag[:len(nonzero)] == nonzero
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    want = [abs(int(x)) for x in sympy_invariant_factors(Matrix(m), domain=ZZ) if x]
    assert nonzero == want


SNF_HARD_INPUTS = {
    # Elimination by row swaps alone never finished on these two.
    "5x5": [[-9, -8, -7, 8, -4], [7, -9, 8, 7, 3], [5, 2, 2, 4, -7],
            [9, -6, 0, 0, -2], [-8, 9, 0, -7, 2]],
    "8x8 default_rng(1)": np.random.default_rng(1).integers(-9, 10, (8, 8)).tolist(),
}


@pytest.mark.parametrize("name", SNF_HARD_INPUTS)
def test_snf_terminates_on_hard_inputs(name):
    """Run in a subprocess so that a loop that never returns fails the
    test after 30 s instead of hanging the suite."""
    m = SNF_HARD_INPUTS[name]
    code = ("import json, sys; from frcalc.abgroup import smith_normal_form; "
            "print(json.dumps(smith_normal_form(json.loads(sys.argv[1]))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(abgroup.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(m)], env=env,
                          capture_output=True, text=True, timeout=30, check=True)
    _check_snf_against_sympy(m, *json.loads(proc.stdout))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))))
def test_snf_property_against_sympy(m):
    _check_snf_against_sympy(m, *smith_normal_form(m))


def test_snf_against_gcd_minors_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        m = rng.integers(-6, 7, size=(4, 4)).tolist()
        _, d, _ = smith_normal_form(m)
        diag = [int(d[i][i]) for i in range(4) if d[i][i] != 0]
        assert diag == _gcd_minors_factors(m)


def test_invariant_factors_drop_units():
    factors, rank = invariant_factors([[1, 0, 0], [0, 2, 0]])
    assert factors == [2]
    assert rank == 1


def test_integer_kernel_oracle():
    m = [[1, 2, 3], [2, 4, 6]]
    basis = integer_kernel(m)
    assert len(basis) == 2
    for row in basis:
        assert all(sum(m[i][j] * row[j] for j in range(3)) == 0 for i in range(2))


def _cyclic_sum(factors):
    return AbGroupPresentation.from_rows(
        len(factors),
        [[factors[i] if j == i else 0 for j in range(len(factors))]
         for i in range(len(factors))])


def _element_orders(factors):
    """Multiset of element orders of a finite direct sum of cyclics."""
    orders = []
    for tup in product(*[range(n) for n in factors]):
        o = 1
        for x, n in zip(tup, factors):
            if x:
                sub = n // gcd(x, n)
                o = o * sub // gcd(o, sub)
        orders.append(o)
    return sorted(orders)


def _subgroup_closure(gens, mods):
    seen = {tuple(0 for _ in mods)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                cand = tuple((x + y) % n for x, y, n in zip(el, g, mods))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return seen


def _coker_orders_oracle(src_factors, dst_factors, matrix):
    """Element-order multiset of dst / image by direct enumeration."""
    gens = [tuple(matrix[i][j] % dst_factors[i] for i in range(len(dst_factors)))
            for j in range(len(src_factors))]
    image = _subgroup_closure(gens, dst_factors)
    elems = list(product(*[range(n) for n in dst_factors]))
    orders = []
    seen_cosets = set()
    for e in elems:
        coset = frozenset(tuple((a + b) % n for a, b, n in zip(e, im, dst_factors))
                          for im in image)
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        k = 1
        while tuple(k * x % n for x, n in zip(e, dst_factors)) not in image:
            k += 1
        orders.append(k)
    return sorted(orders)


def _ker_orders_oracle(src_factors, dst_factors, matrix):
    orders = []
    for e in product(*[range(n) for n in src_factors]):
        img = tuple(sum(matrix[i][j] * e[j] for j in range(len(src_factors)))
                    % dst_factors[i] for i in range(len(dst_factors)))
        if any(img):
            continue
        o = 1
        for x, n in zip(e, src_factors):
            if x:
                sub = n // gcd(x, n)
                o = o * sub // gcd(o, sub)
        orders.append(o)
    return sorted(orders)


@pytest.mark.parametrize("src,dst,matrix", [
    ([12], [12], [[6]]),
    ([4], [8], [[2]]),
    ([2, 4], [8], [[4, 2]]),
    ([6], [2, 3], [[1], [1]]),
    ([2, 2], [4, 2], [[2, 0], [0, 1]]),
    ([10], [20], [[2]]),
])
def test_coker_ker_against_enumeration(src, dst, matrix):
    f = GroupHom.from_rows(_cyclic_sum(src), _cyclic_sum(dst), matrix)
    assert f.is_well_defined()
    ck = cokernel(f)
    factors, rank = ck.canonical()
    assert rank == 0
    assert _element_orders(factors) == _coker_orders_oracle(src, dst, matrix)
    kr = kernel(f)
    kfactors, krank = kr.canonical()
    assert krank == 0
    assert _element_orders(kfactors) == _ker_orders_oracle(src, dst, matrix)


def test_hom_well_definedness_check():
    f = GroupHom.from_rows(_cyclic_sum([4]), _cyclic_sum([8]), [[1]])
    assert not f.is_well_defined()
    with pytest.raises(ValueError, match="relations"):
        cokernel(f)


def test_kernel_of_injection_trivial():
    z = AbGroupPresentation.free(1)
    f = GroupHom.from_rows(z, z, [[5]])
    assert kernel(f).is_trivial()
    assert cokernel(f).canonical() == ([5], 0)


def test_localize_strips_l_primary():
    assert localize(AbGroupPresentation.cyclic(12), 2).canonical() == ([3], 0)
    assert localize(AbGroupPresentation.cyclic(12), 3).canonical() == ([4], 0)
    assert localize(AbGroupPresentation.cyclic(8), 2).is_trivial()
    assert localize(AbGroupPresentation.free(2), 3).canonical() == ([], 2)
    # inverting 6 strips both primes
    assert localize(AbGroupPresentation.cyclic(12), 6).is_trivial()


def test_localize_commutes_with_cokernel():
    # checked by enumeration shape: coker then localize vs localize of
    # the cokernel presentation, maps between finite cyclic groups
    for (a, b, m, l) in [(12, 24, 4, 2), (18, 6, 2, 3), (20, 10, 5, 2)]:
        f = GroupHom.from_rows(_cyclic_sum([a]), _cyclic_sum([b]), [[m]])
        if not f.is_well_defined():
            continue
        left = localize(cokernel(f), l).canonical()
        ck_factors, _ = cokernel(f).canonical()
        from frcalc.abgroup import _strip_prime_part
        stripped = sorted(x for x in (_strip_prime_part(c, l) for c in ck_factors) if x != 1)
        right = (sorted(left[0]), left[1])
        assert sorted(left[0]) == stripped and left[1] == 0


def test_sequential_colimit_torsion_chain():
    groups = [AbGroupPresentation.cyclic(2 * 3 ** n) for n in range(5)]
    maps = [GroupHom.from_rows(groups[n], groups[n + 1], [[3]]) for n in range(4)]
    g, stage = sequential_colimit(groups, maps, 3)
    assert g.canonical() == ([2], 0)
    assert stage == 0


def test_sequential_colimit_free_chain():
    zs = [AbGroupPresentation.free(1) for _ in range(4)]
    maps = [GroupHom.from_rows(zs[n], zs[n + 1], [[3]]) for n in range(3)]
    g, stage = sequential_colimit(zs, maps, 3)
    assert g.canonical() == ([], 1)
    assert stage == 0


def test_sequential_colimit_stabilizes_late():
    # first map is not a localized iso (kills a 5-torsion part), the
    # rest are; stabilization index is 1
    g0 = AbGroupPresentation.cyclic(10)
    g1 = AbGroupPresentation.cyclic(2)
    g2 = AbGroupPresentation.cyclic(2)
    maps = [GroupHom.from_rows(g0, g1, [[1]]),
            GroupHom.from_rows(g1, g2, [[1]])]
    g, stage = sequential_colimit([g0, g1, g2], maps, 3)
    assert g.canonical() == ([2], 0)
    assert stage == 1


def test_sequential_colimit_not_stabilized_raises():
    groups = [AbGroupPresentation.cyclic(2 ** n) for n in range(1, 4)]
    maps = [GroupHom.from_rows(groups[n], groups[n + 1], [[2]]) for n in range(2)]
    with pytest.raises(ValueError, match="stabilized"):
        sequential_colimit(groups, maps, 3)
