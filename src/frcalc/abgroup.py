"""Exact arithmetic for finitely generated abelian groups.

Groups are presented by integer relation matrices (rows = relations,
columns = generators); everything reduces to Smith normal form over the
arbitrary-precision integers, with pivoting by least absolute value to
contain entry growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _det_unimodular(m):
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    prev = 1
    sign = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m):
    """U, D, V with U m V = D, U and V unimodular, and the diagonal of D
    nonnegative with d_i | d_{i+1}.

    The elimination is Cohen's (A Course in Computational Algebraic
    Number Theory, Alg. 2.4.14): the pivot is an entry of least absolute
    value in the remaining block, its row and column are reduced by floor
    division, and the smallest remainder left becomes the next pivot.
    Once both are clear, a row holding an entry the pivot does not divide
    is added to the pivot row, which leaves a smaller remainder there.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [row[:] for row in m]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):  # row_dst += c * row_src
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for row in d:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    for t in range(min(rows, cols)):
        nonzero = [(abs(x), i, j) for i in range(t, rows) for j, x in enumerate(d[i][t:], t) if x]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        while pi is not None:
            swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            p = d[t][t]
            # Floor division leaves remainders smaller than |p|; the
            # least of them is the next pivot.
            least, pi, pj = abs(p), None, None
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // p))
                    if 0 < abs(d[i][t]) < least:
                        least, pi, pj = abs(d[i][t]), i, t
            for j in range(t + 1, cols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // p))
                    if 0 < abs(d[t][j]) < least:
                        least, pi, pj = abs(d[t][j]), t, j
            if pi is None and least != 1:
                offending = next((i for i in range(t + 1, rows)
                                  if any(x % p for x in d[i][t + 1:])), None)
                if offending is not None:
                    add_row(t, offending, 1)
                    pi, pj = t, t
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    if abs(_det_unimodular(u)) != 1 or abs(_det_unimodular(v)) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    return u, d, v


def invariant_factors(m):
    """Nontrivial invariant factors (> 1) and the free rank of the
    cokernel of the relation matrix."""
    cols = len(m[0]) if m else 0
    if not m:
        return [], cols
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), cols))]
    nonzero = [abs(x) for x in diag if x != 0]
    factors = [x for x in nonzero if x != 1]
    free_rank = cols - len(nonzero)
    return factors, free_rank


@dataclass(frozen=True)
class AbGroupPresentation:
    """Finitely generated abelian group Z^gens / rowspan(rels)."""

    gens: int
    rels: tuple

    def __post_init__(self):
        for row in self.rels:
            if len(row) != self.gens:
                raise ValueError("relation length must equal generator count")

    @staticmethod
    def from_rows(gens, rows):
        return AbGroupPresentation(gens, tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def cyclic(n):
        """Z/n for n > 0, Z for n = 0."""
        return AbGroupPresentation(1, ((n,),) if n else ())

    @staticmethod
    def free(rank):
        return AbGroupPresentation(rank, ())

    def canonical(self):
        """(invariant factors d_1 | d_2 | ..., free rank)."""
        if not self.rels:
            return [], self.gens
        return invariant_factors([list(r) for r in self.rels])

    @staticmethod
    def diagonal(factors, free_rank):
        """Z/f_1 + ... + Z/f_k + Z^free_rank: one relation per factor."""
        gens = len(factors) + free_rank
        return AbGroupPresentation.from_rows(
            gens, [[f if j == i else 0 for j in range(gens)] for i, f in enumerate(factors)])

    def canonical_presentation(self):
        return AbGroupPresentation.diagonal(*self.canonical())

    def is_trivial(self):
        factors, free_rank = self.canonical()
        return not factors and free_rank == 0


def _relation_lattice_contains(rels, vec):
    """Whether vec lies in the integer row span of rels."""
    rows = [list(r) for r in rels]
    if not rows:
        return all(x == 0 for x in vec)
    u, d, v = smith_normal_form(rows)
    # vec in rowspan(M) iff vec*V has coordinates divisible by the
    # diagonal (and zero beyond the rank).
    transformed = [sum(vec[i] * v[i][j] for i in range(len(vec))) for j in range(len(vec))]
    rank = min(len(rows), len(vec))
    for j in range(len(vec)):
        dj = d[j][j] if j < rank else 0
        if dj == 0:
            if transformed[j] != 0:
                return False
        elif transformed[j] % dj != 0:
            return False
    return True


def integer_kernel(m):
    """Basis (as rows) of {x : m x = 0} over the integers."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0:
        return _identity(cols)
    _, d, v = smith_normal_form(m)
    basis = []
    for j in range(cols):
        dj = d[j][j] if j < min(rows, cols) else 0
        if dj == 0:
            basis.append([v[i][j] for i in range(cols)])
    return basis


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism on generators: column j of ``matrix`` is the image
    of source generator j in the target's generators."""

    src: AbGroupPresentation
    dst: AbGroupPresentation
    matrix: tuple

    def __post_init__(self):
        if len(self.matrix) != self.dst.gens or any(
                len(row) != self.src.gens for row in self.matrix):
            raise ValueError("matrix shape must be dst.gens x src.gens")

    @staticmethod
    def from_rows(src, dst, rows):
        return GroupHom(src, dst, tuple(tuple(int(x) for x in r) for r in rows))

    def is_well_defined(self):
        for rel in self.src.rels:
            image = [sum(self.matrix[i][j] * rel[j] for j in range(self.src.gens))
                     for i in range(self.dst.gens)]
            if not _relation_lattice_contains(self.dst.rels, image):
                return False
        return True


def _require_well_defined(f: GroupHom):
    if not f.is_well_defined():
        raise ValueError("homomorphism does not respect the relations")


def cokernel(f: GroupHom) -> AbGroupPresentation:
    _require_well_defined(f)
    rels = [list(r) for r in f.dst.rels]
    for j in range(f.src.gens):
        rels.append([f.matrix[i][j] for i in range(f.dst.gens)])
    return AbGroupPresentation.from_rows(f.dst.gens, rels).canonical_presentation()


def kernel(f: GroupHom) -> AbGroupPresentation:
    _require_well_defined(f)
    g, h = f.src.gens, f.dst.gens
    n_rels = len(f.dst.rels)
    # Solutions of M x = R^T y: integer kernel of [M | -R^T], x part.
    combined = [[f.matrix[i][j] for j in range(g)] +
                [-f.dst.rels[r][i] for r in range(n_rels)]
                for i in range(h)]
    solutions = integer_kernel(combined)
    lattice_gens = [row[:g] for row in solutions]  # generating set of K
    if not lattice_gens:
        return AbGroupPresentation.free(0)
    # Presentation of K / L_src: relations are integer combinations of
    # the generators that land in the source relation lattice.
    p = len(lattice_gens)
    n_src_rels = len(f.src.rels)
    combined2 = [[lattice_gens[t][j] for t in range(p)] +
                 [-f.src.rels[r][j] for r in range(n_src_rels)]
                 for j in range(g)]
    rel_solutions = integer_kernel(combined2)
    rels = [row[:p] for row in rel_solutions]
    return AbGroupPresentation.from_rows(p, rels).canonical_presentation()


def _strip_prime_part(d: int, l: int) -> int:
    if d == 0:
        return 0
    g = gcd(d, l)
    while g > 1:
        while d % g == 0:
            d //= g
        g = gcd(d, l)
    return d


def localize(g: AbGroupPresentation, l: int) -> AbGroupPresentation:
    """Invert l: strip the l-primary part of each invariant factor,
    preserving the free rank (read as a rank over Z with l inverted)."""
    if l < 1:
        raise ValueError("l must be positive")
    factors, free_rank = g.canonical()
    stripped = [x for x in (_strip_prime_part(f, l) for f in factors) if x != 1]
    return AbGroupPresentation.diagonal(stripped, free_rank)


def _is_iso_after_localization(f: GroupHom, l: int) -> bool:
    """A map becomes an isomorphism once l is inverted iff its kernel
    and cokernel are annihilated by a power of l."""
    return localize(kernel(f), l).is_trivial() and localize(cokernel(f), l).is_trivial()


def sequential_colimit(groups, maps, invert: int):
    """Colimit of a finite chain after inverting ``invert``.

    Returns (localized stable group, stabilization index s): s is the
    first stage from which every localized map is an isomorphism.
    """
    if len(maps) != len(groups) - 1:
        raise ValueError("need exactly one map between consecutive groups")
    for i, f in enumerate(maps):
        if f.src is not groups[i] and f.src.canonical() != groups[i].canonical():
            raise ValueError("maps are not composable with the group chain")
        _require_well_defined(f)
    if not maps:
        return localize(groups[0], invert), 0
    iso = [_is_iso_after_localization(f, invert) for f in maps]
    # stabilization needs a witness: every map from stage s on must be a
    # localized isomorphism, with at least the final map among them.
    for s in range(len(maps)):
        if all(iso[s:]):
            return localize(groups[s], invert), s
    raise ValueError("not stabilized within truncation")
