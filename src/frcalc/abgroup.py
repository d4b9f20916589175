"""Exact arithmetic for finitely generated abelian groups.

Groups are presented by integer relation matrices (rows = relations,
columns = generators) over the arbitrary-precision integers, and two
eliminations do all the work.  ``_eliminate`` brings D, the top-left
block of a list-of-lists tableau, to Smith normal form, with pivoting by
least absolute value to contain entry growth; each row or column
operation on D carries whatever the tableau stores beside it in the same
pass.  Each caller builds only the tableau it reads: ``smith_normal_form``
builds [[D, U], [V, 0]] (U, which `ab snf` writes, witnesses U m V = D),
kernels out of groups with relations and lattice membership build
[[D], [V]], and invariant factors build [[D]].  The pivots depend on D
alone, so D and V agree entry for entry across the three shapes.  A row
operation is one list comprehension and a column operation a loop over
every row, so invariant factors, which need no transform, reduce a tall
matrix on its short side, as its transpose.  ``_bareiss``, fraction-free
Gaussian elimination, gives ranks and determinants without a Smith form:
kernels out of free groups read two ranks from one of its passes, and
it checks transforms above 4x4 unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _det_unimodular(m):
    """Determinant: a closed form up to 4x4, ``_bareiss`` above."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 4:
        # Laplace expansion along the first two rows: their 2x2 minors
        # times the complementary minors of the last two.
        (a, b, c, d), (e, f, g, h), (i, j, k, l), (w, x, y, z) = m
        return ((a * f - b * e) * (k * z - l * y) - (a * g - c * e) * (j * z - l * x)
                + (a * h - d * e) * (j * y - k * x) + (b * g - c * f) * (i * z - l * w)
                - (b * h - d * f) * (i * y - k * w) + (c * h - d * g) * (i * x - j * w))
    return _bareiss(m, n)[2]


def _bareiss(m, cols, top=0):
    """(rank of the first ``top`` rows of m, rank of m, and det m if m
    is square), m a list of rows with ``cols`` columns, from one
    fraction-free Gaussian elimination (Bareiss, Math. Comp. 22, 1968) of
    a copy of m.

    Each step divides exactly by the previous pivot, so every entry stays
    a minor of m and no fraction or Smith form is formed.  The pivot in
    each column is the first row below the pivots with an entry there;
    moving it up keeps the other rows in order, and a row is only ever
    combined with pivots found above it in that order, so the pivots
    among the first ``top`` rows number their rank.
    """
    a = [list(row) for row in m]
    n = len(a)
    rank = top_rank = 0
    top_left = top  # rows of the first ``top`` below the pivots; they come first
    prev = sign = 1
    for c in range(cols):
        for i in range(rank, n):
            if a[i][c]:
                break
        else:
            continue
        if i != rank:
            a.insert(rank, a.pop(i))
            sign *= (-1) ** (i - rank)
        if i - rank < top_left:
            top_left -= 1
            top_rank += 1
        pivot = a[rank]
        p = pivot[c]
        for k in range(rank + 1, n):
            x = a[k][c]
            a[k] = [(y * p - x * z) // prev for y, z in zip(a[k], pivot)]
        prev = p
        rank += 1
        if rank == n:
            break
    return top_rank, rank, sign * prev if rank == cols == n else 0


def _eliminate(tab, rows, cols):
    """Bring D, the top-left ``rows`` x ``cols`` block of the tableau
    ``tab`` (a list of rows), to Smith normal form in place.

    The elimination is Cohen's (A Course in Computational Algebraic
    Number Theory, Alg. 2.4.14): the pivot is an entry of least absolute
    value in the remaining block, its row and column are reduced by floor
    division, and the smallest remainder left becomes the next pivot.
    Once both are clear, a row holding an entry the pivot does not divide
    is added to the pivot row, which leaves a smaller remainder there.

    Pivots are chosen from D alone.  A row operation on D carries the
    rest of its row of ``tab``, and a column operation carries every row
    below D, so whatever the caller stores right of D or below it is
    transformed along: U to the right records the row operations, V
    below the column operations.
    """
    for t in range(min(rows, cols)):
        # The pivot is the first entry of least absolute value in row
        # order, i.e. the least (abs, i, j).
        least = 0
        for i in range(t, rows):
            row = tab[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not least or abs(x) < least):
                    least, pi, pj = abs(x), i, j
        if not least:
            break
        while pi is not None:
            tab[t], tab[pi] = tab[pi], tab[t]
            if pj != t:
                for row in tab:
                    row[t], row[pj] = row[pj], row[t]
            top = tab[t]
            p = top[t]
            # Floor division leaves remainders smaller than |p|; the
            # least of them is the next pivot.
            least, pi, pj = abs(p), None, None
            for i in range(t + 1, rows):
                row = tab[i]
                if row[t]:
                    c = -(row[t] // p)
                    tab[i] = row = [x + c * y for x, y in zip(row, top)]
                    if 0 < abs(row[t]) < least:
                        least, pi, pj = abs(row[t]), i, t
            for j in range(t + 1, cols):
                if top[j]:
                    c = -(top[j] // p)
                    for row in tab:
                        row[j] += c * row[t]
                    if 0 < abs(top[j]) < least:
                        least, pi, pj = abs(top[j]), t, j
            if pi is None and least != 1:
                offending = next((i for i in range(t + 1, rows)
                                  if any(x % p for x in tab[i][t + 1:cols])), None)
                if offending is not None:
                    tab[t] = [x + y for x, y in zip(top, tab[offending])]
                    pi, pj = t, t
        if tab[t][t] < 0:
            tab[t] = [-x for x in tab[t]]


def smith_normal_form(m):
    """U, D, V with U m V = D, U and V unimodular, and the diagonal of D
    nonnegative with d_i | d_{i+1}.

    ``_eliminate`` runs on the tableau [[D, U], [V, 0]]: the first
    ``rows`` rows are D with U to its right, the last ``cols`` rows are V
    below it, and the zero block is not stored.  A row operation on D is
    then one list comprehension over a whole row, which carries U, and a
    column operation on D one loop over the rows, which carries V; U and
    V are sliced out at the end, and a determinant checks both on every
    call.  Callers that read less build less: integer kernels and
    lattice membership reduce [[D], [V]] with the same pivots, so their D
    and V are the ones returned here; invariant factors reduce [[D]]
    alone, a tall m as its transpose.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    tab = [list(row) + [0] * rows for row in m] + [[0] * cols for _ in range(cols)]
    for i in range(rows):
        tab[i][cols + i] = 1
    for j in range(cols):
        tab[rows + j][j] = 1
    _eliminate(tab, rows, cols)
    u = [row[cols:] for row in tab[:rows]]
    d = [row[:cols] for row in tab[:rows]]
    v = tab[rows:]
    if abs(_det_unimodular(u)) != 1 or abs(_det_unimodular(v)) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    return u, d, v


def _diagonal_and_v_columns(m, cols):
    """The diagonal of D (zero past the rank, one entry per column) and
    the columns of V of the Smith normal form of m, which has ``cols``
    columns, reduced on the tableau [[D], [V]]; V is checked unimodular
    and not kept."""
    rows = len(m)
    tab = [list(row) for row in m] + [[int(i == j) for j in range(cols)] for i in range(cols)]
    _eliminate(tab, rows, cols)
    v = tab[rows:]
    if abs(_det_unimodular(v)) != 1:
        raise ArithmeticError("Smith normal form transforms are not unimodular")
    return [tab[j][j] if j < rows else 0 for j in range(cols)], list(zip(*v))


def invariant_factors(m, cols):
    """Nontrivial invariant factors (> 1) and the free rank of the
    cokernel of the relation matrix m, which has ``cols`` columns even
    when it has no rows.

    m and m^T have the same invariant factors, and ``_eliminate`` takes
    a row operation in one list comprehension but a column operation in
    a loop over every row, so a tall m is reduced as m^T."""
    tall = len(m) > cols
    d = [list(row) for row in (zip(*m) if tall else m)]
    _eliminate(d, len(d), len(m) if tall else cols)
    nonzero = [d[i][i] for i in range(min(len(m), cols)) if d[i][i]]
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
        return AbGroupPresentation(gens, tuple(tuple(map(int, r)) for r in rows))

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
        return invariant_factors(self.rels, self.gens)

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


def _relation_lattice_contains(rels, cols, vecs):
    """Whether every vector of vecs lies in the integer row span of
    rels, which has ``cols`` columns; one Smith normal form of rels
    serves them all."""
    if not rels:
        return all(x == 0 for vec in vecs for x in vec)
    diag, columns = _diagonal_and_v_columns(rels, cols)
    # vec in rowspan(M) iff vec*V has coordinates divisible by the
    # diagonal (and zero beyond the rank).
    for vec in vecs:
        for dj, column in zip(diag, columns):
            x = sum(a * b for a, b in zip(vec, column))
            if x % dj if dj else x:
                return False
    return True


def integer_kernel(m, cols):
    """Basis (as rows) of {x in Z^cols : m x = 0}; m has ``cols``
    columns even when it has no rows."""
    diag, columns = _diagonal_and_v_columns(m, cols)
    return [list(column) for dj, column in zip(diag, columns) if dj == 0]


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
        return GroupHom(src, dst, tuple(tuple(map(int, r)) for r in rows))

    def is_well_defined(self):
        images = [[sum(self.matrix[i][j] * rel[j] for j in range(self.src.gens))
                   for i in range(self.dst.gens)] for rel in self.src.rels]
        return not images or _relation_lattice_contains(self.dst.rels, self.dst.gens, images)


def _require_well_defined(f: GroupHom):
    if not f.is_well_defined():
        raise ValueError("homomorphism does not respect the relations")


def cokernel(f: GroupHom) -> AbGroupPresentation:
    _require_well_defined(f)
    return _cokernel(f)


def _cokernel(f: GroupHom) -> AbGroupPresentation:
    """The target's generators modulo [B; M^T], its relations B and the
    images M^T of the source generators."""
    return AbGroupPresentation.diagonal(
        *invariant_factors([*f.dst.rels, *zip(*f.matrix)], f.dst.gens))


def kernel(f: GroupHom) -> AbGroupPresentation:
    _require_well_defined(f)
    return _kernel(f)


def _kernel(f: GroupHom) -> AbGroupPresentation:
    """The kernel of f.  Out of a free group Z^g into Z^h/B it is a
    subgroup of Z^g, hence free, and exactness of
    0 -> ker (x) Q -> Q^g -> dst (x) Q -> coker (x) Q -> 0 gives its rank
    g + rank B - rank [B; M^T]: both ranks come from one ``_bareiss`` of
    [B; M^T], with no Smith form.  Otherwise the kernel is presented
    from two integer kernels."""
    g, h = f.src.gens, f.dst.gens
    if not f.src.rels:
        rank_b, rank_all, _ = _bareiss([*f.dst.rels, *zip(*f.matrix)], h, len(f.dst.rels))
        return AbGroupPresentation.free(g + rank_b - rank_all)
    n_rels = len(f.dst.rels)
    # Solutions of M x = R^T y: integer kernel of [M | -R^T], x part.
    combined = [[f.matrix[i][j] for j in range(g)] +
                [-f.dst.rels[r][i] for r in range(n_rels)]
                for i in range(h)]
    solutions = integer_kernel(combined, g + n_rels)
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
    rel_solutions = integer_kernel(combined2, p + n_src_rels)
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
    and cokernel are annihilated by a power of l.  The caller has checked
    that f is well defined."""
    return localize(_kernel(f), l).is_trivial() and localize(_cokernel(f), l).is_trivial()


def sequential_colimit(groups, maps, invert: int):
    """Colimit of a finite chain after inverting ``invert``.

    Returns (localized stable group, stabilization index s): s is the
    first stage from which every localized map is an isomorphism.
    """
    if len(maps) != len(groups) - 1:
        raise ValueError("need exactly one map between consecutive groups")
    for i, f in enumerate(maps):
        if (f.src is not groups[i] and f.src.canonical() != groups[i].canonical()
                or f.dst is not groups[i + 1] and f.dst.canonical() != groups[i + 1].canonical()):
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
