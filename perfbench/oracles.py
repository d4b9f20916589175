"""Computations made apart from frcalc, against which its outputs are
checked, and the wire-format codecs the benchmark writes inputs with.

Nothing here imports frcalc: a fault in a frcalc kernel cannot hide
itself by also breaking the reference it is compared with.
"""

from __future__ import annotations

import numpy as np

RANK_CUTOFF = 1e-8


# ---- complex matrices and frames -------------------------------------

def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def basepoint_frame(d: int, cofactor: int) -> np.ndarray:
    """e_ij (x) E_cofactor as an array of shape (d, d, n, n)."""
    units = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            units[i, j, i, j] = 1.0
    ec = np.eye(cofactor, dtype=complex)
    return np.stack([np.kron(units[i, j], ec) for i in range(d) for j in range(d)]).reshape(
        d, d, d * cofactor, d * cofactor)


def conjugate(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """u m u* for every matrix in the trailing two axes."""
    return u @ mats @ u.conj().T


def frame_axiom_error(mats: np.ndarray) -> float:
    """Worst violation of the three frame axioms, by plain products:
    a_ij a_rs = delta_jr a_is, sum_i a_ii = E, and <a_ij, a_rs> = (n/d) delta."""
    d, n = mats.shape[0], mats.shape[2]
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for r in range(d):
                for s in range(d):
                    want = mats[i, s] if j == r else 0.0
                    worst = max(worst, np.abs(mats[i, j] @ mats[r, s] - want).max())
    worst = max(worst, np.abs(sum(mats[i, i] for i in range(d)) - np.eye(n)).max())
    flat = mats.reshape(d * d, n * n)
    worst = max(worst, np.abs(flat.conj() @ flat.T - (n / d) * np.eye(d * d)).max())
    return float(worst)


def orthonormal_columns(mats) -> np.ndarray:
    """Orthonormal basis, as columns, of the span of the vectorized matrices."""
    v = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in mats], axis=1)
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    if len(s) == 0 or s[0] == 0.0:
        return u[:, :0]
    return u[:, : int(np.sum(s > RANK_CUTOFF * s[0]))]


def span_gap(mats_a, mats_b) -> float:
    """Operator-norm distance between the projectors onto two spans;
    infinite when their dimensions differ."""
    qa, qb = orthonormal_columns(mats_a), orthonormal_columns(mats_b)
    if qa.shape[1] != qb.shape[1]:
        return float("inf")
    return float(np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2))


def max_commutator(xs, ys) -> float:
    worst = 0.0
    for x in xs:
        for y in ys:
            worst = max(worst, float(np.abs(x @ y - y @ x).max()))
    return worst


def numerical_rank(m: np.ndarray) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > RANK_CUTOFF * s[0])) if len(s) and s[0] > 0 else 0


# ---- wire format (README of frcalc: row-major [re, im] entries) -----

def matrix_to_wire(m) -> dict:
    m = np.asarray(m, dtype=complex)
    flat = np.stack([m.real.reshape(-1), m.imag.reshape(-1)], axis=1)
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": flat.tolist()}


def matrix_from_wire(obj) -> np.ndarray:
    e = np.asarray(obj["entries"], dtype=float)
    return (e[:, 0] + 1j * e[:, 1]).reshape(obj["rows"], obj["cols"])


def frame_to_wire(mats: np.ndarray) -> dict:
    d, n = mats.shape[0], mats.shape[2]
    return {"d": d, "ambient": n,
            "mats": [matrix_to_wire(mats[i, j]) for i in range(d) for j in range(d)]}


def frame_from_wire(obj) -> np.ndarray:
    d, n = obj["d"], obj["ambient"]
    return np.stack([matrix_from_wire(m) for m in obj["mats"]]).reshape(d, d, n, n)


def hom_to_wire(src: int, dst: int, mats: np.ndarray) -> dict:
    return {"src": src, "dst": dst, "frame": frame_to_wire(mats)}


# ---- exact integers ---------------------------------------------------

def int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def int_det(m) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [list(row) for row in m]
    sign, prev = 1, 1
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
    return sign * a[n - 1][n - 1] if n else 1


def nonzero_invariant_factors(m) -> list:
    """sympy's invariant factors of an integer matrix, zeros dropped."""
    # Imported here: sympy takes longer to import than frcalc, and set-up
    # time should be frcalc's own.
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    rows, cols = len(m), len(m[0])
    dm = DomainMatrix([[ZZ(x) for x in row] for row in m], (rows, cols), ZZ)
    return [abs(int(x)) for x in invariant_factors(dm) if x != 0]


def strip_prime_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n
