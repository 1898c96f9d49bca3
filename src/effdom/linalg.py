"""Exact linear algebra over GF(q) and over the integers.

Matrices are lists of rows of ints; field entries are GF element codes,
integer entries are arbitrary-precision Python ints.  Nothing here uses
floating point.

Rational ranks and kernels of integer matrices are computed by modular
elimination and certified exactly: a full-rank minor modulo a prime
bounds the rank from below, and integer kernel vectors verified over Z
bound the nullity from below.  When the two bounds meet the answer is
proven; until then more primes are added, with a pure-rational
elimination as the final fallback.  Kernel bases are returned in
free-column completion form (one vector per free column, in increasing
column order), scaled primitive with the first nonzero entry positive,
so results are deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import GF

__all__ = [
    "rref",
    "field_rank",
    "kernel_basis",
    "solve_affine",
    "mat_vec",
    "int_rank",
    "int_kernel_basis",
    "char_poly",
    "poly_mul",
    "poly_divides",
    "CHAR_POLY_CAP",
]

CHAR_POLY_CAP = 512

IntMatrix = List[List[int]]
IntVector = List[int]


def _copy_rect(mat: Sequence[Sequence[int]], cols: Optional[int]) -> Tuple[List[List[int]], int, int]:
    rows = [list(r) for r in mat]
    if cols is None:
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    for r in rows:
        if len(r) != cols:
            raise ValueError("ragged matrix")
    return rows, len(rows), cols


# ---------------------------------------------------------------------------
# GF(q) matrices
# ---------------------------------------------------------------------------

def rref(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form over GF(q); returns (matrix, pivot columns)."""
    m, n_rows, n_cols = _copy_rect(mat, cols)
    for row in m:
        for e in row:
            gf._check(e)
    piv: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = gf.inv(m[r][c])
        if inv != 1:
            m[r] = [gf.mul(inv, e) for e in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [gf.sub(a, gf.mul(f, b)) for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    return m, piv


def field_rank(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> int:
    if not mat:
        return 0
    return len(rref(gf, mat, cols)[1])


def kernel_basis(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> List[List[int]]:
    """Basis of the right kernel over GF(q), free-column completion form."""
    if not mat:
        if cols is None:
            raise ValueError("cannot infer column count of an empty matrix")
        return [[1 if i == f else 0 for i in range(cols)] for f in range(cols)]
    m, piv = rref(gf, mat, cols)
    n_cols = len(m[0])
    pivset = set(piv)
    basis = []
    for f in range(n_cols):
        if f in pivset:
            continue
        v = [0] * n_cols
        v[f] = 1
        for i, pc in enumerate(piv):
            v[pc] = gf.neg(m[i][f])
        basis.append(v)
    return basis


def solve_affine(gf: GF, mat: Sequence[Sequence[int]], target: Sequence[int]) -> Optional[List[int]]:
    """One solution of M x = target over GF(q), or None.

    Free variables are set to zero, which makes the result canonical.
    """
    rows, n_rows, n_cols = _copy_rect(mat, None)
    if len(target) != n_rows:
        raise ValueError("target length does not match row count")
    aug = [row + [t] for row, t in zip(rows, target)]
    m, piv = rref(gf, aug, n_cols + 1)
    if piv and piv[-1] == n_cols:
        return None
    x = [0] * n_cols
    for i, pc in enumerate(piv):
        x[pc] = m[i][n_cols]
    return x


def mat_vec(gf: GF, mat: Sequence[Sequence[int]], vec: Sequence[int]) -> List[int]:
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = gf.add(acc, gf.mul(a, b))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# Integer matrices: certified rational rank and kernel
# ---------------------------------------------------------------------------

# 31-bit primes: products of two residues stay inside int64.
_MOD_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
    2147483249, 2147483237, 2147483179, 2147483171, 2147483137,
    2147483123, 2147483077, 2147483069, 2147483059, 2147483053,
)


def _modp_kernel(rows: List[List[int]], n_cols: int, p: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Pivot columns and kernel residues of the matrix modulo p."""
    a = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    n_rows = a.shape[0]
    piv: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = a[r] * inv % p
        col = a[:, c].copy()
        col[r] = 0
        nzr = np.flatnonzero(col)
        if nzr.size:
            a[nzr] = (a[nzr] - col[nzr, None] * a[r][None, :]) % p
        piv.append(c)
        r += 1
    free = [c for c in range(n_cols) if c not in set(piv)]
    kern = np.zeros((len(free), n_cols), dtype=np.int64)
    for idx, f in enumerate(free):
        kern[idx, f] = 1
        for i, pc in enumerate(piv):
            kern[idx, pc] = (-int(a[i, f])) % p
    return tuple(piv), kern


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> Tuple[int, int]:
    g, s = _inv_mod(m1 % m2, m2)
    if g != 1:
        raise ValueError("moduli not coprime")
    t = ((r2 - r1) * s) % m2
    return r1 + m1 * t, m1 * m2


def _inv_mod(a: int, m: int) -> Tuple[int, int]:
    """Returns (gcd, inverse of a mod m when gcd == 1)."""
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    return old_r, old_s % m if old_r == 1 else 0


def _rat_recon(x: int, m: int) -> Optional[Fraction]:
    """Rational n/d with |n|, d <= sqrt(m/2) congruent to x mod m, if any."""
    bound = isqrt((m - 1) // 2)
    a0, a1 = m, x % m
    t0, t1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(abs(t1), m) != 1:
        return None
    return Fraction(a1, t1)


def _primitive(vec: List[int]) -> Tuple[int, ...]:
    g = 0
    for e in vec:
        g = gcd(g, abs(e))
    if g > 1:
        vec = [e // g for e in vec]
    for e in vec:
        if e:
            if e < 0:
                vec = [-x for x in vec]
            break
    return tuple(vec)


def _verify_kernel(rows: List[List[int]], vectors: List[Tuple[int, ...]]) -> bool:
    """Exact check that M v = 0 for every candidate vector."""
    if not vectors:
        return True
    max_entry = max((max(abs(e) for e in row) if row else 0) for row in rows) if rows else 0
    max_v = max(max(abs(e) for e in v) for v in vectors)
    n_cols = len(vectors[0])
    if max_entry * max_v * max(n_cols, 1) < (1 << 62):
        m_np = np.array(rows, dtype=np.int64)
        v_np = np.array(vectors, dtype=np.int64).T
        return not np.any(m_np @ v_np)
    for v in vectors:
        for row in rows:
            if sum(a * b for a, b in zip(row, v)) != 0:
                return False
    return True


def _fraction_kernel(rows: List[List[int]], n_cols: int) -> List[Tuple[int, ...]]:
    """Exact rational elimination; slow fallback, always correct."""
    m = [[Fraction(e) for e in row] for row in rows]
    n_rows = len(m)
    piv: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    pivset = set(piv)
    basis = []
    for f in range(n_cols):
        if f in pivset:
            continue
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i, pc in enumerate(piv):
            v[pc] = -m[i][f]
        denom = 1
        for e in v:
            denom = denom * e.denominator // gcd(denom, e.denominator)
        basis.append(_primitive([int(e * denom) for e in v]))
    return basis


def int_kernel_basis(mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the rational right kernel, certified exact."""
    if not mat:
        if cols is None:
            raise ValueError("cannot infer column count of an empty matrix")
        return [tuple(1 if i == f else 0 for i in range(cols)) for f in range(cols)]
    rows, n_rows, n_cols = _copy_rect(mat, cols)
    if n_cols == 0:
        return []

    by_piv: dict = {}
    for p in _MOD_PRIMES:
        piv, kern = _modp_kernel(rows, n_cols, p)
        by_piv.setdefault(piv, []).append((p, kern))
        # candidate pivot structure: maximal rank, then lexicographically least
        cand = min(by_piv, key=lambda t: (-len(t), t))
        group = by_piv[cand]
        residues = group[0][1].astype(object)
        modulus = group[0][0]
        for q, kern_q in group[1:]:
            flat_r = residues.ravel()
            flat_q = kern_q.ravel()
            combined = np.empty(flat_r.shape, dtype=object)
            for i in range(flat_r.size):
                combined[i], _ = _crt_pair(int(flat_r[i]), modulus, int(flat_q[i]), q)
            residues = combined.reshape(residues.shape)
            modulus *= q
        vectors = _reconstruct(residues, modulus)
        if vectors is not None and _verify_kernel(rows, vectors):
            return vectors
    return _fraction_kernel(rows, n_cols)


def _reconstruct(residues: np.ndarray, modulus: int) -> Optional[List[Tuple[int, ...]]]:
    out = []
    for row in residues:
        fracs = []
        denom = 1
        for x in row:
            f = _rat_recon(int(x), modulus)
            if f is None:
                return None
            fracs.append(f)
            denom = denom * f.denominator // gcd(denom, f.denominator)
        out.append(_primitive([int(f * denom) for f in fracs]))
    return out


def int_rank(mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> int:
    """Rank over the rationals, certified exact."""
    if not mat:
        return 0
    n_cols = cols if cols is not None else len(mat[0])
    return n_cols - len(int_kernel_basis(mat, cols))


# ---------------------------------------------------------------------------
# Characteristic polynomials over Z
# ---------------------------------------------------------------------------

def char_poly(mat: Sequence[Sequence[int]], max_n: int = CHAR_POLY_CAP) -> List[int]:
    """Coefficients of det(xI - M), lowest degree first, exact integers.

    Faddeev-LeVerrier recurrence; every division is exact.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("characteristic polynomial needs a square matrix")
    if n > max_n:
        raise ValueError(f"matrix size {n} exceeds the characteristic polynomial cap {max_n}")
    if n == 0:
        return [1]
    a = [list(row) for row in mat]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_cur = [row[:] for row in a]
    c = -sum(m_cur[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        for i in range(n):
            m_cur[i][i] += c
        m_cur = _int_mat_mul(a, m_cur)
        tr = sum(m_cur[i][i] for i in range(n))
        num, rem = divmod(-tr, k)
        if rem:
            raise ArithmeticError("inexact division in the trace recurrence")
        c = num
        coeffs[n - k] = c
    return coeffs


def _int_mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def poly_mul(p: Sequence[int], q: Sequence[int]) -> List[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divides(p: Sequence[int], q: Sequence[int]) -> bool:
    """True when the integer polynomial p divides q exactly (over Q).

    Coefficient lists are lowest degree first; trailing zeros are ignored.
    """
    p = list(p)
    q = list(q)
    while p and p[-1] == 0:
        p.pop()
    while q and q[-1] == 0:
        q.pop()
    if not p:
        raise ValueError("division by the zero polynomial")
    if not q:
        return True
    if len(q) < len(p):
        return False
    rem = [Fraction(c) for c in q]
    lead = Fraction(p[-1])
    dp = len(p) - 1
    for top in range(len(rem) - 1, dp - 1, -1):
        c = rem[top] / lead
        if c:
            for t in range(dp + 1):
                rem[top - dp + t] -= c * p[t]
    return not any(rem)
