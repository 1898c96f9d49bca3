"""Differential tests of the modular integer linear algebra.

The blocked float64 elimination is compared with a column-at-a-time
int64 elimination, and the Hessenberg characteristic polynomial with the
Faddeev-LeVerrier recurrence over Z; both references are kept here as
oracles only.  Kernels with entries too large for the float64 check are
compared with sympy.
"""

from __future__ import annotations

from itertools import islice
from math import gcd
from typing import List, Tuple

import numpy as np
import pytest
import sympy

from effdom import linalg
from effdom.graphs import adjacency_matrix, hamming_graph
from effdom.linalg import (
    BLOCK,
    DELAY,
    PRIME_LIMIT,
    _int_matrix,
    _matmul_mod,
    _mod,
    _modp_kernel,
    _primes,
    char_poly,
    int_kernel_basis,
    int_rank,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_modp_kernel(rows: List[List[int]], n_cols: int, p: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Pivot columns and kernel residues mod p by unblocked int64 elimination."""
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


def oracle_char_poly(mat: List[List[int]]) -> List[int]:
    """det(xI - M), lowest degree first, by the Faddeev-LeVerrier recurrence."""
    n = len(mat)
    if n == 0:
        return [1]
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m_cur = [list(row) for row in mat]
    c = -sum(m_cur[i][i] for i in range(n))
    coeffs[n - 1] = c
    for k in range(2, n + 1):
        for i in range(n):
            m_cur[i][i] += c
        cols = list(zip(*m_cur))
        m_cur = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in mat]
        num, rem = divmod(-sum(m_cur[i][i] for i in range(n)), k)
        assert rem == 0
        c = num
        coeffs[n - k] = c
    return coeffs


# ---------------------------------------------------------------------------
# float64 exactness
# ---------------------------------------------------------------------------

def test_every_prime_keeps_products_below_2_53():
    # _primes counts down from PRIME_LIMIT - 1, and the bounds grow with p,
    # so they hold for every prime it can return once they hold at the top
    top = PRIME_LIMIT - 1
    assert BLOCK * (top - 1) ** 2 + top < 2 ** 53
    assert DELAY * BLOCK * PRIME_LIMIT ** 2 + 2 * PRIME_LIMIT <= 2 ** 53
    primes = list(islice(_primes(), 3000))
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == len(primes)
    for p in primes:
        assert sympy.isprime(p) and p < PRIME_LIMIT
        assert BLOCK * (p - 1) ** 2 + p < 2 ** 53
    # nothing between the top and the first prime is skipped
    assert not any(sympy.isprime(c) for c in range(primes[0] + 1, PRIME_LIMIT))


def test_mod_matches_integer_remainder():
    rng = np.random.default_rng(0)
    # values whose float quotient x * (1/p) rounds up past x // p
    rounds_up = {1040153: [9004078793348750], 1040447: [9004077911137761]}
    for p in (3, 1009, 1040153, 1040447, 1048573):
        hi = 2 ** 53 - 2 * p
        x = [int(v) for v in rng.integers(0, hi, 2000, dtype=np.int64)]
        x += [q * p + d for q in (0, 1, 2, hi // p - 1) for d in (-1, 0, 1) if 0 <= q * p + d <= hi]
        x += [hi, hi - 1] + rounds_up.get(p, [])
        got = _mod(np.array(x, dtype=np.float64), p)
        assert [int(v) for v in got] == [v % p for v in x]


def test_matmul_mod_exact_when_one_product_would_round():
    p = next(_primes())
    n = 2 * DELAY * BLOCK + 1
    rng = np.random.default_rng(5)
    x = rng.integers(p - 1000, p, (4, n))
    y = rng.integers(p - 1000, p, (n, 4))
    want = (x.astype(object) @ y.astype(object)) % p
    # a single float64 product would sum past 2^53, where odd sums round
    assert want.size == 16 and (x.astype(object) @ y.astype(object)).min() > 2 ** 53
    got = _matmul_mod(x.astype(np.float64), y.astype(np.float64), p)
    assert got.astype(np.int64).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# blocked elimination against the int64 oracle
# ---------------------------------------------------------------------------

def _random_matrix(rng, rows, cols, rank, lo, hi):
    """Integer matrix of at most the given rank, as lists of Python ints."""
    a = rng.integers(lo, hi, (rows, rank)).astype(object)
    b = rng.integers(lo, hi, (rank, cols)).astype(object)
    return (a @ b).tolist()


SHAPES = [
    (5, 3, 3), (3, 5, 3),            # tall, wide, full rank
    (9, 9, 4),                       # rank deficient
    (70, 20, 20), (20, 70, 20),      # one panel, tall and wide
    (130, 150, 150), (150, 130, 90),  # cross the 64-wide panels
    (200, 200, 37),                  # rank deficient across panels
]


@pytest.mark.parametrize("rows,cols,rank", SHAPES)
@pytest.mark.parametrize("entries", [(0, 2), (-5, 6)])
@pytest.mark.parametrize("delay", [DELAY, 1])
def test_modp_kernel_matches_oracle(rows, cols, rank, entries, delay, monkeypatch):
    # a delay of 1 reduces the trailing matrix before every product, which
    # matrices below DELAY panels wide never do otherwise
    monkeypatch.setattr(linalg, "DELAY", delay)
    rng = np.random.default_rng([rows, cols, rank, entries[0] + 5])
    mat = _random_matrix(rng, rows, cols, rank, *entries)
    for p in islice(_primes(), 2):
        got_piv, got_kern = _modp_kernel(_int_matrix(mat, None), p)
        want_piv, want_kern = oracle_modp_kernel(mat, cols, p)
        assert got_piv == want_piv
        assert np.array_equal(got_kern, want_kern)


def test_modp_kernel_small_prime_and_huge_entries():
    rng = np.random.default_rng(7)
    cases = [
        # a small prime makes ranks drop and pivots move
        (_random_matrix(rng, 40, 90, 30, -3, 4), 5),
        (_random_matrix(rng, 90, 40, 40, 0, 3), 3),
        # entries up to 10^40 go through Python ints before the reduction
        ((rng.integers(-10 ** 6, 10 ** 6, (12, 80)).astype(object) * 10 ** 34).tolist(), 1048573),
        ([[10 ** 40, -(10 ** 40) + 1, 7], [3, 10 ** 39, -(10 ** 40)]], 1048571),
    ]
    for mat, p in cases:
        got_piv, got_kern = _modp_kernel(_int_matrix(mat, None), p)
        want_piv, want_kern = oracle_modp_kernel(mat, len(mat[0]), p)
        assert got_piv == want_piv
        assert np.array_equal(got_kern, want_kern)


# ---------------------------------------------------------------------------
# certification: lifts, CRT, unlucky primes
# ---------------------------------------------------------------------------

def _sympy_kernel(mat):
    """Primitive sympy nullspace basis, first nonzero entry positive."""
    out = []
    for v in sympy.Matrix(mat).nullspace():
        den = sympy.ilcm(*[sympy.fraction(e)[1] for e in v])
        ints = [int(e * den) for e in v]
        g = 0
        for e in ints:
            g = gcd(g, abs(e))
        ints = [e // g for e in ints]
        if next(e for e in ints if e) < 0:
            ints = [-e for e in ints]
        out.append(tuple(ints))
    return out


def test_kernel_with_huge_entries_uses_exact_check_and_matches_sympy():
    a, b = 2 ** 40, 2 ** 40 + 1
    rng = np.random.default_rng(3)
    cases = [
        [[a, b]],
        [[a, b, 3 * a + 1], [2 * b, a, 5]],
        (rng.integers(2 ** 40, 2 ** 41, (3, 5)).astype(object)).tolist(),
        [[1, -(2 ** 30 + 1)]],           # integer kernel entry above p / 2: needs CRT
    ]
    for mat in cases:
        kern = int_kernel_basis(mat)
        assert kern == _sympy_kernel(mat)
        assert int_rank(mat) == sympy.Matrix(mat).rank()
        # the float64 check cannot take these: the exact one must have run
        l1 = max(sum(abs(e) for e in row) for row in mat)
        assert l1 * max(abs(e) for v in kern for e in v) >= 2 ** 53


def test_kernel_when_the_first_prime_moves_the_pivots():
    p0 = next(_primes())
    # mod p0 the first column vanishes, so its pivot moves to column 1
    assert int_kernel_basis([[p0, 1]]) == [(1, -p0)]
    assert int_kernel_basis([[p0]]) == []
    assert int_kernel_basis([[p0, p0], [1, 1]]) == [(1, -1)]


# ---------------------------------------------------------------------------
# characteristic polynomials against Faddeev-LeVerrier
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 24, 40])
def test_char_poly_matches_oracle_on_random_matrices(n):
    rng = np.random.default_rng(n)
    for lo, hi in ((-3, 4), (0, 2), (-50, 51)):
        mat = rng.integers(lo, hi, (n, n)).tolist()
        assert char_poly(mat) == oracle_char_poly(mat)


def test_char_poly_matches_oracle_on_h25():
    mat = adjacency_matrix(hamming_graph(2, 5))
    got = char_poly(mat)
    assert got == oracle_char_poly(mat)
    # H(2,5): eigenvalues 5 - 2i with multiplicity C(5, i)
    want = [1]
    for i in range(6):
        for _ in range(sympy.binomial(5, i)):
            want = [a - (5 - 2 * i) * b for a, b in zip([0] + want, want + [0])]
    assert got == want
