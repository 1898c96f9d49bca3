"""Differential tests of the modular integer linear algebra.

The blocked elimination is compared with a column-at-a-time int64
elimination, the Hessenberg characteristic polynomial with the
Faddeev-LeVerrier recurrence over Z, and the one-denominator rational
lift with a per-entry lift; all three references are kept here as oracles
only.  Kernels with entries too large for the float64 check are compared
with sympy.
"""

from __future__ import annotations

import tracemalloc
from itertools import islice
from math import gcd, isqrt, lcm, prod
from typing import List, Optional, Tuple

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from effdom import linalg, obs
from effdom.graphs import adjacency_matrix, hamming_graph
from effdom.linalg import (
    BLOCK,
    CHAR_POLY_CAP,
    DELAY,
    PRIME_LIMIT,
    _annihilates,
    _hessenberg_char_poly,
    _int_matrix,
    _mod,
    _modp_kernel,
    _panel_rref,
    _primes,
    _primitive,
    _rational_lift,
    char_poly,
    int_kernel_basis,
    int_rank,
)
from effdom.spectral import minus_one_multiplicity


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


def oracle_rational_lift(res: np.ndarray, modulus: int) -> Optional[np.ndarray]:
    """Kernel rows by rational reconstruction, one entry at a time: each
    residue becomes the n/d with |n|, d <= sqrt(modulus/2) congruent to it,
    and each row is cleared by the lcm of its denominators."""
    bound = isqrt((modulus - 1) // 2)
    out = []
    for row in res.tolist():
        fracs = []
        for x in row:
            a0, a1, t0, t1 = modulus, x, 0, 1
            while a1 > bound:
                q = a0 // a1
                a0, a1, t0, t1 = a1, a0 - q * a1, t1, t0 - q * t1
            if abs(t1) > bound or gcd(t1, modulus) != 1:
                return None
            fracs.append((a1, t1))
        denom = lcm(*(t for _, t in fracs))
        out.append([a * denom // t for a, t in fracs])
    return _primitive(np.array(out, dtype=object).reshape(res.shape))


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


def test_int64_steps_stay_below_2_63():
    # a panel takes at most BLOCK column steps and a Hessenberg product sums
    # at most CHAR_POLY_CAP terms, each below p^2, onto a residue below p
    top = PRIME_LIMIT - 1
    assert BLOCK * (top - 1) ** 2 + top < 2 ** 63
    assert CHAR_POLY_CAP * (top - 1) ** 2 + top < 2 ** 63


def test_hessenberg_exact_at_the_largest_prime():
    p = next(_primes())
    rng = np.random.default_rng(5)
    for mat in (np.full((30, 30), p - 1), rng.integers(p - 1000, p, (30, 30))):
        want = [c % p for c in oracle_char_poly(mat.tolist())]
        assert _hessenberg_char_poly(mat, p).tolist() == want


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


def _pivots_out_of_row_order(rng):
    # the rows of an upper triangular matrix, row c moved to (3c + 5) mod 70:
    # the pivot of column c sits there
    upper = np.triu(rng.integers(0, 3, (70, 70)), 1) + np.diag(rng.integers(1, 9, 70))
    mat = np.empty_like(upper)
    mat[(3 * np.arange(70) + 5) % 70] = upper
    return mat.tolist()


def _pivot_free_then_full_rank(rng):
    mat = np.zeros((80, 2 * BLOCK + 10), dtype=np.int64)
    mat[:, BLOCK:] = rng.integers(-4, 5, (80, BLOCK + 10))
    return mat.tolist()


def _pivot_in_last_live_row(rng):
    # rows 0..8 take the pivots of columns 0..8; column 9 is nonzero only in
    # the last row, which is the last row still live
    mat = np.zeros((10, 12), dtype=np.int64)
    mat[:9, :9] = np.triu(rng.integers(1, 5, (9, 9)))
    mat[:9, 10:] = rng.integers(-3, 4, (9, 2))
    mat[9, 9:] = rng.integers(1, 5, 3)
    return mat.tolist()


PANEL_CASES = {
    "pivots-out-of-row-order": _pivots_out_of_row_order,
    "pivot-free-then-full-rank": _pivot_free_then_full_rank,
    "pivot-in-last-live-row": _pivot_in_last_live_row,
    "narrower-than-block": lambda rng: _random_matrix(rng, 40, 11, 7, -3, 4),
    "ragged-last-panel": lambda rng: _random_matrix(rng, 150, 2 * BLOCK + 17, 100, -2, 3),
}


@pytest.mark.parametrize("case", sorted(PANEL_CASES))
@pytest.mark.parametrize("delay", [DELAY, 1])
def test_panel_edge_cases_match_oracle(case, delay, monkeypatch):
    monkeypatch.setattr(linalg, "DELAY", delay)
    mat = PANEL_CASES[case](np.random.default_rng(11))
    for p in (next(_primes()), 7):
        got_piv, got_kern = _modp_kernel(_int_matrix(mat, None), p)
        want_piv, want_kern = oracle_modp_kernel(mat, len(mat[0]), p)
        assert got_piv == want_piv
        assert np.array_equal(got_kern, want_kern)


def test_panel_rref_inverts_the_pivot_block():
    p = next(_primes())
    rng = np.random.default_rng(2)
    for panel, rank in ((np.array(_pivots_out_of_row_order(rng))[:, :BLOCK], BLOCK),
                        (np.array(_random_matrix(rng, 90, BLOCK, 40, -9, 10)), 40)):
        panel %= p
        cols, rows, inv = _panel_rref(panel.copy(), p)
        assert len(cols) == rank and (rank < BLOCK or rows != sorted(rows))
        block = panel[np.ix_(rows, cols)].astype(object)
        assert (inv.astype(object) @ block % p).tolist() == np.eye(rank, dtype=int).tolist()
        # the pivots are those of the column-at-a-time elimination
        assert tuple(cols) == oracle_modp_kernel(panel.tolist(), BLOCK, p)[0]


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
        den = sympy.ilcm(1, *[sympy.fraction(e)[1] for e in v])
        ints = [int(e * den) for e in v]
        g = 0
        for e in ints:
            g = gcd(g, abs(e))
        ints = [e // g for e in ints]
        if next(e for e in ints if e) < 0:
            ints = [-e for e in ints]
        out.append(tuple(ints))
    return out


_A, _B = 2 ** 40, 2 ** 40 + 1
HUGE_ENTRY_CASES = [
    [[_A, _B]],
    [[_A, _B, 3 * _A + 1], [2 * _B, _A, 5]],
    (np.random.default_rng(3).integers(2 ** 40, 2 ** 41, (3, 5)).astype(object)).tolist(),
    [[1, -(2 ** 30 + 1)]],           # integer kernel entry above p / 2: needs CRT
]


def test_kernel_with_huge_entries_uses_exact_check_and_matches_sympy():
    for mat in HUGE_ENTRY_CASES:
        kern = int_kernel_basis(mat)
        assert kern == _sympy_kernel(mat)
        assert int_rank(mat) == sympy.Matrix(mat).rank()
        # the float64 check cannot take these: the exact one must have run
        l1 = max(sum(abs(e) for e in row) for row in mat)
        assert l1 * max(abs(e) for v in kern for e in v) >= 2 ** 53


@st.composite
def kernel_rows(draw):
    """Integer rows v with v[f] != 0, as residues of v / v[f] modulo a
    product of kernel primes, with v[f] prime to that product."""
    n = draw(st.integers(1, 6))
    f = draw(st.integers(0, n - 1))
    primes = list(islice(_primes(), draw(st.integers(1, 3))))
    modulus = prod(primes)
    top = draw(st.sampled_from([30, 2000, isqrt(modulus // 2), 2 ** 70]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(st.sampled_from([1, 6, 30, 210, 2 ** 10]))
        v = [draw(st.integers(-top, top)) * draw(st.sampled_from([1, 2, 3, 5, 7, scale])) for _ in range(n)]
        v[f] = draw(st.integers(1, top)) * scale
        if gcd(v[f], modulus) != 1:
            v[f] += 1
        rows.append(v)
    inv = [pow(v[f], -1, modulus) for v in rows]
    res = np.array([[e * i % modulus for e in v] for v, i in zip(rows, inv)], dtype=object)
    return rows, res, modulus


@given(kernel_rows())
@settings(max_examples=300, deadline=None)
def test_rational_lift_finds_what_the_per_entry_lift_finds(case):
    rows, res, modulus = case
    bound = isqrt((modulus - 1) // 2)
    got = _rational_lift(res, modulus)
    want = oracle_rational_lift(res, modulus)
    # the Hadamard argument of int_kernel_basis needs the lift to succeed
    # once every entry of the primitive vector is within the bound
    if want is not None and np.abs(want).max() <= bound:
        assert got is not None and got.tolist() == want.tolist()
    if max(abs(e) for v in rows for e in v) <= bound:
        assert got is not None and got.tolist() == _primitive(np.array(rows, dtype=object)).tolist()


def test_rational_lift_stops_when_the_denominator_passes_the_bound():
    p = next(_primes())
    bound = isqrt((p - 1) // 2)
    d1, d2 = 509, 521  # primes below the bound whose product is above it
    assert d1 < bound < d1 * d2 < p // 2
    row = [pow(d1, -1, p), pow(d2, -1, p), 1]
    assert oracle_rational_lift(np.array([row], dtype=object), p).tolist() == [[d2, d1, d1 * d2]]
    assert _rational_lift(np.array([row], dtype=object), p) is None
    # within the bound, one denominator serves every entry
    row = [3 * pow(d1, -1, p) % p, pow(d1, -1, p), 1]
    assert _rational_lift(np.array([row], dtype=object), p).tolist() == [[3, 1, d1]]
    # y = 5 mod p2 p3 makes p1 y = 5 p1 mod p1 p2 p3, but p1 has no inverse
    # there, so p1 is no denominator
    p1, p2, p3 = islice(_primes(), 3)
    y = 5 + p2 * p3 * 12345
    assert _rational_lift(np.array([[y, 1]], dtype=object), p1 * p2 * p3) is None


def test_kernel_when_the_first_prime_moves_the_pivots():
    p0 = next(_primes())
    # mod p0 the first column vanishes, so its pivot moves to column 1
    assert int_kernel_basis([[p0, 1]]) == [(1, -p0)]
    assert int_kernel_basis([[p0]]) == []
    assert int_kernel_basis([[p0, p0], [1, 1]]) == [(1, -1)]


@st.composite
def products(draw):
    """A matrix with entries up to 2^40 and vectors with entries up to about
    2^100: multiples of its kernel vectors, some moved off the kernel by a
    power of two in one entry."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    top = draw(st.sampled_from([3, 2 ** 20, 2 ** 40]))
    mat = [[draw(st.integers(-top, top)) for _ in range(cols)] for _ in range(rows)]
    vecs = [[e * draw(st.integers(1, 2 ** 60)) for e in v] for v in _sympy_kernel(mat)] or [[0] * cols]
    for v in vecs:
        if draw(st.booleans()):
            v[draw(st.integers(0, cols - 1))] += draw(st.sampled_from([-1, 1])) * 2 ** draw(st.integers(0, 100))
    return mat, vecs


@given(products())
@settings(max_examples=200, deadline=None)
def test_annihilates_matches_the_exact_product(case):
    # the digit products are summed with a carry: M v = 2^40 on one digit
    # is caught only by the carry out of the last digit
    mat, vecs = case
    m = _int_matrix(mat, None)
    bits = 52 - max(sum(abs(e) for e in row) for row in mat).bit_length()
    want = not any(sum(a * b for a, b in zip(row, v)) for row in mat for v in vecs)
    assert _annihilates(m, np.array(vecs, dtype=object), bits) == want
    if max(abs(e) for v in vecs for e in v) < 2 ** 62:
        assert _annihilates(m, np.array(vecs, dtype=np.int64), bits) == want


def test_annihilates_carries_out_of_the_last_digit():
    assert not _annihilates(np.array([[2 ** 40]]), np.array([[1]]), 52 - 41)
    assert not _annihilates(np.array([[2 ** 40, 0]]), np.array([[1, 2 ** 30]]), 52 - 41)
    assert _annihilates(np.array([[2 ** 40, -1]]), np.array([[1, 2 ** 40]]), 52 - 41)


LIFT_CASES = {
    # the trial row (1, -1, 0) lifts at the first prime, the row with
    # 2^30 + 1 does not, so the prime is passed over without a trial reject
    "trial-passes-later-row-fails": ([[1, 1, -(2 ** 30 + 1)]], {"linalg.primes": 2, "linalg.crt_rounds": 1}),
    # the one kernel row needs a second prime
    "two-primes": ([[1, -(2 ** 30 + 1)]], {"linalg.primes": 2, "linalg.crt_rounds": 1, "linalg.trial_rejects": 1}),
    # mod the first prime p0 column 0 vanishes: its trial row fails, and the
    # next prime's pivots replace it rather than joining it by CRT; the
    # entry -1/p0 then lifts once the modulus of primes 2..4 passes 2 p0^2
    "first-prime-moves-the-pivots": ([[next(_primes()), 1]],
                                     {"linalg.primes": 4, "linalg.crt_rounds": 2, "linalg.trial_rejects": 3}),
}


@pytest.mark.parametrize("case", sorted(LIFT_CASES))
def test_lift_trial_matches_sympy(case):
    mat, counters = LIFT_CASES[case]
    with obs.collecting() as stats:
        assert int_kernel_basis(mat) == _sympy_kernel(mat)
    assert {k: v for k, v in stats.counters.items() if k in counters or k == "linalg.trial_rejects"} == counters


# kernels of several rows, so that blocks of 1 and 3 kernel rows split them
BLOCK_CASES = {
    # rows 0-3 lift at the first prime and row 4 (entry 2^30 + 1) fails in
    # a later block, for the symmetric and the rational lift alike; CRT
    # with the second prime lifts every block
    "symmetric-fails-in-a-later-block": [[1, 1, 1, 1, 1, -(2 ** 30 + 1), 1]],
    # rows 1 and 3 hold halves (3/2 and 5/2 over Q): the symmetric lift
    # fails at row 1, the rational one lifts every block at the first prime
    "rational-fallback-in-blocks": [[2, 4, 3, 6, 5, 8, 10]],
    **{name: mat for name, (mat, _) in LIFT_CASES.items()},
    **{f"huge-entries-{i}": mat for i, mat in enumerate(HUGE_ENTRY_CASES)},
    "first-prime-moves-the-pivots-square": [[next(_primes())] * 2, [1, 1]],
}


def _checked(mat, rows: int = linalg.KERNEL_ROWS):
    """The kernel with blocks of the given number of kernel rows, its obs
    counters, and each M v check as (number of vectors, passed)."""
    checks = []
    with pytest.MonkeyPatch.context() as patch, obs.collecting() as stats:
        patch.setattr(linalg, "KERNEL_ROWS", rows)
        patch.setattr(linalg, "_annihilates", lambda m, v, bits: checks.append(
            (len(v), _annihilates(m, v, bits))) or checks[-1][1])
        kern = int_kernel_basis(mat)
    return kern, dict(stats.counters), checks


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_kernel_blocks_match_one_block_and_sympy(case, rows):
    mat = BLOCK_CASES[case]
    kern, counters, _ = _checked(mat)
    assert kern == _sympy_kernel(mat)
    assert _checked(mat, rows)[:2] == (kern, counters)


def test_kernel_blocks_cover_later_failures_and_the_rational_fallback():
    later, rational = BLOCK_CASES["symmetric-fails-in-a-later-block"], BLOCK_CASES["rational-fallback-in-blocks"]
    first_prime = [(1, True), (3, True), (3, False)]  # trial, rows 0-2, rows 3-5
    assert _checked(later, 3)[2] == first_prime * 2 + [(1, True), (3, True), (3, True)]
    # one-row blocks: rows 0-3 pass before row 4 fails
    assert _checked(later, 1)[2] == ([(1, True)] * 5 + [(1, False)]) * 2 + [(1, True)] * 7
    # the symmetric lift passes row 0 and fails row 1; the rational one
    # passes its trial and all six blocks
    assert _checked(rational, 1)[2] == [(1, True), (1, True), (1, False)] + [(1, True)] * 7
    assert _checked(rational)[2] == [(1, True), (6, False), (1, True), (6, True)]


def test_kernel_of_h2_11_peaks_within_its_elimination_matrix():
    # A + I of H(2,11): n = 2048, nullity C(11, 6) = 462.  The elimination
    # needs one 2048 x 2048 float64 matrix (32 MiB); the kernel residues,
    # the lift, the check and the returned tuples get 10 MiB more.
    g = hamming_graph(2, 11)
    a_plus_i = np.eye(g.n, dtype=np.int8)
    a_plus_i[g.rows(), g.indices] = 1
    tracemalloc.start()
    try:
        kern = int_kernel_basis(a_plus_i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kern) == 462
    assert peak <= g.n * g.n * 8 + 10 * 2 ** 20
    # the character witness, with no elimination, is the basis's first vector
    assert minus_one_multiplicity(g).witness == kern[0]


WIDTHS = {"int8": np.int8, "int16": np.int16, "int32": np.int32, "int64": np.int64, "object": object}


@st.composite
def narrow_matrices(draw):
    """Small integer matrices with negative entries and entries at the
    edges of the narrow dtypes."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    edge = st.sampled_from([127, -127, -128, 2 ** 15 - 1, -(2 ** 15), 2 ** 31, -(2 ** 31), 2 ** 31 - 1])
    entry = st.one_of(st.integers(-3, 3), edge)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def _holds(rows, width) -> bool:
    if width is object:
        return True
    info = np.iinfo(width)
    return all(info.min <= e <= info.max for row in rows for e in row)


@given(narrow_matrices())
@settings(max_examples=80, deadline=None)
def test_narrow_dtypes_give_identical_results(rows):
    # int8 % p raises OverflowError in numpy 2 for p >= 128, so every step
    # that reduces a narrow matrix must widen first
    want = (int_kernel_basis(rows), int_rank(rows), char_poly(rows) if len(rows) == len(rows[0]) else None)
    assert want[0] == _sympy_kernel(rows)
    for name, width in WIDTHS.items():
        if _holds(rows, width):
            mat = np.array(rows, dtype=width)
            got = (int_kernel_basis(mat), int_rank(mat), char_poly(mat) if mat.shape[0] == mat.shape[1] else None)
            assert got == want, name


# ---------------------------------------------------------------------------
# characteristic polynomials against Faddeev-LeVerrier
# ---------------------------------------------------------------------------

def test_hessenberg_with_zero_subdiagonal_and_row_swaps():
    rng = np.random.default_rng(4)
    n = 12
    # block upper triangular: columns 3 and 7 have nothing below the
    # subdiagonal to eliminate, so the reduction skips them
    blocks = np.triu(rng.integers(-4, 5, (n, n)), -1)
    blocks[4, 3] = blocks[8, 7] = 0
    # zero subdiagonal entries with nonzeros below them force row swaps
    swaps = rng.integers(-4, 5, (n, n))
    swaps[np.arange(1, n), np.arange(n - 1)] = 0
    for mat in (blocks, swaps, np.zeros((n, n), dtype=np.int64), np.eye(n, k=-3, dtype=np.int64)):
        want = oracle_char_poly(mat.tolist())
        for p in (next(_primes()), 5):
            assert _hessenberg_char_poly(mat, p).tolist() == [c % p for c in want]
        assert char_poly(mat) == want


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
