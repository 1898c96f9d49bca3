"""Exact linear algebra tests.

GF(q) routines are cross-checked against the per-entry scalar
elimination of `field_oracle`; small integer cases against sympy's exact
rational routines (an independent implementation); characteristic
polynomials are further pinned by evaluating det(xI - M) at integer
points and by the Cayley-Hamilton identity.
"""

from __future__ import annotations

import numpy as np
import sympy
import pytest
from hypothesis import given, settings, strategies as st

import field_oracle as oracle
from poly_oracle import poly_divides, poly_mul
from effdom.fields import GF, MODULI
from effdom.graphs import adjacency_matrix, cycle, complete
from effdom.linalg import (
    char_poly,
    field_rank,
    int_kernel_basis,
    int_rank,
    kernel_basis,
    rref,
)

gf2 = GF(2)
gf3 = GF(3)
gf4 = GF(2, 2)

C6_PLUS_I = adjacency_matrix(cycle(6)) + np.eye(6, dtype=np.int64)


# ---------------------------------------------------------------------------
# GF(q)
# ---------------------------------------------------------------------------

def test_rref_gf2_example():
    m, piv = rref(gf2, [[1, 1, 0], [0, 1, 1]])
    assert m == [[1, 0, 1], [0, 1, 1]]
    assert piv == [0, 1]


def test_kernel_gf2_all_ones_row():
    basis = kernel_basis(gf2, [[1, 1, 1]])
    assert basis == [[1, 1, 0], [1, 0, 1]]
    # the basis really spans the kernel: all 4 kernel vectors are combos
    span = set()
    for c0 in range(2):
        for c1 in range(2):
            v = tuple((c0 * a + c1 * b) % 2 for a, b in zip(*basis))
            span.add(v)
    brute = {
        tuple(v)
        for v in [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
        if sum(v) % 2 == 0
    }
    assert span == brute


def test_kernel_of_invertible_is_empty():
    assert kernel_basis(gf3, [[1, 0], [0, 1]]) == []
    assert kernel_basis(gf4, [[2, 0], [0, 3]]) == []


def test_kernel_of_zero_matrix_is_standard_basis():
    assert kernel_basis(gf2, [[0, 0], [0, 0]]) == [[1, 0], [0, 1]]


st_q = st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])
st_dims = st.tuples(st.integers(1, 5), st.integers(1, 5))


@given(st_q, st_dims, st.data())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_kernel_annihilates(pb, dims, data):
    gf = GF(*pb)
    rows, cols = dims
    m = [
        [data.draw(st.integers(0, gf.q - 1)) for _ in range(cols)]
        for _ in range(rows)
    ]
    r1, piv1 = rref(gf, m)
    r2, piv2 = rref(gf, r1)
    assert r1 == r2 and piv1 == piv2
    assert field_rank(gf, m) + len(kernel_basis(gf, m)) == cols
    for v in kernel_basis(gf, m):
        assert not any(oracle.mat_vec(gf, m, v))


ORACLE_FIELDS = [GF(p) for p in (2, 3, 5, 7, 65521)] + [GF(p, b) for p, b in MODULI]


@st.composite
def field_matrices(draw, gf):
    """A matrix of at most 12 x 12 codes, mixing drawn rows with zero rows
    and combinations of drawn rows, and its column count."""
    cols = draw(st.integers(0, 12))
    code = st.integers(0, gf.q - 1) | st.just(0)
    rows = draw(st.lists(st.lists(code, min_size=cols, max_size=cols), max_size=12))
    for _ in range(draw(st.integers(0, 12 - len(rows)))):
        if not rows or draw(st.booleans()):
            rows.append([0] * cols)
        else:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            c1, c2 = draw(code), draw(code)
            rows.append([gf.add(gf.mul(c1, x), gf.mul(c2, y)) for x, y in zip(rows[i], rows[j])])
    return draw(st.permutations(rows)), cols


@given(st.sampled_from(ORACLE_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_field_linalg_matches_scalar_oracle(gf, data):
    m, cols = data.draw(field_matrices(gf))
    assert rref(gf, m, cols) == oracle.rref(gf, m, cols)
    assert field_rank(gf, m, cols) == oracle.field_rank(gf, m, cols)
    assert kernel_basis(gf, m, cols) == oracle.kernel_basis(gf, m, cols)


def test_field_linalg_edge_shapes():
    for gf in (gf2, gf4, GF(65521)):
        for mat, cols in [([[]], None), ([[], []], 0), ([], 3), ([], 0)]:
            assert rref(gf, mat, cols) == oracle.rref(gf, mat, cols)
            assert kernel_basis(gf, mat, cols) == oracle.kernel_basis(gf, mat, cols)
            assert field_rank(gf, mat, cols) == oracle.field_rank(gf, mat, cols)
        for call in (rref, kernel_basis):
            with pytest.raises(ValueError, match="cannot infer column count"):
                call(gf, [])


@pytest.mark.parametrize("gf", [gf2, gf4, GF(5, 2), GF(65521)], ids=repr)
def test_out_of_range_codes_refused_alike(gf):
    cases = [
        (rref, ([[0, 1], [gf.q, 0]],)),
        (rref, ([[0, -1], [gf.q + 5, 0]],)),
        (field_rank, ([[1, 0, gf.q]],)),
        (kernel_basis, ([[0, 0], [0, -3]],)),
    ]
    for call, args in cases:
        with pytest.raises(ValueError) as want:
            getattr(oracle, call.__name__)(gf, *args)
        with pytest.raises(ValueError) as got:
            call(gf, *args)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def test_int_rank_examples():
    assert int_rank([[1, 0], [0, 1]]) == 2
    assert int_rank([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1
    assert int_rank(C6_PLUS_I) == 4


def test_int_kernel_examples():
    assert int_kernel_basis([[1, 0], [0, 1]]) == []
    assert int_kernel_basis([[2, -2]]) == [(1, 1)]
    kern = int_kernel_basis(C6_PLUS_I)
    assert len(kern) == 2
    m = C6_PLUS_I
    for v in kern:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
    # the stated member lies in the span: appending it does not raise the rank
    stacked = [list(v) for v in kern] + [[1, -1, 0, 1, -1, 0]]
    assert int_rank(stacked) == 2


def test_int_kernel_primitive_and_canonical():
    kern = int_kernel_basis([[4, -2, 0], [0, 0, 0]])
    # free columns 1 and 2 in increasing order, primitive, first entry positive
    assert kern == [(1, 2, 0), (0, 0, 1)]


def test_int_kernel_of_a_matrix_without_rows():
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert int_kernel_basis(np.zeros((0, 3), dtype=np.int64)) == units
    assert int_kernel_basis(np.zeros((0, 0), dtype=np.int64)) == []
    assert int_kernel_basis([], 3) == units
    assert int_rank(np.zeros((0, 3), dtype=np.int64)) == 0
    # a list without rows carries no column count
    with pytest.raises(ValueError, match="column count"):
        int_kernel_basis([])


def _sympy_nullity(m):
    return len(sympy.Matrix(m).nullspace())


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_int_kernel_matches_sympy(rows, cols, data):
    m = [
        [data.draw(st.integers(-9, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    kern = int_kernel_basis(m)
    assert len(kern) == _sympy_nullity(m)
    assert int_rank(m) == sympy.Matrix(m).rank()
    for v in kern:
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        from math import gcd
        g = 0
        for e in v:
            g = gcd(g, abs(e))
        assert g in (0, 1)


def test_int_kernel_huge_entries():
    big = 10 ** 40
    kern = int_kernel_basis([[big, -big]])
    assert kern == [(1, 1)]
    assert int_rank([[big, 2 * big], [3 * big, 6 * big]]) == 1


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_char_poly_frozen_examples():
    assert char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]
    assert char_poly([[0, 2], [1, 1]]) == [-2, -1, 1]
    assert char_poly(adjacency_matrix(complete(3))) == [-2, -3, 0, 1]
    assert char_poly(adjacency_matrix(cycle(6))) == [-4, 0, 9, 0, -6, 0, 1]


def test_char_poly_empty_and_cap():
    assert char_poly([]) == [1]
    with pytest.raises(ValueError):
        char_poly([[0] * 600 for _ in range(600)])


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_char_poly_matches_sympy_and_cayley_hamilton(n, data):
    m = [[data.draw(st.integers(-5, 5)) for _ in range(n)] for _ in range(n)]
    coeffs = char_poly(m)
    x = sympy.symbols("x")
    expected = sympy.Matrix(m).charpoly(x).all_coeffs()[::-1]
    assert coeffs == [int(c) for c in expected]
    # Cayley-Hamilton: p(M) = 0 with exact integer arithmetic
    acc = [[0] * n for _ in range(n)]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in coeffs:
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * power[i][j]
        power = [
            [sum(power[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    assert all(e == 0 for row in acc for e in row)


def test_poly_divides_examples():
    assert poly_divides([-1, 1], [-1, 0, 1])          # (x-1) | (x^2-1)
    assert not poly_divides([1, 1], [1, 0, 1])        # (x+1) does not divide x^2+1
    assert poly_divides([2], [4, 6])                  # constants divide everything
    assert poly_divides([0, 1], [0, 0, 3])            # x | 3x^2
    with pytest.raises(ValueError):
        poly_divides([0], [1, 1])


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_poly_divides_products(p, q):
    if not any(p):
        return
    assert poly_divides(p, poly_mul(p, q))
