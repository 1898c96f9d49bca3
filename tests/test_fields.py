"""Field arithmetic tests.

An independent polynomial-arithmetic oracle (coefficient lists, repeated
subtraction reduction) recomputes every product in every supported field
and the results are compared exhaustively.  Frozen spot values below were
produced by that oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from effdom.fields import GF, MODULI

SUPPORTED = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5)]


def oracle_mul(p: int, b: int, modulus, a: int, c: int) -> int:
    """Schoolbook polynomial product reduced by shift-and-subtract."""
    da = [(a // p ** i) % p for i in range(b)]
    dc = [(c // p ** i) % p for i in range(b)]
    prod = [0] * (2 * b - 1)
    for i in range(b):
        for j in range(b):
            prod[i + j] = (prod[i + j] + da[i] * dc[j]) % p
    for top in range(len(prod) - 1, b - 1, -1):
        while prod[top]:
            shift = top - b
            for t in range(b + 1):
                prod[shift + t] = (prod[shift + t] - modulus[t]) % p
    return sum(prod[i] * p ** i for i in range(b))


@pytest.mark.parametrize("p,b", SUPPORTED)
def test_mul_matches_oracle_exhaustively(p, b):
    gf = GF(p, b)
    modulus = MODULI.get((p, b), (0, 1))
    for a in range(gf.q):
        for c in range(gf.q):
            assert gf.mul(a, c) == oracle_mul(p, b, modulus, a, c)


@pytest.mark.parametrize("p,b", SUPPORTED)
def test_blocks_multiply_as_their_codes(p, b):
    gf = GF(p, b)
    assert gf.blocks.shape == (gf.q, b, b)
    assert (gf.blocks[1] == np.eye(b)).all()
    products = gf.blocks[:, None] @ gf.blocks[None, :] % p
    codes = np.array([[gf.mul(a, c) for c in range(gf.q)] for a in range(gf.q)])
    assert (products == gf.blocks[codes]).all()
    if b > 1:
        # blocks[p], multiplication by x, has order q - 1: every built-in modulus is primitive
        powers = [gf.blocks[p]]
        for _ in range(gf.q - 2):
            powers.append(powers[-1] @ gf.blocks[p] % p)
        assert [e for e, m in enumerate(powers, 1) if (m == np.eye(b)).all()] == [gf.q - 1]


def test_gf4_frozen_values():
    gf = GF(2, 2)
    assert gf.mul(2, 2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.mul(3, 2) == 1  # so 2 and 3 are each other's inverse
    assert gf.add(2, 3) == 1


def test_gf9_frozen_values():
    gf = GF(3, 2)
    assert gf.mul(3, 3) == 4
    assert gf.mul(4, 5) == 3


@pytest.mark.parametrize("p,b", SUPPORTED)
def test_field_axioms_exhaustive(p, b):
    gf = GF(p, b)
    q = gf.q
    els = range(q)
    for a in els:
        assert gf.add(a, 0) == a
        assert gf.mul(a, 1) == a
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert [gf.mul(a, c) for c in els].count(1) == 1  # a has one inverse
    for a in els:
        for c in els:
            assert gf.add(a, c) == gf.add(c, a)
            assert gf.mul(a, c) == gf.mul(c, a)
    if q <= 16:
        for a in els:
            for c in els:
                for e in els:
                    assert gf.mul(a, gf.add(c, e)) == gf.add(gf.mul(a, c), gf.mul(a, e))
                    assert gf.mul(gf.mul(a, c), e) == gf.mul(a, gf.mul(c, e))


def _power(gf: GF, a: int, e: int) -> int:
    """a^e, as e repeated products."""
    out = 1
    for _ in range(e):
        out = gf.mul(out, a)
    return out


@pytest.mark.parametrize("p,b", SUPPORTED)
def test_frobenius_and_unit_group(p, b):
    gf = GF(p, b)
    for a in range(gf.q):
        # x -> x^p is additive in characteristic p
        for c in range(gf.q):
            assert _power(gf, gf.add(a, c), p) == gf.add(_power(gf, a, p), _power(gf, c, p))
        if a:
            assert _power(gf, a, gf.q - 1) == 1


def test_digits_roundtrip():
    gf = GF(3, 3)
    for a in range(gf.q):
        assert gf.from_digits(gf.digits(a)) == a
    assert gf.digits(5) == (2, 1, 0)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 17)  # no built-in modulus
    with pytest.raises(ValueError):
        GF(65537)  # order above the cap
    with pytest.raises(ValueError, match="exceeds"):
        GF(2 ** 64)  # the order is checked before the primality test
    with pytest.raises(ValueError, match="exceeds"):
        GF(4, 100)  # and before p^b
    with pytest.raises(ValueError):
        GF(5).add(5, 0)


def test_moduli_are_irreducible_by_brute_force():
    for (p, b), mod in MODULI.items():
        # no root in GF(p) rules out linear factors
        for x in range(p):
            val = sum(c * x ** i for i, c in enumerate(mod)) % p
            assert val != 0, (p, b, x)
        # for degree 4 and 5, also no irreducible quadratic divisor
        if b >= 4:
            for c0 in range(p):
                for c1 in range(p):
                    quad = (c0, c1, 1)
                    if any(sum(c * x ** i for i, c in enumerate(quad)) % p == 0 for x in range(p)):
                        continue
                    assert any(_poly_rem(mod, quad, p)), (p, b, quad)


def _poly_rem(num, den, p):
    num = [c % p for c in num]
    db = len(den) - 1
    for deg in range(len(num) - 1, db - 1, -1):
        c = num[deg]
        if c:
            num[deg] = 0
            for t in range(db):
                num[deg - db + t] = (num[deg - db + t] - c * den[t]) % p
    return num[:db]
