"""Arithmetic in finite fields GF(p^b) with integer-coded elements.

An element a0 + a1*x + ... + a_{b-1}*x^{b-1} of GF(p^b) is coded as the
integer a0 + a1*p + ... + a_{b-1}*p^{b-1}, i.e. its coefficient vector
packed in base p with the constant coefficient least significant.  For
b = 1 the code is the residue itself.  Extension fields multiply through
`GF.blocks`, the powers of the companion matrix of a fixed built-in
irreducible modulus, so codes mean the same element in every run and on
every platform.

Field elements travel through the rest of the package as plain ints; the
GF object carries the arithmetic.  Addition and negation act on each
base-p digit mod p (digitwise), so they extend unchanged to vectors over
GF(p^b) packed as integers, and to integer arrays of them.
"""

from __future__ import annotations

import operator
from typing import Dict, Tuple

import numpy as np

__all__ = ["GF", "MODULI", "digitwise"]

# Irreducible moduli for the supported extension fields, as coefficient
# tuples lowest degree first (monic, so the last entry is 1); the tests
# check each one by brute force.
MODULI: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (2, 2): (1, 1, 1),           # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),        # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),     # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),  # x^5 + x^2 + 1
    (3, 2): (2, 2, 1),           # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),        # x^3 + 2x + 1
    (5, 2): (2, 4, 1),           # x^2 + 4x + 2
}

MAX_ORDER = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def digitwise(p: int, places: int, op, *codes):
    """op applied mod p to each base-p digit of codes below p^places.

    codes may be ints or integer numpy arrays; digits of different places
    never carry into each other.
    """
    if places == 1:
        return op(*codes) % p
    out = 0
    for i in range(places):
        out = out + op(*(c // p ** i % p for c in codes)) % p * p ** i
    return out


class GF:
    """The finite field GF(p^b), operating on integer element codes."""

    def __init__(self, p: int, b: int = 1):
        if b < 1:
            raise ValueError(f"extension degree b = {b} must be >= 1")
        # the order is bounded before p^b or the primality test is computed
        if p > MAX_ORDER or (p > 1 and b > MAX_ORDER.bit_length()):
            order = p if b == 1 else f"{p}^{b}"
            raise ValueError(f"field order {order} exceeds the supported maximum {MAX_ORDER}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p ** b
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
        if b == 1:
            modulus: Tuple[int, ...] = ()
        else:
            try:
                modulus = MODULI[(p, b)]
            except KeyError:
                raise ValueError(f"no built-in modulus for GF({p}^{b})") from None
        self.p = p
        self.b = b
        self.q = q
        self.modulus = modulus
        # blocks[a] is x -> a*x on digits: column 0 holds a's digits, column k+1 the companion times column k
        if b == 1:
            self.blocks = np.arange(q, dtype=np.int64).reshape(q, 1, 1)
        else:
            companion = np.eye(b, k=-1, dtype=np.int64)
            companion[:, -1] -= modulus[:-1]
            columns = [np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(b, dtype=np.int64) % p]
            for _ in range(1, b):
                columns.append(columns[-1] @ companion.T % p)
            self.blocks = np.stack(columns, axis=2)

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.b == 1 else f"GF({self.p}^{self.b})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.p, self.b) == (other.p, other.b)

    def __hash__(self) -> int:
        return hash((self.p, self.b))

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} outside [0, {self.q})")
        return a

    def digits(self, a: int) -> Tuple[int, ...]:
        """Coefficient vector of a, lowest degree first, length b."""
        return tuple(self.blocks[self._check(a), :, 0].tolist())

    def from_digits(self, digs) -> int:
        return self._check(sum(c % self.p * self.p ** i for i, c in enumerate(digs)))

    def add(self, a: int, b: int) -> int:
        return digitwise(self.p, self.b, operator.add, self._check(a), self._check(b))

    def neg(self, a: int) -> int:
        return digitwise(self.p, self.b, operator.neg, self._check(a))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.b == 1:
            return (a * b) % self.p
        return self.from_digits((self.blocks[a] @ self.blocks[b, :, 0] % self.p).tolist())
