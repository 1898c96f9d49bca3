"""Integer polynomial products and exact division over Q, kept as test
oracles: effdom proves quotient divisibility from the equitable
certificate, and the differential tests compute it with these.
Coefficient lists are lowest degree first."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence


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
    """True when the integer polynomial p divides q exactly (over Q);
    trailing zeros are ignored."""
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
