"""Verification of (j,k)-dominating functions.

A function f: V -> {0, ..., j} is efficiently (j,k)-dominating when the
closed neighborhood sum f(N[v]) equals k at every vertex, and plainly
(j,k)-dominating when every such sum is at least k.  Matrix view: with A
the adjacency matrix, efficiency says (A + I) f = k 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional, Set, Tuple

import numpy as np

from .graphs import Graph, closed_sums, exact_array

__all__ = [
    "DominatingFunction",
    "VerificationReport",
    "verify_efficient",
    "verify_dominating",
    "divisibility_feasible",
    "value_bound_holds",
    "complement_dual",
    "two_cell_partition_check",
]


@dataclass(frozen=True)
class DominatingFunction:
    """Vertex values plus the declared parameters j and k.

    The declared j bounds the values but need not be attained; reports
    carry a separate tightness flag.
    """

    values: Tuple[int, ...]
    j: int
    k: int

    def support(self) -> Tuple[int, ...]:
        return tuple(v for v, x in enumerate(self.values) if x)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    observed_k: Optional[int]
    violations: Tuple[Tuple[int, int], ...]
    j_tight: bool


def _check_function(x: Graph, f: DominatingFunction) -> np.ndarray:
    """The values as an exact array (see graphs.exact_array), once checked."""
    if f.j < 0 or f.k < 0:
        raise ValueError("j and k must be nonnegative")
    if len(f.values) != x.n:
        raise ValueError(f"function has {len(f.values)} values for a graph on {x.n} vertices")
    values = exact_array(f.values)
    bad = np.flatnonzero((values < 0) | (values > f.j))
    if len(bad):
        v = int(bad[0])
        raise ValueError(f"value {f.values[v]} at vertex {v} outside [0, {f.j}]")
    return values


def _verify(x: Graph, f: DominatingFunction, holds: Callable[[np.ndarray, int], np.ndarray]) -> VerificationReport:
    values = _check_function(x, f)
    sums = closed_sums(x, values)
    bad = np.flatnonzero(~holds(sums, f.k))
    violations = tuple(zip(bad.tolist(), sums[bad].tolist()))
    ok = not violations
    return VerificationReport(
        ok=ok,
        observed_k=f.k if ok else None,
        violations=violations,
        j_tight=len(values) > 0 and bool(values.max() == f.j),
    )


def verify_efficient(x: Graph, f: DominatingFunction) -> VerificationReport:
    """Report whether every closed neighborhood sums exactly to f.k."""
    return _verify(x, f, operator.eq)


def verify_dominating(x: Graph, f: DominatingFunction) -> VerificationReport:
    """Report whether every closed neighborhood sums to at least f.k."""
    return _verify(x, f, operator.ge)


def divisibility_feasible(n: int, r: int, k: int) -> bool:
    """Necessary condition on an r-regular graph: (r+1) divides n*k.

    An efficient function of total weight w has w*(r+1) = n*k, so the
    divisibility must hold for any efficient (j,k) to exist.
    """
    if n < 1 or r < 0 or k < 0:
        raise ValueError("need n >= 1, r >= 0, k >= 0")
    return (n * k) % (r + 1) == 0


def value_bound_holds(x: Graph, j: int, k: int) -> bool:
    """k can never exceed j * (1 + minimum degree)."""
    if j < 0 or k < 0:
        raise ValueError("j and k must be nonnegative")
    min_deg = int(x.degrees().min())
    return k <= j * (min_deg + 1)


def complement_dual(x: Graph, f: DominatingFunction) -> DominatingFunction:
    """Complement a 0/1 efficient (1,k) function into an efficient (1, r-k+1).

    On an r-regular graph, flipping every value swaps each closed sum s
    for (r+1) - s, so efficiency is preserved with k replaced by r-k+1.
    """
    r = x.regular_degree()
    if f.j != 1:
        raise ValueError("complement duality needs a 0/1 function (j = 1)")
    report = verify_efficient(x, f)
    if not report.ok:
        raise ValueError("function is not efficient; complement duality does not apply")
    return DominatingFunction(
        values=tuple(1 - v for v in f.values), j=1, k=r - f.k + 1
    )


def two_cell_partition_check(x: Graph, support: Set[int], k: int) -> bool:
    """Support test for 0/1 efficiency on an r-regular graph.

    The indicator of S is efficiently (1,k)-dominating exactly when the
    subgraph induced on S is (k-1)-regular and the one induced on the
    complement is (r-k)-regular; equivalently {S, V-S} is equitable with
    characteristic matrix [[k-1, r-k+1], [k, r-k]], that is (A + I) 1_S = k 1.
    """
    r = x.regular_degree()
    if not 1 <= k <= r:
        raise ValueError(f"k = {k} must lie in [1, {r}] for a two-cell check")
    s = set(support)
    for v in s:
        if not 0 <= v < x.n:
            raise ValueError(f"support vertex {v} out of range")
    # S empty sums to 0 and S = V to r + 1, so neither passes
    return bool((closed_sums(x, [1 if v in s else 0 for v in range(x.n)]) == k).all())
