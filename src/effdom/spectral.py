"""Eigenvalue -1 machinery for regular graphs.

An r-regular graph carries a nonconstant efficient dominating function
exactly when -1 is an adjacency eigenvalue.  The multiplicity is the
rational nullity of A + I, computed exactly; shifting an integer
(-1)-eigenvector x by a = -min(x) gives the nonnegative function x + a,
which is efficiently (max(x) + a, a(r+1))-dominating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .domination import DominatingFunction
from .graphs import Graph, SizeCapExceeded, closed_sums
from .linalg import int_kernel_basis

__all__ = ["MinusOneReport", "minus_one_multiplicity", "function_from_eigenvector", "DEFAULT_RANK_CAP"]

DEFAULT_RANK_CAP = 4096


@dataclass(frozen=True)
class MinusOneReport:
    multiplicity: int
    witness: Optional[Tuple[int, ...]]


def minus_one_multiplicity(x: Graph, size_cap: int = DEFAULT_RANK_CAP) -> MinusOneReport:
    """Exact multiplicity of eigenvalue -1, with an integer witness vector.

    The witness is the first vector of the canonical kernel basis of
    A + I, or None when -1 is not an eigenvalue; A + I is held as int8.
    """
    x.regular_degree()
    if x.n > size_cap:
        raise SizeCapExceeded(f"{x.n} vertices exceeds the exact rank cap of {size_cap}")
    a_plus_i = np.eye(x.n, dtype=np.int8)
    a_plus_i[x.rows(), x.indices] = 1
    kernel = int_kernel_basis(a_plus_i)
    return MinusOneReport(multiplicity=len(kernel), witness=kernel[0] if kernel else None)


def function_from_eigenvector(x: Graph, vec: Sequence[int]) -> DominatingFunction:
    """Shift an integer (-1)-eigenvector into an efficient dominating function.

    With a = -min(vec), the values vec + a are efficiently
    (max(vec) + a, a(r+1))-dominating: (A + I)(vec + a 1) = a(r+1) 1.
    """
    r = x.regular_degree()
    if len(vec) != x.n:
        raise ValueError(f"vector length {len(vec)} does not match {x.n} vertices")
    if not any(vec):
        raise ValueError("the zero vector is not an eigenvector")
    nonzero = np.flatnonzero(closed_sums(x, vec))
    if len(nonzero):
        raise ValueError(f"(A + I) vec is nonzero at vertex {nonzero[0]}")
    lo = min(vec)
    if lo >= 0:
        raise ValueError("a (-1)-eigenvector must have a negative entry")
    a = -lo
    values = tuple(e + a for e in vec)
    return DominatingFunction(values=values, j=max(values), k=a * (r + 1))
