"""Eigenvalue -1 machinery for regular graphs.

An r-regular graph carries a nonconstant efficient dominating function
exactly when -1 is an adjacency eigenvalue.  The multiplicity is the
rational nullity of A + I, computed exactly; shifting an integer
(-1)-eigenvector x by a = -min(x) gives the nonnegative function x + a,
which is efficiently (max(x) + a, a(r+1))-dominating.

Cayley graphs of Z_2^m.  When n = 2^m and every row v of the graph is
v xor S, S = N(0), no elimination is needed for the multiplicity (Babai,
"Spectra of Cayley graphs", J. Combin. Theory B 27, 1979).  For u in Z_2^m
the character chi_u(v) = (-1)^(u.v), u.v the parity of u and v, is
multiplicative, so

    (A chi_u)(v) = sum_(s in S) chi_u(v xor s) = (sum_(s in S) (-1)^(u.s)) chi_u(v),

and the 2^m characters are the rows of a Hadamard matrix, a basis.  So A
is diagonal in a rational basis, and the nullity of A + I is the number
of u whose character sum is -1.  All n sums are one fast Walsh-Hadamard
transform of the indicator of S, in int64: each is at most r in size.

The witness stays the first vector of the canonical kernel basis of
A + I (free-column completion form, primitive, first nonzero entry
positive, as `linalg.int_kernel_basis` returns it), and
`linalg.first_kernel_vector` finds it without the rest of the basis: each
elimination mod p stops after the panel holding the first free column
f0, and the vector of f0 is lifted and certified by (A + I) v = 0 over Z.
Only the first n - multiplicity + 1 columns are eliminated: f0 is at
most the rank, as columns 0 .. f0 - 1 are independent, and the vector of
f0 is zero right of f0.  It is that vector for four reasons.  (1) The vector of f0 is supported on
columns 0 .. f0, and f0 over Q is the first column dependent on the
columns left of it; modulo p, columns can only become dependent, so
f0 mod p <= f0 over Q.  (2) A certified v on columns 0 .. f0 mod p with
v[f0 mod p] != 0 makes that column dependent over Q, so f0 mod p = f0
over Q for every prime whose vector is certified.  (3) Columns
0 .. f0 - 1 are independent over Q, so the kernel of A + I restricted to
columns 0 .. f0 is one-dimensional: v is the canonical vector up to a
factor, and both are primitive with their first nonzero entry positive.
(4) The primes kept are those of largest f0, as int_kernel_basis keeps
those of largest rank and least pivots; the primes with a smaller f0 all
divide one nonzero f0 x f0 minor of columns 0 .. f0 - 1, at most h, the
product of the row l1 norms, and the entries of the vector are ratios of
minors at most h, so the Hadamard bound of int_kernel_basis ends the
prime loop in the same way.  Every other graph, relabelled ones included,
has its whole basis computed by int_kernel_basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import obs
from .domination import DominatingFunction
from .graphs import BLOCK, Graph, SizeCapExceeded, closed_sums
from .linalg import first_kernel_vector, int_kernel_basis

__all__ = ["MinusOneReport", "minus_one_multiplicity", "function_from_eigenvector", "DEFAULT_RANK_CAP"]

DEFAULT_RANK_CAP = 4096


@dataclass(frozen=True)
class MinusOneReport:
    multiplicity: int
    witness: Optional[Tuple[int, ...]]


def _xor_connection(x: Graph, r: int) -> Optional[np.ndarray]:
    """S = N(0) when x is the Cayley graph of Z_2^m on S in its own labelling,
    that is, when n = 2^m and every row v is sorted(v xor S) with S strictly
    increasing in (0, n); else None.  BLOCK rows at a time."""
    n, conn = x.n, x.indices[:r]
    if n & (n - 1) or (r and (conn[0] < 1 or conn[-1] >= n or (np.diff(conn) < 1).any())):
        return None
    nbrs = x.indices.reshape(n, r)
    for lo in range(0, n, BLOCK):
        v = np.arange(lo, min(lo + BLOCK, n), dtype=np.int64)[:, None]
        if not np.array_equal(np.sort(v ^ conn, axis=1), nbrs[lo:lo + BLOCK]):
            return None
    return conn


def _character_sums(conn: np.ndarray, n: int) -> np.ndarray:
    """sum_(s in conn) (-1)^(u.s) for u = 0 .. n - 1, n = 2^m: the fast
    Walsh-Hadamard transform of the indicator of conn, in int64."""
    w = np.zeros(n, dtype=np.int64)
    w[conn] = 1
    for h in (1 << i for i in range(n.bit_length() - 1)):
        pairs = w.reshape(-1, 2, h)
        w = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(n)
    return w


def minus_one_multiplicity(x: Graph, size_cap: int = DEFAULT_RANK_CAP) -> MinusOneReport:
    """Exact multiplicity of eigenvalue -1, with an integer witness vector.

    The witness is the first vector of the canonical kernel basis of
    A + I, or None when -1 is not an eigenvalue; A + I is held as int8.
    On a Cayley graph of Z_2^m in its own labelling the multiplicity is
    read off the character sums and only the witness is eliminated for.
    """
    r = x.regular_degree()
    if x.n > size_cap:
        raise SizeCapExceeded(f"{x.n} vertices exceeds the exact rank cap of {size_cap}")
    a_plus_i = np.eye(x.n, dtype=np.int8)
    a_plus_i[x.rows(), x.indices] = 1
    conn = _xor_connection(x, r)
    if conn is None:
        kernel = int_kernel_basis(a_plus_i)
        return MinusOneReport(multiplicity=len(kernel), witness=kernel[0] if kernel else None)
    obs.count("spectral.characters")
    multiplicity = int(np.count_nonzero(_character_sums(conn, x.n) == -1))
    if not multiplicity:
        return MinusOneReport(multiplicity=0, witness=None)
    # columns 0 .. f0 - 1 are independent, so f0 <= rank = n - multiplicity
    witness = first_kernel_vector(a_plus_i[:, :x.n - multiplicity + 1])
    return MinusOneReport(multiplicity=multiplicity, witness=witness + (0,) * (multiplicity - 1))


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
