"""Eigenvalue -1 machinery for regular graphs.

An r-regular graph carries a nonconstant efficient dominating function
exactly when -1 is an adjacency eigenvalue.  The multiplicity is the
rational nullity of A + I, computed exactly; shifting an integer
(-1)-eigenvector x by a = -min(x) gives the nonnegative function x + a,
which is efficiently (max(x) + a, a(r+1))-dominating.

Cayley graphs of Z_2^m.  When n = 2^m and every row v of the graph is
v xor S, S = N(0), no elimination is needed (Babai, "Spectra of Cayley
graphs", J. Combin. Theory B 27, 1979).  For u in Z_2^m the character
chi_u(v) = (-1)^(u.v), u.v the parity of u and v, is multiplicative, so

    (A chi_u)(v) = sum_(s in S) chi_u(v xor s) = (sum_(s in S) (-1)^(u.s)) chi_u(v),

and the 2^m characters are the rows of a Hadamard matrix, a basis.  So A
is diagonal in a rational basis: the kernel of A + I is
V_U = span{chi_u : u in U}, U the set of u whose character sum is -1, and
the multiplicity is |U|.  The sums sum_u c_u chi_u(v) of any integer
vector c, for all v at once, are one fast Walsh-Hadamard transform in
int64; for c the indicator of S they are the n character sums, each at
most r in size.

The witness is the first vector of the canonical kernel basis of A + I
(free-column completion form, primitive, first nonzero entry positive,
as `linalg.int_kernel_basis` returns it): the vector of the first free
column f0, up to a factor the one kernel vector zero right of f0, as
columns 0 .. f0 - 1 are independent.  Reversal: with rho(v) = (n - 1) xor v
= n - 1 - v, chi_u o rho = chi_u(n - 1) chi_u = +-chi_u, so f -> f o rho maps
V_U onto itself and turns "zero right of f0" into "zero on the first
n - 1 - f0 entries".  So the witness is f o rho, made primitive with its
first nonzero entry positive, for the f in V_U with the longest run T(U)
of leading zeros, and those f form a line that one pass over the bits finds:

Theorem.  For U not empty they are the multiples of sum_u c_u chi_u, c_u in
{0, 1, -1}.  For m = 0, T = 0 and c_0 = 1.  For m >= 1 split each u into its
top bit and its low part ubar; let Ubar be the ubar present and P those
present with both top bits.  If P is not empty, T(U) = n/2 + T(P), and ubar
takes +g_ubar and ubar with its top bit set -g_ubar, g the coefficients for
P; otherwise T(U) = T(Ubar), and each u takes g_ubar, g those for Ubar.
Proof, by induction on m.  f = sum_u c_u chi_u (c = 0 off U) is
sum_ubar (c_0ubar + c_1ubar) chi_ubar on its first half and
sum_ubar (c_0ubar - c_1ubar) chi_ubar on its second, and the characters of
Z_2^(m-1) are independent.  If P is not empty, f is zero on its first half
exactly when c_0ubar = g_ubar = -c_1ubar with g carried by P, and its second
half is then 2 sum_(ubar in P) g_ubar chi_ubar: so T(U) = n/2 + T(P), and
the solutions are the line for P with those signs.  If P is empty, each
ubar in Ubar comes from one u, so the first half, sum_(ubar in Ubar) c_u
chi_ubar, is zero only for c = 0: T(U) = T(Ubar), and the solutions are the
line for Ubar with g_ubar = c_u.

The pass is one loop over the bits, top first, and c is built back from
m = 0; the witness, the transform of c reversed and made primitive, is
certified by (A + I) w = 0 over Z.  Every other graph, relabelled ones
included, has its whole basis computed by int_kernel_basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import obs
from .domination import DominatingFunction
from .graphs import BLOCK, Graph, SizeCapExceeded, closed_sums
from .linalg import _primitive, int_kernel_basis

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


def _character_sums(c: np.ndarray) -> np.ndarray:
    """sum_u c[u] chi_u(v) for v = 0 .. n - 1, n = 2^m: the fast
    Walsh-Hadamard transform of c, in int64."""
    w, n = c.astype(np.int64), len(c)
    for h in (1 << i for i in range(n.bit_length() - 1)):
        pairs = w.reshape(-1, 2, h)
        w = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(n)
    return w


def _line_coefficients(in_u: np.ndarray) -> np.ndarray:
    """The coefficients c in {0, 1, -1} on the characters chi_u, u in U (the
    mask in_u, not empty), of the f in V_U with the longest run of leading
    zeros: the bit pass of the theorem in the module docstring."""
    steps = []  # per bit, top first: whether P is not empty, and the ubar present with top bit 0
    while len(in_u) > 1:
        low, high = np.split(in_u, 2)
        both = low & high
        paired = bool(both.any())
        steps.append((paired, low))
        in_u = both if paired else low | high
    c = np.ones(1, dtype=np.int64)
    for paired, low in reversed(steps):
        c = np.concatenate((c, -c) if paired else (np.where(low, c, 0), np.where(low, 0, c)))
    return c


def minus_one_multiplicity(x: Graph, size_cap: int = DEFAULT_RANK_CAP) -> MinusOneReport:
    """Exact multiplicity of eigenvalue -1, with an integer witness vector.

    The witness is the first vector of the canonical kernel basis of
    A + I, or None when -1 is not an eigenvalue.  On a Cayley graph of
    Z_2^m in its own labelling both are read off its characters; any other
    graph has the kernel of A + I, held as int8, computed whole.
    """
    r = x.regular_degree()
    if x.n > size_cap:
        raise SizeCapExceeded(f"{x.n} vertices exceeds the exact rank cap of {size_cap}")
    conn = _xor_connection(x, r)
    if conn is None:
        a_plus_i = np.eye(x.n, dtype=np.int8)
        a_plus_i[x.rows(), x.indices] = 1
        kernel = int_kernel_basis(a_plus_i)
        return MinusOneReport(multiplicity=len(kernel), witness=kernel[0] if kernel else None)
    obs.count("spectral.characters")
    with obs.span("spectral.characters"):
        in_u = _character_sums(np.bincount(conn, minlength=x.n)) == -1
        if not in_u.any():
            return MinusOneReport(multiplicity=0, witness=None)
        w = _primitive(_character_sums(_line_coefficients(in_u))[None, ::-1])[0]
        if closed_sums(x, w).any():
            raise ArithmeticError("the character witness is not a (-1)-eigenvector")
    return MinusOneReport(multiplicity=int(np.count_nonzero(in_u)), witness=tuple(w.tolist()))


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
