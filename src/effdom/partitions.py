"""Equitable partitions, dominatable partitions, and graph covers.

A partition of V(X) into cells C_1..C_s is equitable when every vertex of
C_i has the same number b_ij of neighbors in C_j; the s x s matrix (b_ij)
is its characteristic matrix, the quotient of A by the partition.  A
partition is dominatable when there are integers a_1..a_s with
b_ll = a_l - 1 and b_il = a_l for i != l: then assigning the value
alpha_l to all of C_l gives an efficient (max alpha, sum alpha_l a_l)-
dominating function for any nonnegative alphas, because A + I collapses
to the rank-one matrix 1 (a_1 ... a_s) on cell-constant vectors.

Covers are equitable partitions of one shape.  A partition of X into
fibres over the vertices of Y is an m-cover of Y exactly when it is
equitable with characteristic matrix (m-1) I + m A_Y: each fibre induces
an (m-1)-regular graph, each base edge carries an m-regular bipartite
graph, and base non-edges carry nothing.  A 1-cover with equal fibres is
an ordinary cover.  Every check here reads the quotient rows from
graphs.equitable_quotient.

Cells are canonicalized: sorted internally, then ordered by smallest
element.  Cover certificates key fibres to base vertices through that
order, so cell i is the fibre over vertex i of the base graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domination import DominatingFunction, verify_efficient
from .fields import GF, digitwise
from .graphs import Graph, cayley_graph, complete, equitable_quotient
from .linalg import char_poly

__all__ = [
    "canonical_cells",
    "cells_from_labels",
    "characteristic_matrix",
    "is_dominatable",
    "dominatable_weights",
    "function_from_dominatable",
    "dominatable_eigen_check",
    "charpoly_divides_graph",
    "CoverCertificate",
    "verify_cover",
    "verify_kcover",
    "lift",
    "push",
    "translate_cover",
]

Cells = Tuple[Tuple[int, ...], ...]


def canonical_cells(cells: Sequence[Sequence[int]], n: int) -> Cells:
    """Validate a partition of 0..n-1 and put it in canonical cell order.
    The first fault, reading each cell sorted, is an empty cell or a vertex
    out of range or read before; then the least vertex in no cell."""
    cells = [sorted(cell) for cell in cells]
    flat = list(chain.from_iterable(cells))
    ends = np.array(flat)  # int64, or object past int64
    order = np.argsort(ends, kind="stable")
    bad = (ends < 0) | (ends >= n)
    bad[order[1:]] |= ends[order[1:]] == ends[order[:-1]]
    p = int(np.argmax(bad)) if bad.any() else len(flat)
    if [] in cells and sum(map(len, cells[:cells.index([])])) <= p:
        raise ValueError("empty cell")
    if p < len(flat):
        raise ValueError(f"vertex {flat[p]} " + ("appears in two cells" if 0 <= flat[p] < n else "out of range"))
    if len(flat) < n:
        raise ValueError(f"vertex {np.setdiff1d(np.arange(n), flat)[0]} not covered by any cell")
    return tuple(tuple(cells[i]) for i in np.argsort([cell[0] for cell in cells]))


def cells_from_labels(labels: Sequence[int]) -> Cells:
    """Group vertices by label value (any ints, in a sequence or an array),
    the cells ordered by their first vertex."""
    _, first, inverse = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
    cell = first[inverse]  # each vertex's cell, named by its first vertex
    flat = np.argsort(cell, kind="stable")
    bounds = np.flatnonzero(np.diff(cell[flat], prepend=-1)).tolist() + [len(flat)]
    flat = flat.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))


def _cell_index(cells: Cells, n: int) -> np.ndarray:
    idx = np.empty(n, dtype=np.int64)
    idx[list(chain.from_iterable(cells))] = np.repeat(np.arange(len(cells)), list(map(len, cells)))
    return idx


def characteristic_matrix(x: Graph, cells: Sequence[Sequence[int]]) -> Optional[List[List[int]]]:
    """The matrix (b_ij) if the partition is equitable, else None."""
    cells = canonical_cells(cells, x.n)
    rows = equitable_quotient(x, _cell_index(cells, x.n))
    if rows is None:
        return None
    # equitable_quotient keys the rows by cell, in increasing order
    return [np.bincount(np.array(row, dtype=np.int64), minlength=len(cells)).tolist() for row in rows.values()]


def is_dominatable(x: Graph, cells: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Cell weights (a_1..a_s) if the partition is dominatable, else None."""
    b = characteristic_matrix(x, cells)
    return None if b is None else dominatable_weights(b)


def dominatable_weights(b: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Cell weights (a_1..a_s) read off a characteristic matrix, or None
    when some column l is not a_l off the diagonal and a_l - 1 on it."""
    b = np.array(b, dtype=np.int64).reshape(len(b), len(b))
    a = b.diagonal() + 1
    return None if (b != a - np.eye(len(b), dtype=np.int64)).any() else a.tolist()


def function_from_dominatable(
    x: Graph,
    cells: Sequence[Sequence[int]],
    alpha: Sequence[int],
    j: Optional[int] = None,
) -> DominatingFunction:
    """Cell-constant function with value alpha_l on cell l; k = sum alpha_l a_l."""
    cells = canonical_cells(cells, x.n)
    weights = is_dominatable(x, cells)
    if weights is None:
        raise ValueError("partition is not dominatable")
    if len(alpha) != len(cells):
        raise ValueError("one alpha per cell required")
    if j is None:
        j = max(alpha)
    for a in alpha:
        if not 0 <= a <= j:
            raise ValueError(f"alpha value {a} outside [0, {j}]")
    values = np.array(alpha, dtype=object)[_cell_index(cells, x.n)].tolist()
    k = sum(a * w for a, w in zip(alpha, weights))
    return DominatingFunction(values=tuple(values), j=j, k=k)


def dominatable_eigen_check(b: Sequence[Sequence[int]]) -> bool:
    """Spectral test on a characteristic matrix with constant row sums r:
    the partition shape is dominatable exactly when the characteristic
    polynomial of (b_ij) is (x - r) (x + 1)^(s-1).
    """
    s = len(b)
    if s == 0 or any(len(row) != s for row in b):
        raise ValueError("characteristic matrix must be square and nonempty")
    sums = {sum(row) for row in b}
    if len(sums) != 1:
        raise ValueError("row sums are not constant; the graph is not regular")
    r = sums.pop()
    # the coefficients of (x - r) (x + 1)^(s-1), lowest degree first
    return char_poly(b) == [(comb(s - 1, i - 1) if i else 0) - r * comb(s - 1, i) for i in range(s + 1)]


def charpoly_divides_graph(x: Graph, cells: Sequence[Sequence[int]], max_n: int = 512) -> bool:
    """True for every equitable partition, by proof, not computation: the
    characteristic matrix P of the cells has full column rank and AP = PB
    for the quotient B, so det(xI - B) divides det(xI - A) (Godsil and
    Royle, Algebraic Graph Theory, Thm 9.3.3).  Raises ValueError when the
    partition is not equitable; max_n bounds nothing."""
    if characteristic_matrix(x, cells) is None:
        raise ValueError("partition is not equitable")
    return True


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverCertificate:
    """Witness that X covers a base graph Y through the given fibres.

    kind "cover": fibres are independent sets joined by perfect matchings
    over base edges; fold is the common fibre size.  kind "m-cover":
    fibres induce (fold-1)-regular subgraphs and base edges carry
    fold-regular bipartite graphs.  fibre_map sends each vertex of X to
    its base vertex; it is None for certificates checked by sampling.
    """

    base_size: int
    fold: int
    kind: str
    fibre_map: Optional[Tuple[int, ...]]
    mode: str = "full"


def _cover_certificate(x: Graph, cells: Cells, y: Graph, k: int, fold: int, kind: str) -> Optional[CoverCertificate]:
    """Certificate if the partition is a k-cover of y, else None.

    A k-cover is exactly an equitable partition whose quotient is
    (k-1) I + k A_Y: row i lists i itself k-1 times and every base
    neighbour of i k times.
    """
    if y.n != len(cells):
        raise ValueError(f"base has {y.n} vertices but the partition has {len(cells)} cells")
    idx = _cell_index(cells, x.n)
    rows = equitable_quotient(x, idx)
    if rows is None:
        return None
    ptr, flat = y.indptr.tolist(), y.indices.tolist()
    for i in range(y.n):
        if rows[i] != sorted([i] * (k - 1) + flat[ptr[i]:ptr[i + 1]] * k):
            return None
    return CoverCertificate(
        base_size=y.n,
        fold=fold,
        kind=kind,
        fibre_map=tuple(idx.tolist()),
    )


def verify_cover(x: Graph, cells: Sequence[Sequence[int]], y: Graph) -> Optional[CoverCertificate]:
    """Certificate that X is an (equal-fibre) cover of Y, or None.

    Fibres must be independent, equally sized, matched perfectly across
    base edges, and unjoined across base non-edges.
    """
    cells = canonical_cells(cells, x.n)
    sizes = {len(c) for c in cells}
    if len(sizes) != 1:
        return None
    return _cover_certificate(x, cells, y, 1, len(cells[0]), "cover")


def verify_kcover(x: Graph, cells: Sequence[Sequence[int]], y: Graph, k: int) -> Optional[CoverCertificate]:
    """Certificate that X is a k-cover of Y, or None.

    Fibres induce (k-1)-regular subgraphs; base edges carry k-regular
    bipartite graphs; base non-edges carry nothing.  k = 1 coincides with
    verify_cover.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k == 1:
        return verify_cover(x, cells, y)
    return _cover_certificate(x, canonical_cells(cells, x.n), y, k, k, "m-cover")


def lift(f: DominatingFunction, cert: CoverCertificate) -> DominatingFunction:
    """Pull a function on the base up to the cover, constant on fibres.

    Closed neighborhood sums are preserved vertex-for-vertex, so an
    efficient (j,k) on the base lifts to an efficient (j,k) on the cover.
    """
    if cert.fibre_map is None:
        raise ValueError("certificate has no explicit fibre map")
    if len(f.values) != cert.base_size:
        raise ValueError("function does not live on the certificate's base")
    values = tuple(f.values[c] for c in cert.fibre_map)
    return DominatingFunction(values=values, j=f.j, k=f.k)


def push(f: DominatingFunction, cert: CoverCertificate) -> Optional[DominatingFunction]:
    """Project a fibre-constant function on the cover down to the base.

    Returns None when some fibre carries two different values.
    """
    if cert.fibre_map is None:
        raise ValueError("certificate has no explicit fibre map")
    if len(f.values) != len(cert.fibre_map):
        raise ValueError("function does not live on the certificate's cover")
    fibre, values = np.array(cert.fibre_map, dtype=np.int64), np.array(f.values, dtype=object)
    base = np.full(cert.base_size, None, dtype=object)
    base[fibre] = values
    if (base[fibre] != values).any():
        return None
    return DominatingFunction(values=tuple(base.tolist()), j=f.j, k=f.k)


def translate_cover(
    gf: GF, d: int, connection: Sequence[int], support: Sequence[int]
) -> Tuple[Cells, CoverCertificate]:
    """Translates of a perfect-code subset partition a Cayley graph into a
    cover of a complete graph.

    support must be the support of an efficient (1,1) function on the
    Cayley graph of GF(q)^d with the given connection set.  The cells are
    then S and c + S for each connection element c, and together they
    form a |S|-fold cover of K_{|connection| + 1}.
    """
    x = cayley_graph(gf, d, connection)
    indicator = [0] * x.n
    for v in support:
        if not 0 <= v < x.n:
            raise ValueError(f"support vertex {v} out of range")
        indicator[v] = 1
    f = DominatingFunction(values=tuple(indicator), j=1, k=1)
    if not verify_efficient(x, f).ok:
        raise ValueError("support is not a perfect code (efficient (1,1)) in the Cayley graph")
    cells = [tuple(sorted(support))]
    code = np.array(cells[0], dtype=np.int64)
    for c in sorted(set(connection)):
        cells.append(tuple(sorted(digitwise(gf.p, d * gf.b, operator.add, code, c).tolist())))
    canon = canonical_cells(cells, x.n)
    cert = verify_cover(x, canon, complete(len(canon)))
    if cert is None:
        raise AssertionError("translates of a perfect code failed the cover check")
    return canon, cert
