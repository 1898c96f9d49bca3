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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .domination import DominatingFunction, verify_efficient
from .fields import GF, digitwise
from .graphs import Graph, adjacency_matrix, cayley_graph, complete, equitable_quotient
from .linalg import char_poly, poly_divides, poly_mul

__all__ = [
    "canonical_cells",
    "cells_from_labels",
    "characteristic_matrix",
    "is_dominatable",
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
    """Validate a partition of 0..n-1 and put it in canonical cell order."""
    seen = [False] * n
    cleaned = []
    for cell in cells:
        if not cell:
            raise ValueError("empty cell")
        cs = sorted(cell)
        for v in cs:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range")
            if seen[v]:
                raise ValueError(f"vertex {v} appears in two cells")
            seen[v] = True
        cleaned.append(tuple(cs))
    if not all(seen):
        missing = seen.index(False)
        raise ValueError(f"vertex {missing} not covered by any cell")
    cleaned.sort(key=lambda c: c[0])
    return tuple(cleaned)


def cells_from_labels(labels: Sequence[int]) -> Cells:
    """Group vertices by label value; labels may be any hashable ints."""
    groups: dict = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    return canonical_cells(list(groups.values()), len(labels))


def _cell_index(cells: Cells, n: int) -> List[int]:
    idx = [-1] * n
    for i, cell in enumerate(cells):
        for v in cell:
            idx[v] = i
    return idx


def characteristic_matrix(x: Graph, cells: Sequence[Sequence[int]]) -> Optional[List[List[int]]]:
    """The matrix (b_ij) if the partition is equitable, else None."""
    cells = canonical_cells(cells, x.n)
    rows = equitable_quotient(x, _cell_index(cells, x.n))
    if rows is None:
        return None
    b = [[0] * len(cells) for _ in cells]
    for i, row in rows.items():
        for j in row:
            b[i][j] += 1
    return b


def is_dominatable(x: Graph, cells: Sequence[Sequence[int]]) -> Optional[List[int]]:
    """Cell weights (a_1..a_s) if the partition is dominatable, else None.

    Requires column l of the characteristic matrix to be constantly a_l
    off the diagonal and a_l - 1 on it.
    """
    b = characteristic_matrix(x, cells)
    if b is None:
        return None
    s = len(b)
    weights = []
    for col in range(s):
        a = b[col][col] + 1
        for row in range(s):
            expected = a - 1 if row == col else a
            if b[row][col] != expected:
                return None
        weights.append(a)
    return weights


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
    values = [0] * x.n
    for cell, a in zip(cells, alpha):
        for v in cell:
            values[v] = a
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
    target = [-r, 1]
    for _ in range(s - 1):
        target = poly_mul(target, [1, 1])
    return char_poly(b) == target


def charpoly_divides_graph(x: Graph, cells: Sequence[Sequence[int]], max_n: int = 512) -> bool:
    """Characteristic polynomial of an equitable quotient divides the graph's."""
    b = characteristic_matrix(x, cells)
    if b is None:
        raise ValueError("partition is not equitable")
    return poly_divides(char_poly(b), char_poly(adjacency_matrix(x), max_n=max_n))


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
    for i, nbrs in enumerate(y.adjacency):
        if rows[i] != sorted([i] * (k - 1) + nbrs * k):
            return None
    return CoverCertificate(
        base_size=y.n,
        fold=fold,
        kind=kind,
        fibre_map=tuple(idx),
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
    base_vals: List[Optional[int]] = [None] * cert.base_size
    for v, c in enumerate(cert.fibre_map):
        val = f.values[v]
        if base_vals[c] is None:
            base_vals[c] = val
        elif base_vals[c] != val:
            return None
    return DominatingFunction(values=tuple(base_vals), j=f.j, k=f.k)  # type: ignore[arg-type]


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
