"""Finite simple graphs with integer-ranked vertices, plus the generators
used throughout the package.

Vertices are always 0..n-1.  For vertex sets that are tuples over an
alphabet of q symbols, the tuple (t_0, ..., t_{d-1}) gets rank
t_0 + t_1*q + ... + t_{d-1}*q^{d-1}: coordinate 0 is least significant.
Every module that mentions a Hamming-type vertex uses this rank as its
identity, so functions, partitions and certificates line up across the
package.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import GF, digitwise

__all__ = [
    "Graph",
    "SizeCapExceeded",
    "DEFAULT_SIZE_CAP",
    "vertex_rank",
    "vertex_tuple",
    "complete",
    "cycle",
    "complete_bipartite",
    "hamming_graph",
    "folded_cube",
    "cayley_graph",
    "capped_power",
    "rank_array",
    "hamming_neighbors",
    "adjacency_matrix",
    "closed_neighborhood_sum",
    "closed_sums",
    "equitable_quotient",
]

DEFAULT_SIZE_CAP = 1 << 21

# Vertices per numpy block, so temporaries stay small for any graph or sample.
BLOCK = 1 << 10


class SizeCapExceeded(ValueError):
    """Requested graph is larger than the configured vertex cap."""


class Graph:
    """A finite simple graph on the vertices 0..n-1, held as read-only CSR
    arrays: the neighbours of v are indices[indptr[v]:indptr[v + 1]], in
    increasing order for every graph that passes validate().

    Graph(n, adjacency, name) builds the arrays from lists of neighbours;
    the generators and the JSON loader build them directly (from_csr).
    The list view .adjacency is made on first use and must not be mutated.
    """

    def __init__(self, n: int, adjacency: Sequence[Sequence[int]], name: str = "graph") -> None:
        indptr = np.cumsum([0] + [len(row) for row in adjacency], dtype=np.int64)
        indices = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=int(indptr[-1]))
        self._set(n, indptr, indices, name)

    @classmethod
    def from_csr(cls, n: int, indptr: np.ndarray, indices: np.ndarray, name: str = "graph") -> "Graph":
        g = cls.__new__(cls)
        g._set(n, indptr, indices, name)
        return g

    def _set(self, n: int, indptr: np.ndarray, indices: np.ndarray, name: str) -> None:
        self.n, self.indptr, self.indices, self.name = n, indptr, indices, name
        indptr.flags.writeable = indices.flags.writeable = False
        self._adjacency: Optional[List[List[int]]] = None

    @property
    def adjacency(self) -> List[List[int]]:
        if self._adjacency is None:
            flat, ptr = self.indices.tolist(), self.indptr.tolist()
            self._adjacency = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
        return self._adjacency

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def rows(self) -> np.ndarray:
        """The vertex each entry of indices is a neighbour of."""
        return np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int64), self.degrees())

    def validate(self) -> None:
        """Raise ValueError unless every row is sorted and in range, with no
        loops or repeats, and every edge appears in both directions."""
        rows, keys = self._validate_rows()
        reverse = self.indices * self.n + rows
        if not np.array_equal(np.sort(reverse), keys):
            found = keys[np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)] == reverse
            i = int(np.argmin(found))
            raise ValueError(f"edge {int(rows[i])}-{int(self.indices[i])} not symmetric")

    def _validate_rows(self) -> Tuple[np.ndarray, np.ndarray]:
        """validate() without the symmetry check, for arrays symmetric by
        construction; returns rows() and the row-major keys rows·n + indices."""
        n, indices = self.n, self.indices
        if n < 1 or len(self.indptr) != n + 1:
            raise ValueError("adjacency length does not match vertex count")
        rows = self.rows()
        bad = (indices < 0) | (indices >= n) | (indices == rows)
        # with every entry in range, row-major keys increase exactly when
        # each row is strictly increasing
        keys = rows * n + indices
        bad[1:] |= keys[1:] <= keys[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            v, u = int(rows[i]), int(indices[i])
            if not 0 <= u < n:
                raise ValueError(f"neighbor {u} of {v} out of range")
            if u == v:
                raise ValueError(f"loop at vertex {v}")
            raise ValueError(f"adjacency of {v} not sorted or has repeats")
        return rows, keys

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def is_regular(self) -> Optional[int]:
        deg = self.degrees()
        return int(deg[0]) if len(deg) and (deg == deg[0]).all() else None

    def regular_degree(self) -> int:
        r = self.is_regular()
        if r is None:
            raise ValueError(f"{self.name} is not regular")
        return r

    def edge_array(self) -> np.ndarray:
        """The edges u < v as an (m, 2) int64 array, sorted lexicographically."""
        rows = self.rows()
        upper = self.indices > rows
        return np.column_stack((rows[upper], self.indices[upper]))

    def edges(self) -> List[Tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        return list(map(tuple, self.edge_array().tolist()))


def _regular(n: int, nbrs: np.ndarray, name: str) -> Graph:
    """The graph whose row v is nbrs[v], for an n x r array."""
    r = nbrs.shape[1]
    return Graph.from_csr(n, np.arange(n + 1, dtype=np.int64) * r, nbrs.reshape(-1), name)


def _check_cap(n: int, size_cap: int) -> None:
    if n > size_cap:
        raise SizeCapExceeded(f"{n} vertices exceeds the cap of {size_cap}")


def capped_power(q: int, d: int, size_cap: int) -> Optional[int]:
    """q^d, or None when q > size_cap or d > size_cap.bit_length().

    Either condition puts q^d (q >= 2) above the cap, so the power, which
    can have millions of digits, is never taken.
    """
    return None if q > size_cap or d > size_cap.bit_length() else q ** d


def _check_power_cap(q: int, d: int, size_cap: int) -> int:
    n = capped_power(q, d, size_cap)
    if n is None:
        # named as a power: the decimal form may pass Python's int-to-str limit
        raise SizeCapExceeded(f"{q}^{d} vertices exceeds the cap of {size_cap}")
    _check_cap(n, size_cap)
    return n


def rank_array(ranks, n: int) -> np.ndarray:
    """Ranks below n as an array: int64 when n < 2^62, else object dtype
    holding Python ints, so rank arithmetic never wraps."""
    return np.array(ranks, dtype=np.int64 if n < 1 << 62 else object)


def vertex_rank(q: int, tup: Sequence[int]) -> int:
    rank = 0
    for i, t in enumerate(tup):
        if not 0 <= t < q:
            raise ValueError(f"symbol {t} outside [0, {q})")
        rank += t * q ** i
    return rank


def vertex_tuple(q: int, d: int, rank: int) -> Tuple[int, ...]:
    if not 0 <= rank < q ** d:
        raise ValueError(f"rank {rank} outside [0, {q}^{d})")
    out = []
    for _ in range(d):
        out.append(rank % q)
        rank //= q
    return tuple(out)


def complete(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_cap(n, size_cap)
    nbrs = np.broadcast_to(np.arange(n - 1, dtype=np.int64), (n, n - 1)).copy()
    nbrs += nbrs >= np.arange(n)[:, None]
    return _regular(n, nbrs, f"K({n})")


def cycle(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_cap(n, size_cap)
    v = np.arange(n, dtype=np.int64)
    return _regular(n, np.sort(np.column_stack(((v - 1) % n, (v + 1) % n)), axis=1), f"C({n})")


def complete_bipartite(m: int, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs both parts nonempty")
    _check_cap(m + n, size_cap)
    indptr = np.concatenate((np.arange(m + 1) * n, m * n + np.arange(1, n + 1) * m))
    indices = np.concatenate((np.tile(np.arange(m, m + n), m), np.tile(np.arange(m), n)))
    return Graph.from_csr(m + n, indptr.astype(np.int64), indices.astype(np.int64), f"K({m},{n})")


def hamming_graph(q, d: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """H(q, d): tuples over q symbols, adjacent when they differ in one slot.

    q may be a plain symbol count or a GF instance (only its order is used).
    """
    if isinstance(q, GF):
        q = q.q
    if q < 2 or d < 1:
        raise ValueError("hamming graph needs q >= 2 and d >= 1")
    n = _check_power_cap(q, d, size_cap)
    nbrs = np.empty((n, (q - 1) * d), dtype=np.int64)
    for lo in range(0, n, BLOCK):
        block = np.arange(lo, min(lo + BLOCK, n), dtype=np.int64)
        nbrs[lo:lo + BLOCK] = np.sort(hamming_neighbors(q, d, block), axis=1)
    return _regular(n, nbrs, f"H({q},{d})")


def hamming_neighbors(q: int, d: int, ranks: np.ndarray) -> np.ndarray:
    """Neighbours in H(q, d) of each rank in a 1-D array (see rank_array).

    Row i holds the (q-1)d neighbours of ranks[i], unsorted, in the dtype
    of ranks: for each coordinate, the ranks with that digit replaced.
    """
    out = np.empty((len(ranks), (q - 1) * d), dtype=ranks.dtype)
    for i in range(d):
        x = ranks // q ** i % q
        for s in range(1, q):
            out[:, i * (q - 1) + s - 1] = ranks + ((x + s) % q - x) * q ** i
    return out


def folded_cube(d: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """F(d): binary (d-1)-tuples, adjacent on one bit flip or full complement,
    that is, the Cayley graph of GF(2)^(d-1) on the unit vectors and all-ones."""
    if d < 2:
        raise ValueError("folded cube needs d >= 2")
    n = _check_power_cap(2, d - 1, size_cap)
    g = cayley_graph(GF(2), d - 1, [1 << i for i in range(d - 1)] + [n - 1], size_cap)
    g.name = f"F({d})"
    return g


def cayley_graph(gf: GF, d: int, connection: Sequence[int], size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Cayley graph of the additive group GF(q)^d with the given connection set.

    Connection elements are vertex ranks; the set must exclude 0 and be
    closed under negation, which makes the graph simple and symmetric.
    """
    n = _check_power_cap(gf.q, d, size_cap)
    conn = sorted(set(connection))
    if not conn:
        raise ValueError("empty connection set")
    members = set(conn)
    for c in conn:
        if not 0 < c < n:
            raise ValueError(f"connection element {c} outside (0, {n})")
        if digitwise(gf.p, d * gf.b, operator.neg, c) not in members:
            raise ValueError(f"connection set not closed under negation at {c}")
    ranks = np.arange(n, dtype=np.int64)
    adj = np.column_stack([digitwise(gf.p, d * gf.b, operator.add, ranks, c) for c in conn])
    adj.sort(axis=1)
    return _regular(n, adj, f"Cayley({gf!r}^{d})")


def adjacency_matrix(x: Graph) -> np.ndarray:
    """A as an n x n int64 array."""
    m = np.zeros((x.n, x.n), dtype=np.int64)
    m[x.rows(), x.indices] = 1
    return m


def closed_neighborhood_sum(x: Graph, values: Sequence[int], v: int) -> int:
    return values[v] + sum(values[u] for u in x.indices[x.indptr[v]:x.indptr[v + 1]].tolist())


def exact_array(values: Sequence[int], terms: int = 1) -> np.ndarray:
    """values as int64 when a sum of `terms` of them cannot reach 2^63,
    else as Python ints (object dtype), so sums of them never wrap."""
    try:
        f = np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    if len(f) and max(int(f.max()), -int(f.min())) * terms >= 1 << 63:
        return np.array(values, dtype=object)
    return f


def closed_sums(x: Graph, values: Sequence[int]) -> np.ndarray:
    """(A + I) f: the closed neighbourhood sum of values at every vertex,
    exactly (int64, or Python ints when a sum could reach 2^63)."""
    deg = x.degrees()
    f = exact_array(values, int(deg.max(initial=0)) + 1)
    # a trailing 0 gives a row at the end of indices a segment to reduce;
    # reduceat returns one entry for an empty row, which is masked
    nbr = np.add.reduceat(np.append(f[x.indices], 0), x.indptr[:-1])
    return f + np.where(deg > 0, nbr, 0)


def equitable_quotient(x: Graph, labels: Sequence[int]) -> Optional[Dict[int, List[int]]]:
    """Sorted neighbour labels of each label class, or None if not equitable.

    Maps every label to the sorted multiset of labels on the neighbours
    of a vertex carrying it, when all vertices with that label see the
    same multiset; that is exactly when the label classes form an
    equitable partition, and the multisets are the rows of its quotient.
    Every vertex is compared with the first vertex of its class; the
    labels come out in increasing order.
    """
    classes, first, cls = np.unique(np.asarray(labels), return_index=True, return_inverse=True)
    rows, indptr, c = x.rows(), x.indptr, len(classes)
    # each row's neighbour classes, sorted within the row by one sort
    nbr = np.sort(rows * c + cls[x.indices]) - rows * c
    rep = first[cls]
    deg = x.degrees()
    if (deg != deg[rep]).any():
        return None
    offset = np.arange(len(nbr)) - indptr[rows]
    if (nbr != nbr[indptr[rep][rows] + offset]).any():
        return None
    # only the representatives' rows become lists, laid end to end in out
    k = deg[first]
    start = np.cumsum(k) - k
    out = classes[nbr[np.arange(k.sum()) + np.repeat(indptr[first] - start, k)]].tolist()
    return {label: out[s:s + r] for label, s, r in zip(classes.tolist(), start.tolist(), k.tolist())}
