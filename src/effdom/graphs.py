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
from bisect import bisect_left
from dataclasses import dataclass
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


@dataclass
class Graph:
    n: int
    adjacency: List[List[int]]
    name: str = "graph"

    def validate(self) -> None:
        if self.n < 1 or len(self.adjacency) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if u <= prev:
                    raise ValueError(f"adjacency of {v} not sorted or has repeats")
                prev = u
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if not _binary_member(self.adjacency[u], v):
                    raise ValueError(f"edge {v}-{u} not symmetric")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def is_regular(self) -> Optional[int]:
        degs = {len(nbrs) for nbrs in self.adjacency}
        return degs.pop() if len(degs) == 1 else None

    def regular_degree(self) -> int:
        r = self.is_regular()
        if r is None:
            raise ValueError(f"{self.name} is not regular")
        return r

    def edges(self) -> List[Tuple[int, int]]:
        """Edge list with u < v, sorted lexicographically."""
        return [(v, u) for v in range(self.n) for u in self.adjacency[v] if v < u]


def _binary_member(seq: List[int], x: int) -> bool:
    i = bisect_left(seq, x)
    return i < len(seq) and seq[i] == x


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
    adj = [[u for u in range(n) if u != v] for v in range(n)]
    return Graph(n, adj, f"K({n})")


def cycle(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_cap(n, size_cap)
    adj = [sorted(((v - 1) % n, (v + 1) % n)) for v in range(n)]
    return Graph(n, adj, f"C({n})")


def complete_bipartite(m: int, n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs both parts nonempty")
    _check_cap(m + n, size_cap)
    left = list(range(m))
    right = list(range(m, m + n))
    adj = [right[:] for _ in left] + [left[:] for _ in right]
    return Graph(m + n, adj, f"K({m},{n})")


def hamming_graph(q, d: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """H(q, d): tuples over q symbols, adjacent when they differ in one slot.

    q may be a plain symbol count or a GF instance (only its order is used).
    """
    if isinstance(q, GF):
        q = q.q
    if q < 2 or d < 1:
        raise ValueError("hamming graph needs q >= 2 and d >= 1")
    n = _check_power_cap(q, d, size_cap)
    adj: List[List[int]] = []
    for lo in range(0, n, BLOCK):
        block = np.arange(lo, min(lo + BLOCK, n), dtype=np.int64)
        adj += np.sort(hamming_neighbors(q, d, block), axis=1).tolist()
    return Graph(n, adj, f"H({q},{d})")


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
    return Graph(n, g.adjacency, f"F({d})")


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
    return Graph(n, adj.tolist(), f"Cayley({gf!r}^{d})")


def adjacency_matrix(x: Graph) -> np.ndarray:
    """A as an n x n int64 array."""
    m = np.zeros((x.n, x.n), dtype=np.int64)
    rows = np.repeat(np.arange(x.n), [len(nbrs) for nbrs in x.adjacency])
    m[rows, [u for nbrs in x.adjacency for u in nbrs]] = 1
    return m


def closed_neighborhood_sum(x: Graph, values: Sequence[int], v: int) -> int:
    s = values[v]
    for u in x.adjacency[v]:
        s += values[u]
    return s


def closed_sums(x: Graph, values: Sequence[int]) -> List[int]:
    """(A + I) f: the closed neighbourhood sum of values at every vertex."""
    sums = []
    for v, nbrs in enumerate(x.adjacency):
        s = values[v]
        for u in nbrs:
            s += values[u]
        sums.append(s)
    return sums


def equitable_quotient(x: Graph, labels: Sequence[int]) -> Optional[Dict[int, List[int]]]:
    """Sorted neighbour labels of each label class, or None if not equitable.

    Maps every label to the sorted multiset of labels on the neighbours
    of a vertex carrying it, when all vertices with that label see the
    same multiset; that is exactly when the label classes form an
    equitable partition, and the multisets are the rows of its quotient.
    """
    rows: Dict[int, List[int]] = {}
    for v, nbrs in enumerate(x.adjacency):
        row = sorted([labels[u] for u in nbrs])
        if rows.setdefault(labels[v], row) != row:
            return None
    return rows
