"""The search one node at a time, in preorder: the reference for the
batched walk of effdom.search.

Every value tried is one node, numbered from 1 in preorder; a search cut by
its node limit stops at node limit + 1 and keeps the functions whose last
node came before it.  It reads the graph's list view, not the CSR arrays
the batched walk reads.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from effdom.graphs import Graph
from effdom.search import SearchOutcome


def _closed(x: Graph) -> List[List[int]]:
    return [list(x.adjacency[v]) + [v] for v in range(x.n)]


def preorder(x: Graph, order: Tuple[int, ...], j: int, k: int, limit: int,
             first_only: bool, count_only: bool = False) -> SearchOutcome:
    """The search one node at a time, in preorder, on an explicit stack so
    that the depth is not bounded by the interpreter's recursion limit."""
    n = x.n
    closed = _closed(x)
    partial = [0] * n
    unassigned = [len(c) for c in closed]
    values = [0] * n
    found: List[List[int]] = []
    outcome = SearchOutcome(j=j, k=k)

    # tried[depth] is the value order[depth] holds now, -1 before the first
    tried = [-1] * n
    nodes = 0
    depth = 0
    while depth >= 0:
        if depth == n:
            outcome.count += 1
            if not count_only:
                found.append(list(values))
            if first_only:
                break
            depth -= 1
            continue
        u = order[depth]
        cu = closed[u]
        val = tried[depth]
        if val < 0:
            for w in cu:
                unassigned[w] -= 1
        elif val:
            for w in cu:
                partial[w] -= val
        val += 1
        if val > j:
            tried[depth] = -1
            for w in cu:
                unassigned[w] += 1
            depth -= 1
            continue
        nodes += 1
        if nodes > limit:
            outcome.exhausted = False
            outcome.diagnostic = f"node limit {limit} reached"
            break
        values[u] = val
        tried[depth] = val
        if val:
            for w in cu:
                partial[w] += val
        for w in cu:
            ps = partial[w]
            if ps > k or ps + j * unassigned[w] < k:
                break
        else:
            depth += 1

    outcome.nodes = nodes
    if not count_only:
        outcome.values = np.array(found, dtype=np.min_scalar_type(-k - 2)).reshape(len(found), n)
    return outcome
