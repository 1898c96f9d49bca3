"""Exhaustive search for efficient (j,k)-dominating functions.

Backtracking over vertices in breadth-first order from vertex 0, trying
values 0..j in increasing order, on an explicit stack so that the depth
(one level per vertex) is not bounded by the interpreter's recursion
limit.  Two-sided propagation prunes a branch
as soon as some closed neighborhood either already exceeds k or can no
longer reach k even if every unassigned member takes the value j.  The
search is therefore exact: it enumerates every efficient function or
proves there is none.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .domination import DominatingFunction
from .graphs import Graph

__all__ = ["SearchConfig", "SearchOutcome", "NodeLimitExceeded", "enumerate_efficient", "exists_efficient", "k_spectrum"]

DEFAULT_NODE_LIMIT = 10 ** 8


class NodeLimitExceeded(RuntimeError):
    """Raised by k_spectrum when a per-k search ran out of node budget."""


@dataclass(frozen=True)
class SearchConfig:
    j: int
    k: int
    node_limit: int = DEFAULT_NODE_LIMIT
    order: Optional[Tuple[int, ...]] = None


@dataclass
class SearchOutcome:
    functions: List[DominatingFunction] = field(default_factory=list)
    exhausted: bool = True
    nodes: int = 0
    diagnostic: Optional[str] = None

    @property
    def count(self) -> int:
        return len(self.functions)


def _bfs_order(x: Graph) -> Tuple[int, ...]:
    seen = [False] * x.n
    order: List[int] = []
    for start in range(x.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in x.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return tuple(order)


def _search(x: Graph, cfg: SearchConfig, first_only: bool) -> SearchOutcome:
    if cfg.j < 0 or cfg.k < 0:
        raise ValueError("j and k must be nonnegative")
    n = x.n
    order = cfg.order if cfg.order is not None else _bfs_order(x)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    j, k = cfg.j, cfg.k
    closed = [list(x.adjacency[v]) + [v] for v in range(n)]
    partial = [0] * n
    unassigned = [len(c) for c in closed]
    values = [0] * n
    outcome = SearchOutcome()
    limit = cfg.node_limit

    # tried[depth] is the value order[depth] holds now, -1 before the first
    tried = [-1] * n
    nodes = 0
    depth = 0
    while depth >= 0:
        if depth == n:
            outcome.functions.append(
                DominatingFunction(values=tuple(values), j=j, k=k)
            )
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
    outcome.functions.sort(key=lambda f: f.values)
    return outcome


def enumerate_efficient(x: Graph, cfg: SearchConfig) -> SearchOutcome:
    """All efficient (j,k)-dominating functions, sorted by value vector.

    When the node limit interrupts the search, exhausted is False and a
    diagnostic is attached; the functions found so far are still valid.
    """
    return _search(x, cfg, first_only=False)


def exists_efficient(x: Graph, cfg: SearchConfig) -> Tuple[bool, Optional[DominatingFunction]]:
    """Decide existence; returns a witness when one is found."""
    outcome = _search(x, cfg, first_only=True)
    if outcome.functions:
        return True, outcome.functions[0]
    if not outcome.exhausted:
        raise NodeLimitExceeded(outcome.diagnostic or "node limit reached")
    return False, None


def k_spectrum(x: Graph, j: int, node_limit: int = DEFAULT_NODE_LIMIT) -> Dict[int, int]:
    """Exact counts of efficient (j,k) functions for k = 0 .. j(r+1).

    Only defined on regular graphs.  Raises NodeLimitExceeded if any
    per-k search fails to exhaust, since a partial count would be wrong.
    """
    r = x.regular_degree()
    counts: Dict[int, int] = {}
    for k in range(j * (r + 1) + 1):
        outcome = enumerate_efficient(x, SearchConfig(j=j, k=k, node_limit=node_limit))
        if not outcome.exhausted:
            raise NodeLimitExceeded(f"k = {k}: {outcome.diagnostic}")
        counts[k] = outcome.count
    return counts
