"""Exhaustive search for efficient (j,k)-dominating functions.

The search tree assigns one vertex per level, in breadth-first order from
vertex 0 unless an order is given, and tries the values 0..j in increasing
order; every value tried is one node.  Two-sided propagation prunes a
child as soon as some closed neighbourhood N[w] of the vertex u just
assigned either already sums past k or can no longer reach k even if every
unassigned member takes the value j.  The search is therefore exact: it
enumerates every efficient function or proves there is none.

The walk.  The tree is walked depth-first, a chunk of states at a time.  A
state is the vector of partial sums over the frontier, the vertices whose
closed neighbourhood is partly assigned; a frame holds up to a chunk of
states at one depth as the rows of one array, and the stack holds one
frame per depth.  For partial sums p the rule keeps exactly the values v
with k - p[w] - min(j,k)·unassigned[w] <= v <= k - p[w] for every w in
N[u]: one interval per state, found for a whole frame in one numpy step.
Children are taken from the intervals parent-major, so the first leaf
found is the preorder-first one.  Every state counts its j + 1 nodes, so
values above k are counted without being generated.  At the last depth
every closed neighbourhood is complete, so a state has one leaf or none;
a frame's leaves are read off the states' (parent, value) links as the
rows of one array in vertex order, the rows of all frames are sorted once
with np.lexsort, and DominatingFunctions are built from them only when
asked for.  A count-only search counts the leaves and never builds them.

Memory.  A chunk holds at most CHUNK_BYTES // (itemsize · width) states,
where width is the number of frontier columns, at least |N[u]|, and at
least 8 bytes per state; so no array one expansion allocates exceeds
CHUNK_BYTES, whatever j, k or n.  Partial sums are kept in the narrowest
integer dtype that holds -k .. k + 1, object past int64.  A frame whose
children are all taken keeps only its links.  A listing keeps its leaves,
n values each in that dtype; a count-only search keeps none.

The node limit.  Nodes are numbered from 1 in preorder; a search cut by
its limit returns the functions whose last node is among the first limit,
with nodes = limit + 1.  States are made in preorder at each depth, and a
frame records base, the states made at its depth before it.  When the
depth-t frame is on top, the node giving v_t to order[t] in its row r_t is
numbered sum_{s<=t} ((j+1)(base_s + r_s) + v_s + 1) over it and its
ancestors (read off the links), plus j + 1 per state made deeper than t,
each the root of an earlier subtree.  The walk counts a frame's nodes
before descending, so its count passes the limit early; from then on it
keeps only leaves numbered at most limit and stops before a state
numbered past it.  Below the limit it has counted every preorder
predecessor of what it returns (and, if first_only, maybe nodes after).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import obs
from .domination import DominatingFunction
from .graphs import Graph

__all__ = ["SearchConfig", "SearchOutcome", "NodeLimitExceeded", "enumerate_efficient", "exists_efficient", "k_spectrum"]

DEFAULT_NODE_LIMIT = 10 ** 8

# Largest array, in bytes, that one expansion of the batched walk allocates.
CHUNK_BYTES = 1 << 20


class NodeLimitExceeded(RuntimeError):
    """Raised by k_spectrum when a per-k search ran out of node budget."""


@dataclass(frozen=True)
class SearchConfig:
    j: int
    k: int
    node_limit: int = DEFAULT_NODE_LIMIT
    order: Optional[Tuple[int, ...]] = None


@dataclass(eq=False)  # values is an array, which == compares entry by entry
class SearchOutcome:
    """count functions found; values holds them as the rows of one count × n
    array in vertex order, sorted, or None when they were only counted."""

    j: int
    k: int
    values: Optional[np.ndarray] = None
    count: int = 0
    exhausted: bool = True
    nodes: int = 0
    diagnostic: Optional[str] = None

    @property
    def functions(self) -> List[DominatingFunction]:
        """The rows of values as DominatingFunctions, built on each access."""
        if self.values is None:
            raise ValueError("a count-only search lists no functions")
        return [DominatingFunction(values=tuple(v), j=self.j, k=self.k) for v in self.values.tolist()]


def _bfs_order(x: Graph) -> Tuple[int, ...]:
    ptr, flat = x.indptr.tolist(), x.indices.tolist()
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
            for u in flat[ptr[v]:ptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return tuple(order)


def _closed(x: Graph) -> List[List[int]]:
    ptr, flat = x.indptr.tolist(), x.indices.tolist()
    return [flat[ptr[v]:ptr[v + 1]] + [v] for v in range(x.n)]


@dataclass
class _Level:
    """One depth of the batched walk: assigning u = order[t].

    A frontier vertex keeps one column of the states from the depth where
    its closed neighbourhood is first touched until it is complete; column
    0 is always 0 and stands for every vertex outside the frontier.
    """

    cols: np.ndarray  # the column of each w in N[u] before u is assigned
    need: np.ndarray  # k - min(min(j,k)·unassigned[w], k) for each w in N[u], u assigned
    dst: np.ndarray   # the columns of the members of N[u] still open, u assigned
    src: np.ndarray   # the column each of them held before (0 if it had none)


def _levels(x: Graph, order: Tuple[int, ...], jr: int, k: int, dtype) -> Tuple[List[_Level], int]:
    """The plan of every depth, and the number of columns of a state: each
    field of every depth is laid end to end in one array, and a level holds
    views of its stretches."""
    closed = _closed(x)
    unassigned = [len(c) for c in closed]
    column: Dict[int, int] = {}
    free: List[int] = []
    width = 1
    cols: List[int] = []
    need: List[int] = []
    dst: List[int] = []
    src: List[int] = []
    ends = []  # the ends of each depth's stretches of cols (and need) and of dst (and src)
    for u in order:
        members = closed[u]
        start = len(cols)
        cols += [column.get(w, 0) for w in members]
        for w in members:
            unassigned[w] -= 1
            if not unassigned[w] and w in column:
                free.append(column.pop(w))
        for w, c in zip(members, cols[start:]):
            if unassigned[w]:
                if not c:
                    if not free:
                        free.append(width)
                        width += 1
                    column[w] = free.pop()
                dst.append(column[w])
                src.append(c)
        need += [k - min(jr * unassigned[w], k) for w in members]
        ends.append((len(cols), len(dst)))
    arrays = np.array(cols), np.array(need, dtype=dtype), np.array(dst, dtype=np.intp), np.array(src, dtype=np.intp)
    levels, a, b = [], 0, 0
    for c, d in ends:
        levels.append(_Level(cols=arrays[0][a:c], need=arrays[1][a:c], dst=arrays[2][b:d], src=arrays[3][b:d]))
        a, b = c, d
    return levels, width


class _Frame:
    """States at one depth, with a cursor over their children, parent-major.

    up and val link each state to its parent's row one depth up and to the
    value its parent's vertex took; the children of row i are the values
    lo[i] .. lo[i] + count[i] - 1.  base is the number of states at this
    depth made before this frame.
    """

    def __init__(self, states, up, val, level: _Level, jr: int, k: int, base: int = 0):
        self.states, self.up, self.val, self.base = states, up, val, base
        part = states[:, level.cols]
        hi = np.minimum(k - part.max(axis=1), jr)
        self.lo = np.maximum((level.need - part).max(axis=1), 0)
        self.count = np.maximum(hi - self.lo + 1, 0)
        nonzero = np.flatnonzero(self.count)
        self.next, self.end = (int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else (0, 0)
        self.offset = 0  # children of row `next` already taken

    def take(self, cap: int, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next (at most cap) children as (parent row, value) arrays, and
        the parents' states; a frame whose children are all taken keeps only
        its links."""
        i, lo, count, states = self.next, self.lo, self.count, self.states
        if self.offset or count[i] > cap:
            m = min(cap, int(count[i]) - self.offset)
            rows = np.full(m, i, dtype=np.int32)
            vals = np.arange(m, dtype=lo.dtype) + (lo[i] + self.offset)
            self.offset += m
            if self.offset == count[i]:
                self.next, self.offset = i + 1, 0
        else:
            # capping each count at cap + 1 (or k + 1, which the dtype
            # holds) keeps the running sum of int64 counts from overflowing
            ends = np.minimum(count[i:min(i + cap, self.end)], min(cap, k) + 1).cumsum()
            e = int(ends.searchsorted(cap, side="right"))
            counts = count[i:i + e].astype(np.intp)
            rows = np.arange(i, i + e, dtype=np.int32).repeat(counts)
            offsets = np.arange(len(rows)) - (ends[:e] - counts).repeat(counts)
            vals = (lo[rows] + offsets).astype(lo.dtype, copy=False)
            self.next = i + e
        if self.next == self.end:
            self.states = self.lo = self.count = None
        return rows, vals, states


def _batched(x: Graph, order: Tuple[int, ...], j: int, k: int, limit: int,
             first_only: bool, count_only: bool = False) -> SearchOutcome:
    """The search a chunk of states at a time."""
    n = x.n
    # every number the walk keeps lies in [-k, k + 1]
    dtype = np.min_scalar_type(-k - 2)
    if n == 0:
        return SearchOutcome(j=j, k=k, values=None if count_only else np.zeros((1, 0), dtype), count=1)
    jr = min(j, k)
    levels, width = _levels(x, order, jr, k, dtype)
    # a chunk's arrays: states, parts of N[u], and an int64 or two per state
    row_bytes = max(dtype.itemsize * max(width, int(x.degrees().max()) + 1), 8)
    cap = max(1, CHUNK_BYTES // row_bytes)
    position = np.argsort(order)
    stack = [_Frame(np.zeros((1, width), dtype=dtype), None, None, levels[0], jr, k)]
    made = [0] * n  # states made so far at each depth
    found: List[np.ndarray] = []
    count = chunks = 0
    nodes = j + 1

    def leaves(rows, vals):
        by_depth = [vals]
        for frame in reversed(stack[1:]):
            by_depth.append(frame.val[rows])
            rows = frame.up[rows]
        return np.stack(by_depth[::-1], axis=1)[:, position]

    def index(row, value) -> int:
        """The preorder number of the node giving value to the vertex of
        the top frame's state at row, in Python ints."""
        # each state made deeper than the top frame roots a subtree before the node
        i, row = (j + 1) * sum(made[len(stack):]), int(row)
        for frame in stack[:0:-1]:
            i += (j + 1) * (frame.base + row) + int(value) + 1
            row, value = int(frame.up[row]), frame.val[row]
        return i + int(value) + 1

    while stack:
        frame = stack[-1]
        if frame.next == frame.end:
            stack.pop()
            continue
        depth = len(stack)
        if depth == n:
            # every closed neighbourhood is complete here: one leaf or none per state
            rows = np.flatnonzero(frame.count)
            if nodes > limit:
                rows = rows[:bisect_right(rows, limit, key=lambda r: index(r, frame.lo[r]))]
                if first_only and rows.size:
                    nodes = index(rows[0], frame.lo[rows[0]])
            rows = rows[:1 if first_only else None]
            count += len(rows)
            if not count_only:
                found.append(leaves(rows, frame.lo[rows]))
            stack.pop()
            if first_only and count:
                break
            continue
        size = cap
        if nodes > limit:
            # a state is numbered past the one taken before it and its j + 1 children
            over = limit - index(frame.next, int(frame.lo[frame.next]) + frame.offset)
            if over < 0:
                break
            size = min(cap, over // (j + 2) + 1)
        rows, vals, parents = frame.take(size, k)
        level = levels[depth - 1]
        states = parents.take(rows, axis=0)
        states[:, level.dst] = states[:, level.src] + vals[:, None]
        nodes += len(states) * (j + 1)
        chunks += 1
        stack.append(_Frame(states, rows, vals, levels[depth], jr, k, made[depth]))
        made[depth] += len(states)
    obs.count("search.chunks", chunks)
    values = None if count_only else np.concatenate(found) if found else np.zeros((0, n), dtype)
    outcome = SearchOutcome(j=j, k=k, values=values, count=count, nodes=nodes)
    if nodes > limit:
        outcome.nodes, outcome.exhausted = max(limit, 0) + 1, False
        outcome.diagnostic = f"node limit {limit} reached"
    return outcome


def _search(x: Graph, cfg: SearchConfig, first_only: bool, count_only: bool = False) -> SearchOutcome:
    if cfg.j < 0 or cfg.k < 0:
        raise ValueError("j and k must be nonnegative")
    order = cfg.order if cfg.order is not None else _bfs_order(x)
    if (any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in order)
            or sorted(order) != list(range(x.n))):
        raise ValueError("order must be a permutation of the vertices")
    order = tuple(int(v) for v in order)
    outcome = _batched(x, order, cfg.j, cfg.k, cfg.node_limit, first_only, count_only)
    obs.count("search.nodes", outcome.nodes)
    obs.count("search.leaves", outcome.count)
    if outcome.values is not None and outcome.values.size:
        outcome.values = outcome.values[np.lexsort(outcome.values.T[::-1])]
    return outcome


def enumerate_efficient(x: Graph, cfg: SearchConfig, count_only: bool = False) -> SearchOutcome:
    """All efficient (j,k)-dominating functions, sorted by value vector;
    with count_only, only their count (values is None).

    When the node limit interrupts the search, exhausted is False and a
    diagnostic is attached; the functions found so far are still valid.
    """
    return _search(x, cfg, first_only=False, count_only=count_only)


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

    Only defined on regular graphs.  f -> j - f maps the efficient (j,k)
    functions onto the efficient (j, j(r+1) - k) ones and mirrors the
    search tree, node counts included, so only k <= j(r+1)/2 is searched.
    Raises NodeLimitExceeded, naming the first k in increasing order, if
    a per-k search fails to exhaust, since a partial count would be wrong.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    top = j * (x.regular_degree() + 1)
    counts: Dict[int, int] = {}
    for k in range(top // 2 + 1):
        outcome = enumerate_efficient(x, SearchConfig(j=j, k=k, node_limit=node_limit), count_only=True)
        if not outcome.exhausted:
            raise NodeLimitExceeded(f"k = {k}: {outcome.diagnostic}")
        counts[k] = outcome.count
    return {k: counts[min(k, top - k)] for k in range(top + 1)}
