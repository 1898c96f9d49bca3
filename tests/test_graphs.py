"""Graph generator tests: counts, degrees, and agreement between the two
presentations of a Hamming graph (tuple adjacency vs Cayley sum)."""

from __future__ import annotations

import random
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom import graphs
from effdom.fields import GF
from effdom.graphs import (
    Graph,
    SizeCapExceeded,
    cayley_graph,
    closed_neighborhood_sum,
    complete,
    complete_bipartite,
    cycle,
    folded_cube,
    hamming_graph,
    vertex_rank,
    vertex_tuple,
)


def test_vertex_rank_roundtrip():
    assert vertex_rank(3, (2, 0, 1)) == 2 + 9
    assert vertex_tuple(3, 3, 11) == (2, 0, 1)
    for q, d in [(2, 5), (3, 3), (4, 2)]:
        for r in range(q ** d):
            assert vertex_rank(q, vertex_tuple(q, d, r)) == r
    with pytest.raises(ValueError):
        vertex_rank(2, (0, 2))
    with pytest.raises(ValueError):
        vertex_tuple(2, 3, 8)


def test_basic_generators():
    k4 = complete(4)
    assert k4.n == 4 and k4.is_regular() == 3
    assert len(k4.edges()) == 6
    c6 = cycle(6)
    assert c6.is_regular() == 2
    assert c6.edges() == [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]
    k23 = complete_bipartite(2, 3)
    assert k23.n == 5
    assert sorted(k23.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    assert k23.is_regular() is None
    for g in (k4, c6, k23):
        g.validate()


def test_hamming_graph_shape():
    h = hamming_graph(2, 3)
    assert h.n == 8 and h.is_regular() == 3
    assert h.adjacency[0] == [1, 2, 4]
    h32 = hamming_graph(3, 2)
    assert h32.n == 9 and h32.is_regular() == 4
    # rook's graph: same row or same column
    assert h32.adjacency[0] == [1, 2, 3, 6]
    h62 = hamming_graph(6, 2)
    assert h62.n == 36 and h62.is_regular() == 10
    h62.validate()


def test_hamming_equals_cayley_presentation():
    for p, b, d in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        gf = GF(p, b)
        q = gf.q
        conn = [
            vertex_rank(q, tuple(s if i == coord else 0 for i in range(d)))
            for coord in range(d)
            for s in range(1, q)
        ]
        cay = cayley_graph(gf, d, conn)
        ham = hamming_graph(q, d)
        assert cay.adjacency == ham.adjacency


def _neighbors_oracle(q, d, v):
    """Per-vertex loop: replace each digit of v by every other symbol."""
    nbrs = []
    rem = v
    for i in range(d):
        x = rem % q
        rem //= q
        nbrs += [v + (s - x) * q ** i for s in range(q) if s != x]
    return sorted(nbrs)


@pytest.mark.parametrize("q, d", [(2, 13), (3, 5), (5, 3), (7, 2)])
def test_hamming_neighbors_match_per_vertex_loop(q, d):
    assert hamming_graph(q, d).adjacency == [_neighbors_oracle(q, d, v) for v in range(q ** d)]


def _cayley_oracle(q, d, conn, add):
    """Per-vertex loop: add each connection element coordinate by coordinate."""
    return [
        sorted(vertex_rank(q, [add(a, b) for a, b in zip(vertex_tuple(q, d, v), vertex_tuple(q, d, c))])
               for c in conn)
        for v in range(q ** d)
    ]


@pytest.mark.parametrize("p, b, d", [(2, 1, 5), (3, 1, 3), (5, 1, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_cayley_graph_matches_per_vertex_loop(p, b, d):
    gf = GF(p, b)
    n = gf.q ** d
    rng = random.Random(n)
    conn = set()
    for c in rng.sample(range(1, n), min(6, n - 1)):
        neg = vertex_rank(gf.q, [gf.neg(x) for x in vertex_tuple(gf.q, d, c)])
        conn |= {c, neg}
    g = cayley_graph(gf, d, sorted(conn))
    g.validate()
    assert g.adjacency == _cayley_oracle(gf.q, d, sorted(conn), gf.add)


# GF(q)^d, built on base p, and Z_q^d, built on base q; Z_4 is not GF(4)'s group and 6, 10 are no field orders
CAYLEY_GROUPS = [GF(2), GF(3), GF(5), GF(2, 2), GF(3, 2), GF(2, 3), 2, 4, 6, 10]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CAYLEY_GROUPS), st.data())
def test_cayley_builder_matches_per_vertex_loops(group, data):
    field = isinstance(group, GF)
    q = group.q if field else group
    add, neg = (group.add, group.neg) if field else ((lambda a, b: (a + b) % q), (lambda a: -a % q))
    d = data.draw(st.integers(1, max(k for k in range(1, 10) if q ** k <= 512)))
    n = q ** d
    drawn = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=6))
    conn = sorted({r for c in drawn for r in (c, vertex_rank(q, [neg(t) for t in vertex_tuple(q, d, c)]))})
    base, places = (group.p, d * group.b) if field else (q, d)
    want = _cayley_oracle(q, d, conn, add)
    for block in (1, 3, graphs.BLOCK):  # blocks that end inside the graph, or hold all of it
        with mock.patch.object(graphs, "BLOCK", block):
            assert graphs._cayley(base, places, conn, "X").adjacency == want
            if field:
                assert cayley_graph(group, d, conn).adjacency == want
            assert hamming_graph(q, d).adjacency == [_neighbors_oracle(q, d, v) for v in range(n)]


def test_folded_cube_is_flips_and_complement():
    assert folded_cube(2).adjacency == complete(2).adjacency == [[1], [0]]  # F(2) = K_2, not a multigraph
    for d in range(2, 13):
        n = 1 << (d - 1)
        g = folded_cube(d)
        assert g.name == f"F({d})"
        assert g.adjacency == [sorted({v ^ (1 << i) for i in range(d - 1)} | {v ^ (n - 1)}) for v in range(n)]


def test_folded_cube():
    f3 = folded_cube(3)
    assert f3.n == 4 and f3.is_regular() == 3
    assert f3.adjacency == complete(4).adjacency
    f5 = folded_cube(5)
    assert f5.n == 16 and f5.is_regular() == 5
    f5.validate()
    # antipodal edge: 0 is adjacent to the all-ones vertex
    assert 15 in f5.adjacency[0]


def test_cayley_validation():
    gf = GF(2)
    with pytest.raises(ValueError):
        cayley_graph(gf, 3, [])
    with pytest.raises(ValueError):
        cayley_graph(gf, 3, [0, 1])
    for d in (0, -1):  # q^d would be 1 or a fraction
        with pytest.raises(ValueError, match="^d must be at least 1$"):
            cayley_graph(gf, d, [1])
    gf3 = GF(3)
    with pytest.raises(ValueError):
        cayley_graph(gf3, 1, [1])  # -1 = 2 missing
    g = cayley_graph(gf3, 1, [1, 2])
    assert g.adjacency == [[1, 2], [0, 2], [0, 1]]


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        hamming_graph(2, 5, size_cap=16)
    with pytest.raises(SizeCapExceeded):
        folded_cube(8, size_cap=32)
    for make in (lambda cap: complete(5, size_cap=cap), lambda cap: cycle(5, size_cap=cap),
                 lambda cap: complete_bipartite(2, 3, size_cap=cap)):
        with pytest.raises(SizeCapExceeded):
            make(4)
        assert make(5).n == 5
    # at most ENTRY_FACTOR * size_cap adjacency entries: 64 per vertex of the cap, at the boundary
    assert graphs.ENTRY_FACTOR == 64
    for refused, admitted in [
        (lambda: complete(66, size_cap=66), lambda: complete(65, size_cap=65)),
        (lambda: complete_bipartite(65, 65, size_cap=130), lambda: complete_bipartite(64, 64, size_cap=128)),
        (lambda: hamming_graph(66, 1, size_cap=66), lambda: hamming_graph(65, 1, size_cap=65)),
        (lambda: hamming_graph(GF(67), 1, size_cap=67), lambda: hamming_graph(GF(61), 1, size_cap=61)),
        (lambda: cayley_graph(GF(2), 7, range(1, 128), size_cap=128),
         lambda: cayley_graph(GF(2), 7, range(1, 65), size_cap=128)),
    ]:
        with pytest.raises(SizeCapExceeded, match=r"^\d+ adjacency entries exceeds the cap of \d+$"):
            refused()
        admitted().validate()
    # cayley_graph checks the entries before it reads the connection elements (128 is out of range)
    with pytest.raises(SizeCapExceeded, match="^16384 adjacency entries exceeds the cap of 8192$"):
        cayley_graph(GF(2), 7, range(1, 129), size_cap=128)
    # at the default cap: before any array is allocated, or these would run out of memory
    for make, entries in [(lambda: complete(100_000), 100_000 * 99_999),
                          (lambda: complete_bipartite(10 ** 6, 10 ** 6), 2 * 10 ** 12),
                          (lambda: hamming_graph(37, 4), 37 ** 4 * 36 * 4),
                          (lambda: hamming_graph(127, 3), 127 ** 3 * 126 * 3)]:
        with pytest.raises(SizeCapExceeded, match=f"^{entries} adjacency entries exceeds the cap of {1 << 27}$"):
            make()


def test_closed_neighborhood_sum():
    c6 = cycle(6)
    vals = [1, 0, 0, 1, 0, 0]
    assert [closed_neighborhood_sum(c6, vals, v) for v in range(6)] == [1] * 6


def test_validate_rejects_broken_graphs():
    with pytest.raises(ValueError):
        Graph(2, [[1], []]).validate()  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [[0], [0]]).validate()  # loop
    with pytest.raises(ValueError):
        Graph(2, [[1, 1], [0]]).validate()  # repeats


def validate_lists(n, adjacency):
    """Graph.validate as it was on lists of lists: every row checked
    vertex by vertex, then every edge looked up in its reverse row."""
    if n < 1 or len(adjacency) != n:
        raise ValueError("adjacency length does not match vertex count")
    for v, nbrs in enumerate(adjacency):
        prev = -1
        for u in nbrs:
            if not 0 <= u < n:
                raise ValueError(f"neighbor {u} of {v} out of range")
            if u == v:
                raise ValueError(f"loop at vertex {v}")
            if u <= prev:
                raise ValueError(f"adjacency of {v} not sorted or has repeats")
            prev = u
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            row = adjacency[u]
            i = bisect_left(row, v)
            if not (i < len(row) and row[i] == v):
                raise ValueError(f"edge {v}-{u} not symmetric")


@st.composite
def adjacency_lists(draw):
    """Small adjacency lists, mostly from a simple graph with a few entries
    dropped, added, repeated or swapped, so that valid and invalid graphs
    both turn up."""
    n = draw(st.integers(1, 7))
    adj = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                adj[u].append(v)
                adj[v].append(u)
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.integers(0, n - 1))
        row = adj[v]
        edit = draw(st.sampled_from(["drop", "add", "repeat", "swap"]))
        if edit == "drop" and row:
            row.pop(draw(st.integers(0, len(row) - 1)))
        elif edit == "add":
            row.insert(draw(st.integers(0, len(row))), draw(st.integers(-1, n)))
        elif edit == "repeat" and row:
            row.append(row[-1])
        elif edit == "swap" and len(row) > 1:
            row[0], row[1] = row[1], row[0]
    return draw(st.sampled_from([n, n, n, n - 1, n + 1])), adj


def _outcome(check):
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(adjacency_lists())
def test_validate_matches_list_oracle(case):
    n, adj = case
    want = _outcome(lambda: validate_lists(n, adj))
    for block in (1, 2, 3, graphs.BLOCK):  # blocks of vertices that end inside the graph, or hold all of it
        with mock.patch.object(graphs, "BLOCK", block):
            assert _outcome(lambda: Graph(n, adj).validate()) == want


@settings(max_examples=100, deadline=None)
@given(adjacency_lists())
def test_edge_array_in_blocks_matches_rows(case):
    _, adj = case
    want = [[v, u] for v, row in enumerate(adj) for u in row if u > v]
    for block in (1, 2, 3, graphs.BLOCK):
        with mock.patch.object(graphs, "BLOCK", block):
            got = Graph(len(adj), adj).edge_array()
        assert got.dtype == np.int64 and got.shape == (len(want), 2) and got.tolist() == want


def test_graph_arrays_are_csr():
    h = hamming_graph(3, 2)
    assert h.indptr.tolist() == list(range(0, 37, 4))
    assert h.indices[:4].tolist() == [1, 2, 3, 6]
    assert h.edge_array().tolist() == [list(e) for e in h.edges()]
    with pytest.raises(ValueError):
        h.indices[0] = 5  # read-only, so the cached list view cannot go stale
    k23 = complete_bipartite(2, 3)
    assert k23.indptr.tolist() == [0, 3, 6, 8, 10, 12]
    assert Graph(3, [[], [], []]).is_regular() == 0
