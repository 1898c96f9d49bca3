"""Search tests, checked against a direct product-space oracle, against the
one-node-at-a-time preorder search (tests/search_oracle.py), against closed
forms past int64, and frozen counts on small graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom import search
from effdom.domination import verify_efficient
from effdom.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    hamming_graph,
)
from effdom.jsonio import graph_from_doc
from effdom.search import (
    NodeLimitExceeded,
    SearchConfig,
    enumerate_efficient,
    exists_efficient,
    k_spectrum,
)
from search_oracle import preorder

# counts of efficient (j,k) functions, computed by scanning all (j+1)^n
# value vectors
C6_J1 = {0: 1, 1: 3, 2: 3, 3: 1}
C6_J2 = {0: 1, 1: 3, 2: 6, 3: 7, 4: 6, 5: 3, 6: 1}
Q3_J1 = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
K4_J1 = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
K4_J2 = {0: 1, 1: 4, 2: 10, 3: 16, 4: 19, 5: 16, 6: 10, 7: 4, 8: 1}
H32_J1 = {k: 0 for k in range(6)} | {0: 1, 5: 1}


def brute_force(x: Graph, j: int) -> dict:
    """{k: sorted value vectors of the efficient (j,k) functions}, by scanning
    all (j+1)^n value vectors, the vertex-0 digit most significant."""
    index = np.arange((j + 1) ** x.n, dtype=np.int32)
    digits = [(index // (j + 1) ** (x.n - 1 - v) % (j + 1)).astype(np.int8) for v in range(x.n)]
    sums = [digits[v] + sum(digits[w] for w in x.adjacency[v]) for v in range(x.n)]
    efficient = np.logical_and.reduce([s == sums[0] for s in sums])
    out: dict = {}
    for i in np.flatnonzero(efficient):
        out.setdefault(int(sums[0][i]), []).append(tuple(int(d[i]) for d in digits))
    return out


def test_enumerate_c6_k1():
    outcome = enumerate_efficient(cycle(6), SearchConfig(j=1, k=1))
    assert outcome.exhausted and outcome.count == 3
    assert [f.values for f in outcome.functions] == [
        (0, 0, 1, 0, 0, 1),
        (0, 1, 0, 0, 1, 0),
        (1, 0, 0, 1, 0, 0),
    ]


def test_search_matches_product_oracle():
    cases = [
        (cycle(5), 1),
        (cycle(5), 2),
        (cycle(6), 1),
        (complete(4), 2),
        (complete_bipartite(2, 3), 2),
        (hamming_graph(2, 3), 1),
    ]
    for x, j in cases:
        max_deg = max(x.degree(v) for v in range(x.n))
        oracle = brute_force(x, j)
        for k in range(j * (max_deg + 1) + 1):
            outcome = enumerate_efficient(x, SearchConfig(j=j, k=k))
            assert outcome.exhausted
            got = [f.values for f in outcome.functions]
            assert got == oracle.get(k, []), (x.name, j, k)


def test_k_spectrum_frozen_counts():
    assert k_spectrum(cycle(6), 1) == C6_J1
    assert k_spectrum(cycle(6), 2) == C6_J2
    assert k_spectrum(hamming_graph(2, 3), 1) == Q3_J1
    assert k_spectrum(complete(4), 1) == K4_J1
    assert k_spectrum(complete(4), 2) == K4_J2
    assert k_spectrum(hamming_graph(3, 2), 1) == H32_J1


def test_k_spectrum_duality():
    for x, j in [(cycle(6), 1), (cycle(6), 2), (complete(4), 2), (hamming_graph(2, 3), 1)]:
        counts = k_spectrum(x, j)
        top = j * (x.regular_degree() + 1)
        assert set(counts) == set(range(top + 1))
        for k in range(top + 1):
            assert counts[k] == counts[top - k]


def test_k_spectrum_requires_regular():
    with pytest.raises(ValueError):
        k_spectrum(complete_bipartite(2, 3), 1)


def test_exists_efficient():
    found, witness = exists_efficient(cycle(6), SearchConfig(j=1, k=1))
    assert found and witness is not None
    assert verify_efficient(cycle(6), witness).ok
    found2, witness2 = exists_efficient(cycle(5), SearchConfig(j=1, k=1))
    assert not found2 and witness2 is None


def test_node_limit():
    outcome = enumerate_efficient(hamming_graph(2, 3), SearchConfig(j=1, k=1, node_limit=5))
    assert not outcome.exhausted and outcome.diagnostic
    with pytest.raises(NodeLimitExceeded):
        exists_efficient(hamming_graph(2, 3), SearchConfig(j=1, k=1, node_limit=5))
    with pytest.raises(NodeLimitExceeded):
        k_spectrum(hamming_graph(2, 3), 1, node_limit=5)


def test_custom_order():
    x = cycle(6)
    default = enumerate_efficient(x, SearchConfig(j=1, k=2))
    rev = enumerate_efficient(x, SearchConfig(j=1, k=2, order=tuple(range(5, -1, -1))))
    assert [f.values for f in default.functions] == [f.values for f in rev.functions]
    for bad in [(0, 0, 1, 2, 3, 4), (0.0, 1, 2, 3, 4, 5), (False, True, 2, 3, 4, 5)]:
        with pytest.raises(ValueError, match="order must be a permutation"):
            enumerate_efficient(x, SearchConfig(j=1, k=2, order=bad))


def test_disconnected_graph():
    two_triangles = Graph(6, [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]])
    outcome = enumerate_efficient(two_triangles, SearchConfig(j=1, k=1))
    assert outcome.exhausted and outcome.count == 9
    for f in outcome.functions:
        assert verify_efficient(two_triangles, f).ok


def test_invalid_config():
    with pytest.raises(ValueError):
        enumerate_efficient(cycle(6), SearchConfig(j=-1, k=1))
    with pytest.raises(ValueError):
        enumerate_efficient(cycle(6), SearchConfig(j=1, k=-1))
    with pytest.raises(ValueError, match="^j must be nonnegative$"):
        k_spectrum(cycle(6), -1)  # not an empty spectrum


def test_search_deeper_than_recursion_limit():
    # one stack level per vertex: 2001 levels is past the default limit of 1000
    outcome = enumerate_efficient(cycle(2001), SearchConfig(j=1, k=1))
    assert outcome.exhausted and outcome.count == 3
    for f in outcome.functions:
        assert verify_efficient(cycle(2001), f).ok


def test_complement_duality_mirrors_node_counts():
    # f -> j - f maps efficient (j,k) functions to efficient (j, j(r+1)-k)
    # ones and mirrors the search tree, so k_spectrum searches half the ks
    graphs = [cycle(5), cycle(6), cycle(7), complete(4), hamming_graph(2, 3),
              hamming_graph(3, 2), hamming_graph(2, 4), complete_bipartite(3, 3)]
    for x in graphs:
        for j in (1, 2, 3):
            top = j * (x.regular_degree() + 1)
            runs = [enumerate_efficient(x, SearchConfig(j=j, k=k)) for k in range(top + 1)]
            for k, run in enumerate(runs):
                assert (run.nodes, run.count) == (runs[top - k].nodes, runs[top - k].count), (x.name, j, k)
            assert k_spectrum(x, j) == {k: run.count for k, run in enumerate(runs)}


def test_k_spectrum_limit_names_first_k():
    x, j = hamming_graph(2, 3), 2
    nodes = [enumerate_efficient(x, SearchConfig(j=j, k=k)).nodes for k in range(9)]
    for limit in sorted(set(nodes)):
        failing = [k for k, total in enumerate(nodes) if total > limit]
        if not failing:
            assert k_spectrum(x, j, node_limit=limit) == k_spectrum(x, j)
            continue
        with pytest.raises(NodeLimitExceeded, match=f"^k = {failing[0]}: node limit {limit} reached$"):
            k_spectrum(x, j, node_limit=limit)


def test_values_above_k_are_counted_not_generated():
    # j >= k leaves the same states as j = k, each trying j + 1 values
    x = cycle(6)
    small = enumerate_efficient(x, SearchConfig(j=3, k=3))
    huge = enumerate_efficient(x, SearchConfig(j=10 ** 21, k=3, node_limit=10 ** 30))
    assert huge.exhausted and [f.values for f in huge.functions] == [f.values for f in small.functions]
    assert huge.nodes == small.nodes // 4 * (10 ** 21 + 1)


def test_sums_beyond_int64():
    big = 2 ** 70
    outcome = enumerate_efficient(Graph(3, [[], [], []]), SearchConfig(j=big, k=big, node_limit=2 ** 80))
    assert [f.values for f in outcome.functions] == [(big, big, big)]
    assert outcome.exhausted and outcome.nodes == 3 * (big + 1)
    outcome = enumerate_efficient(complete(2), SearchConfig(j=1, k=big))
    assert (outcome.count, outcome.nodes, outcome.exhausted) == (0, 2, True)


def test_dtype_boundaries():
    # K2: f(0) + f(1) = k, so k + 1 functions, k + 1 states at depth 1
    for k in (126, 127, 128, 32766, 32767, 32768):
        outcome = enumerate_efficient(complete(2), SearchConfig(j=k, k=k, node_limit=10 ** 12))
        assert [f.values for f in outcome.functions] == [(a, k - a) for a in range(k + 1)]
        assert outcome.nodes == (k + 1) * (k + 2)
        if k < 1000:
            want = preorder(complete(2), (0, 1), k, k, 10 ** 12, False)
            assert want.nodes == outcome.nodes and want.count == outcome.count


def test_take_sums_no_count_past_the_chunk():
    # counts near 2^62 after a small one would overflow an int64 running sum
    k = 2 ** 62
    states = np.array([[0, k - 2], [0, 0], [0, 0], [0, 0]], dtype=np.int64)
    no_columns = np.zeros(0, dtype=np.intp)
    level = search._Level(cols=np.array([1]), need=np.zeros(1, dtype=np.int64), dst=no_columns, src=no_columns)
    frame = search._Frame(states, None, None, level, k, k)
    assert frame.count.tolist() == [3, k + 1, k + 1, k + 1]
    rows, vals, _ = frame.take(8, k)
    assert rows.tolist() == [0, 0, 0] and vals.tolist() == [0, 1, 2]


@st.composite
def search_cases(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [[] for _ in range(n)]
    for (u, v), kept in zip(pairs, keep):
        if kept:
            adj[u].append(v)
            adj[v].append(u)
    order = tuple(draw(st.permutations(range(n))))
    return Graph(n, adj), draw(st.integers(1, 3)), order


def tally(outcome):
    return outcome.count, outcome.nodes, outcome.exhausted, outcome.diagnostic


def facts(outcome):
    return tally(outcome) + (sorted(f.values for f in outcome.functions),)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(search_cases(), st.sampled_from([1, 40, search.CHUNK_BYTES]), st.data())
def test_batched_walk_matches_preorder_and_product_space(case, chunk_bytes, data):
    # chunk_bytes 1 takes one child at a time, so every interval is split
    x, j, order = case
    oracle = brute_force(x, j)
    saved, search.CHUNK_BYTES = search.CHUNK_BYTES, chunk_bytes
    try:
        for k in range(j * (max(map(len, x.adjacency)) + 1) + 2):
            total = preorder(x, order, j, k, 10 ** 9, False)
            assert total.exhausted and facts(total)[4] == oracle.get(k, [])
            for limit in {total.nodes, total.nodes - 1, -1, data.draw(st.integers(0, total.nodes))}:
                want = preorder(x, order, j, k, limit, False)
                cfg = SearchConfig(j=j, k=k, node_limit=limit, order=order)
                assert facts(enumerate_efficient(x, cfg)) == facts(want)
                assert facts(search._batched(x, order, j, k, limit, False)) == facts(want)
                counted = search._batched(x, order, j, k, limit, False, count_only=True)
                assert tally(counted) == tally(preorder(x, order, j, k, limit, False, count_only=True))
                first = preorder(x, order, j, k, limit, True)
                # below the limit a first_only walk counts whole chunks
                # before its leaf, so its nodes may run past the preorder's
                batched = search._batched(x, order, j, k, limit, True)
                assert facts(batched)[:1] + facts(batched)[2:] == facts(first)[:1] + facts(first)[2:]
                assert batched.nodes == first.nodes or first.nodes <= batched.nodes <= limit
                if first.functions:
                    assert exists_efficient(x, cfg) == (True, first.functions[0])
                elif first.exhausted:
                    assert exists_efficient(x, cfg) == (False, None)
                else:
                    with pytest.raises(NodeLimitExceeded):
                        exists_efficient(x, cfg)
    finally:
        search.CHUNK_BYTES = saved


@settings(max_examples=25, deadline=None)
@given(search_cases(), st.sampled_from([1, 40, search.CHUNK_BYTES]), st.data())
def test_leaf_array_and_count_only_match_the_listing(case, chunk_bytes, data):
    x, j, order = case
    saved, search.CHUNK_BYTES = search.CHUNK_BYTES, chunk_bytes
    try:
        for k in range(j * (max(map(len, x.adjacency)) + 1) + 2):
            total = enumerate_efficient(x, SearchConfig(j=j, k=k, order=order)).nodes
            for limit in {total, total - 1, data.draw(st.integers(0, total))}:
                cfg = SearchConfig(j=j, k=k, node_limit=limit, order=order)
                listed = enumerate_efficient(x, cfg)
                rows = listed.values.tolist()
                assert listed.values.shape == (listed.count, x.n)
                assert rows == [list(f.values) for f in listed.functions] == sorted(rows)
                counted = enumerate_efficient(x, cfg, count_only=True)
                assert counted.values is None and tally(counted) == tally(listed)
                # a first_only walk stops at its first leaf within the limit
                first = search._batched(x, order, j, k, limit, True)
                assert first.count == min(listed.count, 1)
                with pytest.raises(ValueError, match="count-only"):
                    counted.functions
    finally:
        search.CHUNK_BYTES = saved


def test_count_only_beyond_int64_and_at_dtype_boundaries():
    big = 2 ** 70
    outcome = enumerate_efficient(Graph(3, [[], [], []]), SearchConfig(j=big, k=big, node_limit=2 ** 80),
                                  count_only=True)
    assert (outcome.count, outcome.nodes, outcome.exhausted, outcome.values) == (1, 3 * (big + 1), True, None)
    for k in (126, 127, 128, 32767):
        outcome = enumerate_efficient(complete(2), SearchConfig(j=k, k=k, node_limit=10 ** 12), count_only=True)
        assert (outcome.count, outcome.nodes) == (k + 1, (k + 1) * (k + 2))
    outcome = enumerate_efficient(Graph(0, []), SearchConfig(j=1, k=1), count_only=True)
    assert (outcome.count, outcome.values) == (1, None)
    assert enumerate_efficient(Graph(0, []), SearchConfig(j=1, k=1)).values.shape == (1, 0)


def test_node_limit_past_int64():
    # K2 with j = k: the leaf f(0) = a is made by node (k+1)(a+1) + 1 in
    # preorder, after the k + 1 values of vertex 0 and the k + 1 values of
    # vertex 1 below each of f(0) = 0 .. a - 1
    k = 2 ** 70
    for a in (0, 1, 5):
        for limit in ((k + 1) * (a + 1), (k + 1) * (a + 1) + 1):
            cfg = SearchConfig(j=k, k=k, node_limit=limit)
            outcome = enumerate_efficient(complete(2), cfg)
            want = a + (limit % (k + 1))
            assert [f.values for f in outcome.functions] == [(b, k - b) for b in range(want)]
            assert (outcome.nodes, outcome.exhausted) == (limit + 1, False)
            assert tally(enumerate_efficient(complete(2), cfg, count_only=True)) == tally(outcome)
    found, witness = exists_efficient(complete(2), SearchConfig(j=k, k=k, node_limit=k + 2))
    assert found and witness.values == (0, k)
    with pytest.raises(NodeLimitExceeded):
        exists_efficient(complete(2), SearchConfig(j=k, k=k, node_limit=k + 1))
    # three isolated vertices: one leaf, made by the last of the 3(k+1) nodes
    total = 3 * (k + 1)
    for limit, count, exhausted in [(total - 1, 0, False), (total, 1, True)]:
        outcome = enumerate_efficient(Graph(3, [[], [], []]), SearchConfig(j=k, k=k, node_limit=limit))
        assert (outcome.count, outcome.nodes, outcome.exhausted) == (count, total, exhausted)


def test_node_limit_on_a_large_tree():
    # the default limit cuts this search at 100,000,001 nodes; 2·10^6 cuts
    # it where preorder has found 5,001 functions
    cfg = SearchConfig(j=1, k=4, node_limit=2 * 10 ** 6)
    outcome = enumerate_efficient(hamming_graph(2, 7), cfg, count_only=True)
    assert tally(outcome) == (5001, 2 * 10 ** 6 + 1, False, "node limit 2000000 reached")


def test_first_leaf_within_the_limit():
    # relabelled H(3,4), j = 1, k = 3: preorder reaches its first function at
    # node 1,222, long before a walk of whole chunks would
    g = hamming_graph(3, 4)
    perm = np.random.default_rng(0).permutation(g.n)
    x = graph_from_doc({"v": 1, "name": g.name, "n": g.n, "edges": np.sort(perm[g.edge_array()], axis=1)})
    want = preorder(x, search._bfs_order(x), 1, 3, 2000, True)
    assert (want.count, want.nodes) == (1, 1222)
    assert exists_efficient(x, SearchConfig(j=1, k=3, node_limit=2000)) == (True, want.functions[0])
