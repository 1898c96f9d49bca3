"""Backtracking search tests, checked against a direct product-space oracle
and frozen counts on small graphs."""

from __future__ import annotations

import itertools

import pytest

from effdom.domination import verify_efficient
from effdom.graphs import (
    Graph,
    closed_neighborhood_sum,
    complete,
    complete_bipartite,
    cycle,
    hamming_graph,
)
from effdom.search import (
    NodeLimitExceeded,
    SearchConfig,
    enumerate_efficient,
    exists_efficient,
    k_spectrum,
)

# counts of efficient (j,k) functions, computed by scanning all (j+1)^n
# value vectors
C6_J1 = {0: 1, 1: 3, 2: 3, 3: 1}
C6_J2 = {0: 1, 1: 3, 2: 6, 3: 7, 4: 6, 5: 3, 6: 1}
Q3_J1 = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
K4_J1 = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
K4_J2 = {0: 1, 1: 4, 2: 10, 3: 16, 4: 19, 5: 16, 6: 10, 7: 4, 8: 1}
H32_J1 = {k: 0 for k in range(6)} | {0: 1, 5: 1}


def brute_force(x: Graph, j: int, k: int) -> list:
    out = []
    for vals in itertools.product(range(j + 1), repeat=x.n):
        if all(closed_neighborhood_sum(x, vals, v) == k for v in range(x.n)):
            out.append(vals)
    return sorted(out)


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
        for k in range(j * (max_deg + 1) + 1):
            outcome = enumerate_efficient(x, SearchConfig(j=j, k=k))
            assert outcome.exhausted
            got = [f.values for f in outcome.functions]
            assert got == brute_force(x, j, k), (x.name, j, k)


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
    with pytest.raises(ValueError):
        enumerate_efficient(x, SearchConfig(j=1, k=2, order=(0, 0, 1, 2, 3, 4)))


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


def test_search_deeper_than_recursion_limit():
    # one stack level per vertex: 2001 levels is past the default limit of 1000
    outcome = enumerate_efficient(cycle(2001), SearchConfig(j=1, k=1))
    assert outcome.exhausted and outcome.count == 3
    for f in outcome.functions:
        assert verify_efficient(cycle(2001), f).ok
