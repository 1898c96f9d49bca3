"""Differential tests for the two closed-neighbourhood kernels in graphs.py.

Every partition, cover and closed-sum answer is compared with an oracle
written here: count each vertex's neighbours per cell, or add up its
closed neighbourhood, straight from the edge list.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom.domination import two_cell_partition_check
from effdom.graphs import (
    Graph,
    closed_neighborhood_sum,
    closed_sums,
    complete,
    complete_bipartite,
    cycle,
    equitable_quotient,
    folded_cube,
    hamming_graph,
)
from effdom.partitions import characteristic_matrix, is_dominatable, verify_cover, verify_kcover


def make_graph(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, [sorted(row) for row in adj])


def canonical(labels):
    groups = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    return sorted(groups.values())


def oracle_matrix(n, edges, cells):
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    counts = [[0] * len(cells) for _ in range(n)]
    for u, v in edges:
        counts[u][cell_of[v]] += 1
        counts[v][cell_of[u]] += 1
    rows = [counts[cell[0]] for cell in cells]
    if any(counts[v] != rows[i] for i, cell in enumerate(cells) for v in cell):
        return None
    return rows


def oracle_weights(b):
    weights = [b[l][l] + 1 for l in range(len(b))]
    ok = all(b[i][l] == weights[l] for l in range(len(b)) for i in range(len(b)) if i != l)
    return weights if ok else None


def oracle_kcover(b, cells, base_edges, k):
    if b is None or (k == 1 and len({len(c) for c in cells}) != 1):
        return False
    s = len(cells)
    return all(
        b[i][j] == (k - 1 if i == j else k if (min(i, j), max(i, j)) in base_edges else 0)
        for i in range(s) for j in range(s)
    )


def check_partition(n, edges, cells, base_edges):
    """Every partition kernel caller against the oracle on one instance."""
    x = make_graph(n, edges)
    b = oracle_matrix(n, edges, cells)
    assert characteristic_matrix(x, cells) == b
    assert is_dominatable(x, cells) == (oracle_weights(b) if b is not None else None)
    y = make_graph(len(cells), base_edges)
    cell_of = tuple(i for v in range(n) for i, cell in enumerate(cells) if v in cell)
    for k, cert in ((1, verify_cover(x, cells, y)),
                    (2, verify_kcover(x, cells, y, 2)),
                    (3, verify_kcover(x, cells, y, 3))):
        assert (cert is not None) == oracle_kcover(b, cells, set(base_edges), k)
        if cert is not None:
            assert cert.fibre_map == cell_of
    return b


@st.composite
def random_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, k in zip(pairs, keep) if k]


@st.composite
def random_bases(draw, s):
    pairs = [(i, j) for i in range(s) for j in range(i + 1, s)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [p for p, k in zip(pairs, keep) if k]


@settings(max_examples=300, deadline=None)
@given(random_graphs(), st.data())
def test_random_partitions_match_oracle(graph, data):
    n, edges = graph
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = canonical(labels)
    b = oracle_matrix(n, edges, cells)
    if b is not None and data.draw(st.booleans()):
        # the base the quotient points at, so that covers turn up too
        base = [(i, j) for i in range(len(cells)) for j in range(i + 1, len(cells)) if b[i][j]]
    else:
        base = data.draw(random_bases(len(cells)))
    check_partition(n, edges, cells, base)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 2), (2, 4), (3, 3)]),
       st.integers(1, 5), st.data())
def test_random_kcovers_match_oracle(kt, s, data):
    """Random k-fold lifts of a random base, relabelled, plus one swap."""
    k, t = kt
    s = min(s, 10 // t)
    base = data.draw(random_bases(s))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    edges = set()
    for i in range(s):
        for a in range(t):
            # (k-1)-regular fibre: nothing, a perfect matching, or a cycle
            if k == 2:
                edges.add((i * t + a, i * t + (a ^ 1)))
            elif k == 3:
                edges.add((i * t + a, i * t + (a + 1) % t))
    for i, j in base:
        shift = rng.randrange(t)
        for a in range(t):
            for c in range(k):
                edges.add((i * t + a, j * t + (a + shift + c) % t))
    perm = list(range(s * t))
    rng.shuffle(perm)
    edges = sorted({tuple(sorted((perm[u], perm[v]))) for u, v in edges})
    labels = [0] * (s * t)
    for v in range(s * t):
        labels[perm[v]] = v // t
    swap = data.draw(st.booleans())
    if swap:
        u, v = rng.randrange(s * t), rng.randrange(s * t)
        labels[u], labels[v] = labels[v], labels[u]
    cells = canonical(labels)
    index = {labels[cell[0]]: i for i, cell in enumerate(cells)}
    base = sorted(tuple(sorted((index[i], index[j]))) for i, j in base)
    b = check_partition(s * t, edges, cells, base)
    assert swap or oracle_kcover(b, cells, set(base), k)


REGULAR = [cycle(n) for n in range(3, 11)] + [
    complete(4), complete(6), complete_bipartite(3, 3), complete_bipartite(4, 4),
    hamming_graph(2, 3), hamming_graph(3, 2), folded_cube(5),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REGULAR), st.data())
def test_two_cell_check_matches_oracle(x, data):
    r = x.regular_degree()
    k = data.draw(st.integers(1, r))
    support = set(data.draw(st.lists(st.integers(0, x.n - 1), max_size=x.n)))
    inside = [sum(1 for u in x.adjacency[v] if u in support) for v in range(x.n)]
    expected = 0 < len(support) < x.n and all(
        inside[v] == (k - 1 if v in support else k) for v in range(x.n)
    )
    assert two_cell_partition_check(x, support, k) == expected


@settings(max_examples=300, deadline=None)
@given(random_graphs(), st.data())
def test_closed_sums_match_oracle(graph, data):
    n, edges = graph
    values = data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n))
    expected = list(values)
    for u, v in edges:
        expected[u] += values[v]
        expected[v] += values[u]
    x = make_graph(n, edges)
    assert closed_sums(x, values).tolist() == expected
    assert closed_sums(x, tuple(values)).tolist() == expected
    assert [closed_neighborhood_sum(x, values, v) for v in range(n)] == expected


def closed_sums_loop(x, values):
    """closed_sums as it was: a Python-int loop over the adjacency lists."""
    sums = []
    for v, nbrs in enumerate(x.adjacency):
        s = values[v]
        for u in nbrs:
            s += values[u]
        sums.append(s)
    return sums


@pytest.mark.parametrize("x", [cycle(5), complete(4), hamming_graph(2, 3), complete_bipartite(2, 3)])
def test_closed_sums_at_the_int64_boundary(x):
    # int64 while max|f| (r + 1) < 2^63, Python ints from there on; on the
    # regular graphs the sums of m = top fit in int64 and those of top + 1 do not
    terms = max(x.degree(v) for v in range(x.n)) + 1
    top = (2 ** 63 - 1) // terms
    for m, dtype in ((top, np.int64), (top + 1, object)):
        for values in ([m] * x.n, [-m] * x.n, [m - v % 2 for v in range(x.n)]):
            sums = closed_sums(x, values)
            assert sums.dtype == dtype
            assert sums.tolist() == closed_sums_loop(x, values)
    values = [2 ** 63 - 1] + [0] * (x.n - 1)
    assert closed_sums(x, values).tolist() == closed_sums_loop(x, values)


def equitable_loop(x, labels):
    """equitable_quotient as it was: one sorted row per vertex, compared
    with the first row of its label."""
    rows = {}
    for v, nbrs in enumerate(x.adjacency):
        row = sorted([labels[u] for u in nbrs])
        if rows.setdefault(labels[v], row) != row:
            return None
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_graphs(), st.sampled_from(REGULAR).map(lambda x: (x.n, x.edges()))), st.data())
def test_equitable_quotient_matches_loop(graph, data):
    n, edges = graph
    x = make_graph(n, edges)
    labels = data.draw(st.one_of(
        st.lists(st.sampled_from([-2 ** 40, -1, 0, 1, 5]), min_size=n, max_size=n),
        st.sampled_from([[0] * n, [v % 2 for v in range(n)], [v // 2 for v in range(n)]]),
    ))
    assert equitable_quotient(x, labels) == equitable_loop(x, labels)
