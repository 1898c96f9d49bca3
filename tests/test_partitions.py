"""Equitable and dominatable partition tests, plus cover certificates."""

from __future__ import annotations

from typing import Iterator, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom.domination import DominatingFunction, verify_efficient
from effdom.fields import GF
from effdom.graphs import Graph, SizeCapExceeded, adjacency_matrix, complete, cycle, hamming_graph
from effdom.hamming import build_plan
from effdom.jsonio import graph_from_doc
from effdom.linalg import char_poly
from effdom.partitions import (
    _cell_index,
    canonical_cells,
    cells_from_labels,
    characteristic_matrix,
    charpoly_divides_graph,
    dominatable_eigen_check,
    function_from_dominatable,
    is_dominatable,
    lift,
    push,
    translate_cover,
    verify_cover,
    verify_kcover,
)
from poly_oracle import poly_divides
from test_acceptance import criterion_7_corpus

C6_CELLS = [[0, 3], [1, 2, 4, 5]]
C6_BIPART = [[0, 2, 4], [1, 3, 5]]


def set_partitions(n: int) -> Iterator[List[List[int]]]:
    """All set partitions of range(n) via restricted growth strings."""
    labels = [0] * n

    def rec(i: int, used: int) -> Iterator[List[List[int]]]:
        if i == n:
            cells: List[List[int]] = [[] for _ in range(used)]
            for v, lab in enumerate(labels):
                cells[lab].append(v)
            yield cells
            return
        for lab in range(used + 1):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(0, 0)


def test_canonical_cells():
    assert canonical_cells([[5, 1], [3, 0], [2, 4]], 6) == ((0, 3), (1, 5), (2, 4))
    with pytest.raises(ValueError):
        canonical_cells([[0, 1]], 3)
    with pytest.raises(ValueError):
        canonical_cells([[0, 1], [1, 2]], 3)
    with pytest.raises(ValueError):
        canonical_cells([[0], [], [1, 2]], 3)
    with pytest.raises(ValueError):
        canonical_cells([[0, 3]], 3)


def test_cells_from_labels():
    assert cells_from_labels([7, 2, 7, 2]) == ((0, 2), (1, 3))


# The per-vertex cell bookkeeping the array code replaced, kept as its oracle.

def loop_canonical_cells(cells, n):
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


def loop_cells_from_labels(labels):
    groups: dict = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    return loop_canonical_cells(list(groups.values()), len(labels))


def loop_cell_index(cells, n):
    idx = [-1] * n
    for i, cell in enumerate(cells):
        for v in cell:
            idx[v] = i
    return idx


LABELS = st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 63, 2 ** 70, -2 ** 70]))
VERTICES = st.one_of(st.integers(-2, 9), st.sampled_from([2 ** 63, 2 ** 70, -2 ** 70]))


@st.composite
def cell_lists(draw):
    """A partition of 0..n-1 from random labels, with up to three edits: a
    cell emptied, added or merged into another, or a vertex added, moved or
    dropped; or else arbitrary lists of vertices."""
    n = draw(st.integers(0, 8))
    if draw(st.integers(0, 4)) == 0:
        return draw(st.lists(st.lists(VERTICES, max_size=4), max_size=5)), n
    cells = [list(c) for c in loop_cells_from_labels(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))]
    cells = draw(st.permutations(cells))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["empty", "new", "merge", "add", "move", "drop"]))
        i = draw(st.integers(0, len(cells)))
        if edit == "new" or not cells:
            cells.insert(i, [draw(VERTICES)] if edit != "empty" else [])
            continue
        i %= len(cells)
        if edit == "empty":
            cells[i] = []
        elif edit == "merge" and len(cells) > 1:
            cells[i - 1] += cells.pop(i)
        elif edit == "add":
            cells[i].insert(draw(st.integers(0, len(cells[i]))), draw(VERTICES))
        elif cells[i]:
            v = cells[i].pop(draw(st.integers(0, len(cells[i]) - 1)))
            if edit == "move":
                cells[draw(st.integers(0, len(cells) - 1))].append(v)
    return cells, n


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(cell_lists())
def test_canonical_cells_matches_loop(case):
    cells, n = case
    assert outcome(lambda: canonical_cells(cells, n)) == outcome(lambda: loop_canonical_cells(cells, n))


@settings(max_examples=200, deadline=None)
@given(st.lists(LABELS, max_size=12), st.booleans())
def test_cells_from_labels_matches_loop(labels, as_array):
    want = loop_cells_from_labels(labels)
    got = cells_from_labels(np.array(labels) if as_array else labels)
    assert got == want and all(type(v) is int for cell in got for v in cell)
    assert _cell_index(got, len(labels)).tolist() == loop_cell_index(want, len(labels))


def test_characteristic_matrix():
    assert characteristic_matrix(cycle(6), C6_CELLS) == [[0, 2], [1, 1]]
    assert characteristic_matrix(cycle(6), C6_BIPART) == [[0, 2], [2, 0]]
    assert characteristic_matrix(cycle(6), [[0, 1], [2, 3, 4, 5]]) is None
    # the whole vertex set is equitable on a regular graph
    assert characteristic_matrix(complete(4), [[0, 1, 2, 3]]) == [[3]]


def test_is_dominatable():
    assert is_dominatable(cycle(6), C6_CELLS) == [1, 2]
    assert is_dominatable(cycle(6), C6_BIPART) is None
    assert is_dominatable(complete(4), [[0, 1, 2, 3]]) == [4]
    assert is_dominatable(cycle(6), [[0, 1], [2, 3, 4, 5]]) is None
    q3 = hamming_graph(2, 3)
    evens = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    odds = [v for v in range(8) if bin(v).count("1") % 2 == 1]
    assert characteristic_matrix(q3, [evens, odds]) == [[0, 3], [3, 0]]
    assert is_dominatable(q3, [evens, odds]) is None


def test_function_from_dominatable():
    f = function_from_dominatable(cycle(6), C6_CELLS, [1, 0])
    assert f.values == (1, 0, 0, 1, 0, 0) and f.k == 1
    g = function_from_dominatable(cycle(6), C6_CELLS, [1, 2])
    assert g.values == (1, 2, 2, 1, 2, 2) and g.k == 5 and g.j == 2
    assert verify_efficient(cycle(6), g).ok
    with pytest.raises(ValueError):
        function_from_dominatable(cycle(6), C6_BIPART, [1, 0])
    with pytest.raises(ValueError):
        function_from_dominatable(cycle(6), C6_CELLS, [1])


def test_dominatable_eigen_check():
    assert dominatable_eigen_check([[0, 2], [1, 1]])
    assert not dominatable_eigen_check([[0, 2], [2, 0]])
    assert dominatable_eigen_check([[3]])
    assert not dominatable_eigen_check([[0, 3], [3, 0]])
    with pytest.raises(ValueError):
        dominatable_eigen_check([])
    with pytest.raises(ValueError):
        dominatable_eigen_check([[1, 2], [3, 1]])


def test_eigen_check_matches_column_test():
    """On every equitable partition of a few graphs, the spectral test and
    the direct column test agree."""
    for x in [cycle(6), complete(4), complete(5), hamming_graph(2, 3)]:
        agreements = 0
        for cells in set_partitions(x.n):
            b = characteristic_matrix(x, cells)
            if b is None:
                continue
            assert (is_dominatable(x, cells) is not None) == dominatable_eigen_check(b)
            agreements += 1
        assert agreements >= 3


def test_charpoly_divides_graph():
    assert charpoly_divides_graph(cycle(6), C6_CELLS)
    assert charpoly_divides_graph(cycle(6), C6_BIPART)
    q3 = hamming_graph(2, 3)
    evens = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    assert charpoly_divides_graph(q3, [evens, [v for v in range(8) if v not in evens]])
    with pytest.raises(ValueError):
        charpoly_divides_graph(cycle(6), [[0, 1], [2, 3, 4, 5]])


def _computed_division(x: Graph, cells) -> bool:
    """The oracle: the division that charpoly_divides_graph proves, computed
    from both characteristic polynomials."""
    return poly_divides(char_poly(characteristic_matrix(x, cells)), char_poly(adjacency_matrix(x)))


def _parity_cells(d: int) -> List[List[int]]:
    parity = [bin(v).count("1") % 2 for v in range(1 << d)]
    return [[v for v in range(1 << d) if parity[v] == side] for side in (0, 1)]


def test_charpoly_divides_graph_on_criterion_7_matches_the_computed_division():
    for x, cells, _ in criterion_7_corpus():
        assert charpoly_divides_graph(x, cells) is True and _computed_division(x, cells), x.name


def test_charpoly_divides_graph_past_the_characteristic_polynomial_cap():
    # n = 1024 is past linalg.CHAR_POLY_CAP; the proof needs no n x n polynomial
    assert charpoly_divides_graph(hamming_graph(2, 10), _parity_cells(10)) is True


def _fibre_cells(gf: GF, d: int) -> List[List[int]]:
    return [list(c) for c in cells_from_labels(build_plan(gf, d).all_labels())]


def _coset_cells(d: int, gens: List[int]) -> List[List[int]]:
    """Orbits of the translations by the span of gens on H(2,d)."""
    span = {0}
    for g in gens:
        span |= {w ^ g for w in span}
    return [list(c) for c in cells_from_labels([min(v ^ w for w in span) for v in range(1 << d)])]


@st.composite
def equitable_partitions(draw):
    """An equitable partition with n <= 128, as fibre, weight-parity,
    weight or orbit cells, under a random relabelling."""
    kind = draw(st.sampled_from(["fibre", "parity", "weight", "cosets", "rotations"]))
    if kind == "fibre":
        gf, d = draw(st.sampled_from([(GF(2), 3), (GF(2), 5), (GF(2), 7), (GF(3), 4), (GF(2, 2), 1), (GF(5), 1)]))
        x, cells = hamming_graph(gf.q, d), _fibre_cells(gf, d)
    elif kind == "parity":
        d = draw(st.integers(1, 7))
        x, cells = hamming_graph(2, d), _parity_cells(d)
    elif kind == "weight":
        q, d = draw(st.sampled_from([(2, 5), (2, 7), (3, 3), (3, 4), (4, 3), (5, 3)]))
        x = hamming_graph(q, d)
        weight = np.zeros(x.n, dtype=np.int64)
        for i in range(d):
            weight += np.arange(x.n) // q ** i % q != 0
        cells = [list(c) for c in cells_from_labels(weight)]
    elif kind == "cosets":
        d = draw(st.integers(2, 7))
        x, cells = hamming_graph(2, d), _coset_cells(d, draw(st.lists(st.integers(1, (1 << d) - 1), max_size=3)))
    else:
        n = draw(st.integers(3, 128))
        g = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        x, cells = cycle(n), [list(range(i, n, g)) for i in range(g)]
    perm = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(x.n)
    edges = np.sort(perm[np.array(x.edges(), dtype=np.int64).reshape(-1, 2)], axis=1)
    relabelled = graph_from_doc({"v": 1, "name": x.name, "n": x.n, "edges": edges})
    return relabelled, [perm[c].tolist() for c in cells]


@given(equitable_partitions())
@settings(max_examples=40, deadline=None)
def test_charpoly_divides_graph_matches_the_computed_division(case):
    x, cells = case
    assert characteristic_matrix(x, cells) is not None
    assert charpoly_divides_graph(x, cells) is True and _computed_division(x, cells)


def test_verify_cover_c6_over_k3():
    c6 = cycle(6)
    cells = [[0, 3], [1, 4], [2, 5]]
    cert = verify_cover(c6, cells, complete(3))
    assert cert is not None
    assert cert.fold == 2 and cert.base_size == 3 and cert.kind == "cover"
    assert cert.fibre_map == (0, 1, 2, 0, 1, 2)
    # wrong base: C6 does not cover K4-shaped anything with these cells
    assert verify_cover(c6, [[0, 1], [2, 3], [4, 5]], complete(3)) is None
    # unequal fibres
    assert verify_cover(c6, [[0, 3], [1, 2, 4, 5]], complete(2)) is None


def test_verify_kcover():
    k4 = complete(4)
    cells = [[0, 1], [2, 3]]
    cert = verify_kcover(k4, cells, complete(2), 2)
    assert cert is not None and cert.kind == "m-cover" and cert.fold == 2
    assert verify_kcover(k4, cells, complete(2), 1) is None
    k6 = complete(6)
    cert2 = verify_kcover(k6, [[0, 1, 2], [3, 4, 5]], complete(2), 3)
    assert cert2 is not None and cert2.fold == 3
    assert verify_kcover(cycle(6), [[0, 1, 2], [3, 4, 5]], complete(2), 2) is None
    with pytest.raises(ValueError):
        verify_kcover(k4, cells, complete(2), 0)
    # k = 1 delegates to the plain cover check
    c6 = cycle(6)
    cert3 = verify_kcover(c6, [[0, 3], [1, 4], [2, 5]], complete(3), 1)
    assert cert3 is not None and cert3.kind == "cover"
    # a k past every degree fails on the row lengths, before any k-fold multiset is built
    assert verify_kcover(c6, [[0, 3], [1, 4], [2, 5]], complete(3), 10 ** 16) is None


def test_lift_and_push():
    c6 = cycle(6)
    cert = verify_cover(c6, [[0, 3], [1, 4], [2, 5]], complete(3))
    assert cert is not None
    base_f = DominatingFunction((1, 0, 0), j=1, k=1)
    lifted = lift(base_f, cert)
    assert lifted.values == (1, 0, 0, 1, 0, 0)
    assert verify_efficient(c6, lifted).ok
    assert push(lifted, cert) == base_f
    assert push(DominatingFunction((1, 0, 0, 0, 0, 0), j=1, k=1), cert) is None
    with pytest.raises(ValueError):
        lift(DominatingFunction((1, 0), j=1, k=1), cert)


def test_translate_cover_cube():
    gf = GF(2)
    cells, cert = translate_cover(gf, 3, [1, 2, 4], [0, 7])
    assert cert.base_size == 4 and cert.fold == 2
    assert cells == ((0, 7), (1, 6), (2, 5), (3, 4))
    with pytest.raises(ValueError):
        translate_cover(gf, 3, [1, 2, 4], [0, 1])
    assert translate_cover(gf, 3, [1, 2, 4], [0, 7], size_cap=8) == (cells, cert)
    with pytest.raises(SizeCapExceeded, match="8 vertices exceeds the cap of 7"):
        translate_cover(gf, 3, [1, 2, 4], [0, 7], size_cap=7)


def test_kcover_fibres_are_dominatable():
    """Fibres of an m-cover of a complete graph form a dominatable partition
    with every cell weight equal to m."""
    k4 = complete(4)
    cells = canonical_cells([[0, 1], [2, 3]], 4)
    assert verify_kcover(k4, cells, complete(2), 2) is not None
    assert is_dominatable(k4, cells) == [2, 2]
    f = function_from_dominatable(k4, cells, [1, 0])
    assert f.values == (1, 1, 0, 0) and f.k == 2
    assert verify_efficient(k4, f).ok
