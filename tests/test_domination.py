"""Verifier tests against hand-checked functions on small graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdom.domination import (
    DominatingFunction,
    complement_dual,
    divisibility_feasible,
    two_cell_partition_check,
    value_bound_holds,
    verify_dominating,
    verify_efficient,
)
from effdom.graphs import complete, complete_bipartite, cycle, hamming_graph

# every third vertex of a hexagon covers each closed neighborhood once
C6_F = DominatingFunction(values=(1, 0, 0, 1, 0, 0), j=1, k=1)
# weighted example on K(2,3): doubled left side, unit right side
K23_F = DominatingFunction(values=(2, 2, 1, 1, 1), j=2, k=5)

small_regular_graphs = st.sampled_from(
    [cycle(6), cycle(5), complete(4), hamming_graph(2, 3)]
)


def test_c6_example():
    rep = verify_efficient(cycle(6), C6_F)
    assert rep.ok and rep.observed_k == 1 and rep.violations == ()
    assert rep.j_tight


def test_k23_example():
    rep = verify_efficient(complete_bipartite(2, 3), K23_F)
    assert rep.ok and rep.observed_k == 5
    assert rep.j_tight


def test_perturbation_breaks_efficiency():
    for f, x in [(C6_F, cycle(6)), (K23_F, complete_bipartite(2, 3))]:
        for v in range(x.n):
            for new in range(f.j + 1):
                if new == f.values[v]:
                    continue
                vals = list(f.values)
                vals[v] = new
                rep = verify_efficient(x, DominatingFunction(tuple(vals), f.j, f.k))
                assert not rep.ok
                assert rep.observed_k is None
                assert rep.violations


def test_violation_sums_reported():
    rep = verify_efficient(cycle(6), DominatingFunction((1, 1, 0, 1, 0, 0), j=1, k=1))
    bad = dict(rep.violations)
    assert bad[0] == 2 and bad[1] == 2 and bad[2] == 2
    assert 3 not in bad


def test_dominating_vs_efficient():
    x = complete(4)
    f = DominatingFunction((1, 1, 0, 0), j=1, k=1)
    assert not verify_efficient(x, f).ok
    assert verify_dominating(x, f).ok
    assert not verify_dominating(x, DominatingFunction((0, 0, 0, 0), j=1, k=1)).ok


def test_input_validation():
    x = cycle(6)
    with pytest.raises(ValueError):
        verify_efficient(x, DominatingFunction((1, 0, 0), j=1, k=1))
    with pytest.raises(ValueError):
        verify_efficient(x, DominatingFunction((2, 0, 0, 0, 0, 0), j=1, k=1))
    with pytest.raises(ValueError):
        verify_efficient(x, DominatingFunction((1, 0, 0, 1, 0, 0), j=-1, k=1))


def test_support():
    assert C6_F.support() == (0, 3)
    assert K23_F.support() == (0, 1, 2, 3, 4)


def test_divisibility_feasible():
    # C6: r = 2, need 3 | 6k, always true
    assert all(divisibility_feasible(6, 2, k) for k in range(7))
    # K4: r = 3, need 4 | 4k, always true
    assert divisibility_feasible(4, 3, 2)
    # C5: r = 2, need 3 | 5k, so 3 | k
    assert [k for k in range(7) if divisibility_feasible(5, 2, k)] == [0, 3, 6]
    with pytest.raises(ValueError):
        divisibility_feasible(0, 2, 1)


def test_value_bound():
    x = complete_bipartite(2, 3)  # min degree 2
    assert value_bound_holds(x, 1, 3)
    assert not value_bound_holds(x, 1, 4)
    assert value_bound_holds(x, 2, 6)


def test_complement_dual_c6():
    dual = complement_dual(cycle(6), C6_F)
    assert dual.values == (0, 1, 1, 0, 1, 1)
    assert dual.k == 2
    assert verify_efficient(cycle(6), dual).ok
    with pytest.raises(ValueError):
        complement_dual(cycle(6), DominatingFunction((1, 1, 0, 1, 0, 0), j=1, k=1))
    with pytest.raises(ValueError):
        complement_dual(complete_bipartite(2, 3), K23_F)


def test_two_cell_partition_check():
    assert two_cell_partition_check(cycle(6), {0, 3}, 1)
    assert two_cell_partition_check(cycle(6), {1, 2, 4, 5}, 2)
    assert not two_cell_partition_check(cycle(6), {0, 1}, 1)
    assert not two_cell_partition_check(cycle(6), set(), 1)
    assert not two_cell_partition_check(cycle(6), set(range(6)), 2)
    with pytest.raises(ValueError):
        two_cell_partition_check(cycle(6), {0, 3}, 0)
    with pytest.raises(ValueError):
        two_cell_partition_check(complete_bipartite(2, 3), {0}, 1)


@settings(max_examples=60, deadline=None)
@given(small_regular_graphs, st.integers(0, 63))
def test_two_cell_matches_verifier(x, mask):
    support = {v for v in range(x.n) if (mask >> v) & 1}
    r = x.regular_degree()
    f_vals = tuple(1 if v in support else 0 for v in range(x.n))
    for k in range(1, r + 1):
        expected = verify_efficient(x, DominatingFunction(f_vals, 1, k)).ok
        if not support or len(support) == x.n:
            # the two-cell check needs both cells nonempty
            assert two_cell_partition_check(x, support, k) is False
            continue
        assert two_cell_partition_check(x, support, k) == expected


@settings(max_examples=40, deadline=None)
@given(small_regular_graphs, st.data())
def test_complement_duality_property(x, data):
    r = x.regular_degree()
    vals = tuple(
        data.draw(st.integers(0, 1), label=f"v{v}") for v in range(x.n)
    )
    for k in range(r + 2):
        f = DominatingFunction(vals, 1, k)
        if verify_efficient(x, f).ok:
            dual = complement_dual(x, f)
            assert verify_efficient(x, dual).ok
            assert dual.k == r - k + 1
            back = complement_dual(x, dual)
            assert back.values == vals and back.k == k


def test_values_beyond_int64():
    # exact on Python ints: the sums 2^70 and 2^70 + 1 differ only past int64
    big = 2 ** 70
    c6 = cycle(6)
    report = verify_efficient(c6, DominatingFunction((big, 0, 0, big, 0, 0), j=big, k=big))
    assert report.ok and report.j_tight and report.violations == ()
    report = verify_efficient(c6, DominatingFunction((big, 1, 0, big, 0, 0), j=big, k=big))
    assert not report.ok
    assert report.violations == ((0, big + 1), (1, big + 1), (2, big + 1))
    with pytest.raises(ValueError):
        verify_efficient(c6, DominatingFunction((big + 1, 0, 0, 0, 0, 0), j=big, k=big))
