"""Eigenvalue -1 detection and eigenvector-to-function conversion."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effdom import obs, spectral
from effdom.domination import verify_efficient
from effdom.fields import GF
from effdom.graphs import (
    Graph,
    SizeCapExceeded,
    adjacency_matrix,
    cayley_graph,
    closed_neighborhood_sum,
    closed_sums,
    complete,
    complete_bipartite,
    cycle,
    folded_cube,
    hamming_graph,
)
from effdom.jsonio import graph_from_doc
from effdom.linalg import int_kernel_basis
from effdom.spectral import function_from_eigenvector, minus_one_multiplicity

# spectrum of C_n is 2cos(2 pi i / n); -1 appears for n divisible by 3
# with multiplicity 2
C6_MULT = 2
# K_n has spectrum {n-1, -1^(n-1)}
K4_MULT = 3
# Q_d has eigenvalues d - 2i with multiplicity C(d, i); -1 needs odd d
Q3_MULT = 3
Q5_MULT = 10
# H(3,2) spectrum: 4, 1 (x4), -2 (x4): no -1
H32_MULT = 0


def test_multiplicities_match_known_spectra():
    assert minus_one_multiplicity(cycle(6)).multiplicity == C6_MULT
    assert minus_one_multiplicity(complete(4)).multiplicity == K4_MULT
    assert minus_one_multiplicity(hamming_graph(2, 3)).multiplicity == Q3_MULT
    assert minus_one_multiplicity(hamming_graph(2, 5)).multiplicity == Q5_MULT
    assert minus_one_multiplicity(hamming_graph(3, 2)).multiplicity == H32_MULT
    assert minus_one_multiplicity(cycle(5)).multiplicity == 0
    assert minus_one_multiplicity(cycle(9)).multiplicity == 2


def test_folded_cube_multiplicities():
    # F_d keeps the Q_d eigenvalues d - 2i at even i; d - 2i = -1 needs
    # d odd and i = (d+1)/2 even, so 4 | d + 1
    assert minus_one_multiplicity(folded_cube(3)).multiplicity == 3
    assert minus_one_multiplicity(folded_cube(5)).multiplicity == 0
    assert minus_one_multiplicity(folded_cube(7)).multiplicity == 35
    assert minus_one_multiplicity(folded_cube(9)).multiplicity == 0


def _hamming_minus_one(q, d):
    # H(q,d) has eigenvalue (q-1)d - qi with multiplicity C(d,i)(q-1)^i
    # (Brouwer, Cohen and Neumaier, Distance-Regular Graphs, 9.2)
    i, rem = divmod((q - 1) * d + 1, q)
    return 0 if rem else comb(d, i) * (q - 1) ** i


def _folded_minus_one(d):
    # F(d) has eigenvalue d - 4i with multiplicity C(d, 2i) (same source)
    i, rem = divmod(d + 1, 4)
    return 0 if rem else comb(d, 2 * i)


CLOSED_FORMS = (
    [(hamming_graph(2, d), _hamming_minus_one(2, d)) for d in range(3, 10)]
    + [(hamming_graph(3, d), _hamming_minus_one(3, d)) for d in range(2, 5)]
    + [(folded_cube(d), _folded_minus_one(d)) for d in range(3, 12)]
)


@pytest.mark.parametrize("x,mult", CLOSED_FORMS, ids=[x.name for x, _ in CLOSED_FORMS])
def test_multiplicity_matches_closed_form_and_witness_is_a_kernel_vector(x, mult):
    rep = minus_one_multiplicity(x)
    assert rep.multiplicity == mult
    if mult == 0:
        assert rep.witness is None
    else:
        assert any(rep.witness)
        assert all(closed_neighborhood_sum(x, rep.witness, v) == 0 for v in range(x.n))


def test_witness_present_exactly_when_positive():
    rep = minus_one_multiplicity(cycle(6))
    assert rep.witness is not None
    rep0 = minus_one_multiplicity(hamming_graph(3, 2))
    assert rep0.witness is None


def test_witness_shifts_to_verified_function():
    for x in [cycle(6), complete(4), hamming_graph(2, 3), folded_cube(7)]:
        rep = minus_one_multiplicity(x)
        assert rep.witness is not None
        f = function_from_eigenvector(x, rep.witness)
        assert verify_efficient(x, f).ok
        assert f.k == -min(rep.witness) * (x.regular_degree() + 1)
        assert min(f.values) == 0


def test_eigenvector_validation():
    c6 = cycle(6)
    with pytest.raises(ValueError):
        function_from_eigenvector(c6, [1, -1, 0, 1])
    with pytest.raises(ValueError):
        function_from_eigenvector(c6, [0] * 6)
    with pytest.raises(ValueError):
        function_from_eigenvector(c6, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        function_from_eigenvector(complete_bipartite(2, 3), [1, -1, 0, 0, 0])


def test_known_eigenvector_c6():
    # period-3 pattern sums to zero on every closed neighborhood
    f = function_from_eigenvector(cycle(6), [1, -1, 0, 1, -1, 0])
    assert f.values == (2, 0, 1, 2, 0, 1)
    assert f.j == 2 and f.k == 3
    assert verify_efficient(cycle(6), f).ok


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        minus_one_multiplicity(hamming_graph(2, 5), size_cap=16)


def test_scaled_eigenvector_same_support_shift():
    x = complete(4)
    f = function_from_eigenvector(x, [3, -3, 0, 0])
    assert f.values == (6, 0, 3, 3)
    assert f.k == 12
    assert verify_efficient(x, f).ok


# ---------------------------------------------------------------------------
# Cayley graphs of Z_2^m: character sums against the whole kernel basis
# ---------------------------------------------------------------------------

def _oracle(x):
    """(multiplicity, witness) from the whole canonical kernel basis of A + I."""
    kernel = int_kernel_basis(adjacency_matrix(x) + np.eye(x.n, dtype=np.int64))
    return len(kernel), kernel[0] if kernel else None


def _report(x):
    """(multiplicity, witness), and whether the character sums decided it."""
    with obs.collecting() as stats:
        rep = minus_one_multiplicity(x)
    return (rep.multiplicity, rep.witness), "spectral.characters" in stats.counters


def _xor_cayley(m, conn):
    """The Cayley graph of Z_2^m on conn, row v = sorted(v xor conn), built here."""
    n = 1 << m
    nbrs = np.sort(np.arange(n, dtype=np.int64)[:, None] ^ np.array(sorted(conn), dtype=np.int64), axis=1)
    return Graph.from_csr(n, np.arange(n + 1, dtype=np.int64) * len(conn), nbrs.reshape(-1), f"Z2^{m}")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.just(m), st.sets(st.integers(1, (1 << m) - 1), min_size=1, max_size=min((1 << m) - 1, 12)))),
    st.integers(0, 2 ** 32 - 1))
@example((0, set()), 0)  # n = 1
@example((1, {1}), 0)    # n = 2, K_2
@example((4, set()), 0)  # S empty on 16 vertices
# U = the odd u: the bit pass pairs at bits 5 .. 1 and not at bit 0
@example((6, {1}), 0)
# U = the u with the top bit set: unpaired at the top bit, paired at bits 4 .. 0
@example((6, {32}), 1)
# K_16, S = Z_2^4 minus 0: every u but 0 has sum -1, multiplicity n - 1 = 15
@example((4, set(range(1, 16))), 2)
def test_character_sums_match_the_kernel_basis(case, seed):
    m, conn = case
    x = _xor_cayley(m, conn)
    want = _oracle(x)
    assert _report(x) == (want, True)
    # a relabelling takes the character path exactly when its rows are still
    # v xor N(0) (the empty and complete graphs, K_2, some draws), and has
    # the same multiplicity either way
    perm = np.random.default_rng(seed).permutation(x.n)
    y = graph_from_doc({"v": 1, "n": x.n, "edges": np.sort(perm[x.edge_array()], axis=1)})
    rows = [set(y.indices[y.indptr[v]:y.indptr[v + 1]].tolist()) for v in range(y.n)]
    got, characters = _report(y)
    assert characters == all(row == {v ^ c for c in rows[0]} for v, row in enumerate(rows))
    assert got == _oracle(y) and got[0] == want[0]


def test_a_witness_that_fails_the_check_is_refused(monkeypatch):
    # coefficient 1 on chi_0 alone gives the all-ones vector, and
    # (A + I) 1 = (r + 1) 1 is not zero: no report is returned
    monkeypatch.setattr(spectral, "_line_coefficients", lambda in_u: np.eye(1, len(in_u), dtype=np.int64)[0])
    with pytest.raises(ArithmeticError):
        minus_one_multiplicity(hamming_graph(2, 5))


def test_relabelled_folded_cube_takes_the_elimination():
    x = folded_cube(7)
    perm = np.random.default_rng(3).permutation(x.n)
    y = graph_from_doc({"v": 1, "n": x.n, "edges": np.sort(perm[x.edge_array()], axis=1)})
    got, characters = _report(y)
    assert _report(x)[1] and not characters
    assert got == _oracle(y) and got[0] == 35


FAMILIES = ([hamming_graph(2, d) for d in range(1, 11)] + [folded_cube(d) for d in range(2, 12)]
            + [hamming_graph(q, d) for q, d in [(4, 1), (4, 2), (4, 3), (4, 4), (8, 2)]]
            + [cayley_graph(GF(2, b), d, sorted(np.random.default_rng(b * d).choice(
                np.arange(1, 2 ** (b * d)), min(2 ** (b * d) - 1, 9), replace=False).tolist()))
               for b, d in [(1, 6), (2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]])


@pytest.mark.parametrize("x", FAMILIES, ids=[f"{x.name}-{i}" for i, x in enumerate(FAMILIES)])
def test_families_match_the_kernel_basis(x):
    assert _report(x) == (_oracle(x), True)


LARGE = [(hamming_graph(2, 11), _hamming_minus_one(2, 11)), (hamming_graph(2, 12), _hamming_minus_one(2, 12)),
         (folded_cube(12), _folded_minus_one(12)), (folded_cube(13), _folded_minus_one(13))]


@pytest.mark.parametrize("x,mult", LARGE, ids=[x.name for x, _ in LARGE])
def test_large_cayley_graphs_match_their_closed_forms(x, mult):
    (got, witness), characters = _report(x)
    assert characters and got == mult
    if mult:
        assert any(witness) and not closed_sums(x, witness).any()
    else:
        assert witness is None
