"""Eigenvalue -1 detection and eigenvector-to-function conversion."""

from __future__ import annotations

from math import comb

import pytest

from effdom.domination import verify_efficient
from effdom.graphs import (
    SizeCapExceeded,
    closed_neighborhood_sum,
    complete,
    complete_bipartite,
    cycle,
    folded_cube,
    hamming_graph,
)
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
