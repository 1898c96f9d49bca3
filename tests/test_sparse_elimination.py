"""The two phases of the modular elimination and the hand-off between them.

`linalg._rref_mod` eliminates on dict rows until `_hands_off`, then on
float64 BLAS panels from the hand-off column.  Here the hand-off is moved
through every column of each drawn matrix, and every position must give
the pivots, the pivot rows and the reduced matrix of the hand-off before
column 0, which is the panels alone.  sympy's sparse Gauss-Jordan over
GF(p) (`sdm_irref`) is the independent oracle for the reduced matrix.
"""

from __future__ import annotations

import tracemalloc
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF as SympyGF
from sympy.polys.matrices.sdm import sdm_irref

from effdom import linalg, obs
from effdom.fields import GF, MODULI
from effdom.graphs import cycle
from effdom.jsonio import graph_from_doc
from effdom.linalg import DELAY, _primes, _rref_mod, block_matrix, int_kernel_basis

PRIMES = (2, 3, 7, next(_primes()))


def _echelon(mat: np.ndarray, p: int, at: Optional[int] = None) -> Tuple[List[int], List[int], list]:
    """Pivot columns, pivot rows and the reduced pivot rows of mat mod p,
    with the hand-off before column `at` (by the module's rule if None);
    the columns counted as sparse are checked against `at` too."""
    with pytest.MonkeyPatch.context() as patch, obs.collecting() as stats:
        if at is not None:
            patch.setattr(linalg, "_hands_off", lambda c, *rest: c == at)
        piv, piv_rows, read = _rref_mod(mat, p)
        reduced = read(np.arange(mat.shape[1])).astype(np.int64).tolist()
    if at is not None:
        assert stats.counters.get("linalg.sparse_columns", 0) == min(at, mat.shape[1])
    return list(piv), list(piv_rows), reduced


def _sympy_echelon(mat: np.ndarray, p: int) -> Tuple[List[int], list]:
    """Pivot columns and nonzero rows of the reduced row echelon form mod p by sdm_irref."""
    k = SympyGF(p)
    rows = {i: {j: k(int(x) % p) for j, x in enumerate(row) if int(x) % p} for i, row in enumerate(mat.tolist())}
    reduced, piv, _ = sdm_irref({i: row for i, row in rows.items() if row})
    return list(piv), [[int(k.to_int(reduced[i].get(j, k.zero))) % p for j in range(mat.shape[1])]
                       for i in sorted(reduced)]


@st.composite
def graphs_plus_identity(draw):
    """A + I of a disjoint union of paths and cycles, relabelled."""
    parts = draw(st.lists(st.tuples(st.sampled_from(["path", "cycle"]), st.integers(1, 9)), min_size=1, max_size=4))
    edges, n = [], 0
    for shape, size in parts:
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        if shape == "cycle" and size >= 3:
            edges.append((n + size - 1, n))
        n += size
    perm = draw(st.permutations(range(n)))
    a = np.eye(n, dtype=np.int8)
    for u, w in edges:
        a[perm[u], perm[w]] = a[perm[w], perm[u]] = 1
    return a, draw(st.sampled_from(PRIMES))


@st.composite
def integer_matrices(draw):
    """Mostly-zero integer matrices, wide or tall, with zero rows and columns,
    negative entries, multiples of p (zero mod p) and, as objects, entries
    past 2^63."""
    p = draw(st.sampled_from(PRIMES))
    n_rows, n_cols = draw(st.integers(0, 14)), draw(st.integers(1, 14))
    big = draw(st.booleans())
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.sampled_from([p, -2 * p, 127, -128]),
                      *([st.sampled_from([2 ** 70 + 1, -(2 ** 64) * p])] if big else []))
    rows = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)) if n_rows else ():
        rows[i] = [0] * n_cols
    for j in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    dtype = object if big else draw(st.sampled_from([np.int8, np.int64, object]))
    return np.array(rows, dtype=dtype).reshape(n_rows, n_cols), p


@st.composite
def field_block_matrices(draw):
    """The GF(p) block matrix of a mostly-zero GF(q) matrix."""
    p, b = draw(st.sampled_from(sorted(MODULI)))
    gf = GF(p, b)
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    codes = [[draw(st.one_of(st.just(0), st.integers(0, gf.q - 1))) for _ in range(n_cols)] for _ in range(n_rows)]
    return block_matrix(gf, np.array(codes, dtype=np.int64)), p


@given(st.one_of(graphs_plus_identity(), integer_matrices(), field_block_matrices()),
       st.sampled_from([64, 3]), st.sampled_from([DELAY, 1]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_hand_off_at_every_column_gives_the_panels_result(case, block, delay):
    # panels of 3 columns, reduced every panel, start off the multiples of
    # BLOCK and cross each other after the hand-off
    mat, p = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "BLOCK", block)
        patch.setattr(linalg, "DELAY", delay)
        want = _echelon(mat, p, 0)
        for at in range(1, mat.shape[1] + 1):
            assert _echelon(mat, p, at) == want, at
        assert _echelon(mat, p) == want
    piv, _, reduced = want
    assert (piv, reduced) == _sympy_echelon(mat, p)


def test_a_dense_matrix_goes_to_the_panels_whole():
    # more than 1/DENSE of the entries are nonzero: no column is eliminated
    # on dict rows, and the matrix is never read into them
    mat = np.random.default_rng(0).integers(1, 5, (40, 40))
    with pytest.MonkeyPatch.context() as patch, obs.collecting() as stats:
        patch.setattr(linalg, "_nonzeros", None)
        _rref_mod(mat, next(_primes()))
    assert stats.counters == {"linalg.panels": 1}


def test_a_matrix_that_stays_sparse_is_never_made_dense():
    # A + I of C(1500) relabelled: n^2 float64 entries would be 18 MB; the
    # dict rows, the kernel residues and the lift take far less
    g = cycle(1500)
    perm = np.random.default_rng(0).permutation(g.n)
    g = graph_from_doc({"v": 1, "n": g.n, "edges": np.sort(perm[g.edge_array()], axis=1)})
    a_plus_i = np.eye(g.n, dtype=np.int8)
    a_plus_i[g.rows(), g.indices] = 1
    tracemalloc.start()
    try:
        with obs.collecting() as stats:
            kern = int_kernel_basis(a_plus_i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(kern) == 2 and stats.counters["linalg.sparse_columns"] == g.n
    assert "linalg.panels" not in stats.counters
    assert peak < g.n * g.n * 8 // 4
