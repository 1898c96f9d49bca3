"""Per-entry GF(q) linear algebra, one `GF.mul` at a time: the oracle that
the block-matrix elimination of `effdom.linalg` is tested against, the
plan data built from it the way `build_plan` once built them, and the
digit-peeling labeller that `all_labels` is tested against."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from effdom.fields import GF
from effdom.graphs import vertex_tuple


def inv(gf: GF, a: int) -> int:
    """The multiplicative inverse a^(q-2) of a nonzero a, by square-and-multiply
    on GF.mul; a search over GF.mul would take up to 65,520 products in GF(65521)."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    out, e = 1, gf.q - 2
    while e:
        if e & 1:
            out = gf.mul(out, a)
        a, e = gf.mul(a, a), e >> 1
    return out


def sub(gf: GF, a: int, b: int) -> int:
    return gf.add(a, gf.neg(b))


def _copy_rect(mat, cols):
    rows = [list(r) for r in mat]
    if cols is None:
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    for r in rows:
        if len(r) != cols:
            raise ValueError(f"every row needs {cols} entries, one has {len(r)}")
    return rows, len(rows), cols


def rref(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> Tuple[List[List[int]], List[int]]:
    m, n_rows, n_cols = _copy_rect(mat, cols)
    for row in m:
        for e in row:
            gf._check(e)
    piv: List[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv_c = inv(gf, m[r][c])
        if inv_c != 1:
            m[r] = [gf.mul(inv_c, e) for e in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [sub(gf, a, gf.mul(f, b)) for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    return m, piv


def field_rank(gf: GF, mat, cols=None) -> int:
    if not mat:
        return 0
    return len(rref(gf, mat, cols)[1])


def kernel_basis(gf: GF, mat, cols=None) -> List[List[int]]:
    if not mat:
        if cols is None:
            raise ValueError("cannot infer column count of an empty matrix")
        return [[1 if i == f else 0 for i in range(cols)] for f in range(cols)]
    m, piv = rref(gf, mat, cols)
    n_cols = len(m[0])
    pivset = set(piv)
    basis = []
    for f in range(n_cols):
        if f in pivset:
            continue
        v = [0] * n_cols
        v[f] = 1
        for i, pc in enumerate(piv):
            v[pc] = gf.neg(m[i][f])
        basis.append(v)
    return basis


def solve_affine(gf: GF, mat, target) -> Optional[List[int]]:
    rows, n_rows, n_cols = _copy_rect(mat, None)
    if len(target) != n_rows:
        raise ValueError("target length does not match row count")
    aug = [row + [t] for row, t in zip(rows, target)]
    m, piv = rref(gf, aug, n_cols + 1)
    if piv and piv[-1] == n_cols:
        return None
    x = [0] * n_cols
    for i, pc in enumerate(piv):
        x[pc] = m[i][n_cols]
    return x


def mat_vec(gf: GF, mat, vec) -> List[int]:
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc = gf.add(acc, gf.mul(a, b))
        out.append(acc)
    return out


def hamming_code_basis(gf: GF, a: int) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """(parity check, basis) of the length-(q^a - 1)/(q - 1) Hamming code,
    from vertex tuples and the scalar kernel."""
    if a == 1:
        return ((1,),), ()
    vectors = (vertex_tuple(gf.q, a, rank) for rank in range(1, gf.q ** a))
    columns = [digs for digs in vectors if next(x for x in digs if x) == 1]
    h = tuple(tuple(col[i] for col in columns) for i in range(a))
    return h, tuple(tuple(v) for v in kernel_basis(gf, [list(row) for row in h]))


def phi(plan) -> Tuple[Tuple[int, ...], ...]:
    """The l x d map sending coordinates of S_i to the i-th unit vector."""
    block_of = [i for i, block in enumerate(plan.s_sets) for _ in block]
    l = len(plan.s_sets) - 1
    return tuple(tuple(int(block_of[c] == i) for c in range(plan.profile.d)) for i in range(1, l + 1))


def fibre_of(plan, ranks):
    """Coset label of each rank under plan.label_matrix, one base-p digit of
    the rank at a time: an int for one rank, an int64 array of the same
    shape for a range or array of ranks."""
    p, n = plan.gf.p, plan.gf.p ** plan.label_matrix.shape[0]
    # int64 below 2^62, else Python ints (object dtype), so rank arithmetic never wraps
    ranks_in = np.array(ranks, dtype=np.int64 if n < 1 << 62 else object)
    rest = ranks_in.ravel()  # np.array made a copy, so rest may be reduced in place
    acc = np.zeros((len(rest), plan.label_matrix.shape[1]), dtype=np.int64)
    for row in plan.label_matrix:  # peel one base-p digit at a time, lowest first
        quot = rest // p
        rest -= quot * p
        acc += rest.astype(np.int64, copy=False)[:, None] * row
        rest = quot
    labels = (acc % p) @ p ** np.arange(acc.shape[1], dtype=np.int64)
    return int(labels[0]) if ranks_in.ndim == 0 else labels.reshape(ranks_in.shape)
