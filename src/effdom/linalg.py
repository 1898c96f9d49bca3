"""Exact linear algebra over GF(q) and over the integers.

Field matrices are lists of rows of GF element codes; integer matrices
are lists of rows of Python ints, or integer numpy arrays.  Both reach
one elimination, `_rref_mod`, modulo a prime: a GF(q) matrix, q = p^b,
as its GF(p) block matrix (`block_matrix`), an integer one modulo primes
below 2^20.

The elimination is Gauss-Jordan, column by column, rows unmoved, and
the pivot of a column is the lowest-index row without a pivot that holds
it.  It runs in two phases.  The sparse phase works on dict rows of the
nonzero residues (a row becomes a dict when a column it holds comes up),
and hands off once the fill or its own work passes a bound (`_hands_off`:
twice the input's nonzeros, 1/16 of all entries, or about what the
panels would have spent on its columns).  Then the matrix becomes float64
residues with the dict rows written in, and BLAS panels go on from the
hand-off column; no column is eliminated twice.  The result does not
depend on where the hand-off falls: the rows without a pivot hold the
same values whichever phase cleared the earlier columns, so each column
gets the same pivot row, and the reduced row echelon form is unique.  A
matrix that never reaches the bound, such as A + I of a cycle or of
disjoint triangles, is never made dense.

Column steps and Hessenberg reduction run in int64 below 2^63, products
of panels in float64 BLAS whose sums are integers below 2^53, and the
sparse phase on Python ints, so no result depends on rounding, summation
order or thread count.  Integer kernels are certified by M v = 0 over Z
and returned in free-column completion form (one vector per free column,
in increasing column order), primitive, with the first nonzero entry
positive; they need at most one n x n float64 working matrix plus a
fixed number of row-block temporaries.
"""

from __future__ import annotations

from math import gcd, isqrt, prod
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import obs
from .fields import GF

__all__ = [
    "rref",
    "field_rank",
    "kernel_basis",
    "mat_mul",
    "block_matrix",
    "int_rank",
    "int_kernel_basis",
    "char_poly",
    "CHAR_POLY_CAP",
]

CHAR_POLY_CAP = 512


def _copy_rect(mat: Sequence[Sequence[int]], cols: Optional[int]) -> Tuple[List[List[int]], int, int]:
    rows = [list(r) for r in mat]
    if cols is None:
        if not rows:
            raise ValueError("cannot infer column count of an empty matrix")
        cols = len(rows[0])
    for r in rows:
        if len(r) != cols:
            raise ValueError(f"every row needs {cols} entries, one has {len(r)}")
    return rows, len(rows), cols


# ---------------------------------------------------------------------------
# GF(q) matrices
# ---------------------------------------------------------------------------

def block_matrix(gf: GF, mat: np.ndarray) -> np.ndarray:
    """The GF(p) matrix of an r x c integer array of GF(q) codes, q = p^b: entry
    a becomes gf.blocks[a], the b x b matrix of x -> a x on base-p digits with
    the digits of a in column 0, so blocks multiply as their entries do.
    Refuses the first code outside [0, q), in row order."""
    bad = (mat < 0) | (mat >= gf.q)
    if bad.any():
        gf._check(mat.flat[np.argmax(bad)])
    blocks = gf.blocks[mat.astype(np.int64, copy=False)]
    return blocks.transpose(0, 2, 1, 3).reshape(mat.shape[0] * gf.b, mat.shape[1] * gf.b)


def _codes(gf: GF, digits: np.ndarray) -> np.ndarray:
    """GF(q) codes from their base-p digits, held in b consecutive rows each."""
    return sum(digits[i::gf.b].astype(np.int64, copy=False) * gf.p ** i for i in range(gf.b))


def rref(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> Tuple[List[List[int]], List[int]]:
    """Reduced row echelon form over GF(q); returns (matrix, pivot columns).

    It is read off the GF(p) RREF of the block matrix, which is unique and
    so the block matrix of the GF(q) RREF: GF(q) pivot t gives the GF(p)
    pivots t b .. t b + b - 1."""
    codes = _int_matrix(mat, cols)
    blocks = block_matrix(gf, codes)
    piv, _, read = _rref_mod(blocks, gf.p)
    out = np.zeros(codes.shape, dtype=np.int64)
    out[:len(piv) // gf.b] = _codes(gf, read(np.arange(0, blocks.shape[1], gf.b)))
    return out.tolist(), [c // gf.b for c in piv[::gf.b]]


def field_rank(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> int:
    return len(rref(gf, mat, cols)[1]) if mat else 0


def kernel_basis(gf: GF, mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> List[List[int]]:
    """Basis of the right kernel over GF(q), free-column completion form:
    the digits of the vector for free column f are the GF(p) kernel vector
    of the block matrix for its free column f b."""
    kern = _modp_kernel(block_matrix(gf, _int_matrix(mat, cols)), gf.p)[1][::gf.b]
    return _codes(gf, kern.T).T.tolist()


def mat_mul(gf: GF, left: Sequence[Sequence[int]], right: Sequence[Sequence[int]]) -> List[List[int]]:
    """The product over GF(q) of an r x c and a c x s matrix: the block
    matrix of left times the digits of right, float64 products of at most
    BLOCK * DELAY terms reduced mod p in between, so every sum is exact."""
    right = _int_matrix(right, None)
    a = block_matrix(gf, _int_matrix(left, right.shape[0])).astype(np.float64)
    digits = block_matrix(gf, right)[:, ::gf.b].astype(np.float64)
    out = np.zeros((a.shape[0], digits.shape[1]))
    for lo in range(0, a.shape[1], BLOCK * DELAY):
        out = _mod(out + a[:, lo:lo + BLOCK * DELAY] @ digits[lo:lo + BLOCK * DELAY], gf.p)
    return _codes(gf, out).tolist()


# ---------------------------------------------------------------------------
# Integer matrices: certified rational rank and kernel
# ---------------------------------------------------------------------------

# Residues mod p are float64 operands in [0, p].  A product with an inner
# dimension of at most BLOCK, added to DELAY - 1 earlier ones and a residue,
# stays below 2^53, so every partial sum is an exact integer whatever order
# BLAS adds in.  Column steps in a panel and the Hessenberg reduction run
# in int64 onto residues: a panel takes at most BLOCK steps, each adding
# less than p^2 to an entry, and a Hessenberg product sums n <= CHAR_POLY_CAP
# terms below p^2 (below 2^63 for any n < 2^23).  Work across the width of
# a matrix runs SPAN entries at a time, so no temporary is matrix-sized.
BLOCK = 64
SPAN = 1 << 18
# The stages after the elimination take KERNEL_ROWS kernel rows, and the
# check M v = 0 as many rows of M, at a time: SPAN entries at n = 2048, and
# tall enough that each entry of M widened to float64 serves 2 KERNEL_ROWS
# flops of the check at BLAS speed.
KERNEL_ROWS = SPAN // 2048
PRIME_LIMIT = 1 << 20
# The sparse phase (_sparse_rref) hands off to the panels once its nonzeros
# pass FILL times the input's, or 1/DENSE of all entries, so that its dict
# rows stay smaller than the float64 matrix; or once it has written more
# than 1/WORK of the entries per column eliminated.  On a 2-vCPU machine
# an entry written costs about 1 us in Python (C(1500) relabelled: 20,704
# entries in 23 ms) and an entry of a column on the panels 0.09 ns (F(12):
# 2048 columns of 2048^2 entries in 0.75 s), so the sparse phase stops
# before its columns cost more than about 11,000 / WORK times what the
# panels would have spent on them.  Fill, not work, stops it on relabelled
# grids and 3-regular graphs, after about a third of the columns.
FILL = 2
DENSE = 16
WORK = 8192
assert PRIME_LIMIT <= 1 << 31
DELAY = ((1 << 53) - 2 * PRIME_LIMIT) // (BLOCK * PRIME_LIMIT ** 2)
assert DELAY >= 1 and DELAY * BLOCK * PRIME_LIMIT ** 2 + 2 * PRIME_LIMIT <= 1 << 53
assert BLOCK * (PRIME_LIMIT - 1) ** 2 + PRIME_LIMIT < 1 << 63
assert CHAR_POLY_CAP * (PRIME_LIMIT - 1) ** 2 + PRIME_LIMIT < 1 << 63


def _primes():
    """The primes below PRIME_LIMIT, largest first."""
    for c in range(PRIME_LIMIT - 1, 2, -2):
        if all(c % d for d in range(3, isqrt(c) + 1, 2)):
            yield c
    raise ArithmeticError("ran out of primes")


def _int_matrix(mat: Sequence[Sequence[int]], cols: Optional[int]) -> np.ndarray:
    """The matrix as a signed integer array: as it is when at most 32 bits
    wide, else int64 when its entries are below 2^31 in size, else Python ints."""
    if not isinstance(mat, np.ndarray):
        rows, n_rows, n_cols = _copy_rect(mat, cols)
        mat = np.array(rows, dtype=object).reshape(n_rows, n_cols)
    if mat.dtype.kind == "i" and mat.dtype.itemsize <= 4:
        return mat
    small = mat.size == 0 or max(-int(mat.min()), int(mat.max())) < 1 << 31
    return mat.astype(np.int64 if small else object, copy=False)


def _row_blocks(n_rows: int, width: int) -> List[slice]:
    """Slices of rows holding about SPAN entries of the given width each."""
    step = max(1, SPAN // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _row_l1(mat: np.ndarray) -> List[int]:
    wide = object if mat.dtype == object else np.int64
    return [int(s) for rows in _row_blocks(*mat.shape) for s in np.abs(mat[rows].astype(wide)).sum(axis=1)]


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p for float64 integers |x| <= 2^53 - 2p: the float quotient
    is off by at most one.  About three times faster than `%` (fmod)."""
    r = x * (1.0 / p)
    np.floor(r, out=r)
    r *= p
    np.subtract(x, r, out=r)
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def _reduce(a: np.ndarray, p: int, c0: int = 0, stop: Optional[int] = None) -> None:
    """a[:, c0:stop] mod p in place, a block of rows at a time."""
    for rows in _row_blocks(len(a), (stop or a.shape[1]) - c0):
        a[rows, c0:stop] = _mod(a[rows, c0:stop], p)


def _residues(mat: np.ndarray, p: int) -> np.ndarray:
    """The integer matrix mod p as float64, with no wider integer copy."""
    if mat.dtype == object:
        return (mat % p).astype(np.float64)
    a = mat.astype(np.float64)
    if mat.min(initial=0) < 0 or mat.max(initial=0) >= p:
        _reduce(a, p)
    return a


def _panel_rref(panel: np.ndarray, p: int) -> Tuple[List[int], List[int], np.ndarray]:
    """Gauss-Jordan on the int64 residues of a panel mod p, rows unmoved:
    pivot columns, their rows, and the inverse of the pivot block.  Columns
    T right of the panel collect the inverse: no row is added to another
    before it is pivot k, so T[r, k] = 1 set then starts it from [B | I]."""
    width = panel.shape[1]
    a = np.hstack([panel, np.zeros_like(panel)])
    live = np.ones(len(a), dtype=bool)
    cols: List[int] = []
    rows: List[int] = []
    for c in range(width):
        col = a[:, c] % p
        nz = np.flatnonzero(col)
        pivot = nz[live[nz]]
        if pivot.size == 0:
            continue
        r, end = int(pivot[0]), width + len(cols) + 1
        a[r, end - 1] = 1
        row = a[r, c:end] % p * pow(int(col[r]), p - 2, p) % p
        nz = nz[nz != r]
        a[nz, c:end] += (p - col[nz])[:, None] * row
        a[r, c:end] = row
        live[r] = False
        cols.append(c)
        rows.append(r)
    return cols, rows, a[rows, width:width + len(cols)] % p


def _hands_off(c: int, nnz: int, written: int, nnz0: int, size: int) -> bool:
    """Whether the sparse phase hands a matrix of size entries, nnz0 of them
    nonzero, to the panels before column c, holding nnz nonzeros after
    writing `written` entries in columns 0 .. c - 1."""
    return nnz > min(FILL * nnz0, size // DENSE) or written * WORK > c * size


def _nonzeros(mat: np.ndarray, p: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero residues mod p of the integer
    matrix, in row order, read a block of rows at a time."""
    flats, vals = [np.zeros(0, np.intp)], [np.zeros(0, np.int64)]
    for blk in _row_blocks(*mat.shape):
        part = mat[blk]
        flat = np.flatnonzero(part != 0)  # 2-d np.nonzero is about 10 times slower
        v = part.reshape(-1)[flat]
        v = (v % p if v.dtype == object else v.astype(np.int64) % p).astype(np.int64)
        flats.append(flat[v != 0] + blk.start * mat.shape[1])
        vals.append(v[v != 0])
    return (*np.divmod(np.concatenate(flats), mat.shape[1]), np.concatenate(vals))


def _sparse_rref(mat: np.ndarray, p: int, nnz0: int) -> Tuple[int, List[int], List[int], np.ndarray, Tuple[np.ndarray, ...]]:
    """Gauss-Jordan mod p on dict rows of the integer matrix, column by
    column, rows unmoved, until _hands_off: the pivot of column c is the
    lowest-index row without a pivot that holds c, its row is scaled to 1
    at c, and c is cleared from every other row holding it, pivot rows
    too.  A row becomes a dict when a column it holds is eliminated; the
    others are read off the input's nonzeros.  Returns the column it
    stopped at (the width when it finished), the pivot columns, their
    rows, the rows made dicts, and those rows as (row, column, residue)
    arrays; once it finishes, every other row is zero."""
    n_rows, width = mat.shape
    nz_rows, nz_cols, nz_vals = _nonzeros(mat, p)
    starts = np.searchsorted(nz_rows, np.arange(n_rows + 1)).tolist()
    cols, vals = nz_cols.tolist(), nz_vals.tolist()
    by_col = np.argsort(nz_cols, kind="stable")
    col_starts = np.searchsorted(nz_cols[by_col], np.arange(width + 1)).tolist()
    col_rows = nz_rows[by_col].tolist()
    rows: Dict[int, Dict[int, int]] = {}
    holders: List[Set[int]] = [set() for _ in range(width)]  # the dict rows holding each column
    nnz, written = len(vals), 0
    live = [True] * n_rows
    piv: List[int] = []
    piv_rows: List[int] = []
    stop = width
    for c in range(width):
        for i in col_rows[col_starts[c]:col_starts[c + 1]]:
            if i not in rows:
                rows[i] = dict(zip(cols[starts[i]:starts[i + 1]], vals[starts[i]:starts[i + 1]]))
                for k in rows[i]:
                    holders[k].add(i)
        hold = holders[c]
        r = min((i for i in hold if live[i]), default=None)
        if r is not None:
            row = rows[r]
            scale = pow(row[c], p - 2, p)
            for k in row:
                row[k] = row[k] * scale % p
            step = [(k, v) for k, v in row.items() if k != c]
            for i in hold:
                if i == r:
                    continue
                other = rows[i]
                g = p - other.pop(c)
                nnz -= 1
                written += len(step)
                for k, v in step:
                    x = other.get(k)
                    if x is None:
                        other[k] = g * v % p
                        holders[k].add(i)
                        nnz += 1
                    else:
                        x = (x + g * v) % p
                        if x:
                            other[k] = x
                        else:
                            del other[k]
                            holders[k].discard(i)
                            nnz -= 1
            holders[c] = {r}
            live[r] = False
            piv.append(c)
            piv_rows.append(r)
        if c + 1 < width and _hands_off(c + 1, nnz, written, nnz0, mat.size):
            stop = c + 1
            break
    touched = np.fromiter(rows, np.intp, len(rows))
    size = sum(map(len, rows.values()))
    coo = (np.repeat(touched, [len(row) for row in rows.values()]),
           np.fromiter((k for row in rows.values() for k in row), np.intp, size),
           np.fromiter((v for row in rows.values() for v in row.values()), np.float64, size))
    return stop, piv, piv_rows, touched, coo


def _panels(a: np.ndarray, p: int, start: int, piv: List[int], piv_rows: List[int]) -> None:
    """Reduces the float64 residues a in place mod p from column start on,
    where the columns left of start are reduced with pivots piv in rows
    piv_rows, to which the new pivots and their rows are appended.
    The pivots of each BLOCK-column panel of the rows without a pivot, and
    the inverse of their pivot block, come from one pass of int64 column
    steps; that inverse normalises the pivot rows, and float64 products, a
    block of rows at a time, clear the pivot columns from all other rows.
    The rest of a is reduced every DELAY panels.
    """
    live = np.ones(a.shape[0], dtype=bool)
    live[piv_rows] = False
    for i, c0 in enumerate(range(start, a.shape[1], BLOCK)):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        obs.count("linalg.panels")
        _reduce(a, p, c0, None if i and i % DELAY == 0 else c0 + BLOCK)
        cols, order, inv = _panel_rref(a[rows, c0:c0 + BLOCK].astype(np.int64), p)
        if not cols:
            continue
        pr, pc = rows[order], [c0 + c for c in cols]
        top = _mod(inv.astype(np.float64) @ _mod(a[pr, c0:], p), p)
        neg = p - a[:, pc]
        neg[pr] = 0
        a[pr, c0:] = top
        for blk in _row_blocks(len(a), top.shape[1]):
            a[blk, c0:] += neg[blk] @ top
        live[pr] = False
        piv += pc
        piv_rows += pr.tolist()
    _reduce(a, p, start)


def _rref_mod(mat: np.ndarray, p: int) -> Tuple[List[int], List[int], Callable[[np.ndarray], np.ndarray]]:
    """The reduced row echelon form of the integer matrix mod p, rows
    unmoved: its pivot columns, their rows, and read, where read(cols) is
    the float64 array of the pivot rows, in pivot order, at columns cols.

    The sparse phase runs first.  Where it hands off, the matrix becomes
    float64 residues with its dict rows written in, and the panels go on
    from the hand-off column; a matrix dense from the start goes to the
    panels whole."""
    n_rows, n_cols = mat.shape
    nnz0 = int(np.count_nonzero(mat))
    if _hands_off(0, nnz0, 0, nnz0, mat.size):
        a, start, piv, piv_rows = _residues(mat, p), 0, [], []
    else:
        start, piv, piv_rows, touched, (r, c, v) = _sparse_rref(mat, p, nnz0)
        if start:
            obs.count("linalg.sparse_columns", start)
        if start == n_cols:
            rank = np.full(n_rows, -1)
            rank[piv_rows] = np.arange(len(piv))
            r = rank[r]
            return piv, piv_rows, lambda cols: _read_coo(r, c, v, len(piv), n_cols, cols)
        a = _residues(mat, p)
        a[touched] = 0
        a[r, c] = v
        del r, c, v
    _panels(a, p, start, piv, piv_rows)
    return piv, piv_rows, lambda cols: a[np.ix_(piv_rows, cols)]


def _read_coo(r: np.ndarray, c: np.ndarray, v: np.ndarray, n_rows: int, n_cols: int, cols: np.ndarray) -> np.ndarray:
    """The dense n_rows x len(cols) array at columns cols of the matrix
    with entries v at (r, c)."""
    at = np.full(n_cols, -1)
    at[cols] = np.arange(len(cols))
    j = at[c]
    keep = j >= 0
    out = np.zeros((n_rows, len(cols)))
    out[r[keep], j[keep]] = v[keep]
    return out


def _kernel_blocks(n_rows: int) -> List[slice]:
    return [slice(lo, lo + KERNEL_ROWS) for lo in range(0, n_rows, KERNEL_ROWS)]


def _modp_kernel(mat: np.ndarray, p: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Pivot columns and int32 kernel residues of the integer matrix modulo p,
    read off its reduced form one block of free columns at a time."""
    piv, _, read = _rref_mod(mat, p)
    # a mask, not np.setdiff1d, which imports numpy.ma (about 18 ms)
    is_free = np.ones(mat.shape[1], dtype=bool)
    is_free[piv] = False
    free = np.flatnonzero(is_free)
    kern = np.zeros((free.size, mat.shape[1]), dtype=np.int32)
    kern[np.arange(free.size), free] = 1
    for rows in _kernel_blocks(len(kern)):
        kern[rows, piv] = _mod(p - read(free[rows]), p).T
    return tuple(piv), kern


def _crt(residues: List[Tuple[np.ndarray, int]], rows: slice = slice(None)) -> Tuple[np.ndarray, int]:
    """The given rows (all by default) of residue arrays modulo the product
    of their primes.  Past the first prime, the mixed-radix digits c_j of
    x = c_0 + p_0 (c_1 + p_1 (c_2 + ...)) come from int64 steps (Garner),
    and only the Horner steps that join them run on Python ints."""
    if len(residues) == 1:
        return residues[0][0][rows], residues[0][1]
    digits: List[np.ndarray] = []
    for kern, p in residues:
        acc, radix = 0, 1  # the digits so far mod p, and the product of their primes mod p
        for c, (_, q) in zip(digits, residues):
            acc, radix = (acc + c * radix) % p, radix * q % p
        digits.append((kern[rows].astype(np.int64) - acc) * pow(radix, -1, p) % p)
    res = digits.pop().astype(object)
    for c, (_, p) in zip(digits[::-1], residues[-2::-1]):
        res = res * p + c
    return res, prod(p for _, p in residues)


def _symmetric(res: np.ndarray, modulus: int) -> np.ndarray:
    """The residues lifted to (-modulus/2, modulus/2], in a copy."""
    out = res.copy()
    return np.subtract(out, modulus, out=out, where=out > modulus // 2)


def _denominator(x: int, modulus: int, bound: int) -> Optional[int]:
    """The least d > 0 with d x = n mod modulus for some |n| <= bound, by
    extended Euclid; None when it shares a factor with modulus."""
    a0, a1, t0, t1 = modulus, x, 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1, t0, t1 = a1, a0 - q * a1, t1, t0 - q * t1
    return abs(t1) if gcd(t1, modulus) == 1 else None


def _rational_lift(res: np.ndarray, modulus: int) -> Optional[np.ndarray]:
    """Kernel rows by rational reconstruction with one denominator per row:
    den grows by the denominator of den x_i at the first entry whose
    symmetric lift exceeds sqrt(modulus/2), until den x lifts within it.
    This finds every row den x with den and its entries within that bound,
    as the Hadamard argument of int_kernel_basis needs; None once a den
    would pass the bound, where the reconstruction need not be unique."""
    bound = isqrt((modulus - 1) // 2)
    res = res.astype(object)
    den = np.ones((len(res), 1), dtype=object)
    out = np.empty_like(res)
    todo = np.arange(len(res))
    while todo.size:
        lifted = _symmetric(res[todo] * den[todo] % modulus, modulus)
        big = np.abs(lifted) > bound
        done = ~big.any(axis=1)
        out[todo[done]] = lifted[done]
        for i, j in zip(np.flatnonzero(~done), big[~done].argmax(axis=1)):
            d = _denominator(int(lifted[i, j]) % modulus, modulus, bound)
            if d is None or den[todo[i], 0] * d > bound:
                return None
            den[todo[i], 0] *= d
        todo = todo[~done]
    return _primitive(out)


def _primitive(vecs: np.ndarray) -> np.ndarray:
    """Each row divided by its gcd, with its first nonzero entry positive,
    in place."""
    vecs //= np.gcd.reduce(vecs, axis=1)[:, None]
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    vecs *= np.where(lead < 0, -1, 1)[:, None]
    return vecs


def _annihilates(mat: np.ndarray, vecs: np.ndarray, bits: int) -> bool:
    """Exact check that M v = 0 for every row v of vecs, KERNEL_ROWS rows
    of M at a time, where the row l1 norms of M are below 2^(52 - bits): the
    base-2^bits digits of v give exact float64 products, which are summed
    digit by digit in int64 with a carry."""
    if bits < 1:
        return not np.any(mat.astype(object) @ vecs.astype(object).T)
    top, mask = int(np.abs(vecs).max(initial=0)).bit_length(), (1 << bits) - 1
    digits = [(vecs >> s if s + bits > top else (vecs >> s) & mask).astype(np.float64).T
              for s in range(0, top + 1, bits)]
    for rows in _kernel_blocks(len(mat)):
        m, carry = mat[rows].astype(np.float64), 0
        for digit in digits:
            total = (m @ digit).astype(np.int64) + carry
            if np.any(total & mask):
                return False
            carry = total >> bits
        if np.any(carry):
            return False
    return True


def _lift(mat: np.ndarray, residues: List[Tuple[np.ndarray, int]], bits: int) -> Optional[List[Tuple[int, ...]]]:
    """The kernel lifted from its residues (symmetric, else rational) and
    certified by M v = 0, each lift tried on the first row first and then
    taken through CRT, lift and check one block of rows at a time; or None."""
    trial_passed = False
    for lift in (lambda res, modulus: _primitive(_symmetric(res, modulus)), _rational_lift):
        if lift is _rational_lift:
            obs.count("linalg.rational_lifts")
        trial = lift(*_crt(residues, slice(1)))
        if trial is not None and _annihilates(mat, trial, bits):
            trial_passed = True
            vecs: List[Tuple[int, ...]] = []
            for rows in _kernel_blocks(len(residues[0][0])):
                block = lift(*_crt(residues, rows))
                if block is None or not _annihilates(mat, block, bits):
                    break
                vecs += (tuple(v.tolist()) for v in block)
            else:
                return vecs
    if not trial_passed:
        obs.count("linalg.trial_rejects")
    return None


def int_kernel_basis(mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the rational right kernel, certified exact.

    Primes are added until M v = 0 holds for the vectors lifted from the
    primes of largest rank and least pivots; a prime of other pivots adds
    nothing.  Minors of M are at most h, the product of its row l1 norms,
    so primes missing the rational pivots multiply to at most h, and
    reconstruction succeeds once the others pass 2h^2 + 2.

    Besides the int32 residues of the primes in use and the returned
    tuples, it holds the elimination's working matrix (dict rows of at most
    about n^2/16 entries, then one n x n float64 matrix if it hands off)
    plus a fixed number of row-block temporaries: the residues are read
    off, lifted through CRT and checked KERNEL_ROWS kernel rows at a time."""
    m = _int_matrix(mat, cols)
    with obs.span("linalg.int_kernel_basis"):
        norms = _row_l1(m)
        h, bits = prod(max(s, 1) for s in norms), 52 - max(norms, default=0).bit_length()
        obs.count("linalg.hadamard_bits", h.bit_length())
        spent, best, residues = 1, None, []
        for p in _primes():
            obs.count("linalg.primes")
            piv, kern = _modp_kernel(m, p)
            if not len(kern):  # full column rank mod p, so over Q
                return []
            if best is None or (-len(piv), piv) < (-len(best), best):
                best, residues = piv, []
            if piv == best:
                if residues:
                    obs.count("linalg.crt_rounds")
                residues.append((kern, p))
                vecs = _lift(m, residues, bits)
                if vecs is not None:
                    return vecs
            spent *= p
            if spent > (2 * h * h + 2) * h:
                raise ArithmeticError("modular kernel not certified within the Hadamard bound")


def int_rank(mat: Sequence[Sequence[int]], cols: Optional[int] = None) -> int:
    """Rank over the rationals, certified exact."""
    return 0 if len(mat) == 0 else (len(mat[0]) if cols is None else cols) - len(int_kernel_basis(mat, cols))


# ---------------------------------------------------------------------------
# Characteristic polynomials over Z
# ---------------------------------------------------------------------------

def _hessenberg_char_poly(mat: np.ndarray, p: int) -> np.ndarray:
    """det(xI - M) mod p, lowest degree first, via the upper Hessenberg form H
    of M: the leading m x m blocks of H have characteristic polynomials
    p_m = x p_(m-1) - sum_(i<m) h_(i,m-1) t_i p_i, with t_i the product of
    the subdiagonal entries h_(l,l-1) for i < l < m."""
    h = _residues(mat, p).astype(np.int64)
    n = h.shape[0]
    for j in range(n - 2):
        nz = np.flatnonzero(h[j + 1:, j])
        if nz.size == 0:
            continue
        i = j + 1 + int(nz[0])
        h[[i, j + 1]] = h[[j + 1, i]]
        h[:, [i, j + 1]] = h[:, [j + 1, i]]
        u = h[j + 2:, j] * pow(int(h[j + 1, j]), p - 2, p) % p
        rest = h[j + 2:, j:] + np.multiply.outer(p - u, h[j + 1, j:])
        h[j + 2:, j:] = rest - rest // p * p  # rest % p: numpy divides faster
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2:] @ u) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    t = np.zeros(0, dtype=np.int64)
    for m in range(1, n + 1):
        t = np.append(t * h[m - 1, m - 2] % p, 1)
        w = h[:m, m - 1] * t % p
        polys[m, 1:] = polys[m - 1, :-1]
        polys[m, :m] = (polys[m, :m] - w @ polys[:m, :m]) % p
    return polys[n]


def char_poly(mat: Sequence[Sequence[int]], max_n: int = CHAR_POLY_CAP) -> List[int]:
    """Coefficients of det(xI - M), lowest degree first, exact integers.

    The coefficient of x^(n-k) sums C(n,k) principal minors of size k,
    each at most rho^k for rho the largest absolute row sum, so CRT over
    primes past 2 (1 + rho)^n determines them all.
    """
    n = len(mat)
    if n > max_n:
        raise ValueError(f"matrix size {n} exceeds the characteristic polynomial cap {max_n}")
    if n == 0:
        return [1]
    m = _int_matrix(mat, n)
    if m.shape != (n, n):
        raise ValueError("characteristic polynomial needs a square matrix")
    bound = 2 * (1 + max(_row_l1(m))) ** n
    residues = []
    with obs.span("linalg.char_poly"):
        for p in _primes():
            obs.count("linalg.primes")
            obs.count("linalg.crt_rounds")
            residues.append((_hessenberg_char_poly(m, p), p))
            if prod(q for _, q in residues) > bound:
                return [int(c) for c in _symmetric(*_crt(residues))]
