"""Efficient (1,k)-dominating functions on Hamming graphs H(q,d) over a
field alphabet, built from Hamming codes.

H(q,d) is (q-1)d-regular.  Write (q-1)d + 1 = q^a * m with q not dividing
m (and = p^{a_p} * m_p for the prime p under q).  Multiples of m_p are the
only k values allowed by divisibility; for every multiple of m the module
constructs an efficient (1,k) function explicitly, and when q is prime the
two families coincide, settling every k.

The construction, with l = (q^a - 1)/(q - 1): split the d coordinates
into S_0 of size (m-1)/(q-1) and blocks S_1..S_l of size m.  The linear
map phi: GF(q)^d -> GF(q)^l sends coordinates in S_i to the i-th unit
vector and S_0 to zero.  Pulling the length-l Hamming code C back through
phi gives a subspace T of dimension d - a whose q^a cosets tile every
closed neighborhood in proportion m: the coset partition is an m-cover of
K_{q^a}, so any union of t cosets is the support of an efficient
(1, t*m) function.  Cosets are labelled by the syndrome (parity check of
phi(v)) read as an integer rank, and construct_function takes the t
fibres with the smallest labels.

The label is GF(p)-linear in the base-p digits of the vertex rank: with
q = p^b, base-p digit c*b + j of the rank is coefficient j of coordinate
c, and base-p digit t*b + i of the label is coefficient i of syndrome
coordinate t.  This (d*b) x (a*b) matrix over GF(p) is the transposed
GF(p) block matrix (linalg.block_matrix) of the a x d parity check of
phi, whose columns are the plan's syndrome_cols; MCoverPlan.fibre_of
applies it to whole arrays of ranks at once.  build_plan builds only
those columns: phi and the code are built when read, as basis_audit does.

verify_plan counts the coset labels of each closed neighborhood it checks
(every one, or a seeded sample) and never builds H(q,d).  Sampling uses a
splitmix-style generator (increment 0x9E3779B97F4A7C15, mix multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) so runs are reproducible bit
for bit from the seed; each vertex takes ceil(log2(q^d)/64) of its 64-bit
words, one when q^d <= 2^64.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import obs
from .domination import DominatingFunction
from .fields import GF
from .graphs import (BLOCK, DEFAULT_SIZE_CAP, SizeCapExceeded, _check_power_cap, capped_power,
                     hamming_neighbors, rank_array)
from .linalg import block_matrix, field_rank, kernel_basis, mat_mul, rref
from .partitions import CoverCertificate

__all__ = [
    "FeasibilityProfile",
    "InfeasibleK",
    "AuditFailure",
    "CodeSubspace",
    "MCoverPlan",
    "DominatingFunctionWithPlan",
    "BasisAudit",
    "feasibility",
    "hamming_code",
    "build_plan",
    "verify_plan",
    "construct_function",
    "basis_audit",
]


class InfeasibleK(ValueError):
    """k admits no constructed function; reason is "divisibility" or "open"."""

    def __init__(self, k: int, reason: str, message: str):
        super().__init__(message)
        self.k = k
        self.reason = reason


class AuditFailure(AssertionError):
    """A basis identity of the construction failed to check out."""


@dataclass(frozen=True)
class FeasibilityProfile:
    """Factorization data for H(q,d) and the k values it settles."""

    q: int
    p: int
    b: int
    d: int
    r: int
    a_q: int
    m_q: int
    a_p: int
    m_p: int

    @property
    def necessary_k(self) -> Tuple[int, ...]:
        """Multiples of m_p in [0, r+1]: every other k fails divisibility."""
        return tuple(range(0, self.r + 2, self.m_p))

    @property
    def constructed_k(self) -> Tuple[int, ...]:
        """Multiples of m_q in [0, r+1]: these k are realized explicitly."""
        return tuple(range(0, self.r + 2, self.m_q))

    @property
    def open_k(self) -> Tuple[int, ...]:
        """Divisibility-allowed k with no construction (empty for prime q)."""
        built = set(self.constructed_k)
        return tuple(k for k in self.necessary_k if k not in built)

    def partition_descriptor(self) -> str:
        if self.a_q == 0:
            return "no q-power factor"
        base = self.q ** self.a_q
        if self.m_q == 1:
            return f"cover of K_{base}"
        return f"{self.m_q}-cover of K_{base}"


def feasibility(gf: GF, d: int) -> FeasibilityProfile:
    if d < 1:
        raise ValueError("d must be at least 1")
    q, p, b = gf.q, gf.p, gf.b
    r = (q - 1) * d
    a_p = 0
    rest = r + 1
    while rest % p == 0:
        rest //= p
        a_p += 1
    m_p = (r + 1) // p ** a_p
    a_q = a_p // b
    m_q = (r + 1) // q ** a_q
    return FeasibilityProfile(q=q, p=p, b=b, d=d, r=r, a_q=a_q, m_q=m_q, a_p=a_p, m_p=m_p)


@dataclass(frozen=True)
class CodeSubspace:
    """A linear code given by basis and parity check over GF(q)."""

    gf: GF
    length: int
    basis: Tuple[Tuple[int, ...], ...]
    parity_check: Tuple[Tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def _parity_columns(q: int, a: int) -> np.ndarray:
    """The projective representatives of the nonzero vectors of GF(q)^a
    (first nonzero coordinate 1), in increasing order of their integer
    rank, as the rows of an l x a array."""
    ranks = np.arange(1, q ** a, dtype=np.int64)
    digits = ranks[:, None] // q ** np.arange(a, dtype=np.int64) % q
    return digits[digits[np.arange(len(ranks)), np.argmax(digits != 0, axis=1)] == 1]


def hamming_code(gf: GF, a: int) -> CodeSubspace:
    """The length-(q^a - 1)/(q - 1) Hamming code over GF(q).

    Parity check columns are the projective representatives of the
    nonzero vectors of GF(q)^a (first nonzero coordinate 1), in
    increasing order of their integer rank.  For a = 1 the code is the
    zero subspace of GF(q)^1 with parity check [[1]].
    """
    if a < 1:
        raise ValueError("a must be at least 1")
    h = _parity_columns(gf.q, a).T.tolist()
    basis = tuple(tuple(v) for v in kernel_basis(gf, h))
    return CodeSubspace(gf=gf, length=len(h[0]), basis=basis, parity_check=tuple(map(tuple, h)))


@dataclass(frozen=True)
class MCoverPlan:
    """Coordinate split and parity-check columns behind the m-cover of
    K_{q^a}; the projection map phi and the code are built on first read."""

    gf: GF
    profile: FeasibilityProfile
    s_sets: Tuple[Tuple[int, ...], ...]
    syndrome_cols: Tuple[Tuple[int, ...], ...]

    @cached_property
    def phi(self) -> Tuple[Tuple[int, ...], ...]:
        """The l x d matrix sending the coordinates of S_i to unit vector i, S_0 to zero."""
        rows = np.zeros((len(self.s_sets) - 1, self.profile.d), dtype=np.int64)
        for row, block in zip(rows, self.s_sets[1:]):
            row[list(block)] = 1
        return tuple(map(tuple, rows.tolist()))

    @cached_property
    def code(self) -> CodeSubspace:
        return hamming_code(self.gf, self.profile.a_q)

    @property
    def fibre_count(self) -> int:
        return self.gf.q ** self.profile.a_q

    @property
    def fibre_size(self) -> int:
        return self.gf.q ** (self.profile.d - self.profile.a_q)

    def fibre_of(self, ranks):
        """Coset label of each rank: the syndrome of phi(v), read as a rank.

        ranks is one rank (giving an int) or a range or array of ranks
        (giving an int64 array of the same shape).  The GF(p)-linear map
        of the module docstring is the transposed block matrix of the
        a x d parity check of phi, whose columns are syndrome_cols.
        """
        gf = self.gf
        p = gf.p
        width = self.profile.a_q * gf.b
        # row c*b + j: the digits of x^j * s for each syndrome coordinate s of column c
        digit_map = block_matrix(gf, np.array(self.syndrome_cols, dtype=np.int64).T).T
        ranks_in = rank_array(ranks, gf.q ** self.profile.d)
        rest = ranks_in.ravel()  # rank_array made a copy, so rest may be reduced in place
        acc = np.zeros((len(rest), width), dtype=np.int64)
        for row in digit_map:  # peel one base-p digit at a time, lowest first
            quot = rest // p
            rest -= quot * p
            acc += rest.astype(np.int64, copy=False)[:, None] * row
            rest = quot
        labels = (acc % p) @ p ** np.arange(width, dtype=np.int64)
        return int(labels[0]) if ranks_in.ndim == 0 else labels.reshape(ranks_in.shape)


def build_plan(gf: GF, d: int) -> MCoverPlan:
    """Plan the m-cover construction for H(q,d); needs a_q >= 1."""
    profile = feasibility(gf, d)
    q, a, m = profile.q, profile.a_q, profile.m_q
    if a == 0:
        raise ValueError(
            f"(q-1)d+1 = {profile.r + 1} has no factor {q}; only the trivial k are constructible"
        )
    l = (q ** a - 1) // (q - 1)
    s0_size = (m - 1) // (q - 1)
    assert (m - 1) % (q - 1) == 0
    assert l * m + s0_size == d
    assert m * (q ** a - 1) == (q - 1) * d - (m - 1)
    ends = [0] + [s0_size + i * m for i in range(l + 1)]
    s_sets = tuple(tuple(range(lo, hi)) for lo, hi in zip(ends, ends[1:]))
    # coordinates of S_i take parity-check column i; those of S_0 the zero column
    cols = np.vstack([np.zeros((1, a), dtype=np.int64), _parity_columns(q, a)])
    syndrome_cols = tuple(map(tuple, cols[np.repeat(np.arange(l + 1), np.diff(ends))].tolist()))
    return MCoverPlan(gf=gf, profile=profile, s_sets=s_sets, syndrome_cols=syndrome_cols)


# splitmix-style 64-bit generator for reproducible sampling
_MASK64 = (1 << 64) - 1


def _splitmix64(seed: int) -> Iterator[int]:
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _draw_ranks(stream: Iterator[int], n: int, count: int) -> List[int]:
    """count ranks below n, each from ceil(log2(n)/64) words of the stream,
    least significant first: one word each when n <= 2^64."""
    words = max(1, -(-(n - 1).bit_length() // 64))
    return [sum(next(stream) << 64 * i for i in range(words)) % n for _ in range(count)]


def verify_plan(plan: MCoverPlan, sample: Optional[int] = None, seed: int = 0,
                size_cap: int = DEFAULT_SIZE_CAP) -> CoverCertificate:
    """Check that the plan's coset partition is an m-cover of K_{q^a}: every
    checked closed neighborhood meets every coset exactly m times.

    Full mode (sample=None) checks every vertex, reading its neighbours'
    labels off one array of all q^d labels, which is the fibre_map
    (build_plan's labels number the cosets in order of their first vertex).
    Sampled mode checks `sample` vertices from the seeded generator and
    labels their neighborhoods with fibre_of.  Both count BLOCK rows of
    labels per bincount.  Raises AssertionError naming the first failure.
    """
    profile = plan.profile
    q, d, m = profile.q, profile.d, profile.m_q
    fibres = plan.fibre_count
    if sample is None:
        n = _check_power_cap(q, d, size_cap)
        labels = plan.fibre_of(range(n))
        label_of = labels.take
        blocks = (np.arange(lo, min(lo + BLOCK, n), dtype=np.int64) for lo in range(0, n, BLOCK))
        fibre_map, mode = tuple(labels.tolist()), "full"
    elif sample < 1:
        raise ValueError("sample count must be positive")
    else:
        n = q ** d
        stream = _splitmix64(seed)
        label_of = plan.fibre_of
        blocks = (rank_array(_draw_ranks(stream, n, min(BLOCK, sample - lo)), n) for lo in range(0, sample, BLOCK))
        fibre_map, mode = None, f"sampled:{sample}:{seed}"
    for ranks in blocks:
        cell = label_of(np.column_stack([hamming_neighbors(q, d, ranks), ranks]))
        cell += fibres * np.arange(len(ranks))[:, None]
        counts = np.bincount(cell.ravel(), minlength=fibres * len(ranks)).reshape(-1, fibres)
        bad = (counts != m).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise AssertionError(
                f"closed neighborhood of vertex {ranks[i]} meets some coset {counts[i].tolist()} != {m} times"
            )
        obs.count("hamming.cover_vertices", len(ranks))
    return CoverCertificate(
        base_size=fibres,
        fold=plan.fibre_size if m == 1 else m,
        kind="cover" if m == 1 else "m-cover",
        fibre_map=fibre_map,
        mode=mode,
    )


@dataclass(frozen=True)
class DominatingFunctionWithPlan:
    function: DominatingFunction
    profile: FeasibilityProfile
    plan: Optional[MCoverPlan]


def construct_function(gf: GF, d: int, k: int, size_cap: int = DEFAULT_SIZE_CAP) -> DominatingFunctionWithPlan:
    """Explicit efficient (1,k) function on H(q,d) for any constructible k.

    Raises InfeasibleK with reason "divisibility" for k ruled out by the
    counting argument, and with reason "open" for k that divisibility
    allows but the construction does not reach (possible only for prime
    powers q that are not prime).
    """
    profile = feasibility(gf, d)
    r = profile.r
    if not 0 <= k <= r + 1:
        raise ValueError(f"k = {k} outside [0, {r + 1}]")
    if k % profile.m_p != 0:
        raise InfeasibleK(
            k, "divisibility",
            f"no efficient (1,{k}) on H({profile.q},{d}): (r+1) = {r + 1} does not divide n*k",
        )
    if k % profile.m_q != 0:
        raise InfeasibleK(
            k, "open",
            f"k = {k} passes divisibility but is not a multiple of m = {profile.m_q}; "
            f"no construction is known here",
        )
    n = capped_power(profile.q, d, size_cap)
    if n is None or n > size_cap:
        size = f"{profile.q}^{d}" if n is None else n
        raise SizeCapExceeded(f"H({profile.q},{d}) has {size} vertices, above the cap of {size_cap}")
    if k == 0:
        values = (0,) * n
        plan = None
    elif k == r + 1:
        values = (1,) * n
        plan = None
    else:
        plan = build_plan(gf, d)
        t = k // profile.m_q
        values = tuple((plan.fibre_of(range(n)) < t).astype(np.int64).tolist())
    func = DominatingFunction(values=values, j=1, k=k)
    return DominatingFunctionWithPlan(function=func, profile=profile, plan=plan)


@dataclass(frozen=True)
class BasisAudit:
    """Dimension bookkeeping for the subspace T = phi^{-1}(C)."""

    zero_sum_basis_size: int
    lifted_code_basis_size: int
    total_basis_size: int
    dim_t: int
    checks: Tuple[str, ...]


def basis_audit(plan: MCoverPlan) -> BasisAudit:
    """Rebuild the basis of T coordinate block by coordinate block and
    verify the counting identities; raises AuditFailure on any mismatch.

    B collects, for each block S_i (i >= 1), the m-1 differences of unit
    vectors that sum to zero inside the block, plus the unit vectors of
    S_0; B' adds one phi-preimage for each basis vector of the code.
    """
    gf = plan.gf
    profile = plan.profile
    q, d, a, m = profile.q, profile.d, profile.a_q, profile.m_q
    l = (q ** a - 1) // (q - 1)
    checks: List[str] = []

    # the unit vectors of S_0, then e_anchor - e_other inside each block S_i
    minus_one = gf.neg(1)
    big_b = [[int(c == coord) for c in range(d)] for coord in plan.s_sets[0]]
    big_b += [[1 if c == block[0] else minus_one if c == other else 0 for c in range(d)]
              for block in plan.s_sets[1:] for other in block[1:]]

    expected_b = l * (m - 1) + (m - 1) // (q - 1)
    if len(big_b) != expected_b:
        raise AuditFailure(f"|B| = {len(big_b)} but l(m-1) + (m-1)/(q-1) = {expected_b}")
    checks.append(f"|B| == l(m-1) + (m-1)/(q-1) == {expected_b}")
    alt = q ** a * (m - 1) // (q - 1)
    if expected_b != alt:
        raise AuditFailure(f"basis count {expected_b} != q^a (m-1)/(q-1) = {alt}")
    checks.append(f"|B| == q^a(m-1)/(q-1) == {alt}")

    phi = plan.phi
    if any(map(any, mat_mul(gf, big_b, list(zip(*phi))))):
        raise AuditFailure("a zero-sum basis vector leaves the kernel of phi")
    checks.append("B inside ker(phi)")
    if big_b and field_rank(gf, big_b) != len(big_b):
        raise AuditFailure("B is linearly dependent")
    checks.append("B linearly independent")

    # one elimination of [phi | the code basis as columns] lifts every code
    # vector, free coordinates zero, as solve_affine would one at a time
    code = plan.code.basis
    ech, piv = rref(gf, [list(row) + [vec[i] for vec in code] for i, row in enumerate(phi)], d + len(code))
    if piv and piv[-1] >= d:
        raise AuditFailure("a code basis vector has no phi-preimage")
    lifted = np.zeros((len(code), d), dtype=np.int64)
    lifted[:, piv] = np.array(ech, dtype=np.int64)[:len(piv), d:].T
    lifted = lifted.tolist()
    checks.append(f"|B_C| == {len(lifted)}")

    full = big_b + lifted
    if len(full) != d - a:
        raise AuditFailure(f"|B'| = {len(full)} but d - a = {d - a}")
    checks.append(f"|B'| == d - a == {d - a}")
    if full and field_rank(gf, full) != len(full):
        raise AuditFailure("B' is linearly dependent")
    checks.append("B' linearly independent")

    if any(map(any, mat_mul(gf, full, plan.syndrome_cols))):
        raise AuditFailure("a B' vector leaves T = phi^{-1}(C)")
    checks.append("B' inside T")
    dim_t = d - field_rank(gf, list(zip(*plan.syndrome_cols)))
    if dim_t != d - a:
        raise AuditFailure(f"dim T = {dim_t} but d - a = {d - a}")
    checks.append(f"dim T == d - a == {d - a}")

    return BasisAudit(
        zero_sum_basis_size=len(big_b),
        lifted_code_basis_size=len(lifted),
        total_basis_size=len(full),
        dim_t=dim_t,
        checks=tuple(checks),
    )
