"""Hamming graph feasibility, code construction, m-cover plans, and the
explicit efficient (1,k) functions built from them."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_oracle as oracle
from effdom.domination import DominatingFunction, verify_efficient
from effdom.fields import GF
from effdom.graphs import SizeCapExceeded, complete, hamming_graph
from effdom.hamming import (
    AuditFailure,
    BasisAudit,
    InfeasibleK,
    LabelPlan,
    MCoverPlan,
    basis_audit,
    build_plan,
    construct_function,
    feasibility,
    hamming_code,
    verify_plan,
)
from effdom.partitions import CoverCertificate, cells_from_labels, verify_kcover
from test_acceptance import SWEEP_INSTANCES

GF2 = GF(2)
GF3 = GF(3)
GF4 = GF(2, 2)


def test_feasibility_h25():
    prof = feasibility(GF2, 5)
    assert (prof.r, prof.a_q, prof.m_q, prof.a_p, prof.m_p) == (5, 1, 3, 1, 3)
    assert prof.necessary_k == (0, 3, 6)
    assert prof.constructed_k == (0, 3, 6)
    assert prof.open_k == ()
    assert prof.partition_descriptor() == "3-cover of K_2"


def test_feasibility_h27():
    prof = feasibility(GF2, 7)
    assert (prof.r, prof.a_q, prof.m_q) == (7, 3, 1)
    assert prof.constructed_k == tuple(range(9))
    assert prof.partition_descriptor() == "cover of K_8"


def test_feasibility_prime_power_alphabet():
    # r+1 = 16 = 4^2: every k settles
    prof5 = feasibility(GF4, 5)
    assert (prof5.a_p, prof5.a_q, prof5.m_q, prof5.m_p) == (4, 2, 1, 1)
    assert prof5.open_k == ()
    # r+1 = 28 = 4 * 7: a_p = 2 even, so the q-power and p-power agree
    prof9 = feasibility(GF4, 9)
    assert (prof9.a_q, prof9.m_q, prof9.m_p) == (1, 7, 7)
    assert prof9.necessary_k == (0, 7, 14, 21, 28)
    assert prof9.open_k == ()
    # r+1 = 40 = 8 * 5: odd 2-power part leaves genuinely open k
    prof13 = feasibility(GF4, 13)
    assert (prof13.a_p, prof13.m_p, prof13.a_q, prof13.m_q) == (3, 5, 1, 10)
    assert prof13.open_k == (5, 15, 25, 35)
    assert prof13.partition_descriptor() == "10-cover of K_4"


def test_feasibility_no_q_factor():
    prof = feasibility(GF2, 4)
    assert prof.a_q == 0 and prof.m_q == 5
    assert prof.necessary_k == (0, 5)
    assert prof.partition_descriptor() == "no q-power factor"
    with pytest.raises(ValueError):
        build_plan(GF2, 4)


def test_hamming_code_binary():
    code = hamming_code(GF2, 3)
    assert code.length == 7 and code.dimension == 4
    assert len(code.parity_check) == 3
    # columns are 1..7 in binary, least significant digit first
    cols = [tuple(code.parity_check[t][i] for t in range(3)) for i in range(7)]
    assert cols == [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    for vec in code.basis:
        assert not any(oracle.mat_vec(GF2, [list(r) for r in code.parity_check], list(vec)))


def test_hamming_code_ternary():
    code = hamming_code(GF3, 2)
    assert code.length == 4 and code.dimension == 2
    assert code.parity_check == ((1, 0, 1, 1), (0, 1, 1, 2))


def test_hamming_code_degenerate():
    code = hamming_code(GF2, 1)
    assert code.length == 1 and code.basis == () and code.parity_check == ((1,),)
    with pytest.raises(ValueError):
        hamming_code(GF2, 0)


def test_build_plan_h25():
    plan = build_plan(GF2, 5)
    assert plan.s_sets == ((0, 1), (2, 3, 4))
    assert plan.phi == ((0, 0, 1, 1, 1),)
    assert plan.fibre_count == 2 and plan.fibre_size == 16
    # fibre label is the parity of the last three bits
    assert oracle.fibre_of(plan, 0b00000) == 0
    assert oracle.fibre_of(plan, 0b00100) == 1
    assert oracle.fibre_of(plan, 0b01100) == 0
    assert oracle.fibre_of(plan, 0b00011) == 0


def test_fibres_partition_evenly():
    for gf, d in [(GF2, 5), (GF2, 7), (GF3, 4), (GF4, 5)]:
        plan = build_plan(gf, d)
        counts = Counter(plan.all_labels().tolist())
        assert len(counts) == plan.fibre_count
        assert set(counts.values()) == {plan.fibre_size}


def test_verify_plan_full():
    plan = build_plan(GF2, 5)
    cert = verify_plan(plan)
    assert cert.kind == "m-cover" and cert.fold == 3 and cert.base_size == 2
    assert cert.mode == "full" and cert.fibre_map is not None
    plan7 = build_plan(GF2, 7)
    cert7 = verify_plan(plan7)
    assert cert7.kind == "cover" and cert7.fold == 16 and cert7.base_size == 8


def test_full_verify_plan_builds_its_map_when_read(monkeypatch):
    # the CLI prints no fibre map, so verify_plan builds it only for a reader
    plan, calls = build_plan(GF3, 4), []
    all_labels = MCoverPlan.all_labels
    monkeypatch.setattr(MCoverPlan, "all_labels", lambda self: calls.append(self) or all_labels(self))
    cert = verify_plan(plan)
    assert calls == []
    assert cert.fibre_map == tuple(all_labels(plan).tolist()) and calls == [plan]
    assert cert.fibre_map is cert.fibre_map and calls == [plan]
    assert cert == CoverCertificate(9, 9, "cover", cert.fibre_map) and hash(cert) == hash(dataclasses.replace(cert))
    with pytest.raises(TypeError, match="fibre_map"):  # the field still has no default
        CoverCertificate(9, 9, "cover")


def test_verify_plan_sampled():
    plan = build_plan(GF2, 7)
    cert = verify_plan(plan, sample=64, seed=5)
    assert cert.mode == "sampled:64:5" and cert.fibre_map is None
    assert cert.fold == 16 and cert.kind == "cover"
    plan25 = build_plan(GF2, 5)
    cert25 = verify_plan(plan25, sample=40, seed=1)
    assert cert25.fold == 3 and cert25.kind == "m-cover"
    with pytest.raises(ValueError):
        verify_plan(plan, sample=0)


def test_verify_plan_catches_tampering():
    plan = build_plan(GF2, 5)
    cols = list(plan.syndrome_cols)
    cols[0] = (1,)
    bad = dataclasses.replace(plan, syndrome_cols=tuple(cols))
    with pytest.raises(AssertionError):
        verify_plan(bad)
    with pytest.raises(AssertionError):
        verify_plan(bad, sample=8, seed=0)


def test_construct_function_h25():
    x = hamming_graph(2, 5)
    for k in (0, 3, 6):
        out = construct_function(GF2, 5, k)
        assert verify_efficient(x, out.function).ok
        assert out.function.k == k
    assert construct_function(GF2, 5, 0).plan is None
    assert construct_function(GF2, 5, 6).plan is None
    assert construct_function(GF2, 5, 3).plan is not None
    assert sum(construct_function(GF2, 5, 3).function.values) == 16


def test_construct_function_h27_all_k():
    x = hamming_graph(2, 7)
    for k in range(9):
        out = construct_function(GF2, 7, k)
        assert verify_efficient(x, out.function).ok
    # k = 1 support is a perfect code of the classic size
    assert sum(construct_function(GF2, 7, 1).function.values) == 16


def test_construct_function_infeasible():
    with pytest.raises(InfeasibleK) as info:
        construct_function(GF2, 5, 2)
    assert info.value.k == 2 and info.value.reason == "divisibility"
    with pytest.raises(InfeasibleK) as info4:
        construct_function(GF4, 13, 5)
    assert info4.value.reason == "open"
    with pytest.raises(InfeasibleK) as info4b:
        construct_function(GF4, 13, 7)
    assert info4b.value.reason == "divisibility"
    with pytest.raises(ValueError):
        construct_function(GF2, 5, 7)


def test_size_cap_ordering():
    # feasibility rejections win over the size cap; feasible k hits the cap
    with pytest.raises(InfeasibleK):
        construct_function(GF4, 13, 5, size_cap=1 << 10)
    with pytest.raises(SizeCapExceeded):
        construct_function(GF4, 13, 10, size_cap=1 << 10)


def test_trivial_alphabet_without_plan():
    # r+1 = 5 is coprime to q = 3: only the constant functions exist
    x = hamming_graph(3, 2)
    zero = construct_function(GF3, 2, 0)
    full = construct_function(GF3, 2, 5)
    assert zero.plan is None and full.plan is None
    assert verify_efficient(x, zero.function).ok
    assert verify_efficient(x, full.function).ok
    assert set(zero.function.values) == {0}
    assert set(full.function.values) == {1}


def test_basis_audit_h25():
    audit = basis_audit(build_plan(GF2, 5))
    assert audit.zero_sum_basis_size == 4
    assert audit.lifted_code_basis_size == 0
    assert audit.total_basis_size == 4 and audit.dim_t == 4
    assert any("d - a" in c for c in audit.checks)


def test_basis_audit_h27():
    audit = basis_audit(build_plan(GF2, 7))
    assert audit.zero_sum_basis_size == 0
    assert audit.lifted_code_basis_size == 4
    assert audit.total_basis_size == 4 and audit.dim_t == 4


def test_basis_audit_gf4():
    audit = basis_audit(build_plan(GF4, 5))
    assert audit.zero_sum_basis_size == 0
    assert audit.lifted_code_basis_size == 3
    assert audit.dim_t == 3
    # H(4,9): one block of 7 plus an S_0 of 2, so 6 + 2 zero-sum vectors
    audit9 = basis_audit(build_plan(GF4, 9))
    assert audit9.zero_sum_basis_size == 8
    assert audit9.lifted_code_basis_size == 0
    assert audit9.total_basis_size == 8 and audit9.dim_t == 8


def test_audit_failure_on_tampered_plan():
    plan = build_plan(GF2, 7)
    cols = list(plan.syndrome_cols)
    cols[0], cols[1] = cols[1], cols[0]
    bad = dataclasses.replace(plan, syndrome_cols=tuple(cols))
    with pytest.raises(AuditFailure):
        basis_audit(bad)


def test_audit_failure_without_a_phi_preimage():
    # with S_1 emptied, phi's first row is zero, so a code vector with a
    # nonzero first coordinate has no preimage
    plan = build_plan(GF2, 7)
    bad = dataclasses.replace(plan, s_sets=((), ()) + plan.s_sets[2:])
    with pytest.raises(AuditFailure, match="no phi-preimage"):
        basis_audit(bad)


def _fibre_oracle(plan, v):
    """The per-vertex syndrome loop: one scalar field operation at a time."""
    gf = plan.gf
    q = gf.q
    a = plan.profile.a_q
    syndrome = [0] * a
    rem = v
    for col in plan.syndrome_cols:
        x = rem % q
        rem //= q
        if x:
            for t in range(a):
                if col[t]:
                    syndrome[t] = gf.add(syndrome[t], gf.mul(x, col[t]))
    rank = 0
    for t in range(a - 1, -1, -1):
        rank = rank * q + syndrome[t]
    return rank


def _tampered(plan):
    cols = list(plan.syndrome_cols)
    cols[0] = tuple((c + 1) % plan.gf.q for c in cols[0])
    return dataclasses.replace(plan, syndrome_cols=tuple(cols))


@pytest.mark.parametrize("gf, d", [
    (GF2, 1), (GF2, 3), (GF2, 5), (GF2, 7), (GF2, 9), (GF2, 11), (GF2, 13), (GF2, 15), (GF2, 17),
    (GF2, 127),
    (GF3, 1), (GF3, 4), (GF3, 7), (GF3, 10), (GF3, 13),
    (GF(5), 1), (GF(5), 6),
    (GF4, 1), (GF4, 5), (GF4, 9), (GF4, 13),
    (GF(2, 3), 1), (GF(2, 3), 9),
    (GF(3, 2), 1), (GF(3, 2), 10),
], ids=repr)
def test_array_fibre_of_matches_per_vertex_loop(gf, d):
    n = gf.q ** d
    if n <= 1 << 12:
        ranks = list(range(n))
    else:
        rng = random.Random(d)
        ranks = [rng.randrange(n) for _ in range(2000)] + [n - 1]
    if d == 127:
        assert max(ranks) >= 1 << 63
    for plan in (build_plan(gf, d), _tampered(build_plan(gf, d))):
        expected = [_fibre_oracle(plan, v) for v in ranks]
        assert oracle.fibre_of(plan, ranks).tolist() == expected
        assert [oracle.fibre_of(plan, v) for v in ranks[:20]] == expected[:20]
        assert type(oracle.fibre_of(plan, ranks[0])) is int
        if n <= 1 << 12:
            assert oracle.fibre_of(plan, range(n)).tolist() == expected
            assert plan.all_labels().tolist() == expected


def test_sampled_tamper_names_first_failing_vertex():
    # both modes count N[0], so a failure names vertex 0 whatever the seed
    plan = build_plan(GF2, 5)
    cols = list(plan.syndrome_cols)
    cols[0] = (1,)
    bad = dataclasses.replace(plan, syndrome_cols=tuple(cols))
    for sample, seed in [(8, 0), (8, 1), (None, 0)]:
        with pytest.raises(AssertionError) as info:
            verify_plan(bad, sample=sample, seed=seed)
        assert str(info.value) == "closed neighborhood of vertex 0 meets some coset [2, 4] != 3 times"


def _materialised_cover(plan):
    """The cover check on the built graph: verify_kcover of H(q,d) against
    K_{q^a} with the coset cells, or None when it fails."""
    q, d = plan.gf.q, plan.profile.d
    cells = cells_from_labels(plan.all_labels())
    if len(cells) != plan.fibre_count:  # a coset is empty
        return None
    return verify_kcover(hamming_graph(q, d), cells, complete(plan.fibre_count), plan.profile.m_q)


@pytest.mark.parametrize("gf, d", SWEEP_INSTANCES + [(GF4, 5), (GF4, 9)], ids=repr)
def test_full_verify_plan_matches_materialised_cover(gf, d):
    plan = build_plan(gf, d)
    cert, want = verify_plan(plan), _materialised_cover(plan)
    fields = ("kind", "fold", "base_size", "mode", "fibre_map")
    assert want is not None
    assert [getattr(cert, f) for f in fields] == [getattr(want, f) for f in fields]
    # a zero column made nonzero, or a nonzero one zero, moves q - 1 of the
    # origin's neighbours to another coset
    cols = list(plan.syndrome_cols)
    cols[0] = (0,) * len(cols[0]) if any(cols[0]) else (1,) + (0,) * (len(cols[0]) - 1)
    bad = dataclasses.replace(plan, syndrome_cols=tuple(cols))
    with pytest.raises(AssertionError, match="closed neighborhood of vertex 0 "):
        verify_plan(bad)
    assert _materialised_cover(bad) is None


def _corrupted(plan, rng):
    """The plan with one to three syndrome columns replaced by other random columns."""
    q, a = plan.gf.q, plan.profile.a_q
    cols = list(plan.syndrome_cols)
    for i in rng.sample(range(len(cols)), min(len(cols), rng.randint(1, 3))):
        new = cols[i]
        while new == cols[i]:
            new = tuple(rng.randrange(q) for _ in range(a))
        cols[i] = new
    return dataclasses.replace(plan, syndrome_cols=tuple(cols))


def _closed_neighborhoods(q, d, vertices):
    """Each vertex, then its neighbours: every digit replaced by each other symbol."""
    hoods = []
    for v in vertices:
        hood, rem = [v], v
        for i in range(d):
            x = rem % q
            rem //= q
            hood += [v + (s - x) * q ** i for s in range(q) if s != x]
        hoods.append(hood)
    return hoods


def _neighborhood_failure(plan, vertices, hoods):
    """verify_plan's AssertionError text for the first of the vertices whose
    closed neighborhood, labelled by the oracle's fibre_of, meets some coset other than
    m times; None when none does."""
    m = plan.profile.m_q
    for v, labels in zip(vertices, oracle.fibre_of(plan, hoods)):
        counts = Counter(labels.tolist())
        got = [counts[c] for c in range(plan.fibre_count)]
        if any(c != m for c in got):
            return f"closed neighborhood of vertex {v} meets some coset {got} != {m} times"
    return None


@pytest.mark.parametrize("gf, d", SWEEP_INSTANCES + [(GF4, 13), (GF2, 127)], ids=repr)
def test_verify_plan_matches_explicit_neighborhoods(gf, d):
    # the oracle of the translation argument: verify_plan counts N[0] alone,
    # and fails exactly when some explicitly built closed neighborhood of
    # random vertices (or of every vertex) fails
    plan = build_plan(gf, d)
    prof, q, n = plan.profile, gf.q, gf.q ** d
    rng = random.Random(f"{q}-{d}")
    plans = [plan] + [_corrupted(plan, rng) for _ in range(3)]
    unit_ranks = [0] + [c * q ** i for i in range(d) for c in range(1, q)]
    sample = 1100 if n < 1 << 62 else 150  # past 2^62 the oracle's fibre_of works on Python ints
    runs = [(sample, seed, [rng.randrange(n) for _ in range(sample)]) for seed in (0, 1)]
    if n <= 1 << 16:
        runs.append((None, 0, range(n)))
    runs = [(sample, seed, vertices, _closed_neighborhoods(q, d, vertices)) for sample, seed, vertices in runs]
    for each in plans:
        assert each.origin_labels().tolist() == oracle.fibre_of(each, unit_ranks).tolist()
        # a replaced plan labels with its own columns, not a matrix cached on plan
        assert each.origin_labels()[1:q].tolist() == [_fibre_oracle(each, c) for c in range(1, q)]
        at_origin = _neighborhood_failure(each, [0], _closed_neighborhoods(q, d, [0]))
        for sample, seed, vertices, hoods in runs:
            failure = _neighborhood_failure(each, vertices, hoods)
            assert (failure is None) == (at_origin is None)
            if failure is not None:
                with pytest.raises(AssertionError) as info:
                    verify_plan(each, sample=sample, seed=seed)
                assert str(info.value) == at_origin
                continue
            full = sample is None
            assert verify_plan(each, sample=sample, seed=seed) == CoverCertificate(
                base_size=q ** prof.a_q,
                fold=q ** (d - prof.a_q) if prof.m_q == 1 else prof.m_q,
                kind="cover" if prof.m_q == 1 else "m-cover",
                fibre_map=tuple(each.all_labels().tolist()) if full else None,
                mode="full" if full else f"sampled:{sample}:{seed}",
            )
    assert plan.label_matrix is plan.label_matrix
    assert all(each.label_matrix is not plan.label_matrix for each in plans[1:])


# the plannable H(q,d) with q^d <= 2^12 over GF(2), GF(3) and GF(2,2)
SMALL_PLANS = [(gf, d) for gf in (GF2, GF3, GF4) for d in range(1, 12)
               if gf.q ** d <= 1 << 12 and feasibility(gf, d).a_q > 0]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PLANS), st.data())
def test_verify_plan_matches_materialised_cover_on_random_columns(case, data):
    # the plan's columns permuted (still a cover, its cosets numbered in
    # another order) with up to three of them replaced by random columns
    gf, d = case
    plan = build_plan(gf, d)
    q, a = gf.q, plan.profile.a_q
    cols = data.draw(st.permutations(plan.syndrome_cols), label="permuted")
    column = st.tuples(*[st.integers(0, q - 1)] * a)
    for i in data.draw(st.lists(st.integers(0, d - 1), max_size=3), label="replaced"):
        cols[i] = data.draw(column, label=f"column {i}")
    each = dataclasses.replace(plan, syndrome_cols=tuple(cols))
    sample = data.draw(st.none() | st.integers(1, 2000), label="sample")
    seed = data.draw(st.integers(0, 1 << 64), label="seed")
    failure = _neighborhood_failure(each, [0], _closed_neighborhoods(q, d, [0]))
    want = _materialised_cover(each)
    if failure is not None:
        with pytest.raises(AssertionError) as info:
            verify_plan(each, sample=sample, seed=seed)
        assert str(info.value) == failure and want is None
        return
    cert = verify_plan(each, sample=sample, seed=seed)
    assert want is not None
    assert (cert.kind, cert.fold, cert.base_size) == (want.kind, want.fold, want.base_size)
    assert cert.mode == ("full" if sample is None else f"sampled:{sample}:{seed}")
    if sample is None:
        assert cells_from_labels(cert.fibre_map) == cells_from_labels(want.fibre_map)


# every plan that acceptance criterion 9 audits
AUDITED_PLANS = SWEEP_INSTANCES + [(GF4, 5), (GF4, 9), (GF4, 13)]


@pytest.mark.parametrize("gf, d", AUDITED_PLANS, ids=repr)
def test_plan_data_match_scalar_construction(gf, d):
    plan = build_plan(gf, d)
    a = plan.profile.a_q
    h, basis = oracle.hamming_code_basis(gf, a)
    assert plan.phi == oracle.phi(plan)
    assert (plan.code.parity_check, plan.code.basis) == (h, basis)
    block_of = [i for i, block in enumerate(plan.s_sets) for _ in block]
    assert plan.syndrome_cols == tuple(tuple(h[t][i - 1] if i else 0 for t in range(a)) for i in block_of)


def _expected_audit(gf, d):
    """The BasisAudit of build_plan(gf, d), from the counting identities alone."""
    prof = feasibility(gf, d)
    q, a, m = prof.q, prof.a_q, prof.m_q
    l = (q ** a - 1) // (q - 1)
    zero_sum = l * (m - 1) + (m - 1) // (q - 1)
    return BasisAudit(
        zero_sum_basis_size=zero_sum,
        lifted_code_basis_size=l - a,
        total_basis_size=d - a,
        dim_t=d - a,
        checks=(
            f"|B| == l(m-1) + (m-1)/(q-1) == {zero_sum}",
            f"|B| == q^a(m-1)/(q-1) == {zero_sum}",
            "B inside ker(phi)",
            "B linearly independent",
            f"|B_C| == {l - a}",
            f"|B'| == d - a == {d - a}",
            "B' linearly independent",
            "B' inside T",
            f"dim T == d - a == {d - a}",
        ),
    )


@pytest.mark.parametrize("gf, d", AUDITED_PLANS + [(GF4, 85), (GF2, 255), (GF4, 341)], ids=repr)
def test_basis_audit_matches_counting_identities(gf, d):
    assert basis_audit(build_plan(gf, d)) == _expected_audit(gf, d)


def test_phi_and_code_follow_a_replaced_plan():
    plan = build_plan(GF2, 7)
    moved = dataclasses.replace(plan, s_sets=((), (0,), (1,), (2,), (3,), (4,), (6,), (5,)))
    assert moved.phi[-1] == (0, 0, 0, 0, 0, 1, 0) and plan.phi[-1] == (0, 0, 0, 0, 0, 0, 1)
    assert moved.code == plan.code == hamming_code(GF2, 3)
    assert plan.code is plan.code and plan.phi is plan.phi


def test_verify_plan_reads_only_the_label_matrix():
    # no profile and no coordinate split: gf and the label matrix decide,
    # through origin_labels and fibre_count
    plan = build_plan(GF4, 13)
    blind = dataclasses.replace(plan, profile=None, s_sets=None)
    for sample, seed in [(1000, 7), (10000, 0)]:
        assert verify_plan(blind, sample=sample, seed=seed) == verify_plan(plan, sample=sample, seed=seed)
    assert verify_plan(LabelPlan(GF4, plan.label_matrix), sample=1) == verify_plan(plan, sample=1)
    # an MCoverPlan is a LabelPlan whose matrix is built from its columns and
    # left out of equality and hashing
    small = build_plan(GF4, 9)
    assert small == build_plan(GF4, 9) and hash(small) == hash(build_plan(GF4, 9))
    assert isinstance(small, LabelPlan)
    moved = dataclasses.replace(small, syndrome_cols=small.syndrome_cols[::-1])
    assert moved != small and moved.all_labels().tolist() != small.all_labels().tolist()
    same = LabelPlan(GF4, small.label_matrix)
    assert same.origin_labels().tolist() == small.origin_labels().tolist()
    assert same.all_labels().tolist() == small.all_labels().tolist()
    for sample in (None, 1):
        assert verify_plan(same, sample=sample) == verify_plan(small, sample=sample)


def _h413_gf2_matrix():
    """A GF(2)-linear labelling of H(4,13) by 8 classes: row 2c + j holds the
    binary digits, lowest first, of the label of x^j * e_c.  Coordinate c
    labels (1, x) as below: the three lines of PG(2,2) through point 1, the
    other four lines twice each, one rank-1 map and one zero map."""
    pairs = [(1, 2), (1, 4), (1, 6)] + [(2, 4), (2, 5), (3, 4), (3, 5)] * 2 + [(1, 0), (0, 0)]
    return np.array([[label >> i & 1 for i in range(3)] for pair in pairs for label in pair])


def test_h413_gf2_labelling_certifies_open_k():
    # (q-1)d + 1 = 40 = 8 * 5: the GF(4) plan reaches only multiples of m_q = 10,
    # and this 5-cover of K_8 reaches the open k = 5, 15, 25, 35
    assert feasibility(GF4, 13).open_k == (5, 15, 25, 35)
    matrix = _h413_gf2_matrix()
    assert matrix.shape == (26, 3)
    plan = LabelPlan(GF4, matrix)
    assert np.bincount(plan.origin_labels()).tolist() == [5] * 8
    for sample in (None, 1):
        cert = verify_plan(plan, sample=sample, size_cap=1 << 26)
        assert (cert.base_size, cert.fold, cert.kind) == (8, 5, "m-cover")
    matrix[0] = [0, 1, 0]  # the label of e_0 becomes 2
    with pytest.raises(AssertionError) as info:
        verify_plan(LabelPlan(GF4, matrix), sample=1)
    assert str(info.value) == "closed neighborhood of vertex 0 meets some coset [6, 4, 6, 4, 5, 5, 5, 5] != 5 times"


@pytest.mark.parametrize("gf, matrix", [
    (GF4, np.zeros((3, 1), dtype=np.int64)),  # rows not a multiple of b
    (GF2, np.zeros((0, 1), dtype=np.int64)),
    (GF2, np.zeros((5, 0), dtype=np.int64)),
    (GF2, [1, 0, 1]),
    (GF2, np.zeros((3, 3), dtype=np.int64)),  # 2^3 classes, 4 labels in N[0]
    (GF2, [[2], [0], [0]]),
    (GF3, [[-1], [0], [0], [0]]),
    (GF2, [[0.5], [0], [0]]),
], ids=["rows", "no-rows", "no-columns", "one-dim", "too-wide", "entry-p", "entry-negative", "float"])
def test_label_plan_refuses_malformed_matrices(gf, matrix):
    with pytest.raises(ValueError):
        LabelPlan(gf, matrix)


def test_label_plan_whose_classes_do_not_divide_the_neighbourhood_fails():
    # (q-1)d + 1 = 5 labels cannot meet 2 classes equally: the demand is 5 // 2,
    # and the class that meets N[0] three times fails as surely as the other
    plan = LabelPlan(GF2, [[1], [1], [0], [0]])
    for sample in (None, 3):
        with pytest.raises(AssertionError) as info:
            verify_plan(plan, sample=sample)
        assert str(info.value) == "closed neighborhood of vertex 0 meets some coset [3, 2] != 2 times"
    assert verify_kcover(hamming_graph(2, 4), cells_from_labels(plan.all_labels()), complete(2), 2) is None


def test_label_plan_keeps_its_own_copy():
    matrix = build_plan(GF2, 7).label_matrix.copy()
    plan = LabelPlan(GF2, matrix)
    matrix[:] = 0
    assert verify_plan(plan).kind == "cover"


def _digit_labels(gf, matrix, n):
    """The label of every rank below n: its base-p digits times the matrix mod p."""
    p = gf.p
    digits = np.arange(n, dtype=np.int64)[:, None] // p ** np.arange(len(matrix), dtype=np.int64) % p
    return digits @ matrix % p @ p ** np.arange(matrix.shape[1], dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SMALL_PLANS), st.data())
def test_label_plan_matches_materialised_cover(case, data):
    # a built plan's label matrix times a random invertible GF(p) matrix
    # (L U P: L unit lower and U upper triangular with a nonzero diagonal,
    # P a permutation), cut to its first w columns, at times with one row replaced
    gf, d = case
    p, q, n = gf.p, gf.q, gf.q ** d
    matrix = build_plan(gf, d).label_matrix
    rows, width = matrix.shape
    square = st.lists(st.integers(0, p - 1), min_size=width * width, max_size=width * width)
    lower = np.tril(np.reshape(data.draw(square, label="lower"), (width, width)), -1) + np.eye(width, dtype=np.int64)
    upper = np.triu(np.reshape(data.draw(square, label="upper"), (width, width)), 1) + np.diag(
        data.draw(st.lists(st.integers(1, p - 1), min_size=width, max_size=width), label="diagonal"))
    mixed = (matrix @ lower % p @ upper % p)[:, data.draw(st.permutations(range(width)), label="columns")]
    mixed = mixed[:, :data.draw(st.integers(1, width), label="w")]
    if data.draw(st.booleans(), label="corrupt"):
        row = data.draw(st.integers(0, rows - 1), label="row")
        new = data.draw(st.lists(st.integers(0, p - 1), min_size=mixed.shape[1], max_size=mixed.shape[1]))
        mixed[row] = new
    plan = LabelPlan(gf, mixed)
    classes = p ** mixed.shape[1]
    m = ((q - 1) * d + 1) // classes
    labels = _digit_labels(gf, mixed, n)
    cells = cells_from_labels(labels)
    graph = hamming_graph(q, d)
    want = verify_kcover(graph, cells, complete(classes), m) if len(cells) == classes else None
    if want is None:
        for sample in (None, 5):
            with pytest.raises(AssertionError, match="closed neighborhood of vertex 0 "):
                verify_plan(plan, sample=sample)
        return
    for sample in (None, 5):
        cert = verify_plan(plan, sample=sample)
        assert (cert.kind, cert.fold, cert.base_size) == (want.kind, want.fold, want.base_size)
    assert cert.fibre_map is None and verify_plan(plan).fibre_map == tuple(labels.tolist())
    # any t classes support an efficient (1, t*m) function
    for t in (1, classes - 1):
        assert verify_efficient(graph, DominatingFunction(tuple((labels < t).astype(int).tolist()), 1, t * m)).ok
