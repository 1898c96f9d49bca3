"""Acceptance gate: nine end-to-end checks of the package's core claims.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Everything is exact arithmetic; the whole file is budgeted
to finish in well under ten minutes.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Dict, List, Tuple

from effdom.domination import (
    DominatingFunction,
    verify_dominating,
    verify_efficient,
)
from effdom.fields import GF
from effdom.graphs import (
    Graph,
    closed_neighborhood_sum,
    complete,
    cycle,
    folded_cube,
    hamming_graph,
    vertex_rank,
)
from effdom.hamming import (
    MCoverPlan,
    basis_audit,
    build_plan,
    construct_function,
    feasibility,
    hamming_code,
    verify_plan,
)
from effdom.partitions import (
    canonical_cells,
    cells_from_labels,
    characteristic_matrix,
    charpoly_divides_graph,
    dominatable_eigen_check,
    is_dominatable,
    lift,
    push,
    translate_cover,
    verify_cover,
)
from effdom.search import SearchConfig, enumerate_efficient, k_spectrum
from effdom.spectral import function_from_eigenvector, minus_one_multiplicity

GF2 = GF(2)
GF3 = GF(3)
GF5 = GF(5)
GF4 = GF(2, 2)

# the complete list of (gf, d) with prime q in {2,3,5}, q^d <= 2^18, and
# q dividing (q-1)d + 1
SWEEP_INSTANCES: List[Tuple[GF, int]] = (
    [(GF2, d) for d in range(1, 18, 2)]
    + [(GF3, d) for d in (1, 4, 7, 10)]
    + [(GF5, d) for d in (1, 6)]
)

_cache: Dict[str, object] = {}


def criterion(n: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"\n[criterion {n}] FAIL {title}: {exc!r}")
                raise
            suffix = f": {detail}" if detail else ""
            print(f"\n[criterion {n}] PASS {title}{suffix}")

        return wrapper

    return deco


def _sweep_results() -> List[dict]:
    """Criterion 2 work product, reused by criterion 9."""
    if "sweep" in _cache:
        return _cache["sweep"]  # type: ignore[return-value]
    results = []
    for gf, d in SWEEP_INSTANCES:
        prof = feasibility(gf, d)
        assert prof.a_q >= 1, (gf.q, d)
        assert gf.q ** d <= 1 << 18
        plan = build_plan(gf, d)
        graph = hamming_graph(gf.q, d)
        cert = verify_plan(plan)
        assert cert.mode == "full"
        verified_k = []
        for k in prof.constructed_k:
            built = construct_function(gf, d, k)
            report = verify_efficient(graph, built.function)
            assert report.ok, (gf.q, d, k)
            verified_k.append(k)
        results.append({"gf": gf, "d": d, "plan": plan, "cert": cert, "ks": verified_k})
    _cache["sweep"] = results
    return results


def _q4_results() -> List[dict]:
    """Criterion 4 work product, reused by criterion 9."""
    if "q4" in _cache:
        return _cache["q4"]  # type: ignore[return-value]
    results = []
    for d, sample in [(5, None), (9, 10000), (13, 10000)]:
        plan = build_plan(GF4, d)
        cert = verify_plan(plan, sample=sample, seed=0)
        results.append({"gf": GF4, "d": d, "plan": plan, "cert": cert})
    _cache["q4"] = results
    return results


@criterion(1, "pictured assignments verify and every perturbation fails")
def test_criterion_1():
    cases = [
        (cycle(6), DominatingFunction((1, 0, 0, 1, 0, 0), j=1, k=1)),
        (
            Graph(5, [[2, 3, 4], [2, 3, 4], [0, 1], [0, 1], [0, 1]], "K(2,3)"),
            DominatingFunction((2, 2, 1, 1, 1), j=2, k=5),
        ),
    ]
    perturbations = 0
    for x, f in cases:
        assert verify_efficient(x, f).ok
        for v in range(x.n):
            for new in range(f.j + 1):
                if new == f.values[v]:
                    continue
                vals = list(f.values)
                vals[v] = new
                assert not verify_efficient(x, DominatingFunction(tuple(vals), f.j, f.k)).ok
                perturbations += 1
    return f"2 assignments verified, {perturbations} single-value perturbations rejected"


@criterion(2, "every prime-field instance builds, certifies, and constructs all feasible k")
def test_criterion_2():
    results = _sweep_results()
    covered = {(rec["gf"].q, rec["d"]) for rec in results}
    for minimum in [(2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (3, 4), (3, 7), (5, 6)]:
        assert minimum in covered, minimum
    constructed = sum(len(rec["ks"]) for rec in results)
    return f"{len(results)} instances fully certified, {constructed} constructed functions verified"


@criterion(3, "exhaustive search confirms no function exists off the multiples of m")
def test_criterion_3():
    expected_gaps = {
        (2, 3): set(),
        (2, 5): {1, 2, 4, 5},
        (3, 2): {1, 2, 3, 4},
        (3, 4): set(),
    }
    confirmed = 0
    for (q, d), gaps in expected_gaps.items():
        gf = GF(q)
        prof = feasibility(gf, d)
        non_multiples = {k for k in range(1, prof.r + 1) if k % prof.m_q}
        assert non_multiples == gaps, (q, d)
        graph = hamming_graph(q, d)
        for k in sorted(non_multiples):
            outcome = enumerate_efficient(graph, SearchConfig(j=1, k=k))
            assert outcome.exhausted and outcome.count == 0, (q, d, k)
            confirmed += 1
    return f"{confirmed} impossible k values exhaustively ruled out across 4 instances"


@criterion(4, "the q = 4 feasibility table reproduces, including the open k values")
def test_criterion_4():
    prof5 = feasibility(GF4, 5)
    assert prof5.partition_descriptor() == "cover of K_16"
    prof9 = feasibility(GF4, 9)
    assert prof9.partition_descriptor() == "7-cover of K_4"
    prof13 = feasibility(GF4, 13)
    assert prof13.partition_descriptor() == "10-cover of K_4"
    assert prof13.open_k == (5, 15, 25, 35)
    results = _q4_results()
    modes = {rec["d"]: rec["cert"].mode for rec in results}
    assert modes[5] == "full"
    assert modes[9] == "sampled:10000:0"
    assert modes[13] == "sampled:10000:0"
    return "descriptors and open k match; d = 5 full, d = 9 and 13 sampled at 10000 vertices"


@criterion(5, "eigenvalue -1 decides existence and its eigenvectors convert to functions")
def test_criterion_5():
    for x in [hamming_graph(3, 2), folded_cube(5), folded_cube(9)]:
        assert minus_one_multiplicity(x).multiplicity == 0
    positives = [
        cycle(6),
        hamming_graph(2, 3),
        hamming_graph(2, 5),
        hamming_graph(2, 7),
        folded_cube(3),
        folded_cube(7),
    ]
    for x in positives:
        rep = minus_one_multiplicity(x)
        assert rep.multiplicity >= 1 and rep.witness is not None
        f = function_from_eigenvector(x, rep.witness)
        assert verify_efficient(x, f).ok
        assert f.k == -min(rep.witness) * (x.regular_degree() + 1)
    assert minus_one_multiplicity(hamming_graph(2, 5)).multiplicity == 10
    pattern = []
    for d in range(3, 12):
        positive = minus_one_multiplicity(folded_cube(d)).multiplicity > 0
        assert positive == ((d + 1) % 4 == 0), d
        pattern.append("+" if positive else "-")
    return f"3 zero cases, 6 converted witnesses, folded-cube pattern {''.join(pattern)}"


@criterion(6, "counts are dual around the middle k and match a full product sweep")
def test_criterion_6():
    for x in [cycle(6), hamming_graph(2, 3), complete(4)]:
        r = x.regular_degree()
        counts = k_spectrum(x, 1)
        for k in range(1, r + 1):
            assert counts[k] == counts[r - k + 1], (x.name, k)
    c6 = cycle(6)
    counts6 = k_spectrum(c6, 1)
    assert counts6[1] == 3 and counts6[2] == 3
    brute: Dict[int, int] = {k: 0 for k in range(4)}
    for vals in itertools.product((0, 1), repeat=6):
        sums = {closed_neighborhood_sum(c6, vals, v) for v in range(6)}
        if len(sums) == 1:
            brute[sums.pop()] += 1
    assert counts6 == brute
    return "duality holds on 3 graphs; C_6 counts equal the 2^6 sweep"


def criterion_7_corpus() -> List[Tuple[Graph, List[List[int]], bool]]:
    """Equitable partitions, each with whether it is dominatable."""
    corpus = []
    for n in range(3, 7):
        corpus.append((complete(n), [[v] for v in range(n)], True))
    for gf, d in [(GF2, 3), (GF2, 5)]:
        plan = build_plan(gf, d)
        x = hamming_graph(gf.q, d)
        cells = cells_from_labels([plan.fibre_of(v) for v in range(x.n)])
        corpus.append((x, [list(c) for c in cells], True))
    corpus.append((cycle(6), [[0, 3], [1, 2, 4, 5]], True))
    q3 = hamming_graph(2, 3)
    evens = [v for v in range(8) if bin(v).count("1") % 2 == 0]
    corpus.append((q3, [evens, [v for v in range(8) if v not in evens]], False))
    corpus.append((cycle(6), [[0, 2, 4], [1, 3, 5]], False))
    corpus.append((cycle(4), [[0, 2], [1, 3]], False))
    return corpus


@criterion(7, "quotient polynomials divide and the two dominatability tests agree")
def test_criterion_7():
    corpus = criterion_7_corpus()
    non_dominatable = 0
    for x, cells, expect in corpus:
        b = characteristic_matrix(x, cells)
        assert b is not None, x.name
        assert charpoly_divides_graph(x, cells), x.name
        weights = is_dominatable(x, cells)
        assert (weights is not None) == dominatable_eigen_check(b), x.name
        assert (weights is not None) == expect, x.name
        if weights is None:
            non_dominatable += 1
    assert non_dominatable >= 3
    return f"{len(corpus)} equitable partitions checked, {non_dominatable} non-dominatable"


@criterion(8, "cube-to-folded-cube covers certify and lift/push preserve verdicts")
def test_criterion_8():
    rounds = 0
    for d in (3, 4, 5, 6):
        qd = hamming_graph(2, d)
        fd = folded_cube(d)
        full = (1 << d) - 1
        cells = canonical_cells([[x, full ^ x] for x in range(1 << (d - 1))], qd.n)
        cert = verify_cover(qd, cells, fd)
        assert cert is not None and cert.fold == 2, d
        ones = DominatingFunction((1,) * fd.n, j=1, k=d + 1)
        assert verify_efficient(fd, ones).ok
        assert verify_efficient(qd, lift(ones, cert)).ok
        rng = random.Random(90 + d)
        for _ in range(10):
            vals = tuple(rng.randint(0, 2) for _ in range(fd.n))
            k = rng.randint(0, 2 * (d + 1))
            base_f = DominatingFunction(vals, j=2, k=k)
            lifted = lift(base_f, cert)
            assert verify_efficient(fd, base_f).ok == verify_efficient(qd, lifted).ok
            assert verify_dominating(fd, base_f).ok == verify_dominating(qd, lifted).ok
            assert push(lifted, cert) == base_f
            rounds += 1
    code = hamming_code(GF2, 3)
    support = []
    for picks in itertools.product((0, 1), repeat=code.dimension):
        word = [0] * 7
        for t, basis_vec in zip(picks, code.basis):
            if t:
                word = [GF2.add(w, bvx) for w, bvx in zip(word, basis_vec)]
        support.append(vertex_rank(2, word))
    connection = [1 << i for i in range(7)]
    cells7, cert7 = translate_cover(GF2, 7, connection, support)
    assert cert7.base_size == 8 and cert7.fold == 16 and cert7.kind == "cover"
    return f"4 covers certified, {rounds} lift/push round trips, code translates cover K_8"


@criterion(9, "basis bookkeeping identities hold for every plan built above")
def test_criterion_9():
    audited = 0
    for rec in _sweep_results() + _q4_results():
        plan: MCoverPlan = rec["plan"]
        prof = plan.profile
        audit = basis_audit(plan)
        q, a, m = prof.q, prof.a_q, prof.m_q
        assert audit.zero_sum_basis_size == q ** a * (m - 1) // (q - 1)
        assert audit.total_basis_size == prof.d - a
        assert audit.dim_t == prof.d - a
        audited += 1
    return f"{audited} plans audited"
