"""Command line interface.

Each subcommand writes exactly one JSON document to stdout; diagnostics
go to stderr.  Exit codes: 0 success, 1 verification failure, 2 usage
error, or an exact certificate that its own check refused (the
ArithmeticError of a kernel not certified within its Hadamard bound, or
of a character witness that fails (A + I) w = 0), reported as one
`error:` line.  The vertex cap for generated and loaded graphs defaults to 2^21
and can be overridden with the EFFDOM_SIZE_CAP environment variable.

Field alphabets are selected with --q and --b: GF(q) with q = p^b, where
--q alone means a prime field.  The --alphabet flag of gen builds a
Hamming graph over a plain symbol set with no field structure.

The top-level --stats flag writes one JSON line of counters and stage
times to stderr after the command; stdout and the exit code are the same
with and without it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import List, Optional

import numpy as np

from . import hamming, jsonio, obs, partitions, search, spectral
from .domination import verify_dominating, verify_efficient
from .fields import GF, MAX_ORDER
from .graphs import (
    DEFAULT_SIZE_CAP,
    Graph,
    SizeCapExceeded,
    _check_power_cap,
    complete,
    complete_bipartite,
    cycle,
    folded_cube,
    hamming_graph,
)
from .jsonio import SCHEMA_VERSION

__all__ = ["main", "run"]


def _size_cap() -> int:
    raw = os.environ.get("EFFDOM_SIZE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"EFFDOM_SIZE_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("EFFDOM_SIZE_CAP must be positive")
    return cap


def _load_graph(path: str) -> Graph:
    return jsonio.load_graph(path, size_cap=_size_cap())


def _field_from_flags(q: int, b: Optional[int]) -> GF:
    # the order is bounded before any float root, power or primality test
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds the supported maximum {MAX_ORDER}")
    if b is None:
        return GF(q)
    if b < 1:
        raise ValueError("--b must be at least 1")
    if q >= 2 and b < q.bit_length():  # q = p^b >= 2^b has more than b bits
        p = round(q ** (1.0 / b))
        for cand in (p - 1, p, p + 1):
            if cand >= 2 and cand ** b == q:
                return GF(cand, b)
    raise ValueError(f"--q {q} is not a perfect {b}-th power")


def _emit(doc: dict) -> None:
    text = jsonio.dump_json(doc)  # written in slices: stdout copies each write whole to encode it
    for i in range(0, len(text), 1 << 16):
        sys.stdout.write(text[i:i + (1 << 16)])


def _certificate_doc(cert: partitions.CoverCertificate) -> dict:
    return {
        "certified": True,
        "kind": cert.kind,
        "fold": cert.fold,
        "base_size": cert.base_size,
    }


def _cmd_gen(args) -> int:
    cap = _size_cap()
    fam = args.family
    if fam == "complete":
        g = complete(_require(args.n, "--n"), size_cap=cap)
    elif fam == "cycle":
        g = cycle(_require(args.n, "--n"), size_cap=cap)
    elif fam == "complete-bipartite":
        g = complete_bipartite(_require(args.m, "--m"), _require(args.n, "--n"), size_cap=cap)
    elif fam == "folded-cube":
        g = folded_cube(_require(args.d, "--d"), size_cap=cap)
    elif fam == "hamming":
        d = _require(args.d, "--d")
        if args.alphabet is not None:
            g = hamming_graph(args.alphabet, d, size_cap=cap)
        else:
            gf = _field_from_flags(_require(args.q, "--q"), args.b)
            g = hamming_graph(gf, d, size_cap=cap)
    else:
        raise ValueError(f"unknown family {fam}")
    _emit(jsonio.graph_to_doc(g))
    return 0


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"{flag} is required here")
    return value


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    f = jsonio.function_from_doc(jsonio.load_json(args.function))
    report = (verify_dominating if args.dominating else verify_efficient)(g, f)
    doc = {
        "v": SCHEMA_VERSION,
        "mode": "dominating" if args.dominating else "efficient",
        "ok": report.ok,
        "j": f.j,
        "k": f.k,
        "observed_k": report.observed_k,
        "violations": np.array(report.violations, dtype=object).reshape(-1, 2),
        "j_tight": report.j_tight,
    }
    _emit(doc)
    return 0 if report.ok else 1


def _cmd_construct(args) -> int:
    gf = _field_from_flags(args.q, args.b)
    built = hamming.construct_function(gf, args.d, args.k, size_cap=_size_cap())
    doc = jsonio.function_to_doc(built.function)
    doc["provenance"] = {
        "a": built.profile.a_q,
        "m": built.profile.m_q,
        "fibres": built.profile.q ** built.profile.a_q if built.profile.a_q else 1,
    }
    _emit(doc)
    return 0


def _cmd_feasible(args) -> int:
    gf = _field_from_flags(args.q, args.b)
    prof = hamming.feasibility(gf, args.d)
    cap = _size_cap()
    # necessary_k holds p^a_p + 1 values, and constructed_k and open_k at most as many
    if prof.p ** prof.a_p + 1 > cap:
        raise SizeCapExceeded(f"{prof.p}^{prof.a_p} + 1 values of k exceed the cap of {cap}")
    doc = {
        "v": SCHEMA_VERSION,
        "q": prof.q,
        "p": prof.p,
        "b": prof.b,
        "d": prof.d,
        "r": prof.r,
        "expression": "(q-1)*d+1",
        "a_q": prof.a_q,
        "m_q": prof.m_q,
        "a_p": prof.a_p,
        "m_p": prof.m_p,
        "necessary_k": list(prof.necessary_k),
        "constructed_k": list(prof.constructed_k),
        "open_k": list(prof.open_k),
        "partition": prof.partition_descriptor(),
    }
    _emit(doc)
    return 0


def _cmd_verify_plan(args) -> int:
    gf = _field_from_flags(args.q, args.b)
    cap = _size_cap()
    # the caps come before build_plan: its plan holds O(d) entries and q^a - 1
    # parity columns, and N[0] has (q-1)d + 1 labels, a multiple of q^a, so one
    # bound covers both; build_plan's refusal of a_q = 0 comes first
    prof = hamming.feasibility(gf, args.d)
    plannable, hood, rest = prof.a_q > 0, (gf.q - 1) * args.d + 1, args.d - prof.a_q
    if plannable and args.sample is None:
        _check_power_cap(gf.q, args.d, cap)
    elif plannable and args.d > cap:
        raise SizeCapExceeded(f"{args.d} coordinates exceeds the cap of {cap}")
    elif plannable and hood > cap:
        raise SizeCapExceeded(f"a closed neighbourhood of {hood} labels exceeds the cap of {cap}")
    # the fold q^(d-a) prints in decimal, refused past Python's int-to-str limit (0: none); 2^(4*limit) > 10^limit
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if plannable and prof.m_q == 1 and limit and (rest > 4 * limit or gf.q ** rest >= 10 ** limit):
        raise ValueError(f"the fold {gf.q}^{rest} has more than {limit} digits, Python's limit for printing an integer")
    plan = hamming.build_plan(gf, args.d)
    try:
        cert = hamming.verify_plan(plan, sample=args.sample, seed=args.seed, size_cap=cap)
    except AssertionError as exc:
        sys.stderr.write(f"plan verification failed: {exc}\n")
        return 1
    _emit({"v": SCHEMA_VERSION, **_certificate_doc(cert), "mode": cert.mode})
    return 0


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    report = spectral.minus_one_multiplicity(g)
    doc = {
        "v": SCHEMA_VERSION,
        "multiplicity": report.multiplicity,
        "witness": list(report.witness) if report.witness else None,
    }
    _emit(doc)
    return 0


def _cmd_search(args) -> int:
    g = _load_graph(args.graph)
    cfg = search.SearchConfig(j=args.j, k=args.k, node_limit=args.limit)
    outcome = search.enumerate_efficient(g, cfg, count_only=args.count_only)
    doc = {
        "v": SCHEMA_VERSION,
        "j": args.j,
        "k": args.k,
        "count": outcome.count,
        "exhausted": outcome.exhausted,
        "nodes": outcome.nodes,
    }
    if outcome.diagnostic:
        doc["diagnostic"] = outcome.diagnostic
    if not args.count_only:
        doc["functions"] = jsonio.function_rows(outcome.values, args.j, args.k)
    _emit(doc)
    return 0


def _cmd_spectrum_k(args) -> int:
    g = _load_graph(args.graph)
    counts = search.k_spectrum(g, args.j, node_limit=args.limit)
    doc = {
        "v": SCHEMA_VERSION,
        "j": args.j,
        "counts": {str(k): c for k, c in counts.items()},
    }
    _emit(doc)
    return 0


def _cmd_partition(args) -> int:
    g = _load_graph(args.graph)
    cells = jsonio.partition_from_doc(jsonio.load_json(args.partition), g.n)
    b = partitions.characteristic_matrix(g, cells)
    weights = partitions.dominatable_weights(b) if b is not None else None
    doc = {
        "v": SCHEMA_VERSION,
        "equitable": b is not None,
        "characteristic_matrix": jsonio.matrix_to_doc(b) if b is not None else None,
        "dominatable_weights": weights,
    }
    _emit(doc)
    return 0


def _cmd_cover(args) -> int:
    g = _load_graph(args.graph)
    base = _load_graph(args.base)
    cells = jsonio.partition_from_doc(jsonio.load_json(args.partition), g.n)
    if args.k is None:
        cert = partitions.verify_cover(g, cells, base)
    else:
        cert = partitions.verify_kcover(g, cells, base, args.k)
    if cert is None:
        _emit({"v": SCHEMA_VERSION, "certified": False})
        return 1
    _emit({"v": SCHEMA_VERSION, **_certificate_doc(cert)})
    return 0


def _cmd_lift(args) -> int:
    g = _load_graph(args.graph)
    base = _load_graph(args.base)
    cells = jsonio.partition_from_doc(jsonio.load_json(args.partition), g.n)
    f = jsonio.function_from_doc(jsonio.load_json(args.function))
    cert = partitions.verify_cover(g, cells, base)
    if cert is None:
        sys.stderr.write("the partition is not a cover of the base graph\n")
        return 1
    if args.push:
        pushed = partitions.push(f, cert)
        if pushed is None:
            sys.stderr.write("function is not constant on fibres\n")
            return 1
        _emit(jsonio.function_to_doc(pushed))
    else:
        _emit(jsonio.function_to_doc(partitions.lift(f, cert)))
    return 0


def _cmd_translate(args) -> int:
    gf, cap = _field_from_flags(args.q, args.b), _size_cap()
    _check_power_cap(gf.q, args.d, cap)  # before either file is read
    fdoc = jsonio.load_json(args.function)
    f = jsonio.function_from_doc(fdoc)
    support = [v for v, x in enumerate(f.values) if x]
    connection = jsonio.connection_from_doc(jsonio.load_json(args.connection))
    cells, cert = partitions.translate_cover(gf, args.d, connection, support, size_cap=cap)
    doc = {
        "v": SCHEMA_VERSION,
        "partition": jsonio.partition_to_doc(cells),
        "certificate": _certificate_doc(cert),
    }
    _emit(doc)
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="effdom",
        description="Efficient (j,k)-dominating functions on regular graphs.",
    )
    top.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored; results do not depend on the thread count",
    )
    top.add_argument(
        "--stats",
        action="store_true",
        help='write {"stats": {"spans_ms": ..., "counters": ...}} to stderr as one JSON line',
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_field_flags(p, need_d=True):
        p.add_argument("--q", type=int, required=True, help="field order (p^b)")
        p.add_argument("--b", type=int, default=None, help="extension degree; omit for a prime field")
        if need_d:
            p.add_argument("--d", type=int, required=True, help="number of coordinates")

    p = sub.add_parser("gen", help="emit a generated graph as JSON")
    p.add_argument("--family", required=True,
                   choices=["complete", "cycle", "complete-bipartite", "hamming", "folded-cube"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alphabet", type=int, default=None,
                   help="symbol count for a Hamming graph with no field structure")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a function against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--dominating", action="store_true",
                   help="check the >= k condition instead of the == k condition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("construct", help="build an efficient (1,k) function on H(q,d)")
    add_field_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("feasible", help="report which k are settled on H(q,d)")
    add_field_flags(p)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("verify-plan", help="certify the coset partition of H(q,d)")
    add_field_flags(p)
    p.add_argument("--sample", type=int, default=None,
                   help="skip the q^d vertex cap; both modes count N[0] alone, and --sample and --seed name the mode")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_plan)

    p = sub.add_parser("spectrum", help="exact multiplicity of eigenvalue -1")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("search", help="enumerate efficient (j,k) functions")
    p.add_argument("--graph", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--limit", type=int, default=search.DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("spectrum-k", help="count efficient functions for every k")
    p.add_argument("--graph", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--limit", type=int, default=search.DEFAULT_NODE_LIMIT)
    p.set_defaults(func=_cmd_spectrum_k)

    p = sub.add_parser("partition", help="characteristic matrix and dominatability")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("cover", help="certify a cover or k-cover")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("lift", help="lift a base function to a cover (or push down)")
    p.add_argument("--graph", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--push", action="store_true",
                   help="project a fibre-constant cover function onto the base")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("translate", help="perfect-code translates as a cover of K_n")
    add_field_flags(p)
    p.add_argument("--function", required=True,
                   help="function JSON whose support is the perfect code")
    p.add_argument("--connection", required=True,
                   help='JSON file {"connection": [vertex ranks]}')
    p.set_defaults(func=_cmd_translate)

    return top


def run(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.stats:
        return _dispatch(args)
    with obs.collecting() as stats:
        try:
            return _dispatch(args)
        finally:
            sys.stderr.write(stats.line())


def _dispatch(args) -> int:
    try:
        return args.func(args)
    except SizeCapExceeded as exc:
        sys.stderr.write(f"size cap: {exc}\n")
        return 2
    except hamming.InfeasibleK as exc:
        sys.stderr.write(f"infeasible k ({exc.reason}): {exc}\n")
        return 2
    except search.NodeLimitExceeded as exc:
        sys.stderr.write(f"node limit: {exc}\n")
        return 1
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
