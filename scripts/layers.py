"""Time effdom layer by layer, every run of every stage in a new interpreter,
this checkout against another one.

A stage is a setup, a timed call and a sha256 of the call's result.  Each
run of a stage is a new interpreter set up as perfbench/child.py sets up a
benchmark job: PYTHONDONTWRITEBYTECODE=1, PYTHONPATH cleared, effdom.cli
imported from the checkout's src/ and its parser built; then the stage's
setup runs, and only the call is timed.  The stage code is this file's on
both sides, so a stage may call only names that both checkouts have.

Groups (all of them when none is named):
    field     GF(p, b) construction, block matrices, plan building, Hamming
              codes, basis audits
    io        graph builds, closed sums, graph files written and read,
              verify_plan (the full checks read the fibre map, so they
              label every vertex), and the CLI's gen, verify and verify-plan
    spectral  minus_one_multiplicity (digest: its report), int_kernel_basis
              of A + I (digest: the whole basis), the CLI's spectrum,
              char_poly, quotient divisibility
    search    searches, whole and cut by their node limit

Each of RUNS runs takes every chosen stage once on each checkout, the other
checkout first in even runs.  The input files (graph and function files)
are written once, by this checkout in a child process, to a temporary
directory that is every child's working directory.

The report is one JSON document.  For each stage: its group; per side
("this", and "other" when another checkout is given) the median, q1 and q3
of wall_s (the call), maxrss_mb (the process's ru_maxrss when the call
ends; this launcher imports no numpy, so the image a child inherits from it
is far below any job's), minflt (minor faults during the call) and setup_s
(import, parser and setup before the call); and same_digest, whether every
run on both sides gave the same sha256 of the call's result and stdout.

Usage (from the root of a checkout):
    python3 scripts/layers.py [GROUP ...] [OTHER_ROOT]
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GROUPS = ("field", "io", "spectral", "search")
RUNS = 6  # runs per stage and checkout, even so that each side goes first as often
KEYS = ("wall_s", "maxrss_mb", "minflt", "setup_s")

STDOUT, RESULT = "stdout", "result.json"  # a child's, in its working directory
# a new interpreter running function argv[2] of this file with argv[3:]
LAUNCH = "import sys; sys.path.insert(0, sys.argv[1]); import layers; getattr(layers, sys.argv[2])(*sys.argv[3:])"


# Setups run in the child after effdom.cli is imported; each returns the call to time.

def _graph(make, *args, seed=None):
    """effdom.graphs.<make>(*args), or make(*args) for a callable; relabelled
    by default_rng(seed).permutation when a seed is given."""
    import numpy as np

    from effdom import graphs
    from effdom.jsonio import graph_from_doc

    g = (getattr(graphs, make) if isinstance(make, str) else make)(*args)
    if seed is None:
        return g
    perm = np.random.default_rng(seed).permutation(g.n)
    return graph_from_doc({"v": 1, "name": g.name, "n": g.n, "edges": np.sort(perm[g.edge_array()], axis=1)})


def _triangles(t: int):
    """t disjoint triangles, nullity 2t of A + I."""
    import numpy as np

    from effdom.jsonio import graph_from_doc

    v = 3 * np.arange(t, dtype=np.int64)[:, None]
    return graph_from_doc({"v": 1, "name": f"{t} K3", "n": 3 * t,
                           "edges": np.concatenate([v + [0, 1], v + [0, 2], v + [1, 2]])})


def _fields():
    from effdom.fields import GF, MODULI

    return lambda: [GF(p, b).blocks for p, b in [*MODULI, (65521, 1)]]


def _block_matrix(seed: int, p: int, b: int, n: int):
    import numpy as np

    from effdom.fields import GF
    from effdom.linalg import block_matrix

    gf = GF(p, b)
    mat = np.random.default_rng(seed).integers(0, gf.q, size=(n, n))
    return lambda: block_matrix(gf, mat)


def _build_plan(p: int, b: int, d: int):
    from effdom.fields import GF
    from effdom.hamming import build_plan

    gf = GF(p, b)
    return lambda: build_plan(gf, d)


def _hamming_code(a: int):
    from effdom.fields import GF
    from effdom.hamming import hamming_code

    return lambda: hamming_code(GF(2), a)


def _basis_audit(p: int, b: int, d: int):
    from effdom.hamming import basis_audit

    plan = _build_plan(p, b, d)()
    return lambda: basis_audit(plan)


def _cayley():
    import numpy as np

    from effdom.fields import GF
    from effdom.graphs import cayley_graph

    conn = sorted(np.random.default_rng(0).choice(np.arange(1, 1 << 13), 2047, replace=False).tolist())
    return lambda: cayley_graph(GF(2), 13, conn)


def _closed_sums(d: int):
    import numpy as np

    from effdom.graphs import closed_sums

    g = _graph("hamming_graph", 2, d)
    values = np.random.default_rng(0).integers(0, 2, g.n)
    return lambda: closed_sums(g, values)


def _dump_graph(d: int):
    from effdom.jsonio import dump_json, graph_to_doc

    g = _graph("hamming_graph", 2, d)
    return lambda: dump_json(graph_to_doc(g))


def _dump_listing():
    import numpy as np

    from effdom.jsonio import dump_json, function_rows

    values = np.random.default_rng(0).integers(0, 3, (5673, 32)).astype(np.int8)
    listing = {"functions": function_rows(values, 2, 6)}  # the shape of H(2,5), j=2, k=6
    return lambda: dump_json(listing)


def _load_graph(path: str):
    from effdom.cli import _load_graph

    return lambda: _load_graph(path)


def _verify_plan(p: int, b: int, d: int, sample=None):
    from effdom.hamming import verify_plan

    plan = _build_plan(p, b, d)()
    if sample is not None:
        return lambda: verify_plan(plan, sample, seed=0)

    def full():
        cert = verify_plan(plan)
        len(cert.fibre_map)  # built when first read, so inside the call
        return cert
    return full


def _cli(*argv):
    from effdom import cli

    def call():
        code = cli.run(list(argv))
        if code not in (0, 1):
            raise RuntimeError(f"effdom {' '.join(argv)} exited {code}")
        return code
    return call


def _spectrum(make):
    from effdom.spectral import minus_one_multiplicity

    g = make()
    return lambda: minus_one_multiplicity(g)


def _kernel_basis(make):
    """int_kernel_basis of A + I, the whole basis."""
    import numpy as np

    from effdom.linalg import int_kernel_basis

    g = make()
    a_plus_i = np.eye(g.n, dtype=np.int8)
    a_plus_i[g.rows(), g.indices] = 1
    return lambda: int_kernel_basis(a_plus_i)


def _char_poly(d: int):
    import numpy as np

    from effdom.linalg import char_poly

    g = _graph("hamming_graph", 2, d)
    a = np.zeros((g.n, g.n), dtype=np.int8)
    a[g.rows(), g.indices] = 1
    return lambda: char_poly(a)


def _charpoly_divides(d: int):
    from effdom.partitions import charpoly_divides_graph

    g = _graph("hamming_graph", 2, d)
    cells = [[v for v in range(g.n) if bin(v).count("1") % 2 == side] for side in (0, 1)]  # weight parity
    return lambda: charpoly_divides_graph(g, cells)


def _search(make, j: int, k: int, limit=None, count_only=False, first=False):
    from effdom.search import SearchConfig, enumerate_efficient, exists_efficient

    g = make()
    cfg = SearchConfig(j=j, k=k) if limit is None else SearchConfig(j=j, k=k, node_limit=limit)
    if first:
        return lambda: exists_efficient(g, cfg)
    return lambda: enumerate_efficient(g, cfg, count_only=count_only)


def _graph_file(make):
    def write(path):
        from effdom.jsonio import dump_json, graph_to_doc

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_json(graph_to_doc(make())))
    return write


def _cli_file(*argv):
    def write(path):
        with open(path, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            _cli(*argv)()
    return write


def _g(*args, seed=None):
    """The maker of _graph(*args, seed=seed), called in the child."""
    return functools.partial(_graph, *args, seed=seed)


def _build(make):
    return make  # a build's call is the graph's maker


# input files, written once by this checkout: name -> writer(path)
FILES = {f"h2_{d}.json": _graph_file(_g("hamming_graph", 2, d)) for d in (15, 18, 20)}
FILES.update({f"f_{d}.json": _cli_file("construct", "--q", "2", "--d", str(d), "--k", str(k))
              for d, k in ((15, 4), (18, 0), (20, 0))})
SPECTRUM_GRAPHS = {"F10": _g("folded_cube", 10), "F11": _g("folded_cube", 11), "H2_9": _g("hamming_graph", 2, 9),
                   "F11_rng3": _g("folded_cube", 11, seed=3), "H2_11": _g("hamming_graph", 2, 11),
                   "triangles1365_rng3": _g(_triangles, 1365, seed=3), "H4_5": _g("hamming_graph", 4, 5),
                   "C600_rng0": _g("cycle", 600, seed=0), "C1500_rng0": _g("cycle", 1500, seed=0)}
FILES.update({f"{name}.json": _graph_file(make) for name, make in SPECTRUM_GRAPHS.items()})

# name -> (group, setup, input files); setup() returns the call to time
STAGES = {"construct_fields": ("field", _fields, ())}
for seed, name, p, b, n in [(0, "gf32_n512", 2, 5, 512), (1, "gf65521_n1024", 65521, 1, 1024)]:
    STAGES[f"block_matrix_{name}"] = ("field", functools.partial(_block_matrix, seed, p, b, n), ())
for d in (1023, 4095):
    STAGES[f"build_plan_gf2_d{d}"] = ("field", functools.partial(_build_plan, 2, 1, d), ())
STAGES["hamming_code_gf2_a12"] = ("field", functools.partial(_hamming_code, 12), ())
for name, p, b, d in [("gf4_d85", 2, 2, 85), ("gf2_d255", 2, 1, 255), ("gf4_d341", 2, 2, 341)]:
    STAGES[f"basis_audit_{name}"] = ("field", functools.partial(_basis_audit, p, b, d), ())

for name, make in [("h2_18", _g("hamming_graph", 2, 18)), ("h2_20", _g("hamming_graph", 2, 20)),
                   ("h3_13", _g("hamming_graph", 3, 13)), ("h16_5", _g("hamming_graph", 16, 5)),
                   ("f16", _g("folded_cube", 16)), ("f21", _g("folded_cube", 21))]:
    STAGES[f"build_{name}"] = ("io", functools.partial(_build, make), ())
STAGES["build_cayley_gf2_13_c2047"] = ("io", _cayley, ())
STAGES["closed_sums_h2_18"] = ("io", functools.partial(_closed_sums, 18), ())
for d in (15, 18):
    STAGES[f"dump_json_h2_{d}"] = ("io", functools.partial(_dump_graph, d), ())
    STAGES[f"load_graph_h2_{d}"] = ("io", functools.partial(_load_graph, f"h2_{d}.json"), (f"h2_{d}.json",))
STAGES["dump_json_records_5673x32"] = ("io", _dump_listing, ())
for name, p, b, d, sample in [("gf2_d15", 2, 1, 15, None), ("gf4_d9", 2, 2, 9, None), ("gf3_d13", 3, 1, 13, None),
                              ("gf2_d127_sample10000", 2, 1, 127, 10 ** 4),
                              ("gf2_d4095_sample1000", 2, 1, 4095, 10 ** 3),
                              ("gf4_d13_sample1000", 2, 2, 13, 10 ** 3)]:
    STAGES[f"verify_plan_{name}"] = ("io", functools.partial(_verify_plan, p, b, d, sample), ())
for d in (15, 18, 20):
    STAGES[f"gen_h2_{d}"] = ("io", functools.partial(_cli, *f"gen --family hamming --q 2 --d {d}".split()), ())
    files = (f"h2_{d}.json", f"f_{d}.json")
    STAGES[f"verify_h2_{d}"] = ("io", functools.partial(_cli, "verify", "--graph", files[0], "--function", files[1]),
                                files)
for name, argv in [("gf4_d13_sample10000", "--q 4 --b 2 --d 13 --sample 10000 --seed 0"),
                   ("gf2_d127_sample10000", "--q 2 --d 127 --sample 10000 --seed 0"),
                   ("gf3_d13", "--q 3 --d 13"), ("gf2_d4095_sample1000", "--q 2 --d 4095 --sample 1000")]:
    STAGES[f"verify_plan_cli_{name}"] = ("io", functools.partial(_cli, "verify-plan", *argv.split()), ())

for name, make in [("F10", _g("folded_cube", 10)), ("F11", _g("folded_cube", 11)), ("H2_9", _g("hamming_graph", 2, 9)),
                   ("F11_rng3", _g("folded_cube", 11, seed=3)), ("F12", _g("folded_cube", 12)),
                   ("H2_12", _g("hamming_graph", 2, 12))]:
    STAGES[f"spectrum_{name}"] = ("spectral", functools.partial(_spectrum, make), ())
    STAGES[f"int_kernel_basis_{name}"] = ("spectral", functools.partial(_kernel_basis, make), ())
for name, make in [("H2_11", _g("hamming_graph", 2, 11)), ("H4_5", _g("hamming_graph", 4, 5))]:
    STAGES[f"spectrum_{name}"] = ("spectral", functools.partial(_spectrum, make), ())
STAGES["int_kernel_basis_C600_rng0"] = ("spectral", functools.partial(_kernel_basis, SPECTRUM_GRAPHS["C600_rng0"]), ())
STAGES["charpoly_divides_H2_9"] = ("spectral", functools.partial(_charpoly_divides, 9), ())
STAGES["char_poly_H2_7"] = ("spectral", functools.partial(_char_poly, 7), ())
for name in SPECTRUM_GRAPHS:  # the CLI's spectrum on the graph's file
    STAGES[name] = ("spectral", functools.partial(_cli, "spectrum", "--graph", f"{name}.json"), (f"{name}.json",))

for name, limit in [("2e6", 2 * 10 ** 6), ("2e7", 2 * 10 ** 7), ("1e8", 10 ** 8)]:
    STAGES[f"search_h2_7_limit_{name}"] = ("search", functools.partial(
        _search, _g("hamming_graph", 2, 7), 1, 4, limit, count_only=True), ())
STAGES["exists_h3_4_rng0_limit_2000"] = ("search", functools.partial(
    _search, _g("hamming_graph", 3, 4, seed=0), 1, 3, 2000, first=True), ())
STAGES["search_h3_4_j1_k3"] = ("search", functools.partial(_search, _g("hamming_graph", 3, 4), 1, 3), ())
STAGES["search_c1500_rng0_j1_k1"] = ("search", functools.partial(_search, _g("cycle", 1500, seed=0), 1, 1), ())


def _feed(h, obj) -> None:
    """Add obj to the sha256 h: a graph as its CSR arrays, an array as its
    dtype, shape and entries, a dataclass field by field, a list or tuple
    item by item, anything else as its repr."""
    if hasattr(obj, "indptr"):
        obj = (obj.indptr, obj.indices)
    if hasattr(obj, "tobytes"):
        import numpy as np

        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(repr(obj.tolist()).encode() if obj.dtype == object else np.ascontiguousarray(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _feed(h, [getattr(obj, f.name) for f in dataclasses.fields(obj)])
    elif isinstance(obj, (list, tuple)) and not all(type(x) is int for x in obj):
        h.update(b"(")
        for x in obj:
            _feed(h, x)
        h.update(b")")
    else:
        h.update(repr(obj).encode() + b",")


def child(root: str, name: str) -> None:
    """One run of stage name on the effdom of checkout root, its measurements written to RESULT."""
    t0 = time.perf_counter()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import effdom.cli

    if not os.path.abspath(effdom.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"effdom was imported from {effdom.cli.__file__}, not from {src}")
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            effdom.cli.run(["--help"])
        except SystemExit:
            pass
    call = STAGES[name][1]()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t1 = time.perf_counter()
    result = call()
    sys.stdout.flush()
    wall = time.perf_counter() - t1
    use = resource.getrusage(resource.RUSAGE_SELF)
    h = hashlib.sha256()
    _feed(h, result)
    with open(STDOUT, "rb") as fh:
        h.update(hashlib.file_digest(fh, "sha256").digest())  # in chunks
    with open(RESULT, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "maxrss_mb": use.ru_maxrss / 1024, "minflt": use.ru_minflt - faults,
                   "setup_s": t1 - t0, "sha256": h.hexdigest()}, fh)


def write_files(root: str, *names: str) -> None:
    """Write the input files names, with the effdom of checkout root, to the working directory."""
    sys.path.insert(0, os.path.join(root, "src"))
    for name in names:
        FILES[name](name)


def _launch(tmp: str, *args: str) -> None:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    with open(os.path.join(tmp, STDOUT), "wb") as out:
        subprocess.run([sys.executable, "-c", LAUNCH, HERE, *args], stdout=out, cwd=tmp, env=env, check=True)


def _quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def compare(names: list, other=None, runs: int = RUNS) -> dict:
    """The report on stages names over runs runs, this checkout against other (if given)."""
    roots = {"this": ROOT, **({"other": os.path.abspath(other)} if other else {})}
    samples = {name: {side: [] for side in roots} for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        files = sorted({f for name in names for f in STAGES[name][2]})
        if files:
            _launch(tmp, "write_files", ROOT, *files)
        for i in range(runs):
            print(f"run {i + 1} of {runs}", file=sys.stderr)
            order = list(roots)[::-1] if i % 2 == 0 else list(roots)
            for name in names:
                for side in order:
                    _launch(tmp, "child", roots[side], name)
                    with open(os.path.join(tmp, RESULT), encoding="utf-8") as fh:
                        samples[name][side].append(json.load(fh))
    stages = {}
    for name, sides in samples.items():
        stages[name] = {"group": STAGES[name][0],
                        **{side: {key: _quartiles([r[key] for r in rs]) for key in KEYS} for side, rs in sides.items()},
                        "same_digest": len({r["sha256"] for rs in sides.values() for r in rs}) == 1}
    return {"runs": runs, "checkouts": roots, "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], usage="%(prog)s [GROUP ...] [OTHER_ROOT]")
    parser.add_argument("args", nargs="*", metavar="GROUP|OTHER_ROOT",
                        help=f"groups among {', '.join(GROUPS)} (all when none is named), and another checkout")
    args = parser.parse_args(argv).args
    others = [a for a in args if a not in GROUPS]
    if len(others) > 1:
        parser.error(f"one other checkout at most, not {others}")
    groups = [g for g in GROUPS if g in args] or GROUPS
    print(json.dumps(compare([n for n, s in STAGES.items() if s[0] in groups], *others), indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
