"""Time the graph builders, the graph file layer, reading and writing graph
files, and the verify-plan check, which counts coset labels without
building a graph.

In-process mode: each stage runs REPEATS times in this process, timed with
time.perf_counter.  The output is one JSON line mapping each stage to the
median and quartiles of its seconds, plus a sha256 of each built or loaded
graph's CSR arrays, so that two checkouts can be compared for identical
results as well as for speed.  Run it on another checkout's source with
PYTHONPATH=OTHER_ROOT/src.

Build stages: hamming_graph for H(2,20), H(3,13) and H(16,5) (629 MB of
indices); folded_cube for F(16) and F(21); and cayley_graph(GF(2), 13, C)
with C the 2,047 ranks drawn from 1 .. 8191 without repeats by
default_rng(0).choice.

Stages, for H(2,15) and H(2,18) written by dump_json to a temporary
directory, as `effdom gen` writes them:
    load_graph: the CLI's graph loader, cli._load_graph (jsonio.load_graph,
        or graph_from_doc(load_json(path)) on checkouts that predate it)
    dump_json(graph_to_doc(graph))
dump_json of a search listing: the function_rows Records of a 5673 x 32
int8 matrix with entries in 0..2, drawn by default_rng(0), the shape of
the H(2,5), j=2, k=6 listing in the search benchmark.
The full m-cover check verify_plan(build_plan(gf, d)) for GF(2), d=15;
GF(2,2), d=9; and GF(3), d=13 (its fibre_map is built only when read);
and the sampled check verify_plan(plan, sample, seed=0) for GF(2), d=127
with 10^4 samples (ranks past 2^64); GF(2), d=4095 with 10^3 samples; and
GF(2,2), d=13 with 10^3 samples.  The plans are built outside the timings.

Fresh-process mode (--fresh OTHER_ROOT): the jobs `gen --family hamming
--q 2 --d D` and `verify` of that file with a constructed function, for
D = 15 and 18, each in a new interpreter with PYTHONDONTWRITEBYTECODE=1,
as the benchmark runs them: import effdom.cli and build its parser first,
then time the cli.run call.  Each run alternates the two checkouts, this
one and OTHER_ROOT, starting with the other one every second run.  For
each job and checkout the output gives the median over RUNS runs of the
call's wall time, of the process's ru_maxrss (its own peak RSS: this
launcher imports no numpy, so the small image a child inherits from it is
far below any job's) and of the minor page faults during the call; and
whether every run's stdout was the same on both sides.

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/io_layers.py
    python3 scripts/io_layers.py --fresh OTHER_ROOT
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one job in a new interpreter: argv[1] the checkout, argv[2] the result
# file, argv[3:] the CLI arguments; the job's stdout is this process's
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
import effdom.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        effdom.cli.run(["--help"])
    except SystemExit:
        pass
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
t0 = time.perf_counter()
code = effdom.cli.run(sys.argv[3:])
sys.stdout.flush()
wall = time.perf_counter() - t0
use = resource.getrusage(resource.RUSAGE_SELF)
with open(sys.argv[2], "w") as fh:
    json.dump({"exit": code, "wall_s": wall, "maxrss_mb": use.ru_maxrss / 1024,
               "minflt": use.ru_minflt - faults}, fh)
"""


REPEATS = 7  # runs per in-process stage


def _timed(call):
    """The result of call() and the median and quartiles of its seconds over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        out = None  # frees the last result before the next run
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return out, {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _csr_digest(g) -> str:
    return hashlib.sha256(g.indptr.tobytes() + g.indices.tobytes()).hexdigest()[:16]


def in_process() -> dict:
    import numpy as np

    from effdom.cli import _load_graph
    from effdom.fields import GF
    from effdom.graphs import cayley_graph, folded_cube, hamming_graph
    from effdom.hamming import build_plan, verify_plan
    from effdom.jsonio import dump_json, function_rows, graph_to_doc

    doc = {}
    conn = sorted(np.random.default_rng(0).choice(np.arange(1, 1 << 13), 2047, replace=False).tolist())
    for name, build in [("h2_20", lambda: hamming_graph(2, 20)), ("h3_13", lambda: hamming_graph(3, 13)),
                        ("h16_5", lambda: hamming_graph(16, 5)), ("f16", lambda: folded_cube(16)),
                        ("f21", lambda: folded_cube(21)), ("cayley_gf2_13_c2047", lambda: cayley_graph(GF(2), 13, conn))]:
        g, doc[f"build_{name}_s"] = _timed(build)
        doc[f"build_{name}_sha256"] = _csr_digest(g)
        del g
    with tempfile.TemporaryDirectory() as tmp:
        for d in (15, 18):
            g = hamming_graph(2, d)
            text, doc[f"dump_json_h2_{d}_s"] = _timed(lambda: dump_json(graph_to_doc(g)))
            path = os.path.join(tmp, f"h2_{d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            del g, text
            back, doc[f"load_graph_h2_{d}_s"] = _timed(lambda: _load_graph(path))
            doc[f"load_graph_h2_{d}_sha256"] = _csr_digest(back)
    listing = {"functions": function_rows(np.random.default_rng(0).integers(0, 3, (5673, 32)).astype(np.int8), 2, 6)}
    _, doc["dump_json_records_5673x32_s"] = _timed(lambda: dump_json(listing))
    for gf, name, d in [(GF(2), "gf2", 15), (GF(2, 2), "gf4", 9), (GF(3), "gf3", 13)]:
        plan = build_plan(gf, d)
        _, doc[f"verify_plan_{name}_d{d}_s"] = _timed(lambda: verify_plan(plan))
    for gf, name, d, sample in [(GF(2), "gf2", 127, 10 ** 4), (GF(2), "gf2", 4095, 10 ** 3),
                                (GF(2, 2), "gf4", 13, 10 ** 3)]:
        plan = build_plan(gf, d)
        _, doc[f"verify_plan_{name}_d{d}_sample{sample}_s"] = _timed(lambda: verify_plan(plan, sample, seed=0))
    return doc


def _job(root: str, argv: list, out_path: str, tmp: str) -> dict:
    """Run one CLI job in a new interpreter; its measurements and stdout digest."""
    result = os.path.join(tmp, "result.json")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    with open(out_path, "wb") as out:
        subprocess.run([sys.executable, "-c", CHILD, root, result, *argv], stdout=out, env=env, check=True)
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    if res["exit"] not in (0, 1):
        raise RuntimeError(f"{argv} exited {res['exit']} in {root}")
    with open(out_path, "rb") as fh:
        res["sha256"] = hashlib.file_digest(fh, "sha256").hexdigest()  # in chunks: the launcher stays small
    return res


RUNS = 8  # runs per job and checkout in --fresh mode, the same on both sides


def fresh(other: str) -> dict:
    roots = {"this": ROOT, "other": os.path.abspath(other)}
    samples: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for d, k in ((15, 4), (18, 0)):
            graph, function = os.path.join(tmp, f"h2_{d}.json"), os.path.join(tmp, f"f_{d}.json")
            _job(ROOT, ["gen", "--family", "hamming", "--q", "2", "--d", str(d)], graph, tmp)
            _job(ROOT, ["construct", "--q", "2", "--d", str(d), "--k", str(k)], function, tmp)
            jobs += [(f"gen_h2_{d}", ["gen", "--family", "hamming", "--q", "2", "--d", str(d)]),
                     (f"verify_h2_{d}", ["verify", "--graph", graph, "--function", function])]
        out = os.path.join(tmp, "stdout")
        for i in range(RUNS):
            order = ["other", "this"] if i % 2 == 0 else ["this", "other"]
            for name, argv in jobs:
                for side in order:
                    samples.setdefault(name, {}).setdefault(side, []).append(_job(roots[side], argv, out, tmp))
    report = {"runs": RUNS, "other": roots["other"]}
    for name, sides in samples.items():
        report[name] = {side: {key: round(statistics.median(r[key] for r in rs), 4)
                               for key in ("wall_s", "maxrss_mb", "minflt")} for side, rs in sides.items()}
        report[name]["same_stdout"] = len({r["sha256"] for rs in sides.values() for r in rs}) == 1
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fresh", metavar="OTHER_ROOT", help="compare fresh-process jobs with another checkout")
    args = parser.parse_args()
    print(json.dumps(fresh(args.fresh) if args.fresh else in_process()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
