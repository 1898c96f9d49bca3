"""Time the exact spectral layer: the kernel of A + I behind `spectrum`, and
the quotient divisibility check of an equitable partition.

In-process mode: each stage runs once in this process, timed with
time.perf_counter.  The output is one JSON line mapping each stage to its
seconds, plus a sha256 of each result, so that two checkouts can be
compared for identical results as well as for speed, and the peak RSS of
the process.

Stages:
    spectrum on F(10), F(11) and H(2,9) as the generators label them, and
        on F(11) relabelled by np.random.default_rng(3).permutation: the
        time of minus_one_multiplicity, and a sha256 of the whole kernel
        basis of A + I it computed (multiplicity and every vector)
    charpoly_divides_graph on H(2,9) with its weight-parity cells

Fresh-process mode (--fresh OTHER_ROOT): `spectrum --graph FILE` on F(10),
F(11), H(2,9), F(11) relabelled by np.random.default_rng(3), H(2,11) and
the union of 1365 triangles (4095 vertices, nullity 2730) relabelled by
np.random.default_rng(3), each in a new interpreter as scripts/io_layers.py
runs its jobs (import effdom.cli first, then time the cli.run call).  The
graph files are written once, by this checkout, in a child process.  Each
run alternates the two checkouts, this one and OTHER_ROOT, starting with
the other one every second run.  For each graph and checkout the output
gives the median and quartiles over RUNS runs of the call's wall time and
of the process's ru_maxrss, and whether every run's stdout was the same on
both sides.

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/spectral_layers.py
    python3 scripts/spectral_layers.py --fresh OTHER_ROOT
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

from io_layers import ROOT, _job, _timed

# writes the graphs to the directory argv[2] with the effdom of the
# checkout argv[1], one file per graph, as `effdom gen` writes them, and
# prints their names
MAKE_GRAPHS = """
import os, sys
import numpy as np
sys.path.insert(0, sys.argv[1] + "/src")
from effdom.graphs import folded_cube, hamming_graph
from effdom.jsonio import dump_json, graph_from_doc, graph_to_doc

def relabelled(name, n, edges):
    perm = np.random.default_rng(3).permutation(n)
    return graph_from_doc({"v": 1, "name": name, "n": n, "edges": np.sort(perm[edges], axis=1)})

def triangles(t):
    v = 3 * np.arange(t, dtype=np.int64)[:, None]
    return np.concatenate([v + [0, 1], v + [0, 2], v + [1, 2]])

graphs = {"F10": folded_cube(10), "F11": folded_cube(11), "H2_9": hamming_graph(2, 9),
          "F11_rng3": relabelled("F(11)", 1024, folded_cube(11).edge_array()),
          "H2_11": hamming_graph(2, 11), "triangles1365_rng3": relabelled("1365 K3", 4095, triangles(1365))}
for name, g in graphs.items():
    with open(os.path.join(sys.argv[2], name + ".json"), "w", encoding="utf-8") as fh:
        fh.write(dump_json(graph_to_doc(g)))
print(*graphs)
"""

RUNS = 5  # runs per graph and checkout in --fresh mode, the same on both sides


def _relabelled(g, seed: int):
    import numpy as np

    from effdom.jsonio import graph_from_doc

    perm = np.random.default_rng(seed).permutation(g.n)
    edges = np.sort(perm[np.array(g.edges(), dtype=np.int64).reshape(-1, 2)], axis=1)
    return graph_from_doc({"v": 1, "name": g.name, "n": g.n, "edges": edges})


def in_process() -> dict:
    import hashlib
    import resource

    from effdom import spectral
    from effdom.graphs import folded_cube, hamming_graph
    from effdom.partitions import charpoly_divides_graph

    kernels = []
    kernel_basis = spectral.int_kernel_basis
    spectral.int_kernel_basis = lambda mat: kernels.append(kernel_basis(mat)) or kernels[-1]
    doc = {}
    for name, make in [("F10", lambda: folded_cube(10)), ("F11", lambda: folded_cube(11)),
                       ("H2_9", lambda: hamming_graph(2, 9)), ("F11_rng3", lambda: _relabelled(folded_cube(11), 3))]:
        g = make()
        _, doc[f"spectrum_{name}_s"] = _timed(lambda: spectral.minus_one_multiplicity(g))
        doc[f"spectrum_{name}_sha256"] = hashlib.sha256(repr(kernels.pop()).encode()).hexdigest()[:16]
    g = hamming_graph(2, 9)
    cells = [[v for v in range(g.n) if bin(v).count("1") % 2 == side] for side in (0, 1)]
    doc["charpoly_divides_H2_9"], doc["charpoly_divides_H2_9_s"] = _timed(lambda: charpoly_divides_graph(g, cells))
    doc["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return doc


def _spread(values: list) -> dict:
    """Median and quartiles, rounded."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def fresh(other: str) -> dict:
    roots = {"this": ROOT, "other": os.path.abspath(other)}
    samples: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        graphs = subprocess.run([sys.executable, "-c", MAKE_GRAPHS, ROOT, tmp], capture_output=True,
                                text=True, check=True).stdout.split()
        out = os.path.join(tmp, "stdout")
        for i in range(RUNS):
            order = ["other", "this"] if i % 2 == 0 else ["this", "other"]
            for name in graphs:
                argv = ["spectrum", "--graph", os.path.join(tmp, name + ".json")]
                for side in order:
                    samples.setdefault(name, {}).setdefault(side, []).append(_job(roots[side], argv, out, tmp))
    report = {"runs": RUNS, "other": roots["other"]}
    for name, sides in samples.items():
        report[name] = {side: {key: _spread([r[key] for r in rs]) for key in ("wall_s", "maxrss_mb")}
                        for side, rs in sides.items()}
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
