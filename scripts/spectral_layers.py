"""Time the exact spectral layer: the kernel of A + I behind `spectrum`, and
the quotient divisibility check of an equitable partition.

Each stage runs once in this process, timed with time.perf_counter.  The
output is one JSON line mapping each stage to its seconds, plus a sha256
of each result, so that two checkouts can be compared for identical
results as well as for speed, and the peak RSS of the process.

Stages:
    spectrum on F(10), F(11) and H(2,9) as the generators label them, and
        on F(11) relabelled by np.random.default_rng(3).permutation: the
        time of minus_one_multiplicity, and a sha256 of the whole kernel
        basis of A + I it computed (multiplicity and every vector)
    charpoly_divides_graph on H(2,9) with its weight-parity cells

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/spectral_layers.py
"""

from __future__ import annotations

import hashlib
import json
import resource
import time

import numpy as np

from effdom import spectral
from effdom.graphs import folded_cube, hamming_graph
from effdom.jsonio import graph_from_doc
from effdom.partitions import charpoly_divides_graph


def _timed(call):
    t0 = time.perf_counter()
    out = call()
    return out, round(time.perf_counter() - t0, 4)


def _relabelled(g, seed: int):
    perm = np.random.default_rng(seed).permutation(g.n)
    edges = np.sort(perm[np.array(g.edges(), dtype=np.int64).reshape(-1, 2)], axis=1)
    return graph_from_doc({"v": 1, "name": g.name, "n": g.n, "edges": edges})


def main() -> int:
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
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
