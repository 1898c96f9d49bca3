"""Time the graph file layer, reading and writing graph files, and the
verify-plan check, which counts coset labels without building a graph.

Each stage runs once in this process, timed with time.perf_counter.  The
output is one JSON line mapping each stage to its seconds, plus a sha256
of each loaded graph's CSR arrays, so that two checkouts can be compared
for identical results as well as for speed.

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

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/io_layers.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time

import numpy as np

from effdom.cli import _load_graph
from effdom.fields import GF
from effdom.graphs import hamming_graph
from effdom.hamming import build_plan, verify_plan
from effdom.jsonio import dump_json, function_rows, graph_to_doc


def _timed(call):
    t0 = time.perf_counter()
    out = call()
    return out, round(time.perf_counter() - t0, 4)


def main() -> int:
    doc = {}
    with tempfile.TemporaryDirectory() as tmp:
        for d in (15, 18):
            g = hamming_graph(2, d)
            text, doc[f"dump_json_h2_{d}_s"] = _timed(lambda: dump_json(graph_to_doc(g)))
            path = os.path.join(tmp, f"h2_{d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            del g, text
            back, doc[f"load_graph_h2_{d}_s"] = _timed(lambda: _load_graph(path))
            csr = hashlib.sha256(back.indptr.tobytes() + back.indices.tobytes())
            doc[f"load_graph_h2_{d}_sha256"] = csr.hexdigest()[:16]
    listing = {"functions": function_rows(np.random.default_rng(0).integers(0, 3, (5673, 32)).astype(np.int8), 2, 6)}
    _, doc["dump_json_records_5673x32_s"] = _timed(lambda: dump_json(listing))
    for gf, name, d in [(GF(2), "gf2", 15), (GF(2, 2), "gf4", 9), (GF(3), "gf3", 13)]:
        plan = build_plan(gf, d)
        _, doc[f"verify_plan_{name}_d{d}_s"] = _timed(lambda: verify_plan(plan))
    for gf, name, d, sample in [(GF(2), "gf2", 127, 10 ** 4), (GF(2), "gf2", 4095, 10 ** 3),
                                (GF(2, 2), "gf4", 13, 10 ** 3)]:
        plan = build_plan(gf, d)
        _, doc[f"verify_plan_{name}_d{d}_sample{sample}_s"] = _timed(lambda: verify_plan(plan, sample, seed=0))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
