"""Time searches cut by their node limit.

Each stage runs once in this process, timed with time.perf_counter.  The
output is one JSON line mapping each stage to its seconds, with the
functions found and nodes counted by each run (the obs counters
search.leaves and search.nodes), so that two checkouts can be compared for
identical results as well as for speed.

Stages:
    enumerate_efficient on H(2,7), j=1, k=4, count-only (as
        `effdom search --count-only`), at node limits 2·10^6, 2·10^7 and
        10^8, the default; the whole tree has 433,412,630 nodes, so every
        run stops at its limit
    exists_efficient on H(3,4) relabelled by np.random.default_rng(0),
        j=1, k=3, with node limit 2000; preorder reaches the first
        function at node 1,222

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/search_layers.py
"""

from __future__ import annotations

import json
import time

import numpy as np

from effdom import obs
from effdom.graphs import hamming_graph
from effdom.jsonio import graph_from_doc
from effdom.search import SearchConfig, enumerate_efficient, exists_efficient


def _run(doc: dict, stage: str, call) -> None:
    with obs.collecting() as stats:
        t0 = time.perf_counter()
        call()
        doc[f"{stage}_s"] = round(time.perf_counter() - t0, 4)
    doc[f"{stage}_count"] = stats.counters["search.leaves"]
    doc[f"{stage}_nodes"] = stats.counters["search.nodes"]


def main() -> int:
    doc: dict = {}
    g = hamming_graph(2, 7)
    for name, limit in [("2e6", 2 * 10 ** 6), ("2e7", 2 * 10 ** 7), ("1e8", 10 ** 8)]:
        cfg = SearchConfig(j=1, k=4, node_limit=limit)
        _run(doc, f"search_h2_7_limit_{name}", lambda: enumerate_efficient(g, cfg, count_only=True))
    g = hamming_graph(3, 4)
    perm = np.random.default_rng(0).permutation(g.n)
    x = graph_from_doc({"v": 1, "name": g.name, "n": g.n, "edges": np.sort(perm[g.edge_array()], axis=1)})
    _run(doc, "exists_h3_4_rng0_limit_2000", lambda: exists_efficient(x, SearchConfig(j=1, k=3, node_limit=2000)))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
