"""Time the field-arithmetic layer: field construction, block matrices,
plan building, Hamming codes, basis audits.

Each stage runs REPEATS times in this process, timed with
time.perf_counter.  The output is one JSON line mapping each stage to the
median and quartiles of its seconds, plus a sha256 of each block matrix
and BasisAudit, so that two checkouts can be compared for identical
results as well as for speed.

Stages:
    GF(p, b) for every built-in modulus, and GF(65521); the digest covers
        the block matrix of the row 0 .. q-1 in each of these fields
    block_matrix on a seeded 512 x 512 GF(2^5) matrix and a seeded
        1024 x 1024 GF(65521) matrix
    build_plan(GF(2), d) for d = 1023 and 4095
    hamming_code(GF(2), 12)
    basis_audit(build_plan(GF(2,2), d)) for d = 85 and 341
    basis_audit(build_plan(GF(2), 255))

Usage (from the root of a checkout):
    PYTHONPATH=src python3 scripts/field_layers.py
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

from effdom.fields import GF, MODULI
from effdom.hamming import basis_audit, build_plan, hamming_code
from effdom.linalg import block_matrix


REPEATS = 7


def _timed(call):
    """The result of call() and the median and quartiles of its seconds over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return out, {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    doc = {}
    fields, doc["construct_fields_s"] = _timed(lambda: [GF(p, b) for p, b in MODULI] + [GF(65521)])
    rows = [block_matrix(gf, np.arange(gf.q)[None, :]).tobytes() for gf in fields]
    doc["construct_fields_sha256"] = _digest(b"".join(rows))
    for seed, name, gf, n in [(0, "gf32_n512", GF(2, 5), 512), (1, "gf65521_n1024", GF(65521), 1024)]:
        mat = np.random.default_rng(seed).integers(0, gf.q, size=(n, n))
        out, doc[f"block_matrix_{name}_s"] = _timed(lambda: block_matrix(gf, mat))
        doc[f"block_matrix_{name}_sha256"] = _digest(out.tobytes())
    gf2, gf4 = GF(2), GF(2, 2)
    for d in (1023, 4095):
        _, doc[f"build_plan_gf2_d{d}_s"] = _timed(lambda: build_plan(gf2, d))
    _, doc["hamming_code_gf2_a12_s"] = _timed(lambda: hamming_code(gf2, 12))
    for name, gf, d in [("gf4_d85", gf4, 85), ("gf2_d255", gf2, 255), ("gf4_d341", gf4, 341)]:
        plan = build_plan(gf, d)
        audit, doc[f"basis_audit_{name}_s"] = _timed(lambda: basis_audit(plan))
        doc[f"basis_audit_{name}_sha256"] = _digest(repr(audit).encode())
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
