"""Time the field-arithmetic layer: plan building, Hamming codes, basis audits.

Each stage runs once in this process, timed with time.perf_counter.  The
output is one JSON line mapping each stage to its seconds, plus a sha256
of each BasisAudit's repr, so that two checkouts can be compared for
identical results as well as for speed.

Stages:
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
import time

from effdom.fields import GF
from effdom.hamming import basis_audit, build_plan, hamming_code


def _timed(call):
    t0 = time.perf_counter()
    out = call()
    return out, round(time.perf_counter() - t0, 4)


def main() -> int:
    gf2, gf4 = GF(2), GF(2, 2)
    doc = {}
    for d in (1023, 4095):
        _, doc[f"build_plan_gf2_d{d}_s"] = _timed(lambda: build_plan(gf2, d))
    _, doc["hamming_code_gf2_a12_s"] = _timed(lambda: hamming_code(gf2, 12))
    for name, gf, d in [("gf4_d85", gf4, 85), ("gf2_d255", gf2, 255), ("gf4_d341", gf4, 341)]:
        plan = build_plan(gf, d)
        audit, doc[f"basis_audit_{name}_s"] = _timed(lambda: basis_audit(plan))
        doc[f"basis_audit_{name}_sha256"] = hashlib.sha256(repr(audit).encode()).hexdigest()[:16]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
