"""scripts/layers.py builds every stage in a new interpreter, from stage code
that no other test runs, so one cheap stage of each group runs once here,
this checkout on both sides.  The launcher is its own process, as on the
command line: a child counts the image it was started from in ru_maxrss."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ["construct_fields", "verify_h2_15", "spectrum_F10", "exists_h3_4_rng0_limit_2000"]
COMPARE = ("import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
           "print(json.dumps(layers.compare(sys.argv[3:], sys.argv[2], runs=1)))")


def test_one_stage_of_each_group_runs_clean():
    argv = [sys.executable, "-c", COMPARE, os.path.join(ROOT, "scripts"), ROOT, *STAGES]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["runs"], report["checkouts"]) == (1, {"this": ROOT, "other": ROOT})
    assert list(report["stages"]) == STAGES
    assert [s["group"] for s in report["stages"].values()] == ["field", "io", "spectral", "search"]
    for stage in report["stages"].values():
        assert stage["same_digest"], stage
        for side in ("this", "other"):
            assert list(stage[side]) == ["wall_s", "maxrss_mb", "minflt", "setup_s"]
            assert all(list(stat) == ["median", "q1", "q3"] for stat in stage[side].values())
