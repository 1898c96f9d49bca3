"""The traced benchmark run reads names from effdom: the `sample` and `path`
arguments of `verify_plan` and `load_json`, `Graph.adjacency`, and the
public methods of the classes in each `__all__`.  A renamed one fails only
inside a traced run, so one tiny traced run is part of the suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_hamming_workload_runs_clean():
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "hamming",
            "--seed", "0", "--seconds", "0", "--trace", "1", "--size", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), done.stdout
