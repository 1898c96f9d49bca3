"""Runs one benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py '<job spec as JSON>'

The spec names the checkout root, the job (CLI argv or direct call), the
file the result goes to, and whether to trace.  The job's stdout is the
stdout of this process, which the parent sends to a file.

Timed in here: `setup_s`, importing `effdom.cli` and building its parser
(through `run(["--help"])`), which every CLI call pays; `wall_s`, the
job's call itself, stdout flushed; and `reference_s`, a fixed pure-Python
loop run just before and just after the job, on the same CPU, which
samples how fast the machine was while the job ran.  An exception escaping the call is printed as a traceback and
gives exit code 1, as the `effdom` script would.
"""

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter


def _reference_s() -> float:
    """About 50 ms on an idle machine; independent of effdom."""
    t0 = perf_counter()
    total = 0
    for i in range(500_000):
        total = (total + i * i) % 1_000_003
    return perf_counter() - t0


def _charpoly(effdom, call: dict) -> int:
    jsonio = effdom.jsonio
    graph = jsonio.graph_from_doc(jsonio.load_json(call["graph"]))
    cells = jsonio.partition_from_doc(jsonio.load_json(call["partition"]), graph.n)
    divides = effdom.charpoly_divides_graph(graph, cells)
    sys.stdout.write(json.dumps({"divides": divides}) + "\n")
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    t0 = perf_counter()
    import effdom.cli
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            effdom.cli.run(["--help"])
        except SystemExit:
            pass
    setup_s = perf_counter() - t0
    if not os.path.abspath(effdom.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"effdom was imported from {effdom.cli.__file__}, not from {src}\n")
        return 3

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    job = spec["job"]
    reference_s = [_reference_s()]
    t1 = perf_counter()
    try:
        if job["argv"] is not None:
            code = effdom.cli.run(job["argv"])
        else:
            code = _charpoly(effdom, job["call"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    wall_s = perf_counter() - t1
    reference_s.append(_reference_s())

    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "reference_s": reference_s, "wall_s": wall_s, "exit": code,
                   "trace": tracer.export() if tracer else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
