"""Run the benchmark over several seeds, or its smoke test.

    python3 perfbench/suite.py
    python3 perfbench/suite.py --smoke

The default mode runs `perfbench/run.py` once per workload of
BENCHMARK.json and seed 0..9, with the settings of BENCHMARK.json, and
prints for every end-to-end metric its median, quartiles, sample count and
spread (interquartile range over the median) next to the metric's bound.
When an earlier set left its medians in .perfbench-out/suite-medians.json,
it also prints how far each median moved from that set.  It exits with
code 1 when a run is not correct, a spread exceeds its bound, or a median
is worse than the earlier set's by more than the bound.  Running it twice
checks that two sets of runs of the same code agree.

--smoke runs every workload at tiny sizes for one second and checks that
the runs are correct, that a deliberately wrong answer (--inject-fault) is
counted as failed, that the traced run reports every per-layer metric, and
that the benchmark exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(10)
MEDIANS = os.path.join(ROOT, ".perfbench-out", "suite-medians.json")


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(bench: dict, workload: str, seed: int, seconds, trace: int = 0, extra=(), cwd=ROOT):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def seeds_mode() -> int:
    bench = _bench()
    earlier = {}
    if os.path.exists(MEDIANS):
        with open(MEDIANS, encoding="utf-8") as fh:
            earlier = json.load(fh)
    medians = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            proc, result = _run(bench, workload, seed, bench["run_seconds"])
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            if result is not None:
                runs.append(result)
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{workload}: {len(runs)} runs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = _spread(values)
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
            if flag == "OVER":
                ok = False
            line = (f"  {name:12s} {metric['unit']:6s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
                    f"n={len(values)} spread={spread:.4f} bound={bound} [{flag}]")
            before = earlier.get(workload, {}).get(name)
            if before:
                shift = med / before - 1
                worse = shift if metric["better"] == "lower" else -shift
                ok = ok and worse <= bound
                line += f" vs earlier set {shift:+.4f} [{'ok' if worse <= bound else 'WORSE'}]"
            medians.setdefault(workload, {})[name] = med
            print(line)
        print(flush=True)
    os.makedirs(os.path.dirname(MEDIANS), exist_ok=True)
    with open(MEDIANS, "w", encoding="utf-8") as fh:
        json.dump(medians, fh, indent=1)
    return 0 if ok else 1


def smoke_mode() -> int:
    bench = _bench()
    failures = []
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        _, clean = _run(bench, name, 1, 1, extra=("--size", "tiny"))
        if clean is None or not clean["correct"] or clean["failed"]:
            failures.append(f"{name}: tiny run not correct: {clean}")
        _, faulty = _run(bench, name, 1, 1, extra=("--size", "tiny", "--inject-fault"))
        if faulty is None or faulty["correct"] or faulty["failed"] < 1:
            failures.append(f"{name}: injected wrong answer not counted: {faulty}")
        _, traced = _run(bench, name, 1, 1, trace=1, extra=("--size", "tiny"))
        if traced is None or set(traced["metrics"]) != per_layer:
            failures.append(f"{name}: traced run does not report the per-layer metrics")
        print(f"{name}: clean {clean and clean['failed']} failed, "
              f"faulty {faulty and faulty['failed']} failed", flush=True)

    bare = os.path.join(ROOT, ".perfbench-out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = _run(bench, bench["workloads"][0]["name"], 1, 1, cwd=bare)
    if proc.returncode == 0 or result is not None:
        failures.append(f"bare directory: exit {proc.returncode}, result {result}")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"SMOKE FAILURE {f}")
    print("smoke ok" if not failures else "smoke failed")
    return 0 if not failures else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    return smoke_mode() if args.smoke else seeds_mode()


if __name__ == "__main__":
    sys.exit(main())
