"""effdom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {hamming,spectral,search} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--inject-fault]

Run from the root of a checkout that holds `src/effdom`.  The workload's
inputs are made from the seed before anything is timed.  Then a single
client runs the workload's jobs one after another in a closed loop, one
fresh `python3 perfbench/child.py` process per job and never more than
one at a time, pass after pass, until the next pass would end after S
seconds (at least two passes).  Every answer is checked; a run that
cannot import effdom from `src/` exits with code 2 and prints no result.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      a fresh interpreter importing effdom.cli and building its
               parser, measured inside every job process, in seconds of a
               machine on which the reference loop takes 50 ms (median);
  wall_ref     one pass, the time inside each job's call, summed over the
               jobs, in units of the reference loop (see below);
  process_ref  the same for each job process's spawn-to-exit time;
  peak_rss_mb  the largest max-RSS of any job process;
  ok_ratio     jobs answered correctly over jobs attempted.
Every job process also times a fixed pure-Python loop of about 50 ms
just before and just after its job, on the same CPU.  The speed of a
shared machine drifts from minute to minute; dividing by the run's median
loop time cancels that drift, which raw seconds carry from run to run.
setup_s divides each process's setup by the loop it runs right after
setup and scales by the loop's 50 ms, so it still reads in seconds.  The
raw seconds, wall_s, process_s and setup_raw_s, are printed above the
result line and kept in the record.
With --trace 1 the first pass is untraced and the later passes wrap every
public effdom function (see tracing.py); the last line reports the
per-layer metrics and the tracing overhead.

A job fails on a wrong answer, an unexpected exit code or a traceback.
The known defect (search recursing past the interpreter's limit on
C(1500)) is an expected failure: it lowers ok_ratio but is not counted in
"failed", and the run stays "correct" unless some job fails otherwise.
--inject-fault corrupts the first job's answer in every pass, to show
that a wrong answer is caught.  Records, stdout digests and spans go to
.perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
MIN_PASSES = 2
# setup_s is in seconds of a machine on which the reference loop takes this long.
REFERENCE_NOMINAL_S = 0.05

# The --trace 0 result line; the raw wall_s, process_s and setup_raw_s are printed above it.
END_TO_END = ("wall_ref", "process_ref", "peak_rss_mb", "ok_ratio", "setup_s")


def _spawn(job: workloads.Job, workdir: str, trace: bool) -> dict:
    """Run one job in a fresh process; returns its timings and outputs."""
    out_path = os.path.join(workdir, f"{job.id}.out")
    err_path = os.path.join(workdir, f"{job.id}.err")
    result_path = os.path.join(workdir, f"{job.id}.result.json")
    spec = {"root": ROOT, "job": {"argv": job.argv, "call": job.call},
            "result": result_path, "trace": trace}
    if os.path.exists(result_path):
        os.remove(result_path)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, json.dumps(spec)],
                                stdout=out, stderr=err, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        process_s = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"job process for {job.id} exited with {proc.returncode}: {stderr[-2000:]}")
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    # The job process also ran the reference loops, which are no part of the job.
    result.update(process_s=process_s - sum(result["reference_s"]), rss_mb=usage.ru_maxrss / 1024.0,
                  stdout=stdout, stderr=stderr)
    return result


def _corrupt(stdout: bytes) -> bytes:
    """A deliberately wrong answer: one counted field of the document, plus one."""
    doc = json.loads(stdout)
    key = next(k for k in ("multiplicity", "count", "n") if k in doc)
    doc[key] += 1
    return json.dumps(doc).encode()


def _judge(job: workloads.Job, res: dict, stdout: bytes) -> tuple:
    """("ok" | "xfail" | "fail", reason) for one job's outcome."""
    code, stderr = res["exit"], res["stderr"]
    if job.known_failure and code == job.known_failure[0] and job.known_failure[1] in stderr:
        return "xfail", f"known defect: exit {code}, {job.known_failure[1]}"
    if code != 0:
        return "fail", f"exit code {code}: {stderr[-300:]}"
    if "Traceback" in stderr:
        return "fail", "traceback on stderr"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return "fail", f"stdout is not one JSON document: {exc}"
    try:
        reason = job.check(doc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        reason = f"malformed answer: {exc!r}"
    return ("fail", reason) if reason else ("ok", "")


def _run_pass(jobs, workdir, trace, inject_fault, digests) -> dict:
    t0 = perf_counter()
    results = []
    for i, job in enumerate(jobs):
        res = _spawn(job, workdir, trace)
        digest = hashlib.sha256(res["stdout"]).hexdigest()
        stdout = _corrupt(res["stdout"]) if inject_fault and i == 0 else res["stdout"]
        status, reason = _judge(job, res, stdout)
        if status == "ok" and digests.setdefault(job.id, digest) != digest:
            status, reason = "fail", "stdout differs from the first pass with the same seed"
        results.append({"job": job.id, "status": status, "reason": reason, "exit": res["exit"],
                        "setup_s": res["setup_s"], "wall_s": res["wall_s"], "process_s": res["process_s"],
                        "reference_s": res["reference_s"], "rss_mb": res["rss_mb"],
                        "trace": res["trace"]})
    return {"traced": trace, "duration_s": perf_counter() - t0, "jobs": results}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _steal_s():
    """CPU time the hypervisor took from this machine so far, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _source_stamp() -> dict:
    """Commit (when the checkout is a git repository) and a digest of src/."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                                    capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {
        "commit": commit, "src_sha256": h.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def _job_medians(passes, key: str) -> list:
    """Each job's median of key over the passes."""
    per_job = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["job"], []).append(j[key])
    return [statistics.median(v) for v in per_job.values()]


def _end_to_end(passes) -> dict:
    """name -> (unit, value, per-pass values).

    A pass's wall_s and process_s are the sum over jobs of each job's
    median over the passes, so one disturbed job in one pass moves neither.
    wall_ref and process_ref divide them by the run's reference time, the
    median of the loops run before and after every job: the speed of a
    shared machine drifts from minute to minute, and the ratio cancels the
    drift that raw seconds carry from one run to the next.  setup_s pairs
    each process's setup with the loop that process runs right after it.
    """
    untraced = [p for p in passes if not p["traced"]]
    jobs = [j for p in untraced for j in p["jobs"]]
    ref = statistics.median(r for j in jobs for r in j["reference_s"])
    setup_raw = [j["setup_s"] for j in jobs]
    setup = [j["setup_s"] / j["reference_s"][0] * REFERENCE_NOMINAL_S for j in jobs]
    ok = [sum(j["status"] == "ok" for j in p["jobs"]) / len(p["jobs"]) for p in untraced]
    out = {
        "setup_s": ("s", statistics.median(setup), setup),
        "setup_raw_s": ("s", statistics.median(setup_raw), setup_raw),
        "peak_rss_mb": ("MB", max(_job_medians(untraced, "rss_mb")),
                        [max(j["rss_mb"] for j in p["jobs"]) for p in untraced]),
        "ok_ratio": ("ratio", sum(j["status"] == "ok" for j in jobs) / len(jobs), ok),
    }
    for key in ("wall", "process"):
        value = sum(_job_medians(untraced, f"{key}_s"))
        per_pass = [sum(j[f"{key}_s"] for j in p["jobs"]) for p in untraced]
        out[f"{key}_s"] = ("s", value, per_pass)
        out[f"{key}_ref"] = ("ref", value / ref, [v / ref for v in per_pass])
    return out


def _per_layer(passes) -> dict:
    """name -> (unit, median over traced passes, per-pass values).

    The tracing overhead compares the traced passes with the untraced one,
    each in units of its own reference loops, so that drift in the
    machine's speed between the passes does not count as overhead.
    """
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = [tracing.layer_metrics(tracing.merge(j["trace"] for j in p["jobs"])) for p in traced]
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}

    def in_ref_units(group):
        ref = statistics.median(r for p in group for j in p["jobs"] for r in j["reference_s"])
        return sum(_job_medians(group, "wall_s")) / ref

    ratio = in_ref_units(traced) / in_ref_units(untraced) - 1
    samples["trace.overhead_s"] = [ratio * sum(_job_medians(untraced, "wall_s"))]
    samples["trace.overhead_ratio"] = [ratio]
    return {name: (tracing.PER_LAYER[name][0], statistics.median(values), values)
            for name, values in samples.items()}


def _write_spans(path: str, passes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, p in enumerate(passes):
            for job in p["jobs"]:
                if not job["trace"]:
                    continue
                for sid, parent, name, start, end in job["trace"]["spans"]:
                    fh.write(json.dumps({"pass": number, "job": job["job"], "span": sid,
                                         "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="effdom benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt the first job's answer in every pass")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "effdom", "cli.py")):
        sys.stderr.write(f"no effdom sources under {os.path.join(ROOT, 'src')}\n")
        return 2

    run_name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".perfbench-out", run_name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    jobs = workloads.build(args.workload, args.seed, args.size, workdir)
    stamp = {"workload": args.workload, "seed": args.seed, "size": args.size,
             "seconds": args.seconds, "trace": args.trace, **_source_stamp(),
             "loadavg_before": os.getloadavg()}
    steal_before = _steal_s()

    passes, digests = [], {}
    t0 = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) > 0
            passes.append(_run_pass(jobs, workdir, traced, args.inject_fault, digests))
            elapsed = perf_counter() - t0
            if len(passes) >= MIN_PASSES and elapsed + passes[-1]["duration_s"] > args.seconds:
                break
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 2
    steal_after = _steal_s()
    stamp.update(measured_s=perf_counter() - t0, passes=len(passes), loadavg_after=os.getloadavg(),
                 steal_s=None if steal_before is None else steal_after - steal_before,
                 reference_s=statistics.median(r for p in passes for j in p["jobs"] for r in j["reference_s"]))

    metrics = _per_layer(passes) if args.trace else _end_to_end(passes)
    outcomes = [j for p in passes for j in p["jobs"]]
    failed = sum(j["status"] == "fail" for j in outcomes)
    xfailed = sum(j["status"] == "xfail" for j in outcomes)

    print(f"stamp {json.dumps(stamp)}")
    for job_id, digest in digests.items():
        print(f"digest {job_id} sha256:{digest}")
    for j in outcomes:
        if j["status"] != "ok":
            print(f"{j['status']} {j['job']}: {j['reason']}")
    print(f"fail_ratio {(failed + xfailed) / len(outcomes):.4f} "
          f"({failed} failed, {xfailed} expected failures, {len(outcomes)} attempted)")
    for name, (unit, value, samples) in metrics.items():
        q1, q3 = _quartiles(samples)
        print(f"metric {name} {unit} value={value:.6g} samples: median={statistics.median(samples):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(samples)}")

    record = {"stamp": stamp, "digests": digests,
              "metrics": {k: {"unit": u, "value": v, "samples": s} for k, (u, v, s) in metrics.items()},
              "jobs": [{k: v for k, v in j.items() if k != "trace"} for j in outcomes]}
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        _write_spans(os.path.join(workdir, "spans.jsonl"), passes)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value, _) in metrics.items()
                    if args.trace or name in END_TO_END},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
