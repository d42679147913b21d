"""One benchmark pass, run in a fresh interpreter by run.py.

The pass imports ``linqm.cli``, generates its inputs from the workload seed,
then runs the job list in order through ``linqm.cli.main(argv)`` in
process, with stdout captured and ``--out`` pointing into the pass
directory.  After the timed loop it checks every outcome against its
oracle and hashes its stdout and report bytes.  The result is written as
JSON to ``--result``.

Modes: ``plain`` (nothing installed), ``spans`` (span recorder installed)
and ``counts`` (size counters installed).  The clocks run in every mode;
only plain passes feed the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import spans
import workloads


def run_jobs(cli_main, jobs, pass_dir, tracer):
    results = []
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        argv = list(job.argv)
        if job.writes_report:
            argv += ["--out", os.path.join(pass_dir, f"{job.name}.json")]
        if tracer is not None:
            tracer.job_id = k
        stdout, stderr = io.StringIO(), io.StringIO()
        code = error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
        except Exception as exc:  # a crashing command is a failed job, not a failed pass
            error = type(exc).__name__
        results.append((job, code, error, stdout.getvalue(), time.perf_counter() - t0))
    return results, time.perf_counter() - start


def check(results, pass_dir) -> list:
    outcomes = {}
    for job, code, error, stdout, _ in results:
        path = os.path.join(pass_dir, f"{job.name}.json")
        report = None
        if job.writes_report and os.path.exists(path):
            with open(path, "rb") as fh:
                report = fh.read()
        outcomes[job.name] = workloads.Outcome(code, error, stdout, report)
    rows = []
    for job, code, error, stdout, seconds in results:
        out = outcomes[job.name]
        digest = hashlib.sha256(stdout.encode("utf-8") + b"\0" + (out.report or b""))
        try:
            problems = job.oracle(out, outcomes)
        except (KeyError, TypeError, ValueError) as exc:  # output missing or malformed
            problems = [f"unreadable output: {exc!r}"]
        rows.append({"name": job.name, "seconds": seconds, "code": code,
                     "error": error, "digest": digest.hexdigest(),
                     "problems": problems})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["plain", "spans", "counts"], default="plain")
    ap.add_argument("--dir", required=True, help="pass directory for inputs and reports")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    from linqm import cli
    t1 = time.perf_counter()
    modules = len(sys.modules)
    jobs = workloads.build(args.workload, args.seed, args.dir)
    t2 = time.perf_counter()
    setup_done = time.monotonic()

    tracer = None
    if args.mode == "spans":
        tracer = spans.Spans()
    elif args.mode == "counts":
        tracer = spans.Counts()
    cli_main = cli.main
    if tracer is not None:
        tracer.install()
        cli_main = tracer.wrap(spans.ROOT, cli.main)

    results, wall = run_jobs(cli_main, jobs, args.dir, tracer)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before checking
    rows = check(results, args.dir)
    seconds = [r["seconds"] for r in rows]
    out = {
        "setup_done": setup_done,
        "import_s": t1 - t0,
        "inputs_s": t2 - t1,
        "modules": modules,
        "wall_s": wall,
        "job_geomean_ms": 1000 * math.exp(sum(math.log(s) for s in seconds) / len(seconds)),
        "job_max_s": max(seconds),
        "peak_rss_mb": peak_kb / 1024,
        "jobs": rows,
    }
    if args.mode == "spans":
        out["spans"] = tracer.summary()
        if args.spans_out:
            tracer.write(args.spans_out)
    elif args.mode == "counts":
        out["counts"] = dict(tracer.c)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
