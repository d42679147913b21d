"""Layered benchmark of the linqm command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--pin]

Run from the root of a linqm checkout; the program is imported from
``src/`` there.  A run repeats passes of the workload (at least three) for
as many as fit in ``--seconds``.  Each pass is a fresh interpreter
(``worker.py``) that runs the seeded job list in order, in process, through
``linqm.cli.main``: a closed loop with one client.

``--trace 0`` reports the end-to-end metrics as medians over passes.
``--trace 1`` runs rounds of an untraced pass, a span pass and a counting
pass, and reports the per-layer metrics listed in ``layers.json``.

Every pass checks every job against its known answer, and every job's
stdout and report bytes must be identical across passes; at the default
seed they must also match the digests pinned in ``digests.json``
(``--pin`` rewrites that file from a run that is otherwise correct).  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)
DEFAULT_SEED = LAYERS["default_seed"]

MIN_PASSES = 3
# No round is started that is predicted to end after DEADLINE_S, and a pass
# normally takes under 10 s, so a run ends well inside 180 s.
DEADLINE_S = 120
PASS_TIMEOUT_S = 40
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_geomean_ms", "ms"),
              ("job_max_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def run_pass(args, work: str, index: int, mode: str) -> dict:
    pass_dir = os.path.join(work, f"pass-{index}")
    os.mkdir(pass_dir)
    result = os.path.join(work, f"result-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--dir", pass_dir, "--result", result]
    if mode == "spans":
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    res["mode"] = mode
    res["setup_s"] = res["setup_done"] - spawned
    shutil.rmtree(pass_dir)
    return res


def collect(args, work: str) -> list:
    modes = ("plain", "spans", "counts") if args.trace else ("plain",)
    min_rounds = 1 if args.trace else MIN_PASSES
    passes: list = []
    start = time.monotonic()
    rounds = 0
    while True:
        for mode in modes:
            passes.append(run_pass(args, work, len(passes), mode))
        rounds += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / rounds  # when one more round would end
        if next_end > DEADLINE_S or (rounds >= min_rounds and next_end > args.seconds):
            return passes


def judge(passes: list, workload: str, check_pinned: bool) -> tuple[list, int]:
    """Wrong answers, and the number of failed jobs over all passes.

    A job fails when it misses its known answer, or when its output bytes
    differ from the first pass or, at the default seed, from the pinned
    digest.  Only a failure listed in KNOWN_FAILURES is not a wrong answer.
    """
    pinned = pinned_digests().get(workload, {}) if check_pinned else None
    first = {j["name"]: j["digest"] for j in passes[0]["jobs"]}
    wrong, failed = set(), 0
    for p in passes:
        for job in p["jobs"]:
            problems = list(job["problems"])
            if job["digest"] != first[job["name"]]:
                problems.append("output bytes differ between passes")
            if pinned is not None and pinned.get(job["name"]) != job["digest"]:
                problems.append("output bytes differ from the pinned digest")
            if problems:
                failed += 1
                if problems != workloads.KNOWN_FAILURES.get(job["name"]):
                    wrong.add(f"{job['name']}: {'; '.join(problems)}")
    return sorted(wrong), failed


def pinned_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def pin(passes: list, workload: str) -> None:
    doc = pinned_digests()
    doc[workload] = {j["name"]: j["digest"] for j in passes[0]["jobs"]}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def end_to_end(passes: list) -> dict:
    return {name: statistics.median(p[name] for p in passes)
            for name, _ in END_TO_END}


def per_layer(passes: list) -> dict:
    med = statistics.median
    plain = [p for p in passes if p["mode"] == "plain"]
    spanned = [p for p in passes if p["mode"] == "spans"]
    counts = next(p["counts"] for p in passes if p["mode"] == "counts")

    def spans(kind: str, layer: str) -> float:
        return med(p["spans"][kind].get(layer, 0) for p in spanned)

    def count(key: str):
        return counts.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "setup.import_s": med(p["import_s"] for p in plain),
        "setup.modules": plain[0]["modules"],
        "setup.inputs_s": med(p["inputs_s"] for p in plain),
        "cli.self_s": spans("self_s", "cli"),
        "cli.jobs": len(spanned[0]["jobs"]),
        "cli.failed": sum(1 for j in spanned[0]["jobs"] if j["problems"]),
        "report.calls": spans("calls", "report"),
        "report.self_s": spans("self_s", "report"),
        "report.bytes": count("report.bytes"),
        "oplib.build.calls": spans("calls", "oplib.build"),
        "oplib.build.self_s": spans("self_s", "oplib.build"),
        "oplib.build.terms": count("oplib.build.terms"),
        "oplib.suite.self_s": spans("self_s", "oplib.suite"),
        "oplib.relations": count("oplib.relations"),
        "oplib.relations_failed": count("oplib.relations_failed"),
        "weyl.mul.pairs": count("weyl.mul.pairs"),
        "weyl.mul.terms_out": count("weyl.mul.terms_out"),
        "weyl.commutator.calls": spans("calls", "weyl.commutator"),
        "weyl.commutator.kept_ratio": ratio(count("weyl.commutator.terms_kept"),
                                            count("weyl.commutator.terms_products")),
        "weyl.render.chars": count("weyl.render.chars"),
        "weyl.apply.terms_out": count("weyl.apply.terms_out"),
        "weyl.coeff_bits_max": count("weyl.coeff_bits_max"),
        "scalar.ops": count("scalar.ops"),
        "reps.matmul.self_s": spans("self_s", "reps.matmul"),
        "reps.matrix_rep.self_s": spans("self_s", "reps.matrix_rep"),
        "reps.dim_max": count("reps.dim_max"),
        "fock.car.self_s": spans("self_s", "fock.car"),
        "fock.antisym.kets": count("fock.antisym.kets"),
        "branching.branches": count("branching.branches"),
        "branching.ledger.self_s": spans("self_s", "branching.ledger"),
        "collapse.ruin.self_s": spans("self_s", "collapse.ruin"),
        "collapse.linear.self_s": spans("self_s", "collapse.linear"),
        "collapse.born.self_s": spans("self_s", "collapse.born"),
        "collapse.runs_per_s": ratio(count("collapse.runs"),
                                     spans("total_s", "collapse.ruin")
                                     + spans("total_s", "collapse.linear")),
        "collapse.converged_ratio": ratio(count("collapse.converged"),
                                          count("collapse.runs")),
        "collapse.trace_rows": count("collapse.trace_rows"),
        "trace.overhead_ratio": (med(p["wall_s"] for p in spanned)
                                 / med(p["wall_s"] for p in plain) - 1),
    }
    for layer in ("weyl.mul", "weyl.add", "weyl.adjoint", "weyl.render", "weyl.apply",
                  "weyl.substitute", "linalg", "reps.group_element", "fock.ladder",
                  "branching.apply_rule"):
        m[f"{layer}.calls"] = spans("calls", layer)
        m[f"{layer}.self_s"] = spans("self_s", layer)
    m["fock.antisym.self_s"] = spans("self_s", "fock.antisym")
    return m


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running pass, and through the finally that removes the work directory.
    sys.exit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite this workload's pinned digests (default seed only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "linqm", "cli.py")):
        sys.stderr.write(f"bench: no linqm sources under {ROOT}/src\n")
        return 2
    if args.pin and args.seed != DEFAULT_SEED:
        sys.stderr.write(f"bench: --pin needs --seed {DEFAULT_SEED}\n")
        return 2

    compileall.compile_dir(os.path.join(ROOT, "src", "linqm"), quiet=1)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        passes = collect(args, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    wrong, failed = judge(passes, args.workload,
                          check_pinned=args.seed == DEFAULT_SEED and not args.pin)
    if args.pin and not wrong:
        pin(passes, args.workload)
    attempted = sum(len(p["jobs"]) for p in passes)
    plain = [p for p in passes if p["mode"] == "plain"]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(plain)} untraced), {attempted} jobs attempted, {failed} failed")
    for line in wrong:
        print(f"  WRONG {line}")
    if args.trace:
        metrics = per_layer(passes)
        units = {name: spec["unit"] for name, spec in LAYERS["per_layer"].items()}
        if set(metrics) != set(units):
            raise BenchError(f"per-layer metrics differ from layers.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
        order = list(units)
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
        order = [name for name, _ in END_TO_END]
        print(f"  {'failed_ratio':28s} {failed / attempted:.6g} ratio "
              f"({failed}/{attempted})")
    for name in order:
        print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in order},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
