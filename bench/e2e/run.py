#!/usr/bin/env python3
"""Builds and runs the kairos end-to-end benchmark (bench/e2e/).

Run from the repository root. The first call configures and builds
bench_e2e with CMake into $CARGO_TARGET_DIR (default .bench_build); later
calls only run an incremental build.

One run (the result JSON is the last line of stdout):
  python3 bench/e2e/run.py --workload plan-paper --seed 1 --seconds 20 --trace 0

Every workload N times, interleaved, with medians and quartiles:
  python3 bench/e2e/run.py --runs 5 [--first-seed 1] [--seconds 20] [--save A.json]

Compare two saved runner files against the bounds in BENCHMARK.json (exit 1
when a median got worse by more than its bound, or when a deterministic
output differs for a seed both files ran):
  python3 bench/e2e/run.py --compare A.json B.json

Standard library only.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "Makefile")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j4", "--target", "bench_e2e"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries only results.
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("run.py: build failed: " + " ".join(cmd))
    return os.path.join(out, "bench_e2e")


def run_once(binary, workload, seed, seconds, trace, out=None, capture=False):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds]
    if trace:
        cmd.append("--trace")
    if out:
        cmd.append("--out=" + out)
    return subprocess.run(cmd, cwd=ROOT, timeout=60 + 3 * float(seconds),
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def load_benchmark():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(records):
    """{workload: {"wall_s": ..., "metrics": {name: {...}}}} over records."""
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        metrics = {}
        for name, cell in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"unit": cell["unit"], "median": q2, "q1": q1,
                             "q3": q3,
                             "spread": (q3 - q1) / q2 if q2 else 0.0}
        walls = [r["wall_s"] for r in runs]
        summary[workload] = {"runs": len(runs),
                             "seeds": [r["seed"] for r in runs],
                             "wall_s": statistics.median(walls),
                             "metrics": metrics}
    return summary


def print_summary(summary):
    for workload, s in summary.items():
        print("%s: %d runs, median wall %.1f s" % (workload, s["runs"],
                                                   s["wall_s"]))
        for name, m in s["metrics"].items():
            print("  %-18s %12.6g %-4s  [q1 %.6g, q3 %.6g]  spread %.2f%%" %
                  (name, m["median"], m["unit"], m["q1"], m["q3"],
                   100 * m["spread"]))


def runner(args):
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    binary = build()
    runs_dir = os.path.join(build_dir(), "runs")
    os.makedirs(runs_dir, exist_ok=True)
    records = []
    # Interleave workloads: machine speed drifts over minutes, so each seed's
    # four runs sit next to each other instead of one workload's N in a row.
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            out = os.path.join(runs_dir, "%s-%d.json" % (workload, seed))
            start = time.monotonic()
            proc = run_once(binary, workload, seed, seconds, False, out=out,
                            capture=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.exit("run.py: %s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
            with open(out) as f:
                record = json.load(f)
            record["wall_s"] = wall
            records.append(record)
            print("%s seed %d: %.1f s" % (workload, seed, wall),
                  file=sys.stderr)
    summary = summarize(records)
    print_summary(summary)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"seconds": seconds, "summary": summary,
                       "records": records}, f, indent=1)
            f.write("\n")


def compare(path_a, path_b):
    bench = load_benchmark()
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    failures = []
    for workload, sa in a["summary"].items():
        sb = b["summary"].get(workload)
        if sb is None:
            failures.append("%s: missing from %s" % (workload, path_b))
            continue
        for name, ma in sa["metrics"].items():
            spec = bounds.get(name)
            mb = sb["metrics"].get(name)
            if spec is None or mb is None:
                continue
            base, new = ma["median"], mb["median"]
            worse = (new - base) if spec["better"] == "lower" else (base - new)
            change = worse / base if base else 0.0
            verdict = "ok" if change <= spec["bound"] else "WORSE"
            print("%-17s %-18s %12.6g -> %12.6g %-4s  worse by %+7.2f%% (bound %.0f%%) %s"
                  % (workload, name, base, new, spec["unit"], 100 * change,
                     100 * spec["bound"], verdict))
            if verdict != "ok":
                failures.append("%s %s worse by %.2f%%" %
                                (workload, name, 100 * change))
    # Deterministic outputs must agree exactly for every seed both ran.
    quality_b = {(r["workload"], r["seed"]): r["quality"]
                 for r in b["records"]}
    for r in a["records"]:
        other = quality_b.get((r["workload"], r["seed"]))
        if other is not None and other != r["quality"]:
            failures.append("%s seed %d: deterministic outputs differ: %s vs %s"
                            % (r["workload"], r["seed"], r["quality"], other))
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the run's JSON record here")
    parser.add_argument("--runs", type=int, help="runner mode: runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--save", help="runner mode: write records here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.runs:
        runner(args)
        return 0
    if not args.workload:
        parser.error("--workload, --runs or --compare is required")
    binary = build()
    seconds = args.seconds if args.seconds else load_benchmark()["run_seconds"]
    try:
        return run_once(binary, args.workload, args.seed, seconds, args.trace,
                        out=args.out).returncode
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out" % args.workload, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
