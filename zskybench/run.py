#!/usr/bin/env python3
"""zsky-bench: builds zsky from this checkout and runs one seeded workload.

    python3 zskybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 zskybench/run.py --all [--seed <n>] [--seconds <s>]
    python3 zskybench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout, scratch data to a per-run directory inside
it (removed afterwards), and provenance + span files to .bench_out/. The last
line of standard output is the run's JSON result; the exit code is non-zero
when the build fails, an output mismatches its reference, or the reported
metrics disagree with BENCHMARK.json. See zskybench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = [
    "batch-anti-500k-8d",
    "ooc-corr-8m-8d",
    "serve-write-500k-8d",
]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "zskybench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "zskybench",
         "zskybench_selftest"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("zskybench: build failed: " + " ".join(cmd))
    return out


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def validate(result, trace):
    """Problems with a result line against the contract; empty when fine."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "extra or mis-united %s" % (
                            sorted(set(want) - set(got)),
                            sorted(k for k in got if want.get(k) != got[k])))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def run_workload(out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result)."""
    work = os.path.join(out, "work", "%s-%d" % (workload, os.getpid()))
    results = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "zskybench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--work-dir", work, "--out-dir", results]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return 1, ["zskybench: %s timed out" % workload], None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        return (done.returncode or 1), lines, None
    problems = validate(result, trace)
    if problems:
        return 3, lines[:-1] + ["zskybench: " + p for p in problems], None
    return done.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json's "
                             "run_seconds, which the bounds were set at)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload (end-to-end metrics)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own self-test")
    args = parser.parse_args()
    if not (args.workload or args.all or args.self_test):
        parser.error("give --workload, --all or --self-test")
    os.chdir(ROOT)
    if args.seconds is None:
        args.seconds = float(spec()["run_seconds"])
    out = build()

    if args.self_test:
        return subprocess.run([os.path.join(out, "zskybench_selftest")],
                              timeout=RUN_TIMEOUT_S,
                              check=False).returncode

    if args.workload:
        code, lines, result = run_workload(out, args.workload, args.seed,
                                           args.seconds, args.trace == 1)
        if result is None:
            # No valid result line: show what ran, but print no result.
            print("\n".join(line for line in lines if not line.startswith("{")),
                  file=sys.stderr)
            return code or 1
        print("\n".join(lines), flush=True)
        return code

    worst = 0
    summary = []
    for workload in WORKLOADS:
        code, lines, result = run_workload(out, workload, args.seed,
                                           args.seconds, args.trace == 1)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        worst = worst or code or (0 if result else 1)
        if result:
            for name, m in result["metrics"].items():
                summary.append("%-22s %-26s %16.4f %s" % (
                    workload, name, m["value"], m["unit"]))
            summary.append("%-22s %-26s %16s (%d of %d ops failed)" % (
                workload, "correct", result["correct"], result["failed"],
                result["attempted"]))
    print("\nzsky-bench summary (seed %d, %g s per workload)" % (
        args.seed, args.seconds))
    print("\n".join(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
