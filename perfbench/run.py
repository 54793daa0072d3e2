#!/usr/bin/env python3
"""Build and run the msgorder pipeline benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --selftest

The first form builds perfbench/ (and the src/ tree it links) into
.bench_build/perfbench, runs one workload in its own process and passes
its output through: human-readable metric lines, then one JSON object
as the last line.  --all runs every workload, one process each, and
prints a table.  --selftest runs the FIFO oracle's self-test.  The exit
code is 0 only when the build succeeded and every correctness check
passed.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["flagship_1m", "tagged_1k", "general_ctrl", "verify_4x6"]
RUN_TIMEOUT_S = 175


def build(target):
    """Configure once, then build `target` incrementally.  Build output
    goes to stderr so the last stdout line stays the result."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    configured = os.path.join(BUILD, "configured.stamp")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(configured):
            if subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                               "-DCMAKE_BUILD_TYPE=Release"],
                              stdout=sys.stderr).returncode != 0:
                return None
            open(configured, "w").close()
        if subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                           "--target", target],
                          stdout=sys.stderr).returncode != 0:
            return None
    return os.path.join(BUILD, target)


def run_workload(binary, name, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    scratch = os.path.join(BUILD, "scratch", f"{name}-{seed}-{os.getpid()}")
    results = os.path.join(BUILD, "results")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{name}-seed{seed}-trace{trace}")
    cmd = [binary, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", scratch, "--report", stem + ".report.json"]
    if trace:
        cmd += ["--spans", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} exceeded {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1, ""
    finally:
        for leftover in os.listdir(scratch):
            os.remove(os.path.join(scratch, leftover))
        os.rmdir(scratch)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if sum([args.workload is not None, args.all, args.selftest]) != 1:
        parser.error("give exactly one of --workload, --all, --selftest")

    if args.selftest:
        binary = build("fifo_oracle_test")
        return 2 if binary is None else subprocess.run([binary]).returncode

    binary = build("pipeline_bench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.workload:
        code, out = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        sys.stdout.write(out)
        return code

    worst = 0
    rows = []
    for name in WORKLOADS:
        code, out = run_workload(binary, name, args.seed, args.seconds,
                                 args.trace)
        sys.stdout.write(out)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        rows.append((name, code, result))
    print()
    print(f"{'workload':<14} {'correct':<8} {'checks':>10}  metrics")
    for name, code, result in rows:
        if result is None:
            print(f"{name:<14} {'no result (exit ' + str(code) + ')'}")
            continue
        checks = f"{result['failed']}/{result['attempted']}"
        if args.trace:
            metrics = f"{len(result['metrics'])} per-layer metrics"
        else:
            metrics = "  ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                for k, v in result["metrics"].items())
        print(f"{name:<14} {str(result['correct']):<8} {checks:>10}  "
              f"{metrics}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
