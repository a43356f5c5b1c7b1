#!/usr/bin/env python3
"""Builds the hybrid-tree benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library and the benchmark are built
in Release mode under .bench_build/perfbench (an incremental no-op after
the first run). The benchmark's result is the last line of standard
output; build output goes to standard error. A traced run (--trace 1)
writes its spans to .bench_build/perfbench/traces/<workload>-seed<n>.jsonl.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout=None):
    """Runs cmd on our own stdout and stderr and returns its exit code; the
    child is killed on every exit path, so none outlives this script."""
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
           "perfbench_selftest"]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    # A terminated run still stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run_child([os.path.join(BUILD, "perfbench_selftest")],
                         RUN_TIMEOUT_S)

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    return run_child(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
