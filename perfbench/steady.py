#!/usr/bin/env python3
"""Steadiness check: runs every workload with seeds 1..N and reports each
metric's median, quartiles and spread.

    python3 perfbench/steady.py [--seeds 10] [--trace]

Run from the root of a checkout. Each run lasts BENCHMARK.json's
run_seconds. The spread is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). The exit code is 1 when a metric's
spread exceeds its bound in BENCHMARK.json (setup_s is timed cold once per
run and judged by its median alone), an answer is wrong, or the share of
failed operations differs between seeds. A spread above a third of its
bound is marked "over b/3": it passes, but leaves less room for the
difference between two sets of runs. The bounds in BENCHMARK.json were
set from this command's output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", action="store_true",
                        help="report the per-layer metrics instead")
    args = parser.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bound = {m["name"]: m.get("bound") for m in metrics}

    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values, shares = {}, set()
        for seed in range(1, args.seeds + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]),
                 "--trace", "1" if args.trace else "0"],
                stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect answers")
                steady = False
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.seeds} seeds, failed share {sorted(shares)}")
        print(f"{'metric':32} {'median':>14} {'Q1':>14} {'Q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name in sorted(values):
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            b = bound.get(name)
            flag = ""
            if b is not None and name != "setup_s":
                if spread > b:
                    flag = " WIDE"
                    steady = False
                elif spread > b / 3:
                    flag = " over b/3"
            print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {b if b is not None else '':>6}{flag}")
        if len(shares) > 1:
            steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
