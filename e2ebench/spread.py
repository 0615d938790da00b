#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark N times and print the spread.

Usage, from the root of a checkout:

    python3 e2ebench/spread.py --workload whatif --runs 10 [--first-seed 1]
                               [--seconds 20]

Run i uses seed first-seed + i. For every end-to-end metric the table gives
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the min and max, and the quartile
distance as a share of the median, which is the figure BENCHMARK.json's
bounds are compared against. It also lists
each run's attempted and failed operation counts. --seconds defaults to
BENCHMARK.json's run_seconds. The exit code is 1 if any run failed or
reported incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    results = []
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds)
        if result is None or not result["correct"]:
            ok = False
        if result is None:
            print(f"seed {seed}: run failed", flush=True)
            continue
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    if not results:
        return 1

    print(f"\n{args.workload}: {len(results)} runs, {args.seconds} s each")
    print(f"{'metric':<28} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        share = (q3 - q1) / median if median else float("nan")
        print(f"{name:<28} {first['unit']:>6} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{min(values):12.4f} {max(values):12.4f} {share:8.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"attempted: {[r['attempted'] for r in results]}")
    print(f"failed:    {[r['failed'] for r in results]}  (failed/attempted: "
          f"{', '.join(f'{s:.6f}' for s in shares)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
