#!/usr/bin/env python3
"""Steadiness check: run every workload in two sets of seeds and print,
per end-to-end metric, each set's median and quartiles, the spread of all
runs (interquartile distance over the median) and the shift between the
two sets' medians, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs-per-set 5] [--workloads a,b]
                                    [--first-seed 101] [--json out.json]

Run from the root of a checkout; one benchmark process at a time. The
bounds in BENCHMARK.json are set from this output: each spread (except
setup_s, timed once per process) should stay under a third of its bound.
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
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: "
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs-per-set", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    everything = {}
    for workload in args.workloads.split(","):
        sets = []
        for s in range(2):
            runs = []
            for i in range(args.runs_per_set):
                seed = args.first_seed + s * args.runs_per_set + i
                result = run_once(workload, seed, seconds)
                runs.append(result)
                print(f"  {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        everything[workload] = sets
        print(f"\n{workload}  ({args.runs_per_set} runs per set, "
              f"{seconds} s each)")
        print(f"  {'metric':<16}{'set':>4}{'q1':>13}{'median':>13}{'q3':>13}"
              f"{'spread':>9}{'shift':>9}{'bound':>7}")
        for name in bounds:
            per_set = [[r["metrics"][name]["value"] for r in runs]
                       for runs in sets]
            combined = per_set[0] + per_set[1]
            q1, med, q3 = quartiles(combined)
            spread = (q3 - q1) / med if med else float("inf")
            m0, m1 = (statistics.median(v) for v in per_set)
            shift = (m1 - m0) / m0 if m0 else float("inf")
            for i, values in enumerate(per_set):
                a, b, c = quartiles(values)
                tail = (f"{spread:>9.3f}{shift:>+9.3f}{bounds[name]:>7.2f}"
                        if i == 1 else "")
                print(f"  {name if i == 0 else '':<16}{i + 1:>4}"
                      f"{a:>13.4f}{b:>13.4f}{c:>13.4f}{tail}")
        shares = [r["failed"] / r["attempted"] for runs in sets for r in runs]
        wrong = sum(1 for runs in sets for r in runs if not r["correct"])
        print(f"  failed share per run: {sorted(set(shares))}; "
              f"runs with a failed check: {wrong}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(everything, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
