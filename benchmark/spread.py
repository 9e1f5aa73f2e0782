#!/usr/bin/env python3
"""Run-to-run spread of what a run measures, and the bound it earns.

    python3 benchmark/spread.py [--runs 10] [--seed 2011] [--workload NAME ...]
    python3 benchmark/spread.py --sweep 100       # seeds 100, 101, ... one per round

Runs the whole benchmark `--runs` times through benchmark/run.sh — every
workload once per round, the order reversed every other round — and
prints, for every end-to-end metric and for the client-facing timings
(`throughput_qps`, `coord_latency_p50_ms`, `admit_mean_us`), the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median over the rounds.

By default every round has the same inputs (seed 2011), so the spread is
the machine's alone; selfcheck.sh compares at that seed. `--sweep`
gives every round another seed: the spread then also holds what the
inputs add, which shows nothing is tuned to one seed.

The rule for a bound: max(5 %, 3 x the worst workload's spread),
rounded up to a whole percent (`peak_rss_mb`: at least 3 %). A metric
that would need more than 10 % gets no bound: it is a per-layer metric
on this machine. The tables in README.md were made with this script.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLIENT_TIMINGS = ["throughput_qps", "coord_latency_p50_ms", "admit_mean_us"]
MOST = 0.10  # a bound above this demotes the metric


def run_once(workload, seed, seconds, trace=0):
    """One benchmark process: (its result line, every value it measured)."""
    proc = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} --seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} --seed {seed}: incorrect result {result}")
    return result, json.loads(lines[0])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def earned_bound(name, worst_spread):
    floor = 0.03 if name == "peak_rss_mb" else 0.05
    return max(floor, math.ceil(3 * worst_spread * 100 - 1e-9) / 100)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2011, help="the seed of every round")
    parser.add_argument("--sweep", type=int, metavar="FIRST",
                        help="round i gets seed FIRST + i instead")
    parser.add_argument("--workload", action="append",
                        help="restrict to this workload (repeatable)")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    fixed = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = list(fixed) + CLIENT_TIMINGS

    samples = {w: {name: [] for name in names} for w in workloads}
    for i in range(args.runs):
        seed = args.seed if args.sweep is None else args.sweep + i
        for workload in workloads if i % 2 == 0 else workloads[::-1]:
            _, measured = run_once(workload, seed, spec["run_seconds"])
            for name in names:
                samples[workload][name].append(measured[name])
            print(f"round {i + 1}/{args.runs} seed {seed} {workload}", file=sys.stderr, flush=True)

    worst = {}
    print(f"{'workload':<18} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for workload in workloads:
        for name, values in samples[workload].items():
            q1, q2, q3, s = spread(values)
            print(f"{workload:<18} {name:<22} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>10.4f}")
            worst[name] = max(worst.get(name, 0.0), s)
    print(f"\n{'metric':<22} {'worst spread':>12} {'earns':>6} {'fixed':>6}")
    for name, s in worst.items():
        earns = earned_bound(name, s)
        has = f"{fixed[name]:>6.2f}" if name in fixed else f"{'-':>6}"
        verdict = "" if earns <= MOST else "  above 10 %: no bound holds on this machine"
        print(f"{name:<22} {s:>12.4f} {earns:>6.2f} {has}{verdict}")


if __name__ == "__main__":
    main()
