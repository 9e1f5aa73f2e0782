#!/usr/bin/env bash
# Does the benchmark agree with itself?
#
# Runs two full sets of the same binary back to back — three untraced
# rounds over the workloads (end-to-end metrics) and one traced round
# (per-layer metrics), the second set in reverse workload order. A
# set's value for an end-to-end metric is the best of its three runs:
# on a shared machine a neighbour's burst slows a run for minutes and
# nothing speeds one up. Fails if
#   * any end-to-end metric differs between the sets by more than the
#     bound BENCHMARK.json fixes for it, or
#   * any exact-count layer metric (unit `count` or `bytes`, the
#     `trace.*` bookkeeping aside) differs at all, or
#   * any run reports an incorrect result or a failed operation.
# Then runs every workload once with --seed 7, to show nothing is tuned
# to the default seed 2011. About twenty minutes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

python3 - <<'PY'
import json
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, "benchmark")
from spread import run_once  # exits on a failed or incorrect run

spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
best = {m["name"]: min if m["better"] == "lower" else max for m in spec["end_to_end"]}
exact = [m["name"] for m in spec["per_layer"]
         if m["unit"] in ("count", "bytes") and not m["name"].startswith("trace.")]
problems = []


def run(workload, seed, trace):
    result, _ = run_once(workload, seed, spec["run_seconds"], trace)
    return {name: m["value"] for name, m in result["metrics"].items()}


sets = []
for order in (workloads, workloads[::-1]):
    print("set", len(sets) + 1, "order:", " ".join(order), flush=True)
    rounds = [{w: run(w, 2011, 0) for w in order} for _ in range(3)]
    sets.append({w: ({name: best[name](r[w][name] for r in rounds) for name in bounds},
                     run(w, 2011, 1)) for w in order})

print(f"\n{'workload':<18} {'metric':<22} {'set 1':>14} {'set 2':>14} {'diff':>8} {'bound':>6}")
for w in workloads:
    (e2e_a, layers_a), (e2e_b, layers_b) = sets[0][w], sets[1][w]
    for name, bound in bounds.items():
        a, b = e2e_a[name], e2e_b[name]
        diff = abs(b - a) / a if a else float("inf")  # 0 means not measured
        verdict = "" if diff <= bound else "  DIFFERS"
        print(f"{w:<18} {name:<22} {a:>14.4f} {b:>14.4f} {diff:>8.4f} {bound:>6.2f}{verdict}")
        if diff > bound:
            problems.append(f"{w} {name}: {a} vs {b} differ by {diff:.3f}, bound {bound}")
    for name in exact:
        if layers_a[name] != layers_b[name]:
            problems.append(f"{w} {name}: exact count {layers_a[name]} vs {layers_b[name]}")
print(f"{len(exact)} exact-count metrics compared on each of {len(workloads)} workloads")

print("\nseed 7:", flush=True)
for w in workloads:
    _, measured = run_once(w, 7, spec["run_seconds"])
    print(f"  {w:<18} throughput_qps {measured['throughput_qps']:.1f}")

if problems:
    print("\nselfcheck FAILED:")
    for p in problems:
        print("  " + p)
    sys.exit(1)
print("\nselfcheck passed")
PY
