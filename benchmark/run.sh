#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]    # all five
#
# One process per workload, so peak memory and process-wide counters of
# one workload never bleed into the next. The last line each process
# prints on standard output is its result as one JSON object; progress
# and the metric table go to standard error.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Page files, WALs and checkpoints go through eq_store::scratch_dir,
# which places them under TMPDIR, and rustc keeps its temporaries
# there: point it inside the checkout. Every workload purges its own
# files; the trap catches what a killed run leaves.
scratch="$root/benchmark/results/scratch.$$"
mkdir -p "$scratch"
trap 'rm -rf "$scratch"' EXIT
export TMPDIR="$scratch"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/eq_benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        "$bin" "$@"
        exit
    fi
done
for workload in pairs_incremental cliques_paged giant_shared churn_sharded pairs_durable; do
    "$bin" --workload "$workload" "$@"
done
