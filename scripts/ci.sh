#!/usr/bin/env bash
# Full-workspace CI: format check, workspace-membership assertion,
# build, test (incl. doctests), the examples run end to end (each
# asserts its own outcome; the REPL on a piped script), lint,
# docs-as-errors, doc-link, EngineConfig-table, type-member and
# eq_core-path check,
# the eq_check concurrency-discipline
# analyzer (workspace scan + fixture suite), the differential-oracle
# proptests for the unifier, for matching's one-pass
# propagation (against Algorithm 1's worklist) and for region
# evaluation (against the materialized semi-join), the equivalence
# proptests that guard the one admission step (batch = sequential
# submits = `MatchGraph::build`, single vs batched across shards), a
# release-build timeout on one adversarial query, the small-stack
# evaluator regression (RUST_MIN_STACK), a --smoke run of every bench
# target (paper Figs. 6-9 + ablations), and last the benchmark package that judges every perf claim (benchmark/,
# BENCHMARK.json): its own tests and a short run of every workload —
# pairs_incremental, churn_sharded, cliques_paged, giant_shared (at two
# seeds) and pairs_durable (kill + recover compared id for id) — whose
# output checks must pass, and whose peak RSS must stay under a
# ceiling. Everything runs offline (vendored shims only — see README
# "Offline-dependency policy").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/14 cargo fmt --check =="
cargo fmt --check

echo "== 2/14 workspace membership (cargo pkgid) =="
# `cargo pkgid` resolves real package names only and exits non-zero
# when the workspace has no such member.
for pkg in eq_ir eq_unify eq_db eq_sql eq_store eq_core eq_workload \
    eq_bench eq_check entangled_queries parking_lot proptest; do
    if ! cargo pkgid --offline -p "$pkg" >/dev/null; then
        echo "FATAL: package '$pkg' missing from the workspace" >&2
        exit 1
    fi
done
echo "all 12 packages present"

echo "== 3/14 cargo build --release =="
cargo build --release --offline

echo "== 4/14 cargo test -q (unit + integration; doctests run in step 5) =="
cargo test -q --offline --lib --bins --tests

echo "== 5/14 cargo test --doc (service/error examples compile and run) =="
cargo test -q --doc --offline

echo "== 6/14 examples run end to end =="
# `cargo test` only compiles the examples. Each asserts its own outcome
# and exits non-zero on a miss; the REPL reads a script from stdin that
# books one pair in incremental mode (the service evaluates inside the
# second submit) and one in set-at-a-time mode (answered by `.flush`).
for example in quickstart mmo_raid seat_inventory travel_agency; do
    cargo run -q --offline --example "$example" >/dev/null
done
repl_out=$(printf '%s\n' \
    '.table Flights fno dest' '.insert Flights 122 Paris' \
    '{R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)' \
    '{R(Kramer, y)} R(Jerry, y) <- Flights(y, Paris)' \
    '.mode batch' \
    '{R(Elaine, x)} R(George, x) <- Flights(x, Paris)' \
    '{R(George, y)} R(Elaine, y) <- Flights(y, Paris)' \
    '.flush' '.quit' | cargo run -q --offline --example repl)
if [ "$(grep -c ' answered: R(' <<<"$repl_out")" != 4 ] || ! grep -q 'flush: 2 answered' <<<"$repl_out"; then
    echo "$repl_out"
    echo "FATAL: the REPL script did not answer both pairs" >&2
    exit 1
fi
echo "examples ok"

echo "== 7/14 cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== 8/14 cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== 9/14 docs dead-link + EngineConfig table, exported-type member and eq_core path drift check =="
python3 scripts/check_doc_links.py

echo "== 10/14 eq_check concurrency-discipline analyzer =="
# The workspace scan must be clean, and every rule must be proven live
# by its fixture pair (the must-fail fires exactly its own rule, the
# must-pass stays silent).
cargo run -q --offline -p eq_check
cargo run -q --offline -p eq_check -- --fixtures

echo "== 11/14 differential and equivalence proptests (unifier vs reference oracle; one-pass matching vs worklist; region evaluation vs materialized semi-join; the engine's evaluator vs the whole-body join; the one admission step) and the adversarial-query timeout =="
# The union-find unifier must stay observationally equivalent to the
# frozen reference oracle after every step of random equate / bind /
# unify_terms / merge_from scripts (conflicting merges included).
# Matching's one pass over the condensation must keep
# Algorithm 1's worklist survivors, removals and global classes on
# random conflicting components, and its folded-entry count must stay
# linear on a ring with a conflicting sink. Every way into an engine is
# one admission step run in a loop, so three equivalences guard it: a
# batch equals sequential submits, a batch into an empty engine equals
# `MatchGraph::build` edge id for edge id, and single submits and
# batches give the same ids, outcomes and per-session events on 1, 2
# and 4 shards. Step 4 runs these too; this explicit invocation keeps
# the harnesses from silently dropping out of the suite, and the
# unifier's oracle property and each equivalence must run exactly one
# test under its name. So must region evaluation's oracle property:
# the first-choice descent and its witness-pass fallback must stay
# answer-for-answer equal to the materialized semi-join on clean,
# detoured and broken shared-variable rings. So must the one guard
# tying the engine's one evaluator (`intra`) to the whole-body join:
# on clean and broken rings, in both cadences (a flush after every
# submit, or one flush at the end), the engine's outcomes must equal
# each coordinating set's `CombinedQuery::evaluate` — shared-chain
# rings included, which the engine splits into regions whatever their
# size (the flush that closes the ring must report a split unit), so
# the property covers the region walk's answer choice too. The pending
# pool's bookkeeping is intrusive (member rings through the slot table,
# edge rings through the edge slab, a dirty flag per component), so one
# property runs random links, unlinks, dirty takes and migration-style
# extractions against a model: every component's member ring is its
# BFS piece (a union of pieces while a split is pending), each slot's
# `comp` agrees with the rings, and each slot's out- and in-edges stay
# in link order. The service's per-shard logic is a state machine that
# holds no lock and reads no clock, so one test drives two shards and a
# router by hand, with a fixed time, through a rendezvous that moves a
# tagged query, a recovery re-admission under a recorded id and a
# flush, and checks outcomes, tags and their order against one shard.
# Recovery is one `Coordinator::open` whichever way the service died,
# so three kill + recover properties must each run as one test too: a
# log torn at any byte recovers an acknowledged prefix exactly once,
# outcomes recorded but never delivered to a subscriber recover on 1,
# 2 and 4 shards, and a deadline passes through a kill (one past due
# expires on the first sweep after the reopen, one still ahead stays
# pending until it is due). A checkpoint image stores each table as
# its dictionary and code stream, so one property must run as one test
# too: random tables with tombstones, freed codes and a reload after the
# deletes reopen row for row, posting list for posting list, and a
# byte-mutated image is refused or consistent, never a panic.
cargo test -q --offline -p eq_core --lib matching
for named in "eq_unify --lib differential::unifier_equals_reference_oracle" \
    "eq_core --lib intra::tests::streaming_equals_materialized_region_evaluation" \
    "eq_core --test=intra_proptest engine_equals_combined_query_on_giant_rings" \
    "eq_core --test=service_proptest submit_batch_is_equivalent_to_sequential_submits" \
    "eq_core --test=invariants_proptest one_edge_definition_for_build_pairwise_and_engine" \
    "eq_core --test=shard_dispatch_proptest shard_counts_are_observationally_identical" \
    "eq_core --lib graph::tests::intrusive_lists_agree_with_bfs_and_link_order" \
    "eq_core --lib shard::tests::two_shards_and_a_router_driven_by_hand_equal_one_shard" \
    "eq_core --test=kill_recover torn_wal_recovers_a_prefix_exactly_once" \
    "eq_core --test=shard_dispatch_proptest kill_with_undrained_events_recovers_exactly_once" \
    "eq_core --test=kill_recover deadlines_survive_a_kill_and_expire_on_time" \
    "eq_core --lib durable::tests::images_reopen_tables_row_for_row"; do
    read -r package target name <<<"$named"
    out=$(cargo test -q --offline -p "$package" "$target" -- --exact "$name" 2>&1) || {
        echo "$out"
        exit 1
    }
    if ! grep -q "test result: ok. 1 passed" <<<"$out"; then
        echo "$out"
        echo "FATAL: $package $target $name did not run" >&2
        exit 1
    fi
done
# One client query must not pin a shard lock: a 51-atom 3-colouring
# query whose K4 hangs by a bridge off a random graph is rejected in
# about a tenth of a millisecond because the region split finds the K4
# alone, and took tens of seconds when a size gate kept the unit whole.
# Release build, under a timeout, so a returning cliff fails CI in
# bounded time instead of hanging it; exactly one test must run.
adversary="adversary::tests::k4_bridge_is_rejected_by_its_own_region"
cargo test -q --release --offline -p eq_workload --lib --no-run
out=$(timeout 60 cargo test -q --release --offline -p eq_workload --lib -- --exact "$adversary" 2>&1) || {
    echo "$out"
    echo "FATAL: $adversary failed or timed out" >&2
    exit 1
}
if ! grep -q "test result: ok. 1 passed" <<<"$out"; then
    echo "$out"
    echo "FATAL: eq_workload --lib $adversary did not run" >&2
    exit 1
fi

echo "== 12/14 small-stack evaluator regression (RUST_MIN_STACK=1 MiB) =="
# The join evaluator is iterative (heap-bounded frames); this deep-chain
# join would overflow a 1 MiB test-thread stack through the old
# recursive search. Run it with the stack clamped to prove the bound.
RUST_MIN_STACK=1048576 cargo test -q --offline -p eq_db --test deep_stack

echo "== 13/14 bench smoke: every bench target builds and runs =="
for bench in fig6_two_way fig7_postconditions fig8_stress fig9_safety ablation; do
    cargo bench -q --offline -p eq_bench --bench "$bench" -- --smoke
done

echo "== 14/14 benchmark package: unit tests + a short run of all five workloads with their output checks and a peak-RSS ceiling per workload =="
# The benchmark is a package of its own, outside the workspace, so no
# step above builds it. Admission is one step whether a call carries one
# query or many: pairs_incremental drives one `submit` (a batch of one)
# per query, churn_sharded sends tiny batches through router,
# rendezvous and migration. Then short runs of the workload that retires the
# most resident state per flush and of the one giant component (region
# split + projection, unify_clones == 0) must still end correct: pinned
# seed-2011 accounting, per-iteration answer hash, exact layer counts.
# The giant component runs at a second seed too: the seed is its
# arrival order, which decides the root of the block-cut tree and so
# every region's join order. The first-choice descent that answers
# this ring costs one pinned run per region whichever region is the
# root; the second seed stays as the check that another arrival order
# still ends correct. Last the durable path: the pair
# stream through the WAL with a mid-stream checkpoint, then kill +
# recover — accounting must match id for id and the pinned counts.
# The two pair workloads hold the largest databases (41,084 users,
# 594,400 friendships). A coordinator built over `Database::snapshot()`
# shares the workload's in-memory tables copy-on-write, so
# pairs_incremental holds one copy of its database and giant_shared and
# churn_sharded one of theirs; pairs_durable builds its service from a
# checkpoint image and holds up to three at its peak. Peak RSS must stay
# under a ceiling of a measured median + 10 %, each measured with these
# 2 s runs on a 2-core x86-64 box, median of 5 runs (alternated with 5
# of the parent), and looked up by workload name, so both giant_shared
# runs are held to one ceiling. Since atoms keep up to two terms inline
# — a binary atom, every atom of these workloads, owns no allocation, so
# a pending pair query is 3 allocations, not 8 — and admission renames
# the submitted query in place, the medians are: churn_sharded 221.3 MB
# (it was 256.4, the largest peak of the five), pairs_incremental
# 103.3 MB (126.3), cliques_paged 88.8 MB (105.3), pairs_durable
# 156.0 MB (174.5) and giant_shared 59.1 MB (64.2; 58.9 and 63.9 at
# seed 7). giant_shared was measured again once matching kept no seed
# unifier per query, the flush's plan no second copy of its body and
# admission sized the slot vectors and id maps once per batch: 49.1 MB
# (49.2 at seed 7; median of five 2 s runs each, within 0.3 MB of each
# other at seed 2011, one seed-7 run at 52.2), so its ceiling is
# 54.0 MB. Earlier steps down: giant_shared from 54.7 MB (ceiling
# 60.1) when its flush answered the ring by a first-choice descent that
# builds no witness sets and the symbol interner left the instrumented
# lock, pairs_durable from 243.1 MB
# when tables stored each value once (its three copies of the pairs
# database had set the peak), giant_shared from 98.2 MB when its flush
# stopped copying the component, cliques_paged from 155.2 MB when the
# loader streamed rows into the tables, pairs_durable from 265.9 MB
# when recovery decoded rows straight into each table's slab, and
# pairs_incremental from 183.9 MB when a pending query stopped holding
# a per-query outcome channel. Each workload's five runs lay within
# 1.2 MB of each other. Measured again once the pending pool's
# bookkeeping became slot-indexed (index cells linked into posting
# rings, edge and member rings through the slabs, one id map): five
# 2 s runs each, alternated with five of the parent, on the same box.
# pairs_incremental read 99.4 MB (99.4-99.9; the parent 103.2,
# 102.7-104.3) and giant_shared 45.8 MB at seed 2011 (45.8-45.9; the
# parent 49.3) and 45.8 MB at seed 7 (45.7-45.9; the parent 50.7), so
# their ceilings are 109.3 MB (was 113.6) and 50.4 MB (was 54.0).
declare -A rss_ceiling_mb=([pairs_incremental]=109.3 [churn_sharded]=243.4 [giant_shared]=50.4
    [cliques_paged]=97.7 [pairs_durable]=171.6)
cargo test -q --offline --manifest-path benchmark/Cargo.toml
for run in "pairs_incremental" "churn_sharded" "cliques_paged" "giant_shared" "giant_shared --seed 7" \
    "pairs_durable"; do
    # shellcheck disable=SC2086  # $run is a workload name plus options
    result=$(benchmark/run.sh --workload $run --seconds 2 --trace 0 | tail -n 1)
    echo "$result"
    if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
        echo "FATAL: $run run did not end correct with 0 failed operations" >&2
        exit 1
    fi
    ceiling=${rss_ceiling_mb[${run%% *}]:-}
    if [ -n "$ceiling" ]; then
        rss=$(python3 -c 'import json, sys; print(json.loads(sys.argv[1])["metrics"]["peak_rss_mb"]["value"])' "$result")
        if awk -v rss="$rss" -v ceiling="$ceiling" 'BEGIN { exit !(rss > ceiling) }'; then
            echo "FATAL: $run peak_rss_mb $rss is above its ceiling of $ceiling MB" >&2
            exit 1
        fi
        echo "$run peak_rss_mb $rss (ceiling $ceiling MB)"
    fi
done

echo "CI green."
