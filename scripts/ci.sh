#!/usr/bin/env bash
# Full-workspace CI: format check, build, test (incl. doctests), lint,
# docs-as-errors, doc-link check, workspace-membership assertion, the
# eq_check concurrency-discipline analyzer (workspace scan + fixture
# suite), the small-stack evaluator regression (RUST_MIN_STACK), and
# bench smoke runs (fig6 throughput, fig8 stress, fig_resident churn,
# fig_service batched admission + staleness/KeepPending churn + the
# sharded-service series — published as BENCH_fig_service.json, whose
# rows must carry the instrumented per-shard lock hold counters and
# show the 4-shard locks strictly cooler than the single-mutex
# baseline — and fig_giant
# intra-component parallelism incl. the Triangle, shared-chain and
# shared-wide region-split series, whose JSON is published as
# BENCH_fig_giant.json — with the streaming-projection and undo-log
# unifier counters, clones asserted zero — to record the perf
# trajectory, plus the differential-oracle proptests for the undo-log
# unifier, a 10k shared-ring sweep bounded against the old
# materialized-semi-join baseline, an 800-query shared-ring smoke
# asserting the undo-log op counters, and the fig_store
# out-of-core paging + kill-and-recover smoke, published as
# BENCH_fig_store.json with budget/fault assertions), and last the
# benchmark package that judges every perf claim (benchmark/,
# BENCHMARK.json): its own tests and a short cliques_paged run whose
# output checks must pass. Everything runs offline (vendored shims only — see README "Offline-dependency
# policy").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== 1/18 cargo fmt --check =="
cargo fmt --check

echo "== 2/18 workspace membership (cargo metadata) =="
# Parse real package names only (a grep over the raw JSON would also
# match "name" fields inside dependency tables and pass vacuously).
names=$(cargo metadata --no-deps --format-version 1 --offline |
    python3 -c 'import json,sys; print("\n".join(sorted(p["name"] for p in json.load(sys.stdin)["packages"])))')
for pkg in eq_ir eq_unify eq_db eq_sql eq_store eq_core eq_workload \
    eq_bench eq_check entangled_queries parking_lot proptest; do
    if ! grep -qx "$pkg" <<<"$names"; then
        echo "FATAL: package '$pkg' missing from the workspace" >&2
        echo "cargo metadata reported:" >&2
        echo "$names" >&2
        exit 1
    fi
done
echo "all $(wc -w <<<"$names" | tr -d ' ') packages present"

echo "== 3/18 cargo build --release =="
cargo build --release --offline

echo "== 4/18 cargo test -q (unit + integration; doctests run in step 5) =="
cargo test -q --offline --lib --bins --tests

echo "== 5/18 cargo test --doc (service/error examples compile and run) =="
cargo test -q --doc --offline

echo "== 6/18 cargo clippy --workspace --all-targets =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== 7/18 cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== 8/18 docs dead-link check =="
python3 scripts/check_doc_links.py

echo "== 9/18 eq_check concurrency-discipline analyzer =="
# The workspace scan must be clean, and every rule must be proven live
# by its fixture pair (the must-fail fires exactly its own rule, the
# must-pass stays silent).
cargo run -q --offline -p eq_check
cargo run -q --offline -p eq_check -- --fixtures

echo "== 10/18 differential-oracle proptests (undo-log unifier vs clone oracle) =="
# The undo-log snapshot/commit/rollback table must stay observationally
# equivalent to the frozen clone-based oracle through random
# op/snapshot interleavings (conflicting merges inside nested snapshots
# included). Step 4 runs these too; this explicit invocation keeps the
# harness from silently dropping out of the suite.
cargo test -q --offline -p eq_unify differential

echo "== 11/18 small-stack evaluator regression (RUST_MIN_STACK=1 MiB) =="
# The join evaluator is iterative (heap-bounded frames); this deep-chain
# join would overflow a 1 MiB test-thread stack through the old
# recursive search. Run it with the stack clamped to prove the bound.
RUST_MIN_STACK=1048576 cargo test -q --offline -p eq_db --test deep_stack

echo "== 12/18 fig6 + fig8 bench smoke =="
cargo bench -q --offline -p eq_bench --bench fig6_two_way -- --smoke
cargo bench -q --offline -p eq_bench --bench fig8_stress -- --smoke

echo "== 13/18 fig_resident churn + fig_service admission/churn/sharded smoke (publishes BENCH_fig_service.json) =="
cargo bench -q --offline -p eq_bench --bench fig_resident -- --smoke
cargo bench -q --offline -p eq_bench --bench fig_service -- --smoke
cargo run -q --release --offline -p eq_bench --bin fig_service -- --smoke
cp results/fig_service.json BENCH_fig_service.json
# The service rows must surface the instrumented-lock hold accounting
# (BatchReport::lock_hold_ns plumbed from the vendored parking_lot shim).
if ! grep -q "lock_hold_ns" BENCH_fig_service.json; then
    echo "FATAL: BENCH_fig_service.json lacks lock_hold_ns counters" >&2
    exit 1
fi
# The sharded churn series drives the same multi-session script through
# a 1-shard and a 4-shard service in one run. Sharding must be
# observationally transparent (identical outcome accounting), surface
# the per-shard lock counters and the dispatch-queue high-water mark,
# and actually cool the locks: the 4-shard worst single hold and
# hottest per-shard cumulative hold must be strictly below the
# single-mutex baseline's.
python3 - <<'PY'
import json
rows = json.load(open("BENCH_fig_service.json"))
by_series = {r["series"]: r for r in rows}
one = by_series.get("sharded churn (1 shard)")
four = by_series.get("sharded churn (4 shards)")
assert one and four, "fig_service JSON lacks the sharded churn rows"
c1, c4 = one["counters"], four["counters"]
assert c1["service_shards"] == 1 and c4["service_shards"] == 4
for c in (c1, c4):
    assert "dispatch_queue_peak" in c, "sharded row lacks dispatch_queue_peak"
for s in range(4):
    for name in (f"shard{s}_lock_hold_ns", f"shard{s}_lock_max_hold_ns",
                 f"shard{s}_lock_acquisitions"):
        assert name in c4, f"4-shard row lacks the {name} counter"
for key in ("answered", "expired", "events"):
    assert c1[key] == c4[key], \
        f"sharding changed observable accounting: {key} {c1[key]} vs {c4[key]}"
assert c4["lock_max_hold_ns"] < c1["lock_max_hold_ns"], \
    (f"4-shard worst lock hold not below single-mutex baseline: "
     f"{c4['lock_max_hold_ns']:.0f} >= {c1['lock_max_hold_ns']:.0f} ns")
hot4 = max(c4[f"shard{s}_lock_hold_ns"] for s in range(4))
assert hot4 < c1["shard0_lock_hold_ns"], \
    (f"4-shard hottest shard's cumulative hold not below single-mutex "
     f"baseline: {hot4:.0f} >= {c1['shard0_lock_hold_ns']:.0f} ns")
print(f"sharded churn: {int(c1['answered'])} answered / {int(c1['expired'])} "
      f"expired identically at 1 and 4 shards; max hold "
      f"{c1['lock_max_hold_ns']/1e6:.2f} ms -> {c4['lock_max_hold_ns']/1e6:.2f} ms, "
      f"hottest cumulative hold {c1['shard0_lock_hold_ns']/1e6:.2f} ms -> "
      f"{hot4/1e6:.2f} ms, dispatch queue peak {int(c4['dispatch_queue_peak'])}")
PY
echo "published BENCH_fig_service.json ($(wc -c < BENCH_fig_service.json) bytes, per-shard lock + dispatch counters asserted)"

echo "== 14/18 fig_giant intra-component smoke (publishes BENCH_fig_giant.json) =="
cargo bench -q --offline -p eq_bench --bench fig_giant -- --smoke
cargo run -q --release --offline -p eq_bench --bin fig_giant -- --smoke
cp results/fig_giant.json BENCH_fig_giant.json
# The streaming articulation projection must surface its counters (the
# streamed solution volume and the witness-map high-water mark), and the
# undo-log unifier must surface its op counters (merges, rollbacks,
# clones, undo high-water).
for counter in intra_region_streamed intra_witness_peak \
    unify_merges unify_rollbacks unify_clones unify_undo_high_water; do
    if ! grep -q "$counter" BENCH_fig_giant.json; then
        echo "FATAL: BENCH_fig_giant.json lacks the $counter counter" >&2
        exit 1
    fi
done
# The zero-clone claim is measured, not assumed: every flush row must
# report unify_clones == 0 (speculation rides snapshots, never copies).
python3 - <<'PY'
import json
rows = json.load(open("BENCH_fig_giant.json"))
checked = 0
for r in rows:
    c = r.get("counters") or {}
    if "unify_clones" in c:
        checked += 1
        assert c["unify_clones"] == 0, \
            f"hot path cloned a Unifier in series {r['series']!r}: {c['unify_clones']}"
print(f"unify_clones == 0 across all {checked} counter-bearing rows")
PY
echo "published BENCH_fig_giant.json ($(wc -c < BENCH_fig_giant.json) bytes, streaming + unify counters present)"

echo "== 15/18 10k shared-ring sweep: streamed split vs materialized baseline =="
# The 10k shared-variable ring flushed in ~0.75 s under the materialized
# semi-join; the streamed split measured ~0.40 s. Bound the flush at 2x
# the old baseline so a regression back to materialization-scale cost
# (or worse) fails CI while machine noise does not.
cargo run -q --release --offline -p eq_bench --bin fig_giant -- --sweep --shared --sweep-size 10000
python3 - <<'PY'
import json
rows = json.load(open("results/fig_giant_sweep.json"))
flush = [r for r in rows if "giant-component flush" in r["series"]]
assert flush, "sweep JSON lacks the giant-component flush row"
ms = flush[0]["millis"]
assert ms < 1500.0, f"10k shared-ring flush regressed: {ms:.1f} ms (materialized baseline was ~750 ms)"
print(f"10k shared-ring streamed flush: {ms:.1f} ms (< 1500 ms bound)")
PY

echo "== 16/18 n=800 shared-ring match+flush smoke (undo-log op counters) =="
# A small shared-variable ring exercises the snapshot-riding SCC fold
# and the probe-phase speculation end to end. The flush row's timing and
# undo-log counters must be present and coherent: merges happened,
# clones did not, and the undo high-water proves the speculative paths
# actually ran through the log.
cargo run -q --release --offline -p eq_bench --bin fig_giant -- --sweep --shared --sweep-size 800
python3 - <<'PY'
import json
rows = json.load(open("results/fig_giant_sweep.json"))
flush = [r for r in rows if "giant-component flush" in r["series"]]
assert flush, "sweep JSON lacks the giant-component flush row"
r = flush[0]
assert r["millis"] > 0.0, "flush row lacks a timing measurement"
c = r["counters"]
assert c["unify_merges"] > 0, "800-ring flush performed no unifier merges"
assert c["unify_clones"] == 0, f"800-ring flush cloned a Unifier: {c['unify_clones']}"
assert c["unify_undo_high_water"] > 0, \
    "800-ring flush never wrote the undo log — speculation is not riding snapshots"
print(f"800 shared-ring flush: {r['millis']:.1f} ms, "
      f"{int(c['unify_merges'])} merges, {int(c['unify_rollbacks'])} rollbacks, "
      f"undo high-water {int(c['unify_undo_high_water'])}, 0 clones")
PY

echo "== 17/18 fig_store out-of-core + kill-and-recover smoke (publishes BENCH_fig_store.json) =="
# The paged run must actually spill (hot relation >= 10x the cache
# budget, nonzero page faults) while never exceeding its byte budget,
# and the kill-and-recover harness must account exactly-once for every
# acknowledged query (the run aborts internally on loss/duplication;
# the checks here pin the counters the claim rests on).
cargo run -q --release --offline -p eq_bench --bin fig_store -- --smoke
cp results/fig_store.json BENCH_fig_store.json
python3 - <<'PY'
import json
rows = json.load(open("BENCH_fig_store.json"))
paged = [r for r in rows if r["series"] == "paged (out-of-core)"]
assert paged, "fig_store JSON lacks the paged (out-of-core) row"
c = paged[0]["counters"]
assert c["page_reads"] > 0, "out-of-core run never faulted a page in"
assert c["hot_data_bytes"] >= 10 * c["budget_bytes"], \
    f"hot relation not out-of-core: {c['hot_data_bytes']} < 10x {c['budget_bytes']}"
assert c["resident_bytes_peak"] <= c["budget_bytes"], \
    f"page cache exceeded its budget: {c['resident_bytes_peak']} > {c['budget_bytes']}"
recover = [r for r in rows if r["series"].startswith("kill+recover")]
assert len(recover) == 2, "fig_store JSON lacks both kill+recover rows"
for r in recover:
    k = r["counters"]
    assert k["acknowledged"] > 0
    assert k["recovered_terminal"] + k["recovered_pending"] == k["acknowledged"], \
        "recovered accounting does not cover every acknowledged query exactly once"
print(f"paged: {int(c['page_reads'])} faults, resident peak "
      f"{int(c['resident_bytes_peak'])} <= budget {int(c['budget_bytes'])}; "
      f"kill+recover: {int(recover[0]['counters']['acknowledged'])} acknowledged, "
      f"exactly-once accounting verified")
PY

echo "== 18/18 benchmark package: unit tests + cliques_paged run with its output checks =="
# The benchmark is a package of its own, outside the workspace, so no
# step above builds it. A short run of the workload that retires the
# most resident state per flush must still end correct: pinned
# seed-2011 accounting, per-iteration answer hash, exact layer counts.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
result=$(benchmark/run.sh --workload cliques_paged --seconds 2 --trace 0 | tail -n 1)
echo "$result"
if ! grep -q '"correct": true' <<<"$result" || ! grep -q '"failed": 0[,}]' <<<"$result"; then
    echo "FATAL: benchmark run did not end correct with 0 failed operations" >&2
    exit 1
fi

echo "CI green."
