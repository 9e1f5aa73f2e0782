//! The layer replay: a workload's query stream pushed through the
//! public batch pipeline one layer at a time, each layer
//! timed and counted from outside —
//! `MatchGraph::build` → `safety::enforce` → `ucs::violations` →
//! `matching::match_component` → `CombinedQuery::build` →
//! `intra::plan_component` / `evaluate_plan` (large components) or the
//! combined body on the database (small ones).
//!
//! The service runs the same functions over its resident graph, so a
//! change to a layer moves its replay number; what the replay cannot
//! see — resident bookkeeping, retirement, event staging — is the
//! service's `overhead_share`.

use crate::workloads::{bursts_of, set_at_a_time};
use eq_core::intra::{self, SplitOptions};
use eq_core::{matching, safety, ucs, CombinedQuery, Coordinator, EngineConfig, MatchGraph};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastSet, VarGen};
use eq_store::WriteAheadLog;
use std::collections::BTreeMap;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs the replay and returns its numbers by metric name, plus
/// `replay.total_ms` (the sum of the layer timings).
pub fn replay(queries: &[EntangledQuery], db: &Database) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let gen = VarGen::new();
    let renamed: Vec<EntangledQuery> = queries
        .iter()
        .map(|q| q.rename_apart(&gen).with_id(q.id))
        .collect();

    let t = Instant::now();
    let graph = MatchGraph::build(renamed);
    out.insert("graph.build_ms", ms(t));

    // Index probes and MGU checks, the two halves of edge discovery,
    // timed apart over the graph's own indexes.
    let heads = graph.head_index();
    let t = Instant::now();
    let mut probes = 0u64;
    // (probing slot, its postcondition, candidate head)
    let mut candidates = Vec::new();
    for (slot, q) in graph.queries().iter().enumerate() {
        for (pc_idx, pc) in q.postconditions.iter().enumerate() {
            probes += 1;
            heads.for_each_candidate(pc, |r, _| candidates.push((slot, pc_idx, r)));
        }
    }
    out.insert(
        "index.probe_ns_per_probe",
        t.elapsed().as_nanos() as f64 / probes.max(1) as f64,
    );
    out.insert(
        "index.candidates_per_probe",
        candidates.len() as f64 / probes.max(1) as f64,
    );
    let t = Instant::now();
    let mut mgu_calls = 0u64;
    let mut mgu_ok = 0u64;
    for &(slot, pc_idx, r) in &candidates {
        if r.query as usize == slot {
            continue; // a query never coordinates with itself
        }
        let head = &graph.queries()[r.query as usize].head[r.atom as usize];
        let pc = &graph.queries()[slot].postconditions[pc_idx];
        mgu_calls += 1;
        if std::hint::black_box(eq_unify::mgu_atoms(head, pc)).is_some() {
            mgu_ok += 1;
        }
    }
    out.insert(
        "unify.mgu_ns_per_call",
        t.elapsed().as_nanos() as f64 / mgu_calls.max(1) as f64,
    );
    out.insert(
        "unify.mgu_success_ratio",
        mgu_ok as f64 / mgu_calls.max(1) as f64,
    );

    let mut alive = vec![true; graph.len()];
    let t = Instant::now();
    let removed = safety::enforce(&graph, &mut alive);
    out.insert("safety.enforce_ms", ms(t));
    out.insert("safety.removed", removed.len() as f64);

    let t = Instant::now();
    let violations = ucs::violations(&graph, &alive);
    out.insert("ucs.violations_ms", ms(t));
    let non_ucs: FastSet<u32> = violations
        .iter()
        .flat_map(|v| [v.from_slot, v.to_slot])
        .collect();

    // Components this large take the partitioned intra-component path
    // in the service, so they do here.
    let intra_threshold = EngineConfig::default().intra_component_threshold;
    let components = graph.components_live(&alive);
    let mut match_ms = 0.0;
    let mut combine_ms = 0.0;
    let mut plan_ms = 0.0;
    let mut intra_eval_ms = 0.0;
    let mut db_ms = 0.0;
    let mut stats = matching::MatchStats::default();
    let (mut units, mut split_units, mut regions) = (0u64, 0u64, 0u64);
    let (mut streamed, mut witness_peak) = (0u64, 0u64);
    let (mut rows, mut db_probes, mut full_scans) = (0u64, 0u64, 0u64);
    let mut answered = 0u64;
    for members in &components {
        if members.iter().any(|m| non_ucs.contains(m)) {
            continue; // the engine fails these instead of evaluating
        }
        let t = Instant::now();
        let matched = matching::match_component(&graph, members);
        match_ms += ms(t);
        stats.dequeues += matched.stats.dequeues;
        stats.mgu_calls += matched.stats.mgu_calls;
        stats.cleanups += matched.stats.cleanups;
        if !matched.is_answerable() {
            continue;
        }
        let Some(global) = matched.global else {
            continue;
        };
        if members.len() >= intra_threshold {
            let t = Instant::now();
            let plan = intra::plan_component(
                &graph,
                &matched.survivors,
                &global,
                &SplitOptions::default(),
            );
            plan_ms += ms(t);
            units += plan.units.len() as u64;
            for unit in &plan.units {
                if let Some(rp) = &unit.regions {
                    split_units += 1;
                    regions += rp.regions.len() as u64;
                }
            }
            let t = Instant::now();
            let evaluated = intra::evaluate_plan_with_stats(&plan, db, 1);
            intra_eval_ms += ms(t);
            if let Ok((answers, plan_stats)) = evaluated {
                streamed += plan_stats.region_streamed;
                witness_peak = witness_peak.max(plan_stats.witness_peak);
                answered += answers.map_or(0, |a| a.len()) as u64;
            }
        } else {
            let t = Instant::now();
            let combined = CombinedQuery::build(&graph, &matched.survivors, global);
            combine_ms += ms(t);
            let t = Instant::now();
            let solved = if combined.constraints.is_empty() {
                db.evaluate_with_stats(&combined.body, 1)
                    .map(|(valuations, s)| {
                        rows += s.rows_considered;
                        db_probes += s.index_probes;
                        full_scans += s.full_scans;
                        !valuations.is_empty()
                    })
            } else {
                combined.evaluate(db, 1).map(|s| !s.is_empty())
            };
            db_ms += ms(t);
            if matches!(solved, Ok(true)) {
                answered += combined.heads.len() as u64;
            }
        }
    }
    out.insert("matching.match_ms", match_ms);
    out.insert("matching.dequeues", stats.dequeues as f64);
    out.insert("matching.mgu_calls", stats.mgu_calls as f64);
    out.insert("matching.cleanups", stats.cleanups as f64);
    out.insert("combine.build_ms", combine_ms);
    out.insert("intra.plan_ms", plan_ms);
    out.insert("intra.evaluate_ms", intra_eval_ms);
    out.insert("intra.units", units as f64);
    out.insert("intra.split_units", split_units as f64);
    out.insert("intra.regions", regions as f64);
    out.insert("intra.region_streamed", streamed as f64);
    out.insert("intra.witness_peak", witness_peak as f64);
    out.insert("db.evaluate_ms", db_ms);
    out.insert(
        "db.rows_considered_per_answer",
        rows as f64 / answered.max(1) as f64,
    );
    out.insert("db.index_probes", db_probes as f64);
    out.insert("db.full_scans", full_scans as f64);
    out.insert("replay.answered", answered as f64);
    let total: f64 = [
        "graph.build_ms",
        "safety.enforce_ms",
        "ucs.violations_ms",
        "matching.match_ms",
        "combine.build_ms",
        "intra.plan_ms",
        "intra.evaluate_ms",
        "db.evaluate_ms",
    ]
    .iter()
    .map(|name| out[name])
    .sum();
    out.insert("replay.total_ms", total);
    out
}

/// The durable workload's two numbers that need runs of their own:
///
/// * `durable.submit_overhead_ratio` — the durable run's mean admission
///   time over that of the same bursts through a plain `Coordinator`
///   (median of three passes);
/// * `durable.wal_append_us_per_record` — `WriteAheadLog::append` alone,
///   for as many records of the mean recorded size as an iteration
///   wrote.
pub fn durable_extras(
    db: &Database,
    queries: &[EntangledQuery],
    measured: &BTreeMap<&'static str, f64>,
    layers: &mut Vec<(&'static str, f64)>,
) {
    let mut plain_us = Vec::new();
    for _ in 0..3 {
        let coordinator = Coordinator::new(db.snapshot(), set_at_a_time());
        let mut session = coordinator.session();
        let mut admit_ns = 0u128;
        for requests in bursts_of(queries) {
            let t = Instant::now();
            std::hint::black_box(session.submit_batch(requests));
            admit_ns += t.elapsed().as_nanos();
            coordinator.flush();
        }
        plain_us.push(admit_ns as f64 / 1e3 / queries.len().max(1) as f64);
    }
    let plain = crate::stats::median(&plain_us).unwrap_or(0.0);
    let durable = measured.get("admit_mean_us").copied().unwrap_or(0.0);
    layers.push((
        "durable.submit_overhead_ratio",
        if plain > 0.0 { durable / plain } else { 0.0 },
    ));

    let records = measured.get("durable.wal_records").copied().unwrap_or(0.0) as usize;
    let bytes = measured.get("durable.wal_bytes").copied().unwrap_or(0.0) as usize;
    let dir = eq_store::scratch_dir("wal-replay");
    if let (true, Ok((mut wal, _))) = (records > 0, WriteAheadLog::open(&dir.join("wal.log"))) {
        // Each record carries an 8-byte frame on top of its payload.
        let payload = vec![0xABu8; (bytes / records).saturating_sub(8)];
        let t = Instant::now();
        for _ in 0..records {
            if wal.append(&payload).is_err() {
                break;
            }
        }
        layers.push((
            "durable.wal_append_us_per_record",
            t.elapsed().as_secs_f64() * 1e6 / records as f64,
        ));
    }
    eq_store::purge_dir(&dir);
}
