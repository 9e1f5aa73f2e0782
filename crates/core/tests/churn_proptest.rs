//! Property checks for the resident match graph under churn: heavy
//! interleavings of submit / flush / cancel / expire must leave the
//! engine's resident state internally consistent (no dangling
//! `AtomRef`s in the atom indexes, edge lists and component registry in
//! sync), must reuse freed slots instead of growing the slot table, and
//! must answer exactly the queries a
//! rebuild-from-scratch-per-flush engine answers.
//! Invariant failures surface as typed
//! [`eq_core::InvariantViolation`]s, rendered into the panic message.

use eq_core::engine::QueryOutcome;
use eq_core::{
    CoordinationEngine, Coordinator, EngineConfig, EngineMode, FailReason, QueryStatus,
    SubmitOptions, SubmitRequest,
};
use eq_ir::{FastMap, QueryId};
use eq_workload::{churn_script, ChurnConfig, ChurnOp, SocialGraph, SocialGraphConfig};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn graph() -> &'static SocialGraph {
    static GRAPH: OnceLock<SocialGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        SocialGraph::generate(&SocialGraphConfig {
            users: 400,
            airports: 6,
            planted_cliques: 60,
            ..Default::default()
        })
    })
}

/// Enough users and airports that a few hundred reservations rarely
/// name the same (user, destination) twice.
fn sparse_graph() -> &'static SocialGraph {
    static GRAPH: OnceLock<SocialGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        SocialGraph::generate(&SocialGraphConfig {
            users: 4_000,
            planted_cliques: 60,
            ..Default::default()
        })
    })
}

fn churn_config() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        admission_safety_check: false,
        ..Default::default()
    }
}

fn engine() -> CoordinationEngine {
    CoordinationEngine::new(eq_workload::build_database(graph()), churn_config())
}

/// Runs a churn script, checking engine invariants at every flush;
/// every submission carries the same staleness bound (`None`: none),
/// and the loop sweeps expired queries before every submit and flush,
/// as the `Coordinator` does.
/// Returns per-submission terminal outcomes (None = still pending) and
/// the final slot capacity.
fn drive(
    mut engine: CoordinationEngine,
    ops: &[ChurnOp],
    staleness: Option<Duration>,
) -> (Vec<Option<QueryOutcome>>, usize) {
    let mut handles = Vec::new();
    for op in ops {
        match op {
            ChurnOp::Submit(q) => {
                engine.expire_stale(Instant::now());
                let opts = SubmitOptions {
                    deadline: staleness.map(|bound| Instant::now() + bound),
                    ..Default::default()
                };
                handles.push(engine.submit_with(q.clone(), opts).unwrap());
            }
            ChurnOp::Cancel(idx) => {
                engine.cancel(handles[*idx].id);
            }
            ChurnOp::Flush => {
                engine.expire_stale(Instant::now());
                engine.flush();
                engine.check_invariants().unwrap_or_else(
                    |violation: eq_core::InvariantViolation| {
                        panic!("resident invariants after flush: {violation} ({violation:?})")
                    },
                );
            }
        }
    }
    engine
        .check_invariants()
        .unwrap_or_else(|violation| panic!("final resident invariants: {violation}"));
    let capacity = engine.slot_capacity();
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    (
        handles.into_iter().map(|h| log.remove(&h.id)).collect(),
        capacity,
    )
}

/// Rebuild-per-flush reference for the resident graph: every `Flush`
/// re-admits the entire live pool through a fresh session of one
/// coordinator (all match state rebuilt from scratch), flushes once,
/// and withdraws the survivors again by closing the session. Answered
/// and rejected queries leave the pool; still-pending ones are
/// re-admitted at the next flush. Returns the submission indices that
/// were answered.
fn rebuild_per_flush_answered(ops: &[ChurnOp]) -> Vec<usize> {
    let coordinator = Coordinator::new(eq_workload::build_database(sparse_graph()), churn_config());
    let mut pool = Vec::new();
    let mut answered = Vec::new();
    for op in ops {
        match op {
            ChurnOp::Submit(q) => pool.push(Some(q.clone())),
            ChurnOp::Cancel(idx) => pool[*idx] = None,
            ChurnOp::Flush => {
                let live: Vec<usize> = (0..pool.len()).filter(|&i| pool[i].is_some()).collect();
                let mut session = coordinator.session();
                let handles = session.submit_batch(
                    live.iter()
                        .map(|&i| SubmitRequest::new(pool[i].clone().unwrap()))
                        .collect(),
                );
                coordinator.flush();
                for (&i, handle) in live.iter().zip(&handles) {
                    match coordinator.status(handle.as_ref().unwrap().id) {
                        Some(QueryStatus::Answered) => {
                            answered.push(i);
                            pool[i] = None;
                        }
                        Some(QueryStatus::Failed(FailReason::Rejected(_))) => pool[i] = None,
                        _ => {}
                    }
                }
                session.close();
            }
        }
    }
    answered.sort_unstable();
    answered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn resident_graph_answers_what_a_rebuild_per_flush_answers(
        queries in 200usize..400,
        flush_every in 20usize..40,
        seed in 0u64..1_000,
    ) {
        // At least five flushes per script, so some solo or half-pair
        // outlives a flush untouched and must be skipped as clean.
        let ops = churn_script(
            sparse_graph(),
            &ChurnConfig { queries, flush_every, solo_permille: 300, seed },
        );
        // Two pending queries with the same head make the pool unsafe,
        // and §3.1.1's removal order is not Church-Rosser: which of the
        // conflicting queries survive depends on slot order, which the
        // two drives do not share. Compare on safe scripts only.
        let mut heads = std::collections::HashSet::new();
        prop_assume!(ops.iter().all(|op| match op {
            ChurnOp::Submit(q) => q.head.iter().all(|h| heads.insert(h.clone())),
            _ => true,
        }));
        let mut resident = CoordinationEngine::new(
            eq_workload::build_database(sparse_graph()),
            churn_config(),
        );
        let mut handles = Vec::new();
        let mut skipped_clean = 0;
        for op in &ops {
            match op {
                ChurnOp::Submit(q) => handles.push(resident.submit(q.clone()).unwrap()),
                ChurnOp::Cancel(idx) => {
                    resident.cancel(handles[*idx].id);
                }
                ChurnOp::Flush => skipped_clean += resident.flush().skipped_clean,
            }
        }
        let mut log: FastMap<QueryId, QueryOutcome> =
            resident.drain_outcome_log().into_iter().collect();
        let answered: Vec<usize> = (0..handles.len())
            .filter(|&i| matches!(log.remove(&handles[i].id), Some(QueryOutcome::Answered(_))))
            .collect();
        prop_assert_eq!(&answered, &rebuild_per_flush_answered(&ops));
        prop_assert!(!answered.is_empty(), "churn script should coordinate pairs");
        // The dirty set actually skips work: some flush left a clean
        // component untouched.
        prop_assert!(skipped_clean > 0, "no match-state reuse recorded");
    }

    #[test]
    fn churn_preserves_invariants_and_reuses_slots(
        queries in 40usize..160,
        flush_every in 10usize..40,
        solo_permille in 100u32..600,
        seed in 0u64..1_000,
    ) {
        let ops = churn_script(
            graph(),
            &ChurnConfig { queries, flush_every, solo_permille, seed },
        );
        let (outcomes, capacity) = drive(engine(), &ops, None);
        prop_assert_eq!(outcomes.len(), queries);
        // Cancel + answer churn retires queries throughout the run, so
        // the slot table must stay well below one slot per submission.
        prop_assert!(
            capacity <= queries,
            "slot table never shrank: capacity {} for {} submissions",
            capacity, queries
        );
        // Every cancelled query reports Cancelled.
        for (op_idx, op) in ops.iter().enumerate() {
            if let ChurnOp::Cancel(idx) = op {
                prop_assert_eq!(
                    outcomes[*idx].as_ref(),
                    Some(&QueryOutcome::Failed(FailReason::Cancelled)),
                    "cancel op {} (submission {}) not honored", op_idx, idx
                );
            }
        }
    }

    #[test]
    fn zero_staleness_expires_everything_and_reuses_all_slots(
        queries in 30usize..100,
        flush_every in 5usize..25,
        seed in 0u64..1_000,
    ) {
        // With a zero staleness bound, every pending query expires at
        // the next submission or flush — maximal slot churn.
        let ops = churn_script(
            graph(),
            &ChurnConfig { queries, flush_every, solo_permille: 400, seed },
        );
        let (outcomes, capacity) = drive(engine(), &ops, Some(Duration::ZERO));
        // Everything reaches a terminal state (stale, cancelled, or an
        // answer in the same-submit window), nothing stays pending.
        for (i, o) in outcomes.iter().enumerate() {
            prop_assert!(o.is_some(), "submission {} still pending", i);
        }
        // The pool never holds more than one query (each submission
        // expires its predecessor), so the slot table stays tiny.
        prop_assert!(capacity <= 2, "capacity {}", capacity);
    }
}
