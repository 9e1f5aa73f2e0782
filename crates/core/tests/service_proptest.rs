//! Property checks for the `Coordinator` service layer.
//!
//! 1. **Event totality**: under interleaved submit / flush / cancel
//!    churn, every submitted query receives *exactly one* terminal
//!    [`Event`], and that event matches the query's final
//!    [`QueryStatus`] (answers ↔ `Answered`, rejections ↔ `Failed`,
//!    cancellations ↔ `Cancelled`; still-pending queries receive no
//!    terminal event).
//! 2. **Batch/sequential equivalence**: driving the same script with
//!    burst submissions through `submit_batch` is observationally
//!    identical to sequential `submit` calls — same admission results,
//!    same ids, same terminal statuses after each flush — with the
//!    admission safety check both off and on.

use eq_core::{
    Coordinator, EngineConfig, EngineMode, Event, FailReason, QueryStatus, SubmitRequest,
};
use eq_ir::QueryId;
use eq_workload::{service_script, ServiceConfig, ServiceOp, SocialGraph, SocialGraphConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

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

fn coordinator(safety: bool) -> Coordinator {
    Coordinator::new(
        eq_workload::build_database(graph()),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: safety,
            ..Default::default()
        },
    )
}

/// Per-submission observation: the admission result (engine id or
/// error string) and the query's final status.
type Observed = (Result<QueryId, String>, Option<QueryStatus>);

/// Drives a service script; `batched` selects burst submission via
/// `submit_batch` versus per-query `submit`. Returns one [`Observed`]
/// per submission index, plus the session (kept open so still-pending
/// queries are not withdrawn by its drop).
fn drive(
    coordinator: &Coordinator,
    ops: &[ServiceOp],
    batched: bool,
) -> (Vec<Observed>, eq_core::Session) {
    let mut session = coordinator.session();
    let mut admissions: Vec<Result<QueryId, String>> = Vec::new();
    for op in ops {
        match op {
            ServiceOp::SubmitBatch(queries) => {
                if batched {
                    let results = session.submit_batch(
                        queries
                            .iter()
                            .map(|q| SubmitRequest::new(q.clone()))
                            .collect(),
                    );
                    for r in results {
                        admissions.push(r.map(|h| h.id).map_err(|e| e.to_string()));
                    }
                } else {
                    for q in queries {
                        admissions.push(
                            session
                                .submit(SubmitRequest::new(q.clone()))
                                .map(|h| h.id)
                                .map_err(|e| e.to_string()),
                        );
                    }
                }
            }
            ServiceOp::Cancel(idx) => {
                if let Ok(id) = &admissions[*idx] {
                    let _ = session.cancel(*id);
                }
            }
            ServiceOp::Flush => {
                coordinator.flush();
                coordinator
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("invariant violated after flush: {v}"));
            }
            // scale_service_script ops, not produced by service_script.
            ServiceOp::SubmitBatchWith(_) | ServiceOp::Load { .. } => {
                unreachable!("service_script emits no scale ops")
            }
        }
    }
    let out = admissions
        .into_iter()
        .map(|r| {
            let status = r.as_ref().ok().and_then(|&id| coordinator.status(id));
            (r, status)
        })
        .collect();
    (out, session)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_query_gets_exactly_one_matching_terminal_event(
        queries in 40usize..140,
        burst in 1usize..30,
        flush_every_bursts in 1usize..5,
        solo_permille in 100u32..600,
        seed in 0u64..1_000,
    ) {
        let ops = service_script(
            graph(),
            &ServiceConfig { queries, burst, flush_every_bursts, solo_permille, seed },
        );
        let coordinator = coordinator(false);
        let events = coordinator.subscribe();
        let (outcomes, _session) = drive(&coordinator, &ops, true);

        // Tally terminal events per query id.
        let mut terminal: std::collections::HashMap<QueryId, Vec<std::sync::Arc<Event>>> =
            std::collections::HashMap::new();
        for event in events.drain() {
            if let Some(id) = event.id() {
                prop_assert!(event.is_terminal());
                terminal.entry(id).or_default().push(event);
            }
        }

        for (admission, status) in &outcomes {
            let Ok(id) = admission else { continue };
            let got = terminal.remove(id).unwrap_or_default();
            match status {
                Some(QueryStatus::Pending) => prop_assert!(
                    got.is_empty(),
                    "pending query {id} received terminal events {got:?}"
                ),
                Some(QueryStatus::Answered) => {
                    prop_assert_eq!(got.len(), 1, "query {} events {:?}", id, got);
                    prop_assert!(matches!(*got[0], Event::Answered { .. }));
                }
                Some(QueryStatus::Failed(FailReason::Cancelled)) => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert!(matches!(*got[0], Event::Cancelled { .. }));
                }
                Some(QueryStatus::Failed(FailReason::Stale)) => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert!(matches!(*got[0], Event::Expired { .. }));
                }
                Some(QueryStatus::Failed(FailReason::Rejected(_))) => {
                    prop_assert_eq!(got.len(), 1);
                    prop_assert!(matches!(*got[0], Event::Failed { .. }));
                }
                None => prop_assert!(false, "admitted query {} has no status", id),
            }
        }
        // No terminal events for ids we never admitted.
        prop_assert!(terminal.is_empty(), "stray events: {terminal:?}");
    }

    #[test]
    fn submit_batch_is_equivalent_to_sequential_submits(
        queries in 40usize..120,
        burst in 2usize..40,
        flush_every_bursts in 1usize..4,
        solo_permille in 100u32..600,
        seed in 0u64..1_000,
        safety_bit in 0u8..2,
    ) {
        let safety = safety_bit == 1;
        let ops = service_script(
            graph(),
            &ServiceConfig { queries, burst, flush_every_bursts, solo_permille, seed },
        );
        let sequential = coordinator(safety);
        let batched = coordinator(safety);
        let (seq, _s1) = drive(&sequential, &ops, false);
        let (bat, _s2) = drive(&batched, &ops, true);
        prop_assert_eq!(seq.len(), bat.len());
        for (i, (s, b)) in seq.iter().zip(&bat).enumerate() {
            prop_assert_eq!(s, b, "submission {} diverges (safety={})", i, safety);
        }
        sequential
            .check_invariants()
            .unwrap_or_else(|v| panic!("sequential invariants: {v}"));
        batched
            .check_invariants()
            .unwrap_or_else(|v| panic!("batched invariants: {v}"));
    }
}
