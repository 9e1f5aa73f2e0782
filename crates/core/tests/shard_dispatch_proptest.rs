//! Property checks for the sharded `Coordinator` and its out-of-lock
//! event dispatcher.
//!
//! 1. **Shard-count transparency**: driving one multi-session,
//!    multi-group [`scale_service_script`] through coordinators with 1,
//!    2, and 4 engine shards yields identical admission results — the
//!    same ids, and the same rejections where the script drew one
//!    ground pair twice and the Figure-9 check refused the second — and
//!    identical final statuses per query, every terminal event exactly
//!    once, the answered events of each flush drained *before* that
//!    flush's [`Event::Flushed`] report (the dispatch queue preserves
//!    staging order), and per-session `Expired` events in submission
//!    order.
//! 2. **Kill + recover exactly-once**: a durable `Coordinator` killed
//!    after its sink recorded outcomes that no subscriber ever drained
//!    (the crash window between WAL append and dispatch delivery)
//!    reopens with every acknowledged id accounted for exactly once,
//!    terminal outcomes preserved, and recovery idempotent across a
//!    second reopen.

use eq_core::{
    CoordinationError, Coordinator, EngineConfig, EngineMode, Event, NoSolutionPolicy, QueryHandle,
    QueryOutcome, QueryStatus, SubmitRequest,
};
use eq_ir::QueryId;
use eq_workload::{
    scale_service_script, ScaleServiceConfig, ServiceOp, SocialGraph, SocialGraphConfig,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;
use std::time::Duration;

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

fn coordinator(service_shards: usize) -> Coordinator {
    Coordinator::new(
        eq_workload::build_database(graph()),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            on_no_solution: NoSolutionPolicy::Reject,
            service_shards,
            ..Default::default()
        },
    )
}

/// One submission outside any session, as a batch of one.
fn submit(dc: &Coordinator, request: SubmitRequest) -> Result<QueryHandle, CoordinationError> {
    dc.submit_batch(vec![request])
        .pop()
        .expect("one result per request")
}

fn to_request(sub: &eq_workload::ScriptSubmission) -> SubmitRequest {
    let mut request = SubmitRequest::new(sub.query.clone());
    if let Some(bound) = sub.staleness {
        request = request.staleness(bound);
    }
    if sub.keep_pending {
        request = request.on_no_solution(NoSolutionPolicy::KeepPending);
    }
    request
}

/// Per-submission observation: `(session, admission)`, where admission
/// is the admitted query's `(id, final status)` or the error its submit
/// returned.
type Observed = Vec<(usize, Admission)>;
type Admission = Result<(QueryId, Option<QueryStatus>), CoordinationError>;

/// Each session's terminal events as `(flush window, id, kind)`, sorted.
type PerSession = BTreeMap<usize, Vec<(usize, QueryId, &'static str)>>;

/// Drives a scale script through `service_shards` shards, draining the
/// event stream after every op. The `k`-th `SubmitBatchWith` goes out
/// as one `submit_batch` (through its first submission's session) when
/// `batched(k)`, else as single submits. Returns per-submission
/// observations and the drained event log in arrival order.
fn drive(
    script: &eq_workload::ScaleScript,
    service_shards: usize,
    batched: impl Fn(usize) -> bool,
) -> (Observed, Vec<std::sync::Arc<Event>>) {
    let coordinator = coordinator(service_shards);
    let bound: usize = script
        .ops
        .iter()
        .map(|op| match op {
            ServiceOp::SubmitBatchWith(subs) => subs.len(),
            ServiceOp::SubmitBatch(queries) => queries.len(),
            ServiceOp::Cancel(_) | ServiceOp::Flush => 1,
            ServiceOp::Load { .. } => 0,
        })
        .sum::<usize>()
        + 8;
    let events = coordinator.subscribe_with(bound, eq_core::OverflowPolicy::Block);
    let mut sessions: Vec<eq_core::Session> = (0..script.sessions)
        .map(|_| coordinator.session())
        .collect();
    let mut submitted: Vec<(usize, Result<QueryId, CoordinationError>)> = Vec::new();
    let mut log: Vec<std::sync::Arc<Event>> = Vec::new();
    let mut bursts = 0;
    for op in &script.ops {
        match op {
            ServiceOp::SubmitBatchWith(subs) if batched(bursts) && !subs.is_empty() => {
                bursts += 1;
                let requests = subs.iter().map(to_request).collect();
                let handles = sessions[subs[0].session].submit_batch(requests);
                for (handle, sub) in handles.into_iter().zip(subs) {
                    submitted.push((sub.session, handle.map(|h| h.id)));
                }
            }
            ServiceOp::SubmitBatchWith(subs) => {
                bursts += 1;
                for sub in subs {
                    let handle = sessions[sub.session].submit(to_request(sub));
                    submitted.push((sub.session, handle.map(|h| h.id)));
                }
            }
            ServiceOp::Load { relation, rows } => {
                coordinator
                    .load(relation, rows.clone())
                    .expect("known relation");
            }
            ServiceOp::Flush => {
                coordinator.flush();
                coordinator
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("invariants after flush: {v}"));
            }
            ServiceOp::SubmitBatch(_) | ServiceOp::Cancel(_) => {
                unreachable!("scale scripts only use SubmitBatchWith/Load/Flush")
            }
        }
        log.extend(events.drain());
    }
    let observed = submitted
        .into_iter()
        .map(|(session, admitted)| (session, admitted.map(|id| (id, coordinator.status(id)))))
        .collect();
    // Sessions stay open until after the status reads so their drop
    // does not cancel still-pending queries first.
    drop(sessions);
    (observed, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn shard_counts_are_observationally_identical(
        queries in 60usize..160,
        burst in 10usize..40,
        sessions in 2usize..24,
        locality_groups in 1usize..9,
        cross_permille in 0u32..120,
        seed in 0u64..1_000,
        batch_mask in 0u64..u64::MAX,
    ) {
        let script = scale_service_script(
            graph(),
            &ScaleServiceConfig {
                queries,
                burst,
                flush_every_bursts: 2,
                sessions,
                locality_groups,
                cross_permille,
                seed,
                ..Default::default()
            },
        );
        // Every shard count with single submits, then again with each
        // burst batched or not by its bit of `batch_mask`.
        let mut baseline: Option<(Observed, PerSession)> = None;
        let runs = [false, true].map(|batched| [1usize, 2, 4].map(|shards| (batched, shards)));
        for (batched, shards) in runs.into_iter().flatten() {
            let style = |k: usize| batched && batch_mask >> (k % 64) & 1 == 1;
            let (observed, log) = drive(&script, shards, style);

            // Terminal events: exactly one per terminated query, none
            // for pending ones, none for unknown ids.
            let mut terminals: HashMap<QueryId, usize> = HashMap::new();
            for event in &log {
                if let Some(id) = event.id() {
                    prop_assert!(event.is_terminal());
                    *terminals.entry(id).or_default() += 1;
                }
            }
            for (_, admitted) in &observed {
                let Ok((id, status)) = admitted else { continue };
                let n = terminals.remove(id).unwrap_or(0);
                match status {
                    Some(QueryStatus::Pending) => prop_assert_eq!(
                        n, 0, "pending {:?} got {} terminal events ({} shards)", id, n, shards
                    ),
                    Some(_) => prop_assert_eq!(
                        n, 1, "{:?} got {} terminal events ({} shards)", id, n, shards
                    ),
                    None => prop_assert!(false, "admitted {id:?} has no status"),
                }
            }
            prop_assert!(terminals.is_empty(), "stray terminal events: {terminals:?}");

            // Dispatch order: in SetAtATime mode answers retire only at
            // flushes, and terminals are staged before their flush's
            // report, so at every Flushed event the answered events
            // drained so far equal the cumulative reported count.
            let mut answered_seen = 0u64;
            let mut answered_reported = 0u64;
            for event in &log {
                match &**event {
                    Event::Answered { .. } => answered_seen += 1,
                    Event::Flushed(report) => {
                        answered_reported += report.answered as u64;
                        prop_assert_eq!(
                            answered_seen, answered_reported,
                            "terminals must drain before their Flushed report ({} shards)",
                            shards
                        );
                    }
                    _ => {}
                }
            }

            // Per-session expiry order: staleness sweeps walk each
            // shard's age queue (and migrations re-sort by id), so one
            // session's Expired events arrive in submission order.
            let session_of: HashMap<QueryId, usize> = observed
                .iter()
                .filter_map(|(session, admitted)| Some((admitted.as_ref().ok()?.0, *session)))
                .collect();
            let mut last_expired: HashMap<usize, QueryId> = HashMap::new();
            for event in &log {
                if let Event::Expired { id, .. } = **event {
                    let session = session_of[&id];
                    if let Some(prev) = last_expired.insert(session, id) {
                        prop_assert!(
                            prev < id,
                            "session {} expiries out of order: {:?} then {:?} ({} shards)",
                            session, prev, id, shards
                        );
                    }
                }
            }

            // Each session's terminal events by the flush window they
            // arrive in. Within a window, retirement follows component
            // and slot order, which shards and batching may permute; the
            // window an event lands in may not move.
            let mut per_session = PerSession::new();
            let mut window = 0;
            for event in &log {
                let kind = match **event {
                    Event::Answered { .. } => "answered",
                    Event::Failed { .. } => "failed",
                    Event::Expired { .. } => "expired",
                    Event::Cancelled { .. } => "cancelled",
                    Event::Flushed(_) => {
                        window += 1;
                        continue;
                    }
                };
                let id = event.id().expect("a query event");
                per_session.entry(session_of[&id]).or_default().push((window, id, kind));
            }
            for events in per_session.values_mut() {
                events.sort_unstable();
            }

            // Ids, rejections, outcomes and each session's events are
            // invariant in the shard count and the submission style.
            match &baseline {
                None => baseline = Some((observed, per_session)),
                Some((single, single_sessions)) => {
                    prop_assert_eq!(single.len(), observed.len());
                    for (a, b) in single.iter().zip(&observed) {
                        prop_assert_eq!(
                            a, b, "{} shards (batched: {}) diverge from single-shard singles",
                            shards, batched
                        );
                    }
                    prop_assert_eq!(
                        single_sessions, &per_session,
                        "{} shards (batched: {}): session events diverge", shards, batched
                    );
                }
            }
        }
    }

    #[test]
    fn kill_with_undrained_events_recovers_exactly_once(
        pairs in 2usize..8,
        lonely in 0usize..3,
        service_shards_bit in 0u8..3,
        drop_bit in 0u8..2,
        seed in 0u64..1_000,
    ) {
        let drop_subscriber_early = drop_bit == 1;
        let service_shards = 1usize << service_shards_bit;
        let dir = eq_store::scratch_dir(&format!("shard-dispatch-kill-{seed}-{service_shards}"));
        let config = EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            service_shards,
            ..Default::default()
        };

        // Phase 1: submit, flush, record outcomes in the WAL — then
        // "crash" with events still undelivered to any client: either
        // the subscriber was dropped before the flush (the dispatcher
        // drops its staged events on the floor) or its queue is simply
        // never drained. Both model a client that never saw outcomes
        // the durability sink already holds.
        let mut acknowledged: Vec<QueryId> = Vec::new();
        let mut pre_kill: HashMap<QueryId, bool> = HashMap::new(); // id -> was terminal
        {
            let dc = Coordinator::open(&dir, config.clone()).unwrap();
            dc.create_table("F", &["fno", "dest"]).unwrap();
            dc.load("F", vec![vec![eq_ir::Value::int(7), eq_ir::Value::str("Paris")]])
                .unwrap();
            let events = dc.subscribe();
            if drop_subscriber_early {
                drop(events);
            } else {
                let _ = events.drain(); // touch the stream once, never again
            }
            for i in 0..pairs {
                // Entangled ground pairs on per-pair relations: with
                // multiple shards they spread across shard groups.
                let rel = format!("R{}", i % 4);
                let head = format!("{{{rel}(B{i}, x)}} {rel}(A{i}, x) <- F(x, Paris)");
                let post = format!("{{{rel}(A{i}, y)}} {rel}(B{i}, y) <- F(y, Paris)");
                let a = submit(&dc, SubmitRequest::new(eq_sql::parse_ir_query(&head).unwrap()));
                let b = submit(&dc, SubmitRequest::new(eq_sql::parse_ir_query(&post).unwrap()));
                acknowledged.push(a.unwrap().id);
                acknowledged.push(b.unwrap().id);
            }
            for i in 0..lonely {
                let text = format!("{{S(Ghost{i}, z)}} S(Solo{i}, z) <- F(z, Paris)");
                let h = submit(&dc,
                        SubmitRequest::new(eq_sql::parse_ir_query(&text).unwrap())
                            .staleness(Duration::from_secs(3600)),
                    )
                    .unwrap();
                acknowledged.push(h.id);
            }
            dc.flush();
            for &id in &acknowledged {
                let status = dc.status(id);
                prop_assert!(status.is_some(), "{id:?} lost before kill");
                pre_kill.insert(id, !matches!(status, Some(QueryStatus::Pending)));
            }
            // No checkpoint, no drain: the dc drops here — the kill.
        }

        // Phase 2: recover. Every acknowledged id appears exactly once;
        // terminal outcomes are preserved as recorded, pending queries
        // are pending again.
        for reopen in 0..2 {
            let dc = Coordinator::open(&dir, config.clone()).unwrap();
            let accounting = dc.accounting().unwrap();
            let ids: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(
                &ids, &acknowledged,
                "reopen {}: every acknowledged id exactly once", reopen
            );
            for (id, outcome) in &accounting {
                let was_terminal = pre_kill[id];
                match outcome {
                    Some(QueryOutcome::Answered(_)) => prop_assert!(
                        was_terminal, "reopen {reopen}: {id:?} answered only after the kill"
                    ),
                    Some(other) => prop_assert!(
                        false, "reopen {reopen}: unexpected recovered outcome {other:?}"
                    ),
                    None => {
                        prop_assert!(
                            !was_terminal,
                            "reopen {reopen}: terminal {id:?} lost its outcome"
                        );
                        prop_assert!(matches!(
                            dc.status(*id),
                            Some(QueryStatus::Pending)
                        ));
                    }
                }
            }
            dc.check_invariants()
                .unwrap_or_else(|v| panic!("recovered invariants: {v}"));
        }
        eq_store::purge_dir(&dir);
    }
}
