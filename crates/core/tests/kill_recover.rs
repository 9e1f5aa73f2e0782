//! Property test: kill the durable coordinator after an *arbitrary*
//! byte prefix of its write-ahead log — not just at a record boundary —
//! and reopening must still account exactly-once for every record that
//! survived the cut.
//!
//! Because submits are appended in acknowledgment (= ascending id)
//! order, a torn tail leaves some prefix of the acknowledged queries in
//! the log. Recovery must resurface exactly that prefix: each surviving
//! id exactly once, with its exact terminal outcome when the outcome
//! record also survived, and pending otherwise. Nothing invents
//! outcomes, nothing duplicates ids, and the recovered coordinator
//! still flushes.
//!
//! A `submit_batch` is one frame: torn anywhere inside it, the batch
//! recovers whole or not at all. And the symbol definitions a torn
//! frame carried die with it, so they cannot poison what is appended
//! after the reopen.
//!
//! A query's deadline is recorded with it: one that passes while the
//! service is down expires on the first sweep after the reopen.

use eq_core::durable::WAL_FILE;
use eq_core::{
    CoordinationError, Coordinator, EngineConfig, EngineMode, FailReason, QueryHandle,
    QueryOutcome, SubmitRequest,
};
use eq_ir::{Atom, EntangledQuery, QueryId, Term};
use eq_workload::grid_pairs;
use proptest::prelude::*;
use std::path::Path;
use std::time::{Duration, Instant};

fn config() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..Default::default()
    }
}

/// The kill: tears the log down to its first `keep` bytes.
fn tear_wal(dir: &Path, keep: u64) {
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(WAL_FILE))
        .unwrap();
    file.set_len(keep).unwrap();
    file.sync_all().unwrap();
}

/// One submission outside any session, as a batch of one.
fn submit(dc: &Coordinator, request: SubmitRequest) -> Result<QueryHandle, CoordinationError> {
    dc.submit_batch(vec![request])
        .pop()
        .expect("one result per request")
}

/// The acknowledged ids still pending, ascending.
fn pending_ids(dc: &Coordinator) -> Vec<QueryId> {
    let accounting = dc.accounting().expect("a durable coordinator");
    accounting
        .into_iter()
        .filter(|(_, o)| o.is_none())
        .map(|(id, _)| id)
        .collect()
}

fn requests(queries: &[EntangledQuery]) -> Vec<SubmitRequest> {
    queries.iter().cloned().map(SubmitRequest::new).collect()
}

/// Two queries that book `a` and `b` into `city` together. Every name
/// is of the caller's choosing, so a test controls which frame is the
/// first to use it.
fn booking_pair(a: &str, b: &str, city: &str) -> Vec<EntangledQuery> {
    let book = |who: &str| Atom::new("Booked", vec![Term::str(who), Term::str(city)]);
    vec![
        EntangledQuery::new(vec![book(a)], vec![book(b)], vec![]),
        EntangledQuery::new(vec![book(b)], vec![book(a)], vec![]),
    ]
}

#[test]
fn definitions_in_a_torn_frame_do_not_poison_later_appends() {
    let dir = eq_store::scratch_dir("kill-recover-defs");
    let first = &booking_pair("Jerry", "Kramer", "Paris")[..];
    let second = &booking_pair("Elaine", "Puddy", "Oslo")[..];
    let (kept, torn_at) = {
        let dc = Coordinator::open(&dir, config()).unwrap();
        let kept: Vec<QueryId> = dc
            .submit_batch(requests(first))
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect();
        let intact = dc.wal_stats().unwrap().bytes;
        // This frame is the only place the second half's names are
        // defined ...
        dc.submit_batch(requests(second));
        (kept, (intact + dc.wal_stats().unwrap().bytes) / 2)
    };
    // ... and it is torn in the middle.
    tear_wal(&dir, torn_at);

    let resubmitted: Vec<QueryId> = {
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(pending_ids(&dc), kept, "the torn batch is gone as a whole");
        // The same names again: they must be defined again, by this
        // frame, under whatever local ids the rebuilt dictionary gives.
        dc.submit_batch(requests(second))
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect()
    };

    let dc = Coordinator::open(&dir, config()).unwrap();
    let mut all = kept.clone();
    all.extend(&resubmitted);
    assert_eq!(pending_ids(&dc), all);
    // Every query decoded to the names it was submitted with: the
    // pairs find each other, and the answers carry those names.
    assert_eq!(dc.flush().answered, 4);
    let booked: Vec<String> = dc
        .accounting()
        .unwrap()
        .into_iter()
        .map(|(id, outcome)| match outcome {
            Some(QueryOutcome::Answered(answer)) => format!("{:?}", answer.tuples[0]),
            other => panic!("{id:?} should have been answered, not {other:?}"),
        })
        .collect();
    assert_eq!(
        booked,
        [
            r#"["Jerry", "Paris"]"#,
            r#"["Kramer", "Paris"]"#,
            r#"["Elaine", "Oslo"]"#,
            r#"["Puddy", "Oslo"]"#
        ]
    );
    eq_store::purge_dir(&dir);
}

/// Deadlines survive a kill (§5.1: a stale query has failed). A query
/// whose deadline passes while the service is down expires on the
/// first sweep after the reopen; one whose deadline is still ahead
/// stays pending through that sweep and expires within one sweep of
/// its deadline.
#[test]
fn deadlines_survive_a_kill_and_expire_on_time() {
    let dir = eq_store::scratch_dir("kill-recover-deadlines");
    let start = Instant::now();
    let soon = start + Duration::from_millis(50);
    let later = start + Duration::from_secs(2);
    // Two queries no other query completes.
    let lonely = |a: &str, b: &str| booking_pair(a, b, "Rome").swap_remove(0);
    let (gone, kept) = {
        let dc = Coordinator::open(&dir, config()).unwrap();
        let ids: Vec<QueryId> = dc
            .submit_batch(vec![
                SubmitRequest::new(lonely("Newman", "Frank")).deadline(soon),
                SubmitRequest::new(lonely("Puddy", "Elaine")).deadline(later),
            ])
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect();
        (ids[0], ids[1])
    }; // killed before either deadline
    let stale = Some(QueryOutcome::Failed(FailReason::Stale));
    std::thread::sleep(
        (soon + Duration::from_millis(100)).saturating_duration_since(Instant::now()),
    );

    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(
        pending_ids(&dc),
        [gone, kept],
        "both acknowledged, both pending"
    );
    assert_eq!(
        dc.expire_stale(),
        1,
        "the first sweep expires the one past due"
    );
    assert_eq!(dc.outcome(gone), stale);
    assert!(Instant::now() < later, "the second deadline is still ahead");
    assert_eq!(pending_ids(&dc), [kept]);

    // Recorded to the millisecond: one sweep a little after the
    // deadline expires it.
    std::thread::sleep(
        (later + Duration::from_millis(50)).saturating_duration_since(Instant::now()),
    );
    assert_eq!(
        dc.expire_stale(),
        1,
        "one sweep after its deadline expires it"
    );
    assert_eq!(dc.outcome(kept), stale);
    drop(dc);
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(pending_ids(&dc), []);
    eq_store::purge_dir(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_torn_group_frame_loses_its_batch_whole(
        n in 2usize..40,
        seed in 0u64..1024,
        burst in 1usize..9,
        cut_permille in 0u64..=1000,
    ) {
        let dir = eq_store::scratch_dir("kill-recover-batch");
        let queries = grid_pairs(n, seed);

        // Run: bursts of `burst` through `submit_batch`, a flush after
        // every second one, then die. Remember which ids each call
        // acknowledged and where its frame ends.
        let mut calls: Vec<(Vec<QueryId>, u64)> = Vec::new();
        let before = {
            let dc = Coordinator::open(&dir, config()).unwrap();
            for (round, chunk) in queries.chunks(burst).enumerate() {
                let frames = dc.wal_stats().unwrap().frames;
                let ids: Vec<QueryId> = dc
                    .submit_batch(requests(chunk))
                    .into_iter()
                    .filter_map(|r| r.ok().map(|h| h.id))
                    .collect();
                prop_assert_eq!(
                    dc.wal_stats().unwrap().frames,
                    frames + u64::from(!ids.is_empty()),
                    "one frame per batch that admitted anything"
                );
                calls.push((ids, dc.wal_stats().unwrap().bytes));
                if round % 2 == 1 {
                    dc.flush();
                }
            }
            dc.accounting().unwrap()
        };

        let len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let keep = len * cut_permille / 1000;
        tear_wal(&dir, keep);

        let dc = Coordinator::open(&dir, config()).unwrap();
        let after = dc.accounting().unwrap();
        let survived = |id: &QueryId| after.iter().any(|(a, _)| a == id);
        for (ids, frame_end) in &calls {
            if *frame_end <= keep {
                prop_assert!(ids.iter().all(survived), "an intact frame lost a query");
            } else {
                prop_assert!(!ids.iter().any(survived), "a torn batch recovered in part");
            }
        }
        // Still exactly-once: a prefix of the acknowledged ids, each
        // with its acknowledged outcome or pending.
        for (i, (id, outcome)) in after.iter().enumerate() {
            prop_assert_eq!(id, &before[i].0);
            if let Some(out) = outcome {
                prop_assert_eq!(Some(out), before[i].1.as_ref());
            }
        }
        dc.flush();
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn torn_wal_recovers_a_prefix_exactly_once(
        n in 1usize..12,
        seed in 0u64..1024,
        cut_permille in 0u64..=1000,
    ) {
        let dir = eq_store::scratch_dir("kill-recover-prop");
        let queries = grid_pairs(n, seed);

        // Run: submit half, flush (producing terminal outcomes), submit
        // the rest, then die without ceremony.
        let before = {
            let dc = Coordinator::open(&dir, config()).unwrap();
            let half = queries.len() / 2;
            for q in &queries[..half] {
                submit(&dc, SubmitRequest::new(q.clone())).unwrap();
            }
            dc.flush();
            for q in &queries[half..] {
                submit(&dc, SubmitRequest::new(q.clone())).unwrap();
            }
            dc.accounting().unwrap()
        };

        // The kill tears the log at an arbitrary byte offset.
        let len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        tear_wal(&dir, len * cut_permille / 1000);

        let dc = Coordinator::open(&dir, config()).unwrap();
        let after = dc.accounting().unwrap();

        // Exactly-once: the survivors are a prefix of the acknowledged
        // ids, each appearing once (accounting is sorted ascending).
        prop_assert!(after.len() <= before.len());
        for w in after.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "duplicate or unsorted recovered id");
        }
        for (i, (id, outcome)) in after.iter().enumerate() {
            let (orig_id, orig_outcome) = &before[i];
            prop_assert_eq!(id, orig_id, "recovered ids must be the acknowledged prefix");
            // A recovered terminal outcome must be the exact one
            // acknowledged pre-kill; pending is legal either way (the
            // query was pending pre-kill, or its outcome record fell
            // past the cut).
            if let Some(out) = outcome {
                prop_assert_eq!(Some(out), orig_outcome.as_ref());
            }
        }

        // The recovered pool is live, not a husk.
        dc.flush();
        eq_store::purge_dir(&dir);
    }
}
