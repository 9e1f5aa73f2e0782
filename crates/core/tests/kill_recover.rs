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

use eq_core::durable::WAL_FILE;
use eq_core::{DurableCoordinator, EngineConfig, EngineMode, QueryOutcome, SubmitRequest};
use eq_ir::{Atom, EntangledQuery, QueryId, Term};
use eq_workload::grid_pairs;
use proptest::prelude::*;
use std::path::Path;

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
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        let kept: Vec<QueryId> = dc
            .submit_batch(requests(first))
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect();
        let intact = dc.wal_len_bytes();
        // This frame is the only place the second half's names are
        // defined ...
        dc.submit_batch(requests(second));
        (kept, (intact + dc.wal_len_bytes()) / 2)
    };
    // ... and it is torn in the middle.
    tear_wal(&dir, torn_at);

    let resubmitted: Vec<QueryId> = {
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(dc.pending_ids(), kept, "the torn batch is gone as a whole");
        // The same names again: they must be defined again, by this
        // frame, under whatever local ids the rebuilt dictionary gives.
        dc.submit_batch(requests(second))
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect()
    };

    let dc = DurableCoordinator::open(&dir, config()).unwrap();
    let mut all = kept.clone();
    all.extend(&resubmitted);
    assert_eq!(dc.pending_ids(), all);
    // Every query decoded to the names it was submitted with: the
    // pairs find each other, and the answers carry those names.
    assert_eq!(dc.flush().answered, 4);
    let booked: Vec<String> = dc
        .accounting()
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
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            for (round, chunk) in queries.chunks(burst).enumerate() {
                let frames = dc.wal_stats().frames;
                let ids: Vec<QueryId> = dc
                    .submit_batch(requests(chunk))
                    .into_iter()
                    .filter_map(|r| r.ok().map(|h| h.id))
                    .collect();
                prop_assert_eq!(
                    dc.wal_stats().frames,
                    frames + u64::from(!ids.is_empty()),
                    "one frame per batch that admitted anything"
                );
                calls.push((ids, dc.wal_len_bytes()));
                if round % 2 == 1 {
                    dc.flush();
                }
            }
            dc.accounting()
        };

        let len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let keep = len * cut_permille / 1000;
        tear_wal(&dir, keep);

        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        let after = dc.accounting();
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
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            let half = queries.len() / 2;
            for q in &queries[..half] {
                dc.submit(SubmitRequest::new(q.clone())).unwrap();
            }
            dc.flush();
            for q in &queries[half..] {
                dc.submit(SubmitRequest::new(q.clone())).unwrap();
            }
            dc.accounting()
        };

        // The kill tears the log at an arbitrary byte offset.
        let len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        tear_wal(&dir, len * cut_permille / 1000);

        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        let after = dc.accounting();

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
