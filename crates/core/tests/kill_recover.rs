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

use eq_core::durable::WAL_FILE;
use eq_core::{DurableCoordinator, EngineConfig, EngineMode, SubmitRequest};
use eq_workload::grid_pairs;
use proptest::prelude::*;

fn config() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

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
        let wal_path = dir.join(WAL_FILE);
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let keep = len * cut_permille / 1000;
        let file = std::fs::OpenOptions::new().write(true).open(&wal_path).unwrap();
        file.set_len(keep).unwrap();
        file.sync_all().unwrap();
        drop(file);

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
