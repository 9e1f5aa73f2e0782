//! Property checks for the bounded event streams: under random
//! workloads, queue capacities, and overflow policies, **no subscriber
//! policy loses terminal events silently** —
//!
//! * `Block` delivers every published event (a concurrent drainer keeps
//!   the queue moving);
//! * `DropOldest` reconciles exactly: delivered + dropped = published;
//! * `Disconnect` either delivers everything or visibly ends the
//!   subscription, counted by the coordinator.
//!
//! Also checks the ordering contract under bounded channels: each
//! query's terminal event precedes the `Flushed` report of the flush
//! that retired it.

use eq_core::engine::NoSolutionPolicy;
use eq_core::{Coordinator, EngineConfig, EngineMode, Event, OverflowPolicy, SubmitRequest};
use eq_ir::QueryId;
use eq_workload::{giant_component, GiantBody, GiantComponentConfig};
use proptest::prelude::*;

fn coordinator(db: eq_db::Database, flush_threads: usize) -> Coordinator {
    Coordinator::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads,
            intra_component_threshold: 32,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn block_policy_delivers_every_terminal_event(
        n in 6usize..40,
        k in 1usize..4,
        capacity in 1usize..8,
        threads in 1usize..5,
    ) {
        prop_assume!(n > 4 * k);
        let (db, queries) = giant_component(&GiantComponentConfig {
            queries: n,
            friends_per_user: k,
            body: GiantBody::Chain,
        });
        let coordinator = coordinator(db, threads);
        let events = coordinator.subscribe_with(capacity, OverflowPolicy::Block);
        // Tiny queue + big flush: the publisher must block on the
        // drainer, not drop or deadlock.
        let drainer = std::thread::spawn(move || {
            let mut seen: Vec<std::sync::Arc<Event>> = Vec::new();
            while let Some(e) = events.next_timeout(std::time::Duration::from_secs(30)) {
                let stop = matches!(*e, Event::Flushed(_));
                seen.push(e);
                if stop {
                    break;
                }
            }
            (seen, events.stats())
        });
        let mut session = coordinator.session();
        let ids: Vec<QueryId> = session
            .submit_batch(queries.into_iter().map(SubmitRequest::new).collect())
            .into_iter()
            .map(|r| r.unwrap().id)
            .collect();
        coordinator.flush();
        let (seen, stats) = drainer.join().unwrap();

        let flushed_at = seen
            .iter()
            .position(|e| matches!(**e, Event::Flushed(_)))
            .expect("flush report arrives");
        prop_assert_eq!(flushed_at, seen.len() - 1, "Flushed is last");
        let terminals: Vec<QueryId> =
            seen[..flushed_at].iter().filter_map(|e| e.id()).collect();
        // Every query's terminal event arrived, before the report.
        prop_assert_eq!(terminals.len(), ids.len());
        for id in ids {
            prop_assert!(terminals.contains(&id), "lost terminal for {:?}", id);
        }
        prop_assert_eq!(stats.dropped, 0u64);
        prop_assert!(!stats.disconnected);
        prop_assert_eq!(coordinator.disconnected_subscribers(), 0u64);
    }

    #[test]
    fn lossy_policies_account_for_every_event(
        n in 6usize..40,
        k in 1usize..4,
        capacity in 1usize..8,
        drop_oldest in 0usize..2,
    ) {
        let drop_oldest = drop_oldest == 1;
        prop_assume!(n > 4 * k);
        let (db, queries) = giant_component(&GiantComponentConfig {
            queries: n,
            friends_per_user: k,
            body: GiantBody::Chain,
        });
        let policy = if drop_oldest {
            OverflowPolicy::DropOldest
        } else {
            OverflowPolicy::Disconnect
        };
        let coordinator = coordinator(db, 1);
        let events = coordinator.subscribe_with(capacity, policy);
        let mut session = coordinator.session();
        let admitted = session
            .submit_batch(queries.into_iter().map(SubmitRequest::new).collect())
            .len();
        coordinator.flush();
        // No concurrent drainer: the queue overflows by construction
        // whenever capacity < admitted + 1 (terminals + Flushed).
        let published = (admitted + 1) as u64;
        let received = events.drain().len() as u64;
        let stats = events.stats();
        prop_assert_eq!(stats.delivered, received);
        if drop_oldest {
            // Delivered + dropped reconciles exactly with published.
            prop_assert_eq!(stats.delivered + stats.dropped, published);
            prop_assert!(!stats.disconnected);
            prop_assert_eq!(coordinator.disconnected_subscribers(), 0u64);
        } else if published > capacity as u64 {
            // Disconnect: the overflow is visible on both ends.
            prop_assert!(stats.disconnected);
            prop_assert_eq!(stats.delivered, capacity as u64);
            prop_assert_eq!(coordinator.disconnected_subscribers(), 1u64);
            prop_assert_eq!(coordinator.subscriber_count(), 0usize);
        } else {
            prop_assert_eq!(stats.delivered, published);
        }
    }
}
