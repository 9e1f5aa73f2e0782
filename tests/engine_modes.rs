//! Integration tests of the D3C engine across modes, on the paper's
//! workload generators: incremental and set-at-a-time must agree on
//! which queries coordinate (for workloads where order cannot matter),
//! and the full 5.3.x workloads must run cleanly through the engine.

use entangled_queries::core::engine::{NoSolutionPolicy, QueryOutcome};
use entangled_queries::ir::FastMap;
use entangled_queries::prelude::*;
use entangled_queries::workload::{
    build_database, chains, clique_groups, no_unify, three_way_triangles, two_way_pairs, PairStyle,
    SocialGraph, SocialGraphConfig,
};

fn graph() -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users: 800,
        airports: 8,
        planted_cliques: 80,
        ..Default::default()
    })
}

fn run_engine(mode: EngineMode, queries: &[EntangledQuery], db: Database) -> (usize, usize, usize) {
    let mut engine = CoordinationEngine::new(
        db,
        EngineConfig {
            mode,
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        },
    );
    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    if matches!(mode, EngineMode::SetAtATime { .. }) {
        engine.flush();
    }
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    let mut answered = 0;
    let mut failed = 0;
    let mut pending = 0;
    for h in handles {
        match log.remove(&h.id) {
            Some(QueryOutcome::Answered(_)) => answered += 1,
            Some(QueryOutcome::Failed(_)) => failed += 1,
            None => pending += 1,
        }
    }
    (answered, failed, pending)
}

#[test]
fn best_case_pairs_agree_across_modes() {
    let g = graph();
    let queries = two_way_pairs(&g, 100, PairStyle::BestCase, 7);
    let db1 = build_database(&g);
    let db2 = build_database(&g);
    let (a1, f1, p1) = run_engine(EngineMode::Incremental, &queries, db1);
    let (a2, f2, p2) = run_engine(EngineMode::SetAtATime { batch_size: 0 }, &queries, db2);
    assert_eq!(a1 + f1 + p1, queries.len());
    assert_eq!(a2 + f2 + p2, queries.len());
    // Pairs coordinate atomically in both modes.
    assert_eq!(a1 % 2, 0);
    assert_eq!(a2 % 2, 0);
    // Incremental answers at least as many: set-at-a-time sees all
    // same-(user, destination) collisions at once and sidelines the
    // ambiguous queries (§3.1.1), while incremental usually retires one
    // pair before the colliding pair arrives.
    assert!(a1 >= a2, "incremental {a1} < batch {a2}");
    assert!(a1 > 0, "some co-located pairs must coordinate");
    // Queries caught in a same-(user, destination) collision remain
    // pending (their postcondition stays ambiguous); that set must be
    // small.
    assert!(p1 <= queries.len() / 10, "too many pending: {p1}");
}

#[test]
fn set_at_a_time_is_deterministic() {
    let g = graph();
    let queries = two_way_pairs(&g, 100, PairStyle::BestCase, 7);
    let r1 = run_engine(
        EngineMode::SetAtATime { batch_size: 0 },
        &queries,
        build_database(&g),
    );
    let r2 = run_engine(
        EngineMode::SetAtATime { batch_size: 0 },
        &queries,
        build_database(&g),
    );
    assert_eq!(r1, r2);
}

#[test]
fn three_way_triangles_answer_in_triples() {
    let g = graph();
    let queries = three_way_triangles(&g, 60, 8);
    let db = build_database(&g);
    let (answered, failed, pending) = run_engine(EngineMode::Incremental, &queries, db);
    assert_eq!(answered % 3, 0);
    assert_eq!(answered + failed + pending, queries.len());
    assert_eq!(pending, 0);
}

#[test]
fn cliques_with_three_postconditions() {
    let g = graph();
    let queries = clique_groups(&g, 40, 3, 9);
    assert!(!queries.is_empty());
    let db = build_database(&g);
    let (answered, _failed, pending) =
        run_engine(EngineMode::SetAtATime { batch_size: 0 }, &queries, db);
    assert_eq!(answered % 4, 0, "groups of 4 coordinate atomically");
    assert_eq!(pending, 0);
}

#[test]
fn no_unify_workload_stays_pending_forever() {
    let queries = no_unify(80, 8, 10);
    let (answered, failed, pending) =
        run_engine(EngineMode::Incremental, &queries, Database::new());
    assert_eq!(answered, 0);
    assert_eq!(failed, 0);
    assert_eq!(pending, 80);
}

#[test]
fn chain_workload_unifies_without_coordinating() {
    let queries = chains(64, 8, 11);
    let (answered, failed, pending) = run_engine(
        EngineMode::SetAtATime { batch_size: 0 },
        &queries,
        Database::new(),
    );
    assert_eq!(answered, 0);
    assert_eq!(failed, 0);
    assert_eq!(pending, 64);
}

#[test]
fn random_pairs_make_progress_incrementally() {
    let g = graph();
    let queries = two_way_pairs(&g, 200, PairStyle::Random, 12);
    let db = build_database(&g);
    let (answered, failed, pending) = run_engine(EngineMode::Incremental, &queries, db);
    assert_eq!(answered + failed + pending, queries.len());
    // The eager-coordination dynamics must keep the pool from absorbing
    // everything; the exact split is workload- and order-dependent.
    assert!(
        answered + failed > queries.len() / 2,
        "most queries should resolve (answered={answered} failed={failed} pending={pending})"
    );
    assert_eq!(answered % 2, 0, "random pairs answer two at a time");
}

#[test]
fn auto_flush_equals_manual_flush() {
    let g = graph();
    let queries = two_way_pairs(&g, 50, PairStyle::BestCase, 13);
    let db1 = build_database(&g);
    let db2 = build_database(&g);
    let (a1, f1, _) = run_engine(EngineMode::SetAtATime { batch_size: 10 }, &queries, db1);
    let (a2, f2, _) = run_engine(EngineMode::SetAtATime { batch_size: 0 }, &queries, db2);
    // Auto-flush every 10 submissions answers the same ground pairs as
    // one big flush (pairs are disjoint and ground).
    assert_eq!(a1, a2);
    assert_eq!(f1, f2);
}
