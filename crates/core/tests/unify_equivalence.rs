//! Engine-level equivalence properties for the unifier core: matching
//! (one pass over the condensation, each SCC riding a seed it moved out
//! of the seed map) and batch probes must leave every observable result
//! bit-for-bit unchanged — between batched and
//! sequential admission — and the process-global clone counter proves
//! no production path deep-copied a `Unifier` along the way. (These
//! tests never clone a `Unifier` themselves, so a nonzero delta in this
//! binary can only come from a regression in the engine.)

use eq_core::engine::QueryOutcome;
use eq_core::matching::{match_component, ComponentMatch, MatchStats};
use eq_core::{CoordinationEngine, EngineConfig, MatchGraph, NoSolutionPolicy, SubmitOptions};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, Value, Var, VarGen};
use eq_workload::{
    build_database, chains, clique_groups, giant_cluster, three_way_triangles, two_way_pairs,
    PairStyle, SocialGraph, SocialGraphConfig,
};
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

fn workload(kind: usize, n: usize, seed: u64) -> Vec<EntangledQuery> {
    match kind {
        0 => two_way_pairs(graph(), n, PairStyle::BestCase, seed),
        1 => two_way_pairs(graph(), n, PairStyle::Random, seed),
        2 => three_way_triangles(graph(), n, seed),
        3 => clique_groups(graph(), n.max(8), 2, seed),
        4 => chains(n, 6, seed),
        _ => giant_cluster(graph(), n, seed),
    }
}

/// The observable projection of a [`ComponentMatch`]: everything a
/// downstream consumer reads. The global unifier is compared through
/// its canonical class list — the representative forest is an internal
/// artifact, but `classes()` (and hence every term `resolve` produces)
/// must be identical.
type ObservedMatch = (
    Vec<u32>,
    Vec<u32>,
    MatchStats,
    Option<Vec<(Vec<Var>, Option<Value>)>>,
);

fn observe(m: &ComponentMatch) -> ObservedMatch {
    (
        m.survivors.clone(),
        m.removed.clone(),
        m.stats,
        m.global.as_ref().map(|g| g.classes()),
    )
}

/// Submits everything as one batch (or sequentially), flushes once, and
/// returns each query's terminal outcome in submission order.
fn flush_outcomes(
    db: Database,
    queries: &[EntangledQuery],
    batched: bool,
) -> Vec<Option<QueryOutcome>> {
    let mut engine = CoordinationEngine::new(
        db,
        EngineConfig {
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        },
    );
    let handles: Vec<_> = if batched {
        engine
            .submit_batch(
                queries
                    .iter()
                    .map(|q| (q.clone(), SubmitOptions::default()))
                    .collect(),
            )
            .into_iter()
            .map(|r| r.unwrap())
            .collect()
    } else {
        queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect()
    };
    engine.flush();
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    handles.into_iter().map(|h| log.remove(&h.id)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Matching the same component twice observes the same result —
    /// survivors, removals, counters, and the global unifier's classes
    /// (no state leaks between runs) — and clones no unifier.
    #[test]
    fn matching_is_repeatable_and_clone_free(
        kind in 0usize..6,
        n in 8usize..32,
        seed in 0u64..1_000,
    ) {
        let queries = workload(kind, n, seed);
        prop_assume!(!queries.is_empty());
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> = queries
            .iter()
            .map(|q| q.rename_apart(&gen).with_id(q.id))
            .collect();
        let mg = MatchGraph::build(renamed);
        let before = eq_unify::ops::global();
        for component in mg.components() {
            let first = observe(&match_component(&mg, &component));
            let again = observe(&match_component(&mg, &component));
            prop_assert_eq!(&first, &again, "kind={} n={} seed={}", kind, n, seed);
        }
        let delta = eq_unify::ops::global().delta_since(&before);
        prop_assert_eq!(delta.clones, 0, "matching cloned a Unifier");
    }

    /// Batched admission + flush equals sequential admission + flush
    /// (same terminal outcomes, answers bit-for-bit),
    /// and the whole engine pipeline — probes, matching, SCC
    /// propagation, combined-query assembly — performs zero unifier
    /// clones.
    #[test]
    fn batch_flush_equals_sequential_and_is_clone_free(
        kind in 0usize..6,
        n in 8usize..24,
        seed in 0u64..1_000,
    ) {
        let queries = workload(kind, n, seed);
        prop_assume!(!queries.is_empty());
        let before = eq_unify::ops::global();
        let sequential = flush_outcomes(build_database(graph()), &queries, false);
        let batched = flush_outcomes(build_database(graph()), &queries, true);
        prop_assert_eq!(sequential, batched, "kind={} n={} seed={}", kind, n, seed);
        let delta = eq_unify::ops::global().delta_since(&before);
        prop_assert_eq!(delta.clones, 0, "engine pipeline cloned a Unifier");
    }
}
