//! Property checks for the sharded set-at-a-time flush (§4.1.2): on the
//! paper's workload generators, a parallel flush must produce exactly
//! the answers of the sequential path, and on small two-way workloads
//! the answered set must agree with the brute-force oracle of §2.3.

use eq_core::engine::{NoSolutionPolicy, QueryOutcome};
use eq_core::{bruteforce, safety, ucs, CoordinationEngine, EngineConfig, EngineMode, MatchGraph};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, VarGen};
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

/// Submits everything, flushes once with the given worker count, and
/// returns each query's terminal outcome in submission order (None =
/// still pending).
fn flush_outcomes(
    db: Database,
    queries: &[EntangledQuery],
    threads: usize,
) -> Vec<(QueryId, Option<QueryOutcome>)> {
    let mut engine = CoordinationEngine::new(
        db,
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads: threads,
            ..Default::default()
        },
    );
    let handles: Vec<_> = queries
        .iter()
        .map(|q| engine.submit(q.clone()).unwrap())
        .collect();
    engine.flush();
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    handles
        .into_iter()
        .map(|h| (h.id, log.remove(&h.id)))
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_flush_equals_sequential_on_generators(
        kind in 0usize..6,
        n in 8usize..40,
        seed in 0u64..1_000,
        threads in 2usize..9,
    ) {
        let queries = workload(kind, n, seed);
        prop_assume!(!queries.is_empty());
        let sequential = flush_outcomes(build_database(graph()), &queries, 1);
        let parallel = flush_outcomes(build_database(graph()), &queries, threads);
        prop_assert_eq!(
            sequential, parallel,
            "kind={} n={} seed={} threads={}", kind, n, seed, threads
        );
    }

    #[test]
    fn parallel_flush_agrees_with_bruteforce_on_two_way(
        seed in 0u64..500,
        threads in 2usize..6,
    ) {
        let queries = two_way_pairs(graph(), 12, PairStyle::BestCase, seed);
        let db = build_database(graph());
        let outcomes = flush_outcomes(build_database(graph()), &queries, threads);
        // The engine assigns its own QueryIds at submission, so key
        // outcomes by submission index — the same order the match-graph
        // slots below use.
        let answered: Vec<bool> = outcomes
            .iter()
            .map(|(_, o)| matches!(o, Some(QueryOutcome::Answered(_))))
            .collect();

        // Per unifiability component, the engine answers everyone iff
        // the generic-semantics brute force finds a total coordinating
        // set (components here are friend pairs, so the search is tiny).
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> = queries
            .iter()
            .map(|q| q.rename_apart(&gen).with_id(q.id))
            .collect();
        let mg = MatchGraph::build(renamed.clone());
        // The engine's pipeline enforces the §3.1.1 safety rule and the
        // §3.1.2 UCS condition before evaluating; the generic-semantics
        // oracle knows neither, so the comparison only covers safe, UCS
        // components (overlapping users in the sampled pairs can create
        // ambiguous pcs or cross-SCC edges).
        let mut alive = vec![true; mg.len()];
        safety::enforce(&mg, &mut alive);
        for component in mg.components() {
            if component.iter().any(|&s| !alive[s as usize]) {
                continue;
            }
            let mut comp_alive = vec![false; mg.len()];
            for &s in &component {
                comp_alive[s as usize] = true;
            }
            if !ucs::violations(&mg, &comp_alive).is_empty() {
                continue;
            }
            let comp: Vec<EntangledQuery> = component
                .iter()
                .map(|&s| renamed[s as usize].clone())
                .collect();
            let oracle = bruteforce::find_coordinating_set(&comp, &db, true)
                .unwrap()
                .is_some();
            let engine_all = component.iter().all(|&s| answered[s as usize]);
            prop_assert_eq!(
                engine_all, oracle,
                "seed={} component={:?}", seed, component
            );
        }
    }
}
