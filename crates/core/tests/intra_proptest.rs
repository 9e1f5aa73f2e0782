//! Property checks for the partitioned intra-component evaluation
//! path: on giant-ring and generator workloads, an engine that
//! partitions every component into work units (threshold 1) must be
//! **answer-for-answer identical** to an engine that evaluates each
//! component as one whole-body join (threshold ∞) — same terminal
//! statuses, same answer tuples — in both
//! engine modes (§5.1). Region splitting is checked at the plan level,
//! the one place a split can be forced on a small ring
//! (`SplitOptions { crossover: 0 }`; the engine always gates with the
//! default, which keeps these rings whole).

use eq_core::engine::{NoSolutionPolicy, QueryOutcome};
use eq_core::intra::{evaluate_plan, plan_component, SplitOptions};
use eq_core::matching::match_component;
use eq_core::{
    CombinedQuery, ComponentPlan, CoordinationEngine, EngineConfig, EngineMode, MatchGraph,
};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, VarGen};
use eq_workload::{
    giant_component, two_way_pairs, GiantBody, GiantComponentConfig, PairStyle, SocialGraph,
    SocialGraphConfig,
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

/// Drives the same workload through one engine configuration and
/// returns each query's terminal outcome in submission order (None =
/// still pending). Chain bodies only for the sequential engine —
/// triangle rings thrash the one-combined-join evaluator by design.
fn outcomes(
    db: Database,
    queries: &[EntangledQuery],
    mode: EngineMode,
    threshold: usize,
) -> Vec<(QueryId, Option<QueryOutcome>)> {
    let mut engine = CoordinationEngine::new(
        db,
        EngineConfig {
            mode,
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            intra_component_threshold: threshold,
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
    engine.check_invariants().unwrap();
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    handles
        .into_iter()
        .map(|h| (h.id, log.remove(&h.id)))
        .collect()
}

/// A giant ring, optionally sabotaged: `break_at` (when set) points one
/// query's body anchor at a name absent from the Friends table, making
/// that work unit (or region) unsatisfiable — the whole component
/// becomes a no-solution case (the empty posting list also means the
/// sequential join fails at its root, no thrashing).
fn ring(
    n: usize,
    k: usize,
    body: GiantBody,
    break_at: Option<usize>,
) -> (Database, Vec<EntangledQuery>) {
    let (db, mut queries) = giant_component(&GiantComponentConfig {
        queries: n,
        friends_per_user: k,
        body,
    });
    if let Some(i) = break_at {
        let i = i % queries.len();
        let q = &queries[i];
        let mut body = q.body.clone();
        body[0].terms[0] = eq_ir::Term::str("NOBODY");
        queries[i] =
            EntangledQuery::new(q.head.clone(), q.postconditions.clone(), body).with_id(q.id);
    }
    (db, queries)
}

/// Matches a ring as one component and plans it with the split forced,
/// next to the sequential combined query over the same survivors.
fn forced_split_plan(queries: &[EntangledQuery]) -> (ComponentPlan, CombinedQuery) {
    let gen = VarGen::new();
    let graph = MatchGraph::build(
        queries
            .iter()
            .map(|q| q.rename_apart(&gen).with_id(q.id))
            .collect(),
    );
    let members: Vec<u32> = (0..queries.len() as u32).collect();
    let m = match_component(&graph, &members);
    let global = m.global.expect("rings always match");
    let plan = plan_component(
        &graph,
        &m.survivors,
        &global,
        &SplitOptions { crossover: 0 },
    );
    assert!(
        plan.units.iter().any(|u| u.regions.is_some()),
        "ring must split"
    );
    (plan, CombinedQuery::build(&graph, &m.survivors, global))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn intra_parallel_equals_sequential_on_giant_rings(
        n in 6usize..48,
        k in 1usize..5,
        break_at in proptest::option::of(0usize..48),
        batch in 0usize..2,
    ) {
        prop_assume!(n > 4 * k);
        let (db, queries) = ring(n, k, GiantBody::Chain, break_at);
        let mode = if batch == 1 {
            EngineMode::SetAtATime { batch_size: 0 }
        } else {
            EngineMode::Incremental
        };
        let seq = outcomes(db.snapshot(), &queries, mode, usize::MAX);
        let par = outcomes(db.snapshot(), &queries, mode, 1);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn region_split_equals_sequential_on_unique_shared_chains(
        n in 6usize..40,
        break_at in proptest::option::of(0usize..40),
    ) {
        // friends_per_user = 1 makes the shared-variable chain's
        // solution unique, so the biconnected-region split must agree
        // with the sequential combined join answer-for-answer — and a
        // sabotaged body turns one region unsatisfiable, which must
        // leave both without a solution.
        let (db, queries) = ring(n, 1, GiantBody::SharedChain, break_at);
        let (plan, combined) = forced_split_plan(&queries);
        let sequential = combined.evaluate(&db, 1).unwrap().into_iter().next();
        prop_assert_eq!(sequential.is_some(), break_at.is_none());
        prop_assert_eq!(evaluate_plan(&plan, &db).unwrap().0, sequential);
    }

    #[test]
    fn intra_parallel_equals_sequential_on_generator_workloads(
        n in 8usize..40,
        seed in 0u64..1_000,
        style in 0usize..2,
    ) {
        let style = if style == 1 { PairStyle::Random } else { PairStyle::BestCase };
        let queries = two_way_pairs(graph(), n, style, seed);
        prop_assume!(!queries.is_empty());
        let db = eq_workload::build_database(graph());
        let mode = EngineMode::SetAtATime { batch_size: 0 };
        let seq = outcomes(db.snapshot(), &queries, mode, usize::MAX);
        let par = outcomes(db.snapshot(), &queries, mode, 1);
        prop_assert_eq!(seq, par);
    }
}
