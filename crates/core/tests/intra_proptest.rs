//! Property checks for the engine's one evaluator, the partitioned
//! path of `eq_core::intra`: on giant-ring and generator workloads, the
//! engine's terminal outcomes must be **answer-for-answer identical**
//! to the reference — every coordinating set of the same pool matched
//! as a flush matches it and answered by its own whole-body join,
//! `CombinedQuery::evaluate` — same terminal statuses, same answer
//! tuples, in both cadences (§5.1): a flush after every submit, or one
//! flush at the end. Shared-chain rings are one unit with variable
//! heads, which the engine splits into one region per chain edge (the
//! flush that closes the ring reports it), so they pin the
//! region walk's answer choice against the whole-body join's. The
//! plan-level property checks the split on unique chains, where the
//! two must coincide whatever the walk does.

use eq_core::engine::{NoSolutionPolicy, QueryOutcome};
use eq_core::intra::{evaluate_plan, plan};
use eq_core::matching::match_component;
use eq_core::{
    safety, BatchReport, CombinedQuery, ComponentPlan, CoordinationEngine, EngineConfig,
    FailReason, MatchGraph, RejectReason,
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

/// Each query's terminal outcome in submission order (None = still
/// pending).
type Outcomes = Vec<(QueryId, Option<QueryOutcome>)>;

fn config() -> EngineConfig {
    EngineConfig {
        admission_safety_check: false,
        on_no_solution: NoSolutionPolicy::Reject,
        ..Default::default()
    }
}

/// Drives `queries` through an engine — flushed after every submit
/// when `per_submit`, else once at the end — and, beside it, the
/// reference ([`reference`]) over the pool an engine holds just before
/// that one flush: the same queries, renamed apart and numbered in the
/// same submission order, in the same slots. Also returns the engine's
/// last flush report.
fn engine_and_reference(
    db: &Database,
    queries: &[EntangledQuery],
    per_submit: bool,
) -> (Outcomes, Outcomes, BatchReport) {
    let submit_all = |engine: &mut CoordinationEngine, flush: bool| -> Vec<QueryId> {
        let mut ids = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            ids.push(engine.submit(q.clone()).unwrap().id);
            if flush && i + 1 < queries.len() {
                engine.flush();
            }
        }
        ids
    };
    let mut pool = CoordinationEngine::new(db.snapshot(), config());
    let ids = submit_all(&mut pool, false);
    let mut expected = reference(pool.graph(), db);
    let mut engine = if per_submit {
        let mut engine = CoordinationEngine::new(db.snapshot(), config());
        assert_eq!(submit_all(&mut engine, true), ids);
        engine
    } else {
        pool
    };
    let report = engine.flush();
    engine.check_invariants().unwrap();
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    let got = ids.iter().map(|&id| (id, log.remove(&id))).collect();
    let want = ids.iter().map(|&id| (id, expected.remove(&id))).collect();
    (got, want, report)
}

/// What one flush over `graph` must decide, with every coordinating set
/// answered by its whole-body join: per component, §3.1.1 sidelines the
/// ambiguous members, the rest split into live pieces, and Algorithm 1
/// matches each piece. Non-UCS members fail; a set whose
/// `CombinedQuery::evaluate` finds no solution (or errs) fails under
/// the `Reject` policy; sidelined and unmatched members stay pending
/// (absent from the map).
fn reference(graph: &MatchGraph, db: &Database) -> FastMap<QueryId, QueryOutcome> {
    let mut alive = vec![true; graph.len()];
    for component in graph.components() {
        for slot in safety::enforce_members(graph, &component) {
            alive[slot as usize] = false;
        }
    }
    let rejected = |reason| QueryOutcome::Failed(FailReason::Rejected(reason));
    let mut out = FastMap::default();
    for piece in graph.components_live(&alive) {
        let m = match_component(graph, &piece);
        for &slot in &m.non_ucs {
            out.insert(graph.query(slot).id, rejected(RejectReason::NonUcs));
        }
        for set in &m.sets {
            let global = match &m.global {
                Some(global) => global.clone(),
                None => match_component(graph, set)
                    .global
                    .expect("a set matches alone"),
            };
            let combined = CombinedQuery::build(graph, set, global);
            match combined.evaluate(db, 1).map(|s| s.into_iter().next()) {
                Ok(Some(answers)) => {
                    for answer in answers {
                        out.insert(answer.query, QueryOutcome::Answered(answer));
                    }
                }
                Ok(None) | Err(_) => {
                    for &slot in set {
                        out.insert(graph.query(slot).id, rejected(RejectReason::NoSolution));
                    }
                }
            }
        }
    }
    out
}

/// A giant ring, optionally sabotaged: `break_at` (when set) points one
/// query's body anchor at a name absent from the Friends table, making
/// that work unit (or region) unsatisfiable — the whole component
/// becomes a no-solution case (the empty posting list also means the
/// whole-body join fails at its root, no thrashing).
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

/// Matches a ring as one component and plans it as the engine does,
/// next to the combined query over the same survivors.
fn ring_plan(queries: &[EntangledQuery]) -> (ComponentPlan, CombinedQuery) {
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
    let plan = plan(&graph, &m.survivors, &global);
    assert!(
        plan.units.iter().any(|u| u.regions.is_some()),
        "ring must split"
    );
    (plan, CombinedQuery::build(&graph, &m.survivors, global))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn engine_equals_combined_query_on_giant_rings(
        n in 6usize..48,
        k in 1usize..5,
        break_at in proptest::option::of(0usize..48),
        batch in 0usize..2,
        shared in 0usize..2,
    ) {
        prop_assume!(n > 4 * k);
        // Chain heads are ground; SharedChain heads carry the body's
        // `x`, so its answers show which valuation was chosen.
        let body = if shared == 1 { GiantBody::SharedChain } else { GiantBody::Chain };
        let (db, queries) = ring(n, k, body, break_at);
        let (got, want, report) = engine_and_reference(&db, &queries, batch == 0);
        prop_assert_eq!(got, want);
        if shared == 1 {
            prop_assert!(report.intra_split_units >= 1);
        }
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
        let (plan, combined) = ring_plan(&queries);
        let sequential = combined.evaluate(&db, 1).unwrap().into_iter().next();
        prop_assert_eq!(sequential.is_some(), break_at.is_none());
        prop_assert_eq!(evaluate_plan(&plan, &db).unwrap().0, sequential);
    }

    #[test]
    fn engine_equals_combined_query_on_generator_workloads(
        n in 8usize..40,
        seed in 0u64..1_000,
        style in 0usize..2,
    ) {
        let style = if style == 1 { PairStyle::Random } else { PairStyle::BestCase };
        let queries = two_way_pairs(graph(), n, style, seed);
        prop_assume!(!queries.is_empty());
        let db = eq_workload::build_database(graph());
        let (got, want, _) = engine_and_reference(&db, &queries, false);
        prop_assert_eq!(got, want);
    }
}
