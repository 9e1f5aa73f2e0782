//! Property-based tests of the coordination pipeline's invariants on
//! randomized query sets:
//!
//! 1. safety enforcement is idempotent and leaves no violations;
//! 2. UCS violations are exactly the cross-SCC edges;
//! 3. matching survivors have every postcondition satisfied by a
//!    surviving head (syntactic soundness of Algorithm 1);
//! 4. a coordination round partitions the input: every query id appears
//!    exactly once across answers and rejections;
//! 5. produced answers are mutually satisfying (every grounded
//!    postcondition appears among the grounded heads);
//! 6. an edge has one definition: [`MatchGraph::build`] finds exactly
//!    the pairwise-MGU edges, and an engine's batch admission builds the
//!    same graph — edge id for edge id, in every slot's list order.

use eq_core::graph::MatchGraph;
use eq_core::{coordinate, matching, safety, ucs, CoordinationEngine, EngineConfig, SubmitOptions};
use eq_db::Database;
use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var, VarGen};
use proptest::prelude::*;

const USERS: [&str; 4] = ["A", "B", "C", "D"];
const DESTS: [&str; 2] = ["P", "Q"];

/// A random workload atom over the ANSWER relation `R(user, dest)`:
/// constants drawn from small pools, variables allowed in either slot.
fn arb_answer_atom() -> impl Strategy<Value = (Option<usize>, Option<usize>)> {
    // None = variable; Some(i) = constant index.
    (
        proptest::option::of(0..USERS.len()),
        proptest::option::of(0..DESTS.len()),
    )
}

#[derive(Clone, Debug)]
struct RawQuery {
    head: (Option<usize>, Option<usize>),
    pcs: Vec<(Option<usize>, Option<usize>)>,
}

fn arb_query() -> impl Strategy<Value = RawQuery> {
    (
        arb_answer_atom(),
        proptest::collection::vec(arb_answer_atom(), 0..3),
    )
        .prop_map(|(head, pcs)| RawQuery { head, pcs })
}

/// Materializes a raw query, inventing one body atom `T(v...)` binding
/// all variables so range restriction always holds.
fn build(raw: &RawQuery, id: u64) -> EntangledQuery {
    let mut next_var = 0u32;
    let mut vars_used = Vec::new();
    let mut term = |slot: &Option<usize>, pool: &[&str]| -> Term {
        match slot {
            Some(i) => Term::str(pool[*i]),
            None => {
                let v = Var(next_var);
                next_var += 1;
                vars_used.push(v);
                Term::Var(v)
            }
        }
    };
    let head = Atom::new(
        "R",
        vec![term(&raw.head.0, &USERS), term(&raw.head.1, &DESTS)],
    );
    let pcs: Vec<Atom> = raw
        .pcs
        .iter()
        .map(|pc| Atom::new("R", vec![term(&pc.0, &USERS), term(&pc.1, &DESTS)]))
        .collect();
    let body = if vars_used.is_empty() {
        vec![]
    } else {
        vec![Atom::new(
            "T",
            vars_used.iter().map(|&v| Term::Var(v)).collect(),
        )]
    };
    EntangledQuery::new(vec![head], pcs, body).with_id(QueryId(id))
}

/// Database with a `T` table of every arity 1..=6 would be needed;
/// instead `T` rows are generated over the union pool with small arity
/// coverage. The evaluator checks arity, so we create one table per
/// arity: T is referenced with the query's variable count.
fn build_db(max_arity: usize) -> Database {
    let mut db = Database::new();
    // One relation per arity is cleaner for the catalog; but queries all
    // call it "T", so size T at the *maximum* arity and pad bodies? No —
    // instead create T with every arity used is impossible under one
    // name. We therefore bound variables per query to 4 and give T
    // arity-specific names in `normalize`.
    let _ = max_arity;
    let pool: Vec<Value> = USERS
        .iter()
        .chain(DESTS.iter())
        .map(|s| Value::str(s))
        .collect();
    for arity in 1..=4usize {
        let cols: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        db.create_table(&format!("T{arity}"), &col_refs).unwrap();
        // Insert the full cross product for arity ≤ 2, a diagonal slice
        // above that (keeps the DB small but satisfiable).
        match arity {
            1 => {
                for v in &pool {
                    db.insert("T1", vec![*v]).unwrap();
                }
            }
            2 => {
                for a in &pool {
                    for b in &pool {
                        db.insert("T2", vec![*a, *b]).unwrap();
                    }
                }
            }
            n => {
                for a in &pool {
                    for b in &pool {
                        let mut row = vec![*a, *b];
                        row.extend(std::iter::repeat_n(*a, n - 2));
                        db.insert(&format!("T{n}"), row).unwrap();
                    }
                }
            }
        }
    }
    db
}

/// Renames `T` bodies to the arity-specific table names.
fn normalize(mut q: EntangledQuery) -> Option<EntangledQuery> {
    for atom in &mut q.body {
        let arity = atom.arity();
        if arity > 4 {
            return None; // too many variables; skip this case
        }
        atom.relation = eq_ir::Symbol::new(&format!("T{arity}"));
    }
    Some(q)
}

fn materialize(raws: &[RawQuery]) -> Vec<EntangledQuery> {
    raws.iter()
        .enumerate()
        .filter_map(|(i, r)| normalize(build(r, i as u64)))
        .collect()
}

/// Every edge of `graph` as `(from, head_idx, to, pc_idx)`, sorted.
fn edge_multiset(graph: &MatchGraph) -> Vec<(u32, u32, u32, u32)> {
    let (mut edges, _) = layout(graph);
    edges.sort_unstable();
    edges
}

/// The exact layout of a graph nothing was unlinked from: edge `i` as
/// `(from, head_idx, to, pc_idx)`, and every slot's out- and in-lists
/// in filing order.
type Layout = (Vec<(u32, u32, u32, u32)>, Vec<(Vec<u32>, Vec<u32>)>);

fn layout(graph: &MatchGraph) -> Layout {
    let edges = (0..graph.edge_count() as u32)
        .map(|eid| graph.edge(eid))
        .map(|e| (e.from, e.head_idx, e.to, e.pc_idx))
        .collect();
    let lists = (0..graph.len() as u32)
        .map(|slot| {
            (
                graph.out_edges(slot).collect::<Vec<_>>(),
                graph.in_edges(slot).collect::<Vec<_>>(),
            )
        })
        .collect();
    (edges, lists)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn safety_enforcement_is_idempotent_and_complete(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> =
            queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = MatchGraph::build(renamed);
        let mut alive = vec![true; graph.len()];
        let removed1 = safety::enforce(&graph, &mut alive);
        // After enforcement: no live query has an ambiguous pc.
        for slot in 0..graph.len() as u32 {
            if !alive[slot as usize] {
                continue;
            }
            let pc_count = graph.queries()[slot as usize].pc_count();
            let mut per_pc = vec![0usize; pc_count];
            for eid in graph.in_edges(slot) {
                let e = graph.edge(eid);
                if alive[e.from as usize] {
                    per_pc[e.pc_idx as usize] += 1;
                }
            }
            prop_assert!(per_pc.iter().all(|&c| c <= 1));
        }
        // Idempotent.
        let removed2 = safety::enforce(&graph, &mut alive);
        prop_assert!(removed2.is_empty(), "second pass removed {removed2:?}");
        let _ = removed1;
    }

    #[test]
    fn ucs_violations_are_exactly_cross_scc_edges(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> =
            queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = MatchGraph::build(renamed);
        let alive = vec![true; graph.len()];
        let scc = ucs::scc_ids(&graph, &alive);
        let violations = ucs::violations(&graph, &alive);
        let mut expected: Vec<(u32, u32)> = (0..graph.edge_count() as u32)
            .map(|eid| graph.edge(eid))
            .filter(|e| scc[e.from as usize] != scc[e.to as usize])
            .map(|e| (e.from, e.to))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let got: Vec<(u32, u32)> = violations
            .iter()
            .map(|v| (v.from_slot, v.to_slot))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn matching_survivors_are_internally_satisfied(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> =
            queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = MatchGraph::build(renamed);
        let mut alive = vec![true; graph.len()];
        safety::enforce(&graph, &mut alive);
        for component in graph.components_live(&alive) {
            let m = matching::match_component(&graph, &component);
            let surviving: std::collections::HashSet<u32> =
                m.survivors.iter().copied().collect();
            for &s in &m.survivors {
                let pc_count = graph.queries()[s as usize].pc_count();
                let mut satisfied = vec![false; pc_count];
                for eid in graph.in_edges(s) {
                    let e = graph.edge(eid);
                    if surviving.contains(&e.from) {
                        satisfied[e.pc_idx as usize] = true;
                    }
                }
                prop_assert!(
                    satisfied.iter().all(|&x| x),
                    "survivor {s} has an unsatisfied postcondition"
                );
            }
            // Survivors and removed partition the component.
            let mut both: Vec<u32> = m.survivors.iter().chain(&m.removed).copied().collect();
            both.sort_unstable();
            let mut comp = component.clone();
            comp.sort_unstable();
            prop_assert_eq!(both, comp);
        }
    }

    #[test]
    fn one_edge_definition_for_build_pairwise_and_engine(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> =
            queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = MatchGraph::build(renamed.clone());

        // Pairwise MGU over every head and every other query's
        // postcondition, no index.
        let mut pairwise = Vec::new();
        for (i, qi) in renamed.iter().enumerate() {
            for (j, qj) in renamed.iter().enumerate() {
                for (hi, h) in qi.head.iter().enumerate() {
                    for (pi, p) in qj.postconditions.iter().enumerate() {
                        if i != j && eq_unify::mgu_atoms(h, p).is_some() {
                            pairwise.push((i as u32, hi as u32, j as u32, pi as u32));
                        }
                    }
                }
            }
        }
        pairwise.sort_unstable();
        prop_assert_eq!(edge_multiset(&graph), pairwise);

        // The engine admits the list as one batch into slots 0..n, one
        // query at a time through the same probe `build` links with:
        // the same graph, edge id for edge id and list order for list
        // order.
        let mut engine = CoordinationEngine::new(
            build_db(4),
            EngineConfig {
                admission_safety_check: false,
                ..EngineConfig::default()
            },
        );
        let batch = renamed.iter().map(|q| (q.clone(), SubmitOptions::default()));
        let admitted = engine.submit_batch(batch.collect());
        prop_assert!(admitted.iter().all(Result::is_ok));
        prop_assert_eq!(layout(engine.graph()), layout(&graph));
        prop_assert_eq!(engine.graph().components(), graph.components());
        prop_assert_eq!(
            engine.graph().components_live(&vec![true; graph.len()]),
            graph.components()
        );
    }

    #[test]
    fn coordination_partitions_the_input(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        prop_assume!(!queries.is_empty());
        let db = build_db(4);
        let outcome = coordinate(&queries, &db);
        let mut seen: Vec<u64> = outcome
            .answers
            .keys()
            .map(|q| q.0)
            .chain(outcome.rejected.iter().map(|(q, _)| q.0))
            .collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = queries.iter().map(|q| q.id.0).collect();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected, "answers/rejections must partition the input");
    }

    #[test]
    fn produced_answers_are_mutually_satisfying(
        raws in proptest::collection::vec(arb_query(), 1..8)
    ) {
        let queries = materialize(&raws);
        prop_assume!(!queries.is_empty());
        let db = build_db(4);
        let outcome = coordinate(&queries, &db);
        if outcome.answers.is_empty() {
            return Ok(());
        }
        let heads: std::collections::HashSet<(eq_ir::Symbol, Vec<Value>)> = outcome
            .answers
            .values()
            .flat_map(|a| {
                a.relations
                    .iter()
                    .zip(&a.tuples)
                    .map(|(r, t)| (*r, t.clone()))
            })
            .collect();
        for (qid, answer) in &outcome.answers {
            let query = queries.iter().find(|q| q.id == *qid).unwrap();
            let gs = eq_core::bruteforce::groundings(query, &db).unwrap();
            let ok = gs.iter().any(|g| {
                g.head
                    .iter()
                    .zip(answer.relations.iter().zip(&answer.tuples))
                    .all(|((hr, ht), (ar, at))| hr == ar && ht == at)
                    && g.postconditions
                        .iter()
                        .all(|(r, t)| heads.contains(&(*r, t.clone())))
            });
            prop_assert!(ok, "answer for {qid} is not a coordinating choice");
        }
    }
}
