//! Randomized cross-validation: on safe + UCS workloads, the fast
//! matching pipeline (Theorem 3.1) must agree with the brute-force
//! coordinating-set search over the generic semantics of §2.3
//! (Theorem 2.1) about which components are answerable, and the answers
//! it produces must themselves be coordinating sets.

use entangled_queries::core::{bruteforce, coordinate, graph::MatchGraph};
use entangled_queries::prelude::*;
use entangled_queries::workload::rng::{Rng, StdRng};

/// A random "micro-travel" instance: a handful of users, flights, and
/// friend pairs submitting mutually-referencing ground queries.
struct Instance {
    db: Database,
    queries: Vec<EntangledQuery>,
}

fn random_instance(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    let dests = ["P", "Q"];
    for fno in 0..rng.gen_range(1..5) {
        let dest = dests[rng.gen_range(0..dests.len())];
        db.insert("F", vec![Value::int(fno as i64), Value::str(dest)])
            .unwrap();
    }

    // Friend pairs with fully-specified mutual postconditions (always
    // safe and UCS: disjoint 2-cycles).
    let mut queries = Vec::new();
    let n_pairs = rng.gen_range(1..4);
    for p in 0..n_pairs {
        let a = format!("UA{p}");
        let b = format!("UB{p}");
        let dest = dests[rng.gen_range(0..dests.len())];
        let qa =
            eq_sql::parse_ir_query(&format!("{{R({b}, x)}} R({a}, x) <- F(x, {dest})")).unwrap();
        let qb =
            eq_sql::parse_ir_query(&format!("{{R({a}, y)}} R({b}, y) <- F(y, {dest})")).unwrap();
        queries.push(qa.with_id(QueryId(2 * p as u64)));
        queries.push(qb.with_id(QueryId(2 * p as u64 + 1)));
    }
    Instance { db, queries }
}

#[test]
fn fast_path_agrees_with_bruteforce_on_100_random_instances() {
    for seed in 0..100 {
        let inst = random_instance(seed);
        let fast = coordinate(&inst.queries, &inst.db);

        // Compare per component: all answered ⇔ a total coordinating
        // set of that component's queries exists.
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> = inst
            .queries
            .iter()
            .map(|q| q.rename_apart(&gen).with_id(q.id))
            .collect();
        let graph = MatchGraph::build(renamed.clone());
        for component in graph.components() {
            let comp_queries: Vec<EntangledQuery> = component
                .iter()
                .map(|&s| renamed[s as usize].clone())
                .collect();
            let slow = bruteforce::find_coordinating_set(&comp_queries, &inst.db, true)
                .unwrap()
                .is_some();
            let fast_all = comp_queries
                .iter()
                .all(|q| fast.answers.contains_key(&q.id));
            assert_eq!(
                fast_all, slow,
                "seed {seed}: component {component:?} fast={fast_all} slow={slow}"
            );
        }
    }
}

#[test]
fn fast_answers_are_coordinating_sets() {
    for seed in 100..160 {
        let inst = random_instance(seed);
        let fast = coordinate(&inst.queries, &inst.db);
        if fast.answers.is_empty() {
            continue;
        }
        // Build the set of produced head atoms.
        let heads: std::collections::HashSet<(Symbol, Vec<Value>)> = fast
            .answers
            .values()
            .flat_map(|a| {
                a.relations
                    .iter()
                    .zip(&a.tuples)
                    .map(|(r, t)| (*r, t.clone()))
            })
            .collect();
        // Every answered query's postconditions must be satisfied by the
        // produced heads: re-derive groundings and find one compatible.
        for (qid, answer) in &fast.answers {
            let query = inst.queries.iter().find(|q| q.id == *qid).unwrap();
            let groundings = bruteforce::groundings(query, &inst.db).unwrap();
            let supported = groundings.iter().any(|g| {
                g.head
                    .iter()
                    .zip(answer.relations.iter().zip(&answer.tuples))
                    .all(|((hr, ht), (ar, at))| hr == ar && ht == at)
                    && g.postconditions
                        .iter()
                        .all(|(r, t)| heads.contains(&(*r, t.clone())))
            });
            assert!(supported, "seed {seed}: answer for {qid} is not supported");
        }
    }
}

use entangled_queries::sql as eq_sql;
