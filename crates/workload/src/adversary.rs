//! Adversarial single queries: bodies built so that one evaluation
//! strategy pays exponentially for what another settles at once.
//! Coordination is NP-hard (the paper's Theorem 2.1), so no evaluator
//! is cheap on every input; these shapes pin the cliffs the engine has
//! already been shown to avoid.
//!
//! [`k4_bridge`] is a 3-colouring instance that needs no partner:
//!
//! ```text
//! {} R(v_0)  ⊣  Neq(v_a, v_b) ∧ …     -- a random graph on v_0 … v_{n-1}
//!              ∧ Neq(v_r, k_0)         -- a bridge
//!              ∧ Neq(k_i, k_j) ∧ …     -- a K4 on k_0 … k_3
//! ```
//!
//! over a 6-row `Neq` table (every ordered pair of distinct colours).
//! The random part is connected and 3-colourable by construction (its
//! edges respect a planted colouring); the K4 is not, so the query has
//! no answer. A chronological backtracking join over the whole body
//! meets the K4 last and re-proves it once per colouring of the random
//! part: 0.36 s at 22 vertices (39 atoms), 35 s at 30 (51 atoms), in a
//! release build on a 2-core x86-64 box. The K4 is its own biconnected
//! block behind the bridge, so `eq_core::intra`'s region split finds it
//! unsatisfiable alone, in about a tenth of a millisecond.

use crate::rng::{Rng, StdRng};
use eq_db::Database;
use eq_ir::{Atom, EntangledQuery, FastSet, QueryId, Term, Value, Var};

const NEQ: &str = "Neq";

/// The 3-colouring query of the module docs over a seeded random graph
/// of `vertices` vertices and `3 · vertices / 2 − 1` edges, and its
/// `Neq` database. The body has `3 · vertices / 2 + 6` atoms: the
/// random graph's edges (a spanning tree, then the rest), the bridge,
/// then the K4's six. Variable `v_i` is `Var(i)` and `k_j` is
/// `Var(vertices + j)`, so the K4 comes last in first-occurrence order
/// too. Needs at least 4 vertices.
pub fn k4_bridge(vertices: usize, seed: u64) -> (Database, EntangledQuery) {
    assert!(vertices >= 4, "need at least 4 vertices, got {vertices}");
    let mut db = Database::new();
    db.create_table(NEQ, &["a", "b"]).expect("fresh database");
    let colours = (0..3).flat_map(|a| (0..3).filter(move |&b| b != a).map(move |b| (a, b)));
    let rows = colours.map(|(a, b)| vec![Value::int(a), Value::int(b)]);
    db.insert_many(NEQ, rows.collect()).expect("schema arity");

    let mut rng = StdRng::seed_from_u64(seed);
    let mut colour = vec![0usize; vertices];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // A random spanning tree whose every edge joins two colours: each
    // vertex hangs off an earlier one and takes a colour it lacks.
    for v in 1..vertices {
        let u = rng.gen_range(0..v);
        colour[v] = (colour[u] + 1 + rng.gen_range(0..2)) % 3;
        edges.push((u, v));
    }
    let mut seen: FastSet<(usize, usize)> = edges.iter().copied().collect();
    while edges.len() < 3 * vertices / 2 - 1 {
        let (a, b) = (rng.gen_range(0..vertices), rng.gen_range(0..vertices));
        if colour[a] != colour[b] && seen.insert((a.min(b), a.max(b))) {
            edges.push((a.min(b), a.max(b)));
        }
    }
    let k = |j: usize| vertices + j;
    edges.push((rng.gen_range(0..vertices), k(0)));
    for i in 0..4 {
        for j in i + 1..4 {
            edges.push((k(i), k(j)));
        }
    }

    let v = |i: usize| Term::Var(Var(i as u32));
    let body = edges
        .iter()
        .map(|&(a, b)| Atom::with_terms(NEQ, [v(a), v(b)]))
        .collect();
    let head = Atom::with_terms("R", [v(0)]);
    let query = EntangledQuery::new(vec![head], vec![], body).with_id(QueryId(0));
    (db, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_core::{Coordinator, EngineConfig, Event, FailReason, QueryStatus, RejectReason};

    /// The split must find the K4 on its own — the assertion that fails
    /// at once, instead of hanging, on an evaluator that keeps the unit
    /// whole — and then the query must be rejected through the service
    /// with little work. Evaluated whole, the 51-atom query takes tens
    /// of seconds (35 s in a release build, 2-core x86-64 box).
    #[test]
    fn k4_bridge_is_rejected_by_its_own_region() {
        for (vertices, atoms) in [(22, 39), (30, 51)] {
            let (db, query) = k4_bridge(vertices, 2011);
            assert_eq!(query.body.len(), atoms);

            let graph = eq_core::MatchGraph::build(vec![query.clone()]);
            let m = eq_core::matching::match_component(&graph, &[0]);
            let global = m.global.expect("a query with no postcondition matches");
            let plan = eq_core::intra::plan(&graph, &m.survivors, &global);
            assert_eq!(plan.units.len(), 1, "{atoms} atoms");
            let rp = plan.units[0].regions.as_ref();
            let rp = rp.unwrap_or_else(|| panic!("{atoms} atoms: the unit must split"));
            let k4 = (0..rp.regions.len()).filter(|&r| rp.atoms(r).len() == 6);
            assert_eq!(k4.count(), 1, "{atoms} atoms: the K4 is one region");
            let (answers, stats) = eq_core::intra::evaluate_plan(&plan, &db).unwrap();
            assert_eq!(answers, None);
            // 82 and 96 rows: about two per atom.
            assert!(
                stats.eval.rows_considered <= 4 * atoms as u64,
                "{atoms} atoms: {} rows read",
                stats.eval.rows_considered
            );

            let coordinator = Coordinator::new(db, EngineConfig::default());
            let events = coordinator.subscribe();
            let mut session = coordinator.session();
            let handle = session.submit(query).unwrap();
            let rejected = FailReason::Rejected(RejectReason::NoSolution);
            assert_eq!(
                coordinator.status(handle.id),
                Some(QueryStatus::Failed(rejected))
            );
            let event = events.try_next().expect("the outcome is published");
            assert!(matches!(
                *event,
                Event::Failed {
                    reason: RejectReason::NoSolution,
                    ..
                }
            ));
        }
    }
}
