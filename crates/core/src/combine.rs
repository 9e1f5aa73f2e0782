//! Combined-query construction and answer distribution (§4.2).
//!
//! A combined query is built per *coordinating set*: a surviving SCC of
//! the matched component with no surviving edge to or from another SCC
//! ([`crate::matching::ComponentMatch::sets`]). When CLEANUP splits a
//! component into several sets, each gets a combined query of its own,
//! so one set's missing solution never fails another. The set's queries
//! and the global unifier `U` are folded into one ordinary conjunctive
//! query
//!
//! ```text
//! ⋀ᵢ Hᵢ  ⊣  ⋀ᵢ Bᵢ ∧ φ_U
//! ```
//!
//! We apply `φ_U` by substitution rather than emitting equality atoms —
//! every term is resolved to its class constant or class representative —
//! which is exactly the simplification the paper performs on its example
//! (`T(1) ∧ R(x1) ∧ S(x2) ⊣ D1(x1,x2,x3) ∧ D2(x1) ∧ D3(1, x2)`).
//! The combined body is evaluated with `LIMIT choose` against the
//! database; each returned valuation grounds every survivor's head atoms
//! and yields one answer per entangled query.

use crate::graph::MatchGraph;
use eq_db::{Database, DbError, Tuple, Valuation};
use eq_ir::{Atom, Constraint, QueryId, Symbol, Term, Value};
use eq_unify::Unifier;

/// The combined query for one coordinating set.
#[derive(Clone, Debug)]
pub struct CombinedQuery {
    /// Conjunction of all survivor bodies, simplified under the global
    /// unifier.
    pub body: Vec<Atom>,
    /// Conjunction of all survivor body constraints, simplified under
    /// the global unifier.
    pub constraints: Vec<Constraint>,
    /// For each survivor: its id and its simplified head atoms.
    pub heads: Vec<(QueryId, Vec<Atom>)>,
    /// The global unifier used for simplification.
    pub global: Unifier,
}

/// The answer to one entangled query: one grounded tuple per head atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The answered query.
    pub query: QueryId,
    /// ANSWER relation of each head atom (parallel to `tuples`).
    pub relations: Vec<Symbol>,
    /// Grounded head tuples (parallel to `relations`).
    pub tuples: Vec<Tuple>,
}

impl CombinedQuery {
    /// Builds the combined query from a coordinating set's members
    /// `survivors` (graph slots) and the `global` unifier, borrowing the
    /// survivor queries in place. Takes the
    /// global unifier by value, so assembly moves the table instead of
    /// cloning it (eq_check's `no-unifier-clone` rule watches this
    /// file); the engine, which evaluates several sets against one
    /// shared global, borrows it through the same simplification
    /// instead.
    pub fn build(graph: &MatchGraph, survivors: &[u32], global: Unifier) -> Self {
        let (body, constraints, heads) = simplify_survivors(graph, survivors, &global);
        CombinedQuery {
            body,
            constraints,
            heads,
            global,
        }
    }

    /// Evaluates the combined body against `db` with `LIMIT limit` and
    /// distributes each solution into per-query answers.
    ///
    /// Returns one `Vec<QueryAnswer>` per solution found (at most
    /// `limit`); the empty outer vector means the component found no
    /// coordinated solution in the current database.
    pub fn evaluate(&self, db: &Database, limit: usize) -> Result<Vec<Vec<QueryAnswer>>, DbError> {
        let valuations = db.evaluate_filtered(&self.body, &self.constraints, limit)?;
        Ok(valuations.iter().map(|val| self.distribute(val)).collect())
    }

    /// Grounds every survivor's head atoms under one valuation.
    fn distribute(&self, valuation: &Valuation) -> Vec<QueryAnswer> {
        distribute_heads(&self.heads, valuation)
    }
}

/// Grounds a list of per-query simplified head atoms under one valuation
/// of the combined body, yielding one answer per entangled query. Shared
/// by [`CombinedQuery::evaluate`] (the whole-body join, the reference)
/// and the engine's partitioned path ([`crate::intra::evaluate_plan`]),
/// so both produce answers through identical distribution code.
pub(crate) fn distribute_heads(
    heads: &[(QueryId, Vec<Atom>)],
    valuation: &Valuation,
) -> Vec<QueryAnswer> {
    heads
        .iter()
        .map(|(qid, atoms)| {
            let mut relations = Vec::with_capacity(atoms.len());
            let mut tuples = Vec::with_capacity(atoms.len());
            for atom in atoms {
                relations.push(atom.relation);
                tuples.push(ground_atom(atom, valuation));
            }
            QueryAnswer {
                query: *qid,
                relations,
                tuples,
            }
        })
        .collect()
}

/// The §4.2 simplification of a coordinating set's queries under the
/// global unifier: concatenated body atoms, concatenated constraints,
/// and per-survivor simplified heads (every term resolved to its class
/// constant or representative). The **single** source of the
/// simplification for [`CombinedQuery::build`] and the engine's
/// partitioned plan ([`crate::intra::plan`]) — the guarantee
/// that the engine answers as the whole-body join does requires both to
/// simplify byte-identically, so there is exactly one implementation.
#[allow(clippy::type_complexity)]
pub(crate) fn simplify_survivors(
    graph: &MatchGraph,
    survivors: &[u32],
    global: &Unifier,
) -> (Vec<Atom>, Vec<Constraint>, Vec<(QueryId, Vec<Atom>)>) {
    let simplify = |atom: &Atom| -> Atom {
        Atom {
            relation: atom.relation,
            terms: atom.terms.iter().map(|&t| global.resolve(t)).collect(),
        }
    };
    let mut body = Vec::new();
    let mut constraints = Vec::new();
    let mut heads = Vec::new();
    for &slot in survivors {
        let q = graph.query(slot);
        body.extend(q.body.iter().map(&simplify));
        constraints.extend(
            q.constraints
                .iter()
                .map(|c| c.apply(&|v| Some(global.resolve(Term::Var(v))))),
        );
        heads.push((q.id, q.head.iter().map(&simplify).collect()));
    }
    (body, constraints, heads)
}

/// Grounds a simplified atom under a valuation of the combined query.
///
/// Panics if a variable is unbound — impossible for range-restricted
/// queries, because every (simplified) head variable occurs in the
/// (simplified) combined body evaluated to produce the valuation.
fn ground_atom(atom: &Atom, valuation: &Valuation) -> Tuple {
    atom.terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => *c,
            Term::Var(v) => *valuation
                .get(v)
                .expect("range restriction guarantees head variables are bound"),
        })
        .collect()
}

/// Convenience for tests: the set of grounded head atoms of a list of
/// answers, as `(relation, tuple)` pairs.
pub fn answer_atoms(answers: &[QueryAnswer]) -> Vec<(Symbol, Vec<Value>)> {
    let mut out = Vec::new();
    for a in answers {
        for (rel, tup) in a.relations.iter().zip(&a.tuples) {
            out.push((*rel, tup.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::match_component;
    use eq_ir::{EntangledQuery, VarGen};
    use eq_sql::parse_ir_query;

    fn build(texts: &[&str]) -> MatchGraph {
        let gen = VarGen::new();
        let queries: Vec<EntangledQuery> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                parse_ir_query(t)
                    .unwrap()
                    .rename_apart(&gen)
                    .with_id(QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.create_table("A", &["fno", "airline"]).unwrap();
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            db.insert("F", vec![Value::int(fno), Value::str(dest)])
                .unwrap();
        }
        for (fno, al) in [
            (122, "United"),
            (123, "United"),
            (134, "Lufthansa"),
            (136, "Alitalia"),
        ] {
            db.insert("A", vec![Value::int(fno), Value::str(al)])
                .unwrap();
        }
        db
    }

    #[test]
    fn kramer_jerry_end_to_end() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let m = match_component(&g, &[0, 1]);
        let cq = CombinedQuery::build(&g, &m.survivors, m.global.unwrap());
        // Simplified body: F(x,Paris) ∧ F(x,Paris) ∧ A(x,United) over one
        // shared variable.
        assert_eq!(cq.body.len(), 3);
        let db = flight_db();
        let sols = cq.evaluate(&db, 1).unwrap();
        assert_eq!(sols.len(), 1);
        let answers = &sols[0];
        assert_eq!(answers.len(), 2);
        // Paper Figure 1(b): both reserve the same United Paris flight.
        let kramer = &answers[0];
        let jerry = &answers[1];
        assert_eq!(kramer.tuples[0][0], Value::str("Kramer"));
        assert_eq!(jerry.tuples[0][0], Value::str("Jerry"));
        let fno = kramer.tuples[0][1];
        assert_eq!(jerry.tuples[0][1], fno);
        assert!(fno == Value::int(122) || fno == Value::int(123));
    }

    #[test]
    fn mutual_satisfaction_holds() {
        // The defining property of a coordinating set: every grounded
        // postcondition appears among the grounded heads.
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let m = match_component(&g, &[0, 1]);
        let global = m.global.clone().unwrap();
        let cq = CombinedQuery::build(&g, &m.survivors, global.clone());
        let db = flight_db();
        let sols = cq.evaluate(&db, 1).unwrap();
        let atoms = answer_atoms(&sols[0]);

        // Re-derive each survivor's grounded postconditions and check
        // membership.
        let valuations = db.evaluate(&cq.body, 1).unwrap();
        let val = &valuations[0];
        for &slot in &m.survivors {
            for pc in &g.queries()[slot as usize].postconditions {
                let simplified = Atom {
                    relation: pc.relation,
                    terms: pc.terms.iter().map(|&t| global.resolve(t)).collect(),
                };
                let grounded: Vec<Value> = simplified
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(c) => *c,
                        Term::Var(v) => val[v],
                    })
                    .collect();
                assert!(
                    atoms.contains(&(pc.relation, grounded.clone())),
                    "postcondition {grounded:?} not satisfied"
                );
            }
        }
    }

    #[test]
    fn no_solution_when_database_lacks_rows() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)",
        ]);
        let m = match_component(&g, &[0, 1]);
        let cq = CombinedQuery::build(&g, &m.survivors, m.global.unwrap());
        let sols = cq.evaluate(&flight_db(), 1).unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn choose_k_returns_multiple_solutions() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
        ]);
        let m = match_component(&g, &[0, 1]);
        let cq = CombinedQuery::build(&g, &m.survivors, m.global.unwrap());
        let sols = cq.evaluate(&flight_db(), 3).unwrap();
        assert_eq!(sols.len(), 3); // flights 122, 123, 134
                                   // Solutions are distinct flights.
        let fnos: Vec<Value> = sols.iter().map(|s| s[0].tuples[0][1]).collect();
        let mut dedup = fnos.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3);
    }

    #[test]
    fn ground_queries_check_membership_only() {
        let mut db = Database::new();
        db.create_table("Friends", &["a", "b"]).unwrap();
        db.insert("Friends", vec![Value::str("Jerry"), Value::str("Kramer")])
            .unwrap();
        db.insert("Friends", vec![Value::str("Kramer"), Value::str("Jerry")])
            .unwrap();
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- Friends(Jerry, Kramer)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- Friends(Kramer, Jerry)",
        ]);
        let m = match_component(&g, &[0, 1]);
        let cq = CombinedQuery::build(&g, &m.survivors, m.global.unwrap());
        let sols = cq.evaluate(&db, 1).unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(
            sols[0][0].tuples[0],
            vec![Value::str("Jerry"), Value::str("ITH")]
        );
    }

    #[test]
    fn paper_section_42_simplification() {
        // Combined query of the running example simplifies to
        // T(1) ∧ R(x1) ∧ S(x2) ⊣ D1(x1,x2,1) ∧ D2(x1) ∧ D3(1,x2).
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(z1)} S(z2) <- D3(z1, z2)",
        ]);
        let m = match_component(&g, &[0, 1, 2]);
        let cq = CombinedQuery::build(&g, &m.survivors, m.global.unwrap());
        // Head T(x3) simplifies to T(1).
        let t_head = &cq.heads[0].1[0];
        assert_eq!(t_head.terms[0], Term::int(1));
        // D1's third column is the constant 1 after simplification.
        let d1 = cq
            .body
            .iter()
            .find(|a| a.relation == Symbol::new("D1"))
            .unwrap();
        assert_eq!(d1.terms[2], Term::int(1));
        // D3's first column likewise.
        let d3 = cq
            .body
            .iter()
            .find(|a| a.relation == Symbol::new("D3"))
            .unwrap();
        assert_eq!(d3.terms[0], Term::int(1));
        // R's head variable and D2's variable are the same class rep.
        let r_head = &cq.heads[1].1[0];
        let d2 = cq
            .body
            .iter()
            .find(|a| a.relation == Symbol::new("D2"))
            .unwrap();
        assert_eq!(r_head.terms[0], d2.terms[0]);
    }
}
