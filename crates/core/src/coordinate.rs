//! One-shot, set-at-a-time coordination over a fixed query set.
//!
//! [`coordinate()`] drives a bare [`CoordinationEngine`]: submit the
//! whole set as one batch, flush once, classify the outcomes drained
//! from its outcome log. Queries that stay pending after the single
//! round — no partner, or sidelined by §3.1.1 enforcement — are
//! reported as unanswered, which is what "one-shot" means.
//!
//! The engine rejects a query for one of two reasons
//! ([`RejectReason`]). A one-shot round has three more outcomes of its
//! own — refused at admission, sidelined, left without a partner — so
//! [`Unanswered`] names five.

use crate::combine::QueryAnswer;
use crate::engine::{
    CoordinationEngine, EngineConfig, FailReason, NoSolutionPolicy, QueryOutcome, RejectReason,
    SubmitError, SubmitOptions,
};
use crate::matching::MatchStats;
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, FastSet, QueryId, ValidationError};
use std::fmt;

/// Why a query did not receive an answer in a one-shot round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Unanswered {
    /// Structurally invalid (empty head, not range-restricted, ...).
    Invalid(ValidationError),
    /// Sidelined by the safety enforcement of §3.1.1 (its
    /// postcondition unified with more than one head).
    Unsafe,
    /// Rejected by the round: [`RejectReason::NonUcs`].
    NonUcs,
    /// Matching removed it: some postcondition had no satisfier, or its
    /// constraints were inconsistent (CLEANUP).
    Unmatched,
    /// Rejected by the round: [`RejectReason::NoSolution`].
    NoSolution,
}

impl From<RejectReason> for Unanswered {
    fn from(r: RejectReason) -> Self {
        match r {
            RejectReason::NonUcs => Unanswered::NonUcs,
            RejectReason::NoSolution => Unanswered::NoSolution,
        }
    }
}

impl fmt::Display for Unanswered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unanswered::Invalid(e) => write!(f, "invalid query: {e}"),
            Unanswered::Unsafe => write!(f, "removed by the safety check"),
            Unanswered::NonUcs => write!(f, "{}", RejectReason::NonUcs),
            Unanswered::Unmatched => write!(f, "no coordination partner"),
            Unanswered::NoSolution => write!(f, "{}", RejectReason::NoSolution),
        }
    }
}

/// Outcome of a coordination round.
#[derive(Debug, Default)]
pub struct CoordinationOutcome {
    /// Answers per query id.
    pub answers: FastMap<QueryId, QueryAnswer>,
    /// Queries that did not get an answer, with reasons. `Unmatched`
    /// entries are the natural "keep pending and retry later" set for a
    /// long-running engine.
    pub rejected: Vec<(QueryId, Unanswered)>,
    /// Aggregated matching statistics across components.
    pub stats: MatchStats,
    /// Number of connected components processed.
    pub component_count: usize,
}

impl CoordinationOutcome {
    /// All answers sorted by query id.
    pub fn all_answers(&self) -> Vec<QueryAnswer> {
        let mut v: Vec<QueryAnswer> = self.answers.values().cloned().collect();
        v.sort_by_key(|a| a.query);
        v
    }

    /// Why a query went unanswered, if it did.
    pub fn reason(&self, id: QueryId) -> Option<&Unanswered> {
        self.rejected.iter().find(|(q, _)| *q == id).map(|(_, r)| r)
    }
}

/// Coordinates `queries` against `db` in one round: safety violations
/// are sidelined per §3.1.1, non-UCS pieces rejected per §3.1.2.
///
/// Queries keep their ids if distinct; otherwise they are assigned
/// sequential ids (slot order). Variables are renamed apart internally,
/// so callers may reuse variable numbers across queries.
///
/// This drives a one-shot [`CoordinationEngine`]: the whole set is
/// admitted as one batch, a single set-at-a-time flush runs, and the
/// outcomes on its log are mapped back to the caller's ids.
/// Queries left pending by the round are unanswered — as
/// [`Unanswered::Unsafe`] if §3.1.1 enforcement sidelined them, as
/// [`Unanswered::Unmatched`] otherwise.
pub fn coordinate(queries: &[EntangledQuery], db: &Database) -> CoordinationOutcome {
    let mut outcome = CoordinationOutcome::default();

    // Assign ids if the caller didn't.
    let ids_distinct = {
        let mut ids: Vec<QueryId> = queries.iter().map(|q| q.id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len() == queries.len()
    };
    let caller_ids: Vec<QueryId> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            if ids_distinct {
                q.id
            } else {
                QueryId(i as u64)
            }
        })
        .collect();

    // A bare engine over a snapshot of the database, which shares the
    // caller's in-memory tables rather than copying them (the engine
    // never writes to them). The admission-time safety check stays
    // off: one-shot semantics enforce §3.1.1 at matching time.
    let mut engine = CoordinationEngine::new(
        db.snapshot(),
        EngineConfig {
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..EngineConfig::default()
        },
    );
    let results = engine.submit_batch(
        queries
            .iter()
            .map(|q| (q.clone(), SubmitOptions::default()))
            .collect(),
    );

    // Engine ids are internal; pair each admitted one with the
    // caller's id, in submission order.
    let mut admitted: Vec<(QueryId, QueryId)> = Vec::with_capacity(results.len());
    for (result, &caller_id) in results.into_iter().zip(&caller_ids) {
        match result {
            Ok(handle) => admitted.push((handle.id, caller_id)),
            Err(SubmitError::Invalid(e)) => {
                outcome.rejected.push((caller_id, Unanswered::Invalid(e)));
            }
            Err(SubmitError::Unsafe) => outcome.rejected.push((caller_id, Unanswered::Unsafe)),
        }
    }

    // Safety (§3.1.1): the queries the round will sideline.
    let sidelined: FastSet<QueryId> = engine.safety_sidelined().into_iter().collect();

    let report = engine.flush();
    outcome.stats = report.stats;
    outcome.component_count = report.components;

    // Classify the round's outcomes back onto caller ids.
    let mut terminal: FastMap<QueryId, QueryOutcome> =
        engine.drain_outcome_log().into_iter().collect();
    for (id, caller_id) in admitted {
        let reason = match terminal.remove(&id) {
            Some(QueryOutcome::Answered(mut answer)) => {
                answer.query = caller_id;
                outcome.answers.insert(caller_id, answer);
                continue;
            }
            Some(QueryOutcome::Failed(FailReason::Rejected(reason))) => reason.into(),
            // No staleness or cancellation exists in a one-shot round;
            // defensive fallback.
            Some(QueryOutcome::Failed(FailReason::Stale | FailReason::Cancelled)) => {
                Unanswered::Unmatched
            }
            None if sidelined.contains(&id) => Unanswered::Unsafe,
            None => Unanswered::Unmatched,
        };
        outcome.rejected.push((caller_id, reason));
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::Value;
    use eq_sql::parse_ir_query;

    fn q(text: &str) -> EntangledQuery {
        parse_ir_query(text).unwrap()
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
    fn introduction_example_end_to_end() {
        let db = flight_db();
        let outcome = coordinate(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)"),
            ],
            &db,
        );
        assert_eq!(outcome.answers.len(), 2);
        assert!(outcome.rejected.is_empty());
        let answers = outcome.all_answers();
        let fno = answers[0].tuples[0][1];
        assert_eq!(answers[1].tuples[0][1], fno);
        assert!(fno == Value::int(122) || fno == Value::int(123));
    }

    #[test]
    fn lone_query_is_unmatched() {
        let db = flight_db();
        let outcome = coordinate(&[q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")], &db);
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.reason(QueryId(0)), Some(&Unanswered::Unmatched));
    }

    #[test]
    fn unsafe_set_removes_offender_but_answers_rest() {
        // Figure 3(a): Jerry's ambiguous query is removed; Kramer and
        // Elaine then have no partners and are unmatched.
        let db = flight_db();
        let outcome = coordinate(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Jerry, y)} R(Elaine, y) <- F(y, Rome)"),
                q("{R(f, z)} R(Jerry, z) <- F(z, w), A(z, f)"),
            ],
            &db,
        );
        assert_eq!(outcome.reason(QueryId(2)), Some(&Unanswered::Unsafe));
        assert_eq!(outcome.reason(QueryId(0)), Some(&Unanswered::Unmatched));
        assert_eq!(outcome.reason(QueryId(1)), Some(&Unanswered::Unmatched));
    }

    #[test]
    fn non_ucs_component_rejected_by_default() {
        // Figure 3(b): Frank depends on Jerry but not vice versa.
        let db = flight_db();
        let outcome = coordinate(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
                q("{R(Jerry, z)} R(Frank, z) <- F(z, Paris), A(z, United)"),
            ],
            &db,
        );
        assert!(outcome.answers.is_empty());
        for i in 0..3 {
            assert_eq!(outcome.reason(QueryId(i)), Some(&Unanswered::NonUcs));
        }
    }

    /// `F` rows for the `X`/`Xp` pair and for `D`; none for `Y`/`Yp`.
    fn twin_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["a", "b"]).unwrap();
        db.create_table("T", &["a"]).unwrap();
        for (a, b) in [("X", "Xp"), ("Xp", "X"), ("D", "X")] {
            db.insert("F", vec![Value::str(a), Value::str(b)]).unwrap();
        }
        db.insert("T", vec![Value::str("C1")]).unwrap();
        db
    }

    #[test]
    fn each_coordinating_set_answers_alone() {
        // Removing the doomed bridge (nobody heads `Missing(D)`) leaves
        // two two-cycles in one component; the Y pair has no rows.
        let outcome = coordinate(
            &[
                q("{R(Xp, ITH)} R(X, ITH) <- F(X, Xp)"),
                q("{R(X, ITH)} R(Xp, ITH) <- F(Xp, X)"),
                q("{R(Yp, ITH)} R(Y, ITH) <- F(Y, Yp)"),
                q("{R(Y, ITH)} R(Yp, ITH) <- F(Yp, Y)"),
                q("{R(X, ITH) & R(Y, ITH) & Missing(D)} R(D, ITH) <- F(D, X)"),
            ],
            &twin_db(),
        );
        assert_eq!(outcome.answers.len(), 2);
        assert_eq!(outcome.answers[&QueryId(0)].tuples[0][0], Value::str("X"));
        assert_eq!(outcome.answers[&QueryId(1)].tuples[0][0], Value::str("Xp"));
        assert_eq!(outcome.reason(QueryId(2)), Some(&Unanswered::NoSolution));
        assert_eq!(outcome.reason(QueryId(3)), Some(&Unanswered::NoSolution));
        assert_eq!(outcome.reason(QueryId(4)), Some(&Unanswered::Unmatched));
    }

    #[test]
    fn non_ucs_piece_is_rejected_alone() {
        // The doomed bridge joins the X pair to A → B, a piece of two
        // SCCs.
        let outcome = coordinate(
            &[
                q("{R(Xp, ITH)} R(X, ITH) <- F(X, Xp)"),
                q("{R(X, ITH)} R(Xp, ITH) <- F(Xp, X)"),
                q("{} A(C1) <- T(C1)"),
                q("{A(v)} B(v) <- T(v)"),
                q("{R(X, ITH) & B(C1) & Missing(D)} R(D, ITH) <- F(D, X)"),
            ],
            &twin_db(),
        );
        assert_eq!(outcome.answers.len(), 2);
        assert!(outcome.answers.contains_key(&QueryId(0)));
        assert!(outcome.answers.contains_key(&QueryId(1)));
        assert_eq!(outcome.reason(QueryId(2)), Some(&Unanswered::NonUcs));
        assert_eq!(outcome.reason(QueryId(3)), Some(&Unanswered::NonUcs));
        assert_eq!(outcome.reason(QueryId(4)), Some(&Unanswered::Unmatched));
    }

    #[test]
    fn no_solution_rejects_component() {
        let db = flight_db();
        // They want Athens; no Athens flights exist.
        let outcome = coordinate(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"),
            ],
            &db,
        );
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.reason(QueryId(0)), Some(&Unanswered::NoSolution));
    }

    #[test]
    fn invalid_query_rejected_up_front() {
        let db = flight_db();
        let bad = EntangledQuery::new(vec![], vec![], vec![]);
        let outcome = coordinate(&[bad], &db);
        assert!(matches!(
            outcome.reason(QueryId(0)),
            Some(&Unanswered::Invalid(_))
        ));
    }

    #[test]
    fn independent_components_processed_separately() {
        let db = flight_db();
        let outcome = coordinate(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
                q("{R(Frank, z)} R(Newman, z) <- F(z, Rome)"),
                q("{R(Newman, w)} R(Frank, w) <- F(w, Rome)"),
            ],
            &db,
        );
        assert_eq!(outcome.component_count, 2);
        assert_eq!(outcome.answers.len(), 4);
        // Pair 1 shares a Paris flight; pair 2 shares the Rome flight.
        assert_eq!(outcome.answers[&QueryId(2)].tuples[0][1], Value::int(136));
        assert_eq!(outcome.answers[&QueryId(3)].tuples[0][1], Value::int(136));
    }

    #[test]
    fn agreement_with_bruteforce_oracle() {
        // On this safe, UCS workload the fast path and the generic
        // semantics must agree about answerability.
        let db = flight_db();
        let queries = vec![
            q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").with_id(QueryId(1)),
            q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)").with_id(QueryId(2)),
        ];
        let fast = coordinate(&queries, &db);
        let gen = eq_ir::VarGen::new();
        let renamed: Vec<EntangledQuery> = queries.iter().map(|x| x.rename_apart(&gen)).collect();
        let slow = crate::bruteforce::find_coordinating_set(&renamed, &db, true).unwrap();
        assert_eq!(fast.answers.len() == 2, slow.is_some());
    }
}
