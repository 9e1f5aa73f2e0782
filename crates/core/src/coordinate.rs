//! One-shot, set-at-a-time coordination over a fixed query set.
//!
//! [`coordinate()`] and [`coordinate_with_config()`] drive a bare
//! [`CoordinationEngine`]: submit the whole set as one batch, flush
//! once, classify the outcomes drained from its outcome log. Queries
//! that stay pending after the single round — no partner, or sidelined
//! by §3.1.1 enforcement — are reported as rejected, which is what
//! "one-shot" means.

use crate::combine::QueryAnswer;
use crate::engine::{
    CoordinationEngine, EngineConfig, EngineMode, FailReason, NoSolutionPolicy, QueryOutcome,
    SubmitError, SubmitOptions,
};
use crate::matching::MatchStats;
use crate::safety::{self, SafetyPolicy};
use eq_db::{Database, DbError};
use eq_ir::{EntangledQuery, FastMap, FastSet, QueryId, ValidationError};
use std::fmt;

/// Why a query did not receive an answer in a coordination round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Structurally invalid (empty head, not range-restricted, ...).
    Invalid(ValidationError),
    /// Removed by the safety enforcement of §3.1.1 (its postcondition
    /// unified with more than one head).
    Unsafe,
    /// Its piece of the matched component — the survivors it is
    /// connected to — spans several strongly connected components, so
    /// it violates the unique-coordination-structure condition of
    /// §3.1.2.
    NonUcs,
    /// Matching removed it: some postcondition had no satisfier, or its
    /// constraints were inconsistent (CLEANUP).
    Unmatched,
    /// Its component matched but the database had no tuple satisfying
    /// the combined query.
    NoSolution,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Invalid(e) => write!(f, "invalid query: {e}"),
            RejectReason::Unsafe => write!(f, "removed by the safety check"),
            RejectReason::NonUcs => write!(f, "coordination structure not unique"),
            RejectReason::Unmatched => write!(f, "no coordination partner"),
            RejectReason::NoSolution => write!(f, "no coordinated solution in the database"),
        }
    }
}

/// Configuration for one coordination round. (Components violating UCS
/// are always rejected: §3.1.2 rules out evaluating them as one
/// combined query.)
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordinateConfig {
    /// How to react to safety violations.
    pub safety: SafetyPolicy,
}

/// Outcome of a coordination round.
#[derive(Debug, Default)]
pub struct CoordinationOutcome {
    /// Answers per query id.
    pub answers: FastMap<QueryId, QueryAnswer>,
    /// Queries that did not get an answer, with reasons. `Unmatched`
    /// entries are the natural "keep pending and retry later" set for a
    /// long-running engine.
    pub rejected: Vec<(QueryId, RejectReason)>,
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

    /// The reject reason for a query, if it was rejected.
    pub fn reason(&self, id: QueryId) -> Option<&RejectReason> {
        self.rejected.iter().find(|(q, _)| *q == id).map(|(_, r)| r)
    }
}

/// Errors aborting a whole round (not per-query rejections).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordinateError {
    /// The workload was unsafe and the policy is
    /// [`SafetyPolicy::RejectAll`].
    UnsafeWorkload(Vec<safety::SafetyViolation>),
    /// A database-layer error. (Kept for API stability: since the
    /// engine-backed rewrite, a combined query referencing an unknown
    /// relation rejects its component's queries with
    /// [`RejectReason::NoSolution`] instead of aborting the round.)
    Db(DbError),
}

impl fmt::Display for CoordinateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinateError::UnsafeWorkload(vs) => {
                write!(f, "workload is unsafe ({} violations)", vs.len())
            }
            CoordinateError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for CoordinateError {}

impl From<DbError> for CoordinateError {
    fn from(e: DbError) -> Self {
        CoordinateError::Db(e)
    }
}

/// Coordinates `queries` against `db` with default configuration
/// (safety violations removed per §3.1.1; non-UCS components rejected).
pub fn coordinate(
    queries: &[EntangledQuery],
    db: &Database,
) -> Result<CoordinationOutcome, CoordinateError> {
    coordinate_with_config(queries, db, CoordinateConfig::default())
}

/// Coordinates `queries` against `db`.
///
/// Queries keep their ids if distinct; otherwise they are assigned
/// sequential ids (slot order). Variables are renamed apart internally,
/// so callers may reuse variable numbers across queries.
///
/// This drives a one-shot [`CoordinationEngine`]: the whole set is
/// admitted as one batch, a single set-at-a-time flush runs, and the
/// outcomes on its log are mapped back to the caller's ids.
/// Queries left pending by the round are rejected — as
/// [`RejectReason::Unsafe`] if §3.1.1 enforcement sidelined them, as
/// [`RejectReason::Unmatched`] otherwise.
pub fn coordinate_with_config(
    queries: &[EntangledQuery],
    db: &Database,
    config: CoordinateConfig,
) -> Result<CoordinationOutcome, CoordinateError> {
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
    // off: one-shot semantics enforce §3.1.1 at matching time per the
    // configured policy.
    let mut engine = CoordinationEngine::new(
        db.snapshot(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            flush_threads: 1,
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
                outcome.rejected.push((caller_id, RejectReason::Invalid(e)));
            }
            Err(SubmitError::Unsafe) => outcome.rejected.push((caller_id, RejectReason::Unsafe)),
        }
    }

    // Safety (§3.1.1) per the configured policy, before the round runs.
    let sidelined: FastSet<QueryId> = match config.safety {
        SafetyPolicy::RejectAll => {
            let mut violations = engine.safety_violations();
            if !violations.is_empty() {
                let to_caller: FastMap<QueryId, QueryId> = admitted.iter().copied().collect();
                for v in &mut violations {
                    if let Some(&caller_id) = to_caller.get(&v.query) {
                        v.query = caller_id;
                    }
                }
                return Err(CoordinateError::UnsafeWorkload(violations));
            }
            // A safe pool sidelines nothing; skip the enforcement scan.
            FastSet::default()
        }
        SafetyPolicy::RemoveOffending => engine.safety_sidelined().into_iter().collect(),
    };

    let report = engine.flush();
    outcome.stats = report.stats;
    outcome.component_count = report.components;

    // Classify the round's outcomes back onto caller ids.
    let mut terminal: FastMap<QueryId, QueryOutcome> =
        engine.drain_outcome_log().into_iter().collect();
    for (id, caller_id) in admitted {
        match terminal.remove(&id) {
            Some(QueryOutcome::Answered(mut answer)) => {
                answer.query = caller_id;
                outcome.answers.insert(caller_id, answer);
            }
            Some(QueryOutcome::Failed(FailReason::Rejected(reason))) => {
                outcome.rejected.push((caller_id, reason));
            }
            Some(QueryOutcome::Failed(FailReason::Stale | FailReason::Cancelled)) => {
                // No staleness or cancellation exists in a one-shot
                // round; defensive fallback.
                outcome.rejected.push((caller_id, RejectReason::Unmatched));
            }
            None => {
                let reason = if sidelined.contains(&id) {
                    RejectReason::Unsafe
                } else {
                    RejectReason::Unmatched
                };
                outcome.rejected.push((caller_id, reason));
            }
        }
    }
    Ok(outcome)
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
        )
        .unwrap();
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
        let outcome = coordinate(&[q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")], &db).unwrap();
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.reason(QueryId(0)), Some(&RejectReason::Unmatched));
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
        )
        .unwrap();
        assert_eq!(outcome.reason(QueryId(2)), Some(&RejectReason::Unsafe));
        assert_eq!(outcome.reason(QueryId(0)), Some(&RejectReason::Unmatched));
        assert_eq!(outcome.reason(QueryId(1)), Some(&RejectReason::Unmatched));
    }

    #[test]
    fn reject_all_policy_errors_on_unsafe() {
        let db = flight_db();
        let err = coordinate_with_config(
            &[
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                q("{R(Jerry, y)} R(Elaine, y) <- F(y, Rome)"),
                q("{R(f, z)} R(Jerry, z) <- F(z, w), A(z, f)"),
            ],
            &db,
            CoordinateConfig {
                safety: SafetyPolicy::RejectAll,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoordinateError::UnsafeWorkload(_)));
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
        )
        .unwrap();
        assert!(outcome.answers.is_empty());
        for i in 0..3 {
            assert_eq!(outcome.reason(QueryId(i)), Some(&RejectReason::NonUcs));
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
        )
        .unwrap();
        assert_eq!(outcome.answers.len(), 2);
        assert_eq!(outcome.answers[&QueryId(0)].tuples[0][0], Value::str("X"));
        assert_eq!(outcome.answers[&QueryId(1)].tuples[0][0], Value::str("Xp"));
        assert_eq!(outcome.reason(QueryId(2)), Some(&RejectReason::NoSolution));
        assert_eq!(outcome.reason(QueryId(3)), Some(&RejectReason::NoSolution));
        assert_eq!(outcome.reason(QueryId(4)), Some(&RejectReason::Unmatched));
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
        )
        .unwrap();
        assert_eq!(outcome.answers.len(), 2);
        assert!(outcome.answers.contains_key(&QueryId(0)));
        assert!(outcome.answers.contains_key(&QueryId(1)));
        assert_eq!(outcome.reason(QueryId(2)), Some(&RejectReason::NonUcs));
        assert_eq!(outcome.reason(QueryId(3)), Some(&RejectReason::NonUcs));
        assert_eq!(outcome.reason(QueryId(4)), Some(&RejectReason::Unmatched));
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
        )
        .unwrap();
        assert!(outcome.answers.is_empty());
        assert_eq!(outcome.reason(QueryId(0)), Some(&RejectReason::NoSolution));
    }

    #[test]
    fn invalid_query_rejected_up_front() {
        let db = flight_db();
        let bad = EntangledQuery::new(vec![], vec![], vec![]);
        let outcome = coordinate(&[bad], &db).unwrap();
        assert!(matches!(
            outcome.reason(QueryId(0)),
            Some(&RejectReason::Invalid(_))
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
        )
        .unwrap();
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
        let fast = coordinate(&queries, &db).unwrap();
        let gen = eq_ir::VarGen::new();
        let renamed: Vec<EntangledQuery> = queries.iter().map(|x| x.rename_apart(&gen)).collect();
        let slow = crate::bruteforce::find_coordinating_set(&renamed, &db, true).unwrap();
        assert_eq!(fast.answers.len() == 2, slow.is_some());
    }
}
