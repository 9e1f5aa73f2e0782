//! The unified error hierarchy of the coordination API.
//!
//! [`CoordinationError`] is what an operation that is refused reports:
//! a submission the engine will not admit ([`SubmitError`] converts in
//! with `?`), an unknown or already-terminal query id, a database
//! error, or an engine invariant that did not hold. A query that is
//! admitted and later fails is not an error of any call: its terminal
//! outcome leaves the engine on its outcome log with a
//! [`crate::engine::FailReason`] and reaches service subscribers as an
//! `Event`.
//!
//! ```
//! use eq_core::{Coordinator, CoordinationError, EngineConfig};
//! use eq_db::Database;
//! use eq_ir::QueryId;
//!
//! let coordinator = Coordinator::new(Database::new(), EngineConfig::default());
//! // Every refusal is one typed enum — no stringly errors.
//! match coordinator.cancel(QueryId(42)) {
//!     Err(CoordinationError::UnknownQuery(id)) => assert_eq!(id, QueryId(42)),
//!     other => panic!("expected UnknownQuery, got {other:?}"),
//! }
//! // Display renders an actionable message for logs.
//! assert!(CoordinationError::UnsafeAdmission.to_string().contains("unsafe"));
//! ```

use crate::engine::SubmitError;
use eq_db::DbError;
use eq_ir::{QueryId, ValidationError};
use std::fmt;

/// A structural invariant of the engine's resident state that did not
/// hold, as reported by
/// [`crate::CoordinationEngine::check_invariants`]. Each variant names
/// the piece of state that drifted; [`fmt::Display`] renders the full
/// diagnostic, so test harnesses can assert on typed variants while
/// still printing an actionable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The match graph is internally inconsistent (edge slab, component
    /// registry, or free lists out of sync); the payload is the graph
    /// checker's diagnostic.
    Resident(String),
    /// The id map does not name a live slot's query id as pending in
    /// that slot.
    IdMapMismatch {
        /// The slot whose id round-trip failed.
        slot: u32,
    },
    /// A live slot's head atom is missing from the head index (dangling
    /// or lost `AtomRef` after slot reuse).
    MissingHeadAtom {
        /// Owning slot.
        slot: u32,
        /// Head atom index within the query.
        atom: u32,
    },
    /// A live slot's postcondition atom is missing from the
    /// postcondition index.
    MissingPcAtom {
        /// Owning slot.
        slot: u32,
        /// Postcondition atom index within the query.
        atom: u32,
    },
    /// An atom index holds a different number of atoms than the live
    /// slots contribute.
    IndexSizeMismatch {
        /// `"head"` or `"postcondition"`.
        index: &'static str,
        /// Atoms currently indexed.
        indexed: usize,
        /// Atoms owned by live slots.
        live: usize,
    },
    /// The id map holds a different number of pending entries than
    /// there are live slots.
    IdMapSizeMismatch {
        /// Pending entries in the id map.
        ids: usize,
        /// Live slots.
        live: usize,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Resident(msg) => write!(f, "match graph: {msg}"),
            InvariantViolation::IdMapMismatch { slot } => {
                write!(f, "id map out of sync for slot {slot}")
            }
            InvariantViolation::MissingHeadAtom { slot, atom } => {
                write!(f, "head {slot}/{atom} missing from index")
            }
            InvariantViolation::MissingPcAtom { slot, atom } => {
                write!(f, "pc {slot}/{atom} missing from index")
            }
            InvariantViolation::IndexSizeMismatch {
                index,
                indexed,
                live,
            } => write!(
                f,
                "{index} index holds {indexed} atoms, live slots have {live}"
            ),
            InvariantViolation::IdMapSizeMismatch { ids, live } => {
                write!(
                    f,
                    "id map holds {ids} pending entries for {live} live slots"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// The one error type of the `Coordinator` service API: submission
/// refusals, unknown or already-terminal ids, database errors and
/// invariant violations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordinationError {
    /// The query is structurally invalid (empty head, not
    /// range-restricted, ...); refused at submission.
    Invalid(ValidationError),
    /// The admission safety check (§3.1.1 / Figure 9) refused the
    /// query: admitting it would give some postcondition two or more
    /// unifying heads.
    UnsafeAdmission,
    /// The operation named a query id the service does not know (never
    /// submitted, or already drained from a closed session).
    UnknownQuery(QueryId),
    /// The operation (e.g. cancel) targeted a query that already
    /// reached the enclosed terminal status.
    AlreadyTerminal(crate::engine::QueryStatus),
    /// A database-layer error (unknown relation, arity mismatch).
    Db(DbError),
    /// An engine structural invariant did not hold.
    Invariant(InvariantViolation),
}

impl fmt::Display for CoordinationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinationError::Invalid(e) => write!(f, "invalid query: {e}"),
            CoordinationError::UnsafeAdmission => {
                write!(
                    f,
                    "admission refused: query would make the pending set unsafe"
                )
            }
            CoordinationError::UnknownQuery(id) => write!(f, "unknown query {id}"),
            CoordinationError::AlreadyTerminal(status) => {
                write!(f, "query already terminal: {status:?}")
            }
            CoordinationError::Db(e) => write!(f, "database error: {e}"),
            CoordinationError::Invariant(v) => write!(f, "invariant violated: {v}"),
        }
    }
}

impl std::error::Error for CoordinationError {}

impl From<SubmitError> for CoordinationError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Invalid(v) => CoordinationError::Invalid(v),
            SubmitError::Unsafe => CoordinationError::UnsafeAdmission,
        }
    }
}

impl From<ValidationError> for CoordinationError {
    fn from(e: ValidationError) -> Self {
        CoordinationError::Invalid(e)
    }
}

impl From<DbError> for CoordinationError {
    fn from(e: DbError) -> Self {
        CoordinationError::Db(e)
    }
}

impl From<InvariantViolation> for CoordinationError {
    fn from(v: InvariantViolation) -> Self {
        CoordinationError::Invariant(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_legacy_shape_converts_in() {
        let e: CoordinationError = SubmitError::Unsafe.into();
        assert_eq!(e, CoordinationError::UnsafeAdmission);
        let e: CoordinationError = DbError::UnknownRelation(eq_ir::Symbol::new("T")).into();
        assert!(matches!(e, CoordinationError::Db(_)));
        let e: CoordinationError = InvariantViolation::IdMapMismatch { slot: 3 }.into();
        assert!(matches!(e, CoordinationError::Invariant(_)));
    }

    #[test]
    fn display_is_informative() {
        assert!(CoordinationError::UnsafeAdmission
            .to_string()
            .contains("unsafe"));
        assert!(CoordinationError::UnknownQuery(QueryId(7))
            .to_string()
            .contains('7'));
        let v = InvariantViolation::IdMapMismatch { slot: 2 };
        assert!(v.to_string().contains("slot 2"));
        assert!(CoordinationError::from(v).to_string().contains("invariant"));
    }
}
