//! In-memory relational database substrate.
//!
//! The paper's prototype delegated combined-query evaluation to MySQL
//! 4.1 over JDBC (§5.1). This crate provides the equivalent substrate:
//! a catalog of named relations, row storage (one fixed-stride slab of
//! dictionary codes and one liveness bitmap per relation) indexed by one
//! value dictionary and one packed posting arena per column,
//! and an evaluator for conjunctive (select-project-join) queries with
//! `LIMIT k` — exactly the query class the combined queries of §4.2
//! fall into.
//!
//! Two entry points matter to the coordination engine:
//!
//! * [`Database::evaluate`] — find up to `k` valuations of a conjunction
//!   of body atoms (used both for combined queries and for grounding
//!   individual queries in the brute-force oracle);
//! * [`Database::contains`] / [`Database::scan`] — point and full access
//!   used by tests and workload loaders.
//!
//! The evaluator orders atoms greedily (most-bound-first, preferring
//! indexed probes) and backtracks; this is the classic strategy for
//! conjunctive queries and reproduces the qualitative join blow-up of
//! Figure 7 when postcondition counts grow.

#![forbid(unsafe_code)]

mod database;
mod eval;
mod index;
mod table;

pub use database::{CodedLoad, Database, DbError};
pub use eval::{EvalStats, Prepared, Slot, Solution, Valuation, Visit};
pub use index::PostingIndex;
pub use table::{Liveness, RowStore, StoreIoStats, Table, TableSchema, Tuple};
