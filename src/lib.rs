//! # Entangled Queries
//!
//! A full Rust implementation of *"Entangled Queries: Enabling Declarative
//! Data-Driven Coordination"* (SIGMOD 2011). This facade crate re-exports
//! the public API of the workspace crates:
//!
//! * [`ir`] — the intermediate representation (`{C} H ⊣ B`);
//! * [`sql`] — the entangled-SQL dialect and the Datalog-style text format;
//! * [`unify`] — unifiers and most-general-unifier computation;
//! * [`db`] — the in-memory relational database substrate;
//! * [`core`] — safety/UCS checks, the matching algorithm, combined-query
//!   construction, the resident match graph, the D3C coordination
//!   engine (dirty-component flushes over persistent match state), and
//!   the `Coordinator` service facade (sessions, submit builders,
//!   event streams, typed errors);
//! * [`workload`] — the paper's evaluation workload generators plus the
//!   churn and service scenario scripts.
//!
//! ## Quickstart
//!
//! The Kramer/Jerry example from the paper's introduction, against the
//! `Coordinator` service:
//!
//! ```
//! use entangled_queries::prelude::*;
//!
//! // A flight database (paper Figure 1a), bulk-loaded.
//! let mut db = Database::new();
//! db.create_table("Flights", &["fno", "dest"]).unwrap();
//! db.create_table("Airlines", &["fno", "airline"]).unwrap();
//! db.insert_many("Flights", vec![
//!     vec![Value::int(122), Value::str("Paris")],
//!     vec![Value::int(123), Value::str("Paris")],
//!     vec![Value::int(134), Value::str("Paris")],
//!     vec![Value::int(136), Value::str("Rome")],
//! ]).unwrap();
//! db.insert_many("Airlines", vec![
//!     vec![Value::int(122), Value::str("United")],
//!     vec![Value::int(123), Value::str("United")],
//!     vec![Value::int(134), Value::str("Lufthansa")],
//!     vec![Value::int(136), Value::str("Alitalia")],
//! ]).unwrap();
//!
//! // A long-running coordination service; subscribe to its events.
//! let coordinator = Coordinator::new(db, EngineConfig::default());
//! let events = coordinator.subscribe();
//! let mut session = coordinator.session();
//!
//! // Kramer: fly to Paris on the same flight as Jerry.
//! let kramer = parse_ir_query(
//!     "{R(\"Jerry\", x)} R(\"Kramer\", x) <- Flights(x, \"Paris\")").unwrap();
//! // Jerry: fly to Paris with Kramer, United only.
//! let jerry = parse_ir_query(
//!     "{R(\"Kramer\", y)} R(\"Jerry\", y) <- Flights(y, \"Paris\"), Airlines(y, \"United\")"
//! ).unwrap();
//!
//! session.submit(SubmitRequest::new(kramer).tag("kramer")).unwrap();
//! session.submit(SubmitRequest::new(jerry).tag("jerry")).unwrap();
//!
//! // Both coordinated on the same United flight (122 or 123); the
//! // outcomes were pushed on the event stream (as `Arc<Event>` — the
//! // service materializes each event once and fans it out by pointer).
//! let answered = events.drain();
//! assert_eq!(answered.len(), 2);
//! let fno = match &*answered[0] {
//!     Event::Answered { answer, .. } => answer.tuples[0][1],
//!     other => panic!("expected an answer, got {other:?}"),
//! };
//! assert!(fno == Value::int(122) || fno == Value::int(123));
//! ```
//!
//! A query the service admits either gets an answer or fails: an
//! `Event::Failed` carries one of the engine's two [`core::RejectReason`]s
//! (non-unique coordination structure, or no database solution), and
//! `Event::Expired` / `Event::Cancelled` report the other two ends. A
//! refused call returns a [`core::CoordinationError`].
//!
//! One-shot coordination over a fixed query set is still available as
//! [`core::coordinate()`] (one round of a bare engine); it labels every
//! unanswered query with a [`core::Unanswered`] reason.

#![forbid(unsafe_code)]

pub use eq_core as core;
pub use eq_db as db;
pub use eq_ir as ir;
pub use eq_sql as sql;
pub use eq_unify as unify;
pub use eq_workload as workload;

/// Builds a SQL-lowering [`sql::Catalog`] from a live database's
/// catalog, so entangled SQL can be parsed against the schema that will
/// evaluate it.
///
/// ```
/// use entangled_queries::{catalog_for, prelude::*};
/// let mut db = Database::new();
/// db.create_table("Flights", &["fno", "dest"]).unwrap();
/// let catalog = catalog_for(&db);
/// let q = parse_entangled_sql(
///     "SELECT 'K', fno INTO ANSWER R \
///      WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris')",
///     &catalog,
/// ).unwrap();
/// assert_eq!(q.body.len(), 1);
/// ```
pub fn catalog_for(db: &eq_db::Database) -> eq_sql::Catalog {
    let mut catalog = eq_sql::Catalog::new();
    for name in db.table_names() {
        let table = db.table(name).expect("listed table");
        let cols: Vec<&str> = table.schema().columns.iter().map(|c| c.as_str()).collect();
        catalog.add_table(name.as_str(), &cols);
    }
    catalog
}

/// Commonly used items, for `use entangled_queries::prelude::*`.
pub mod prelude {
    pub use eq_core::{
        coordinate, BatchReport, CoordinationEngine, CoordinationError, CoordinationOutcome,
        Coordinator, EngineConfig, EngineMode, Event, Events, FailReason, InvariantViolation,
        NoSolutionPolicy, OverflowPolicy, QueryAnswer, QueryHandle, QueryOutcome, QueryStatus,
        RejectReason, Session, SubmitRequest, SubscriberStats, Unanswered,
    };
    pub use eq_db::{Database, Tuple};
    pub use eq_ir::{Atom, EntangledQuery, QueryId, Symbol, Term, Value, Var, VarGen};
    pub use eq_sql::{parse_entangled_sql, parse_ir_query};
}
