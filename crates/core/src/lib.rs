//! The entangled-query coordination engine — the paper's primary
//! contribution.
//!
//! Pipeline (§4):
//!
//! 1. [`index::AtomIndex`] — the `(Relation, Position, Value/Δ)` index of
//!    §4.1.4 used to discover unifiable head/postcondition pairs without
//!    pairwise scans;
//! 2. [`graph::MatchGraph`] — the unifiability multigraph of §4.1.1 and
//!    its partition into components (§4.1.2): slot-keyed queries, the
//!    head and postcondition indexes (which name the slots' atoms),
//!    edges naming their head/postcondition atom pair, and a
//!    component registry with a dirty set. The engine keeps one current
//!    across flushes; [`MatchGraph::build`] links a fixed query list
//!    through the same edge discovery;
//! 3. [`safety`] — the safety condition of §3.1.1 (a postcondition that
//!    unifies with two or more heads makes the set unsafe); the engine
//!    sidelines such queries per component;
//! 4. [`ucs`] — the unique-coordination-structure condition of §3.1.2
//!    via strongly connected components;
//! 5. [`matching`] — Algorithm 1: unifier propagation with cascading
//!    cleanup (§4.1.3–4.1.4), one pass over the SCC condensation that
//!    also yields the coordinating sets the UCS condition allows;
//! 6. [`combine`] — combined-query construction and answer distribution
//!    (§4.2);
//! 7. [`intra`] — the engine's one evaluator of a coordinating set:
//!    the combined query split into variable-disjoint work units
//!    evaluated one by one and glued, and shared-variable units split
//!    into biconnected regions joined by a streaming articulation
//!    projection — the one region evaluator;
//! 8. [`engine`] — the D3C engine of §5.1: asynchronous submission
//!    into one resident match graph, evaluated only when its caller
//!    flushes (the service's incremental or set-at-a-time cadence
//!    decides when), per-query deadlines swept at a time its caller
//!    passes in, every evaluation on the calling thread;
//! 9. [`events`] — bounded per-subscriber event queues with explicit
//!    overflow policies (block / drop-oldest / disconnect), feeding the
//!    service layer's push stream.
//!
//! Steps 3–6 take a `&MatchGraph`, whether the engine's or a built one.
//!
//! [`bruteforce`] implements the generic coordinating-set semantics of
//! §2.3 directly (the NP-hard search of Theorem 2.1); it serves as a
//! correctness oracle for the fast path and as an ablation baseline.
//!
//! The public face of the engine is the [`service`] layer: a clonable
//! [`Coordinator`] handle with [`Session`]-scoped submissions
//! ([`SubmitRequest`] builder, batched admission — one query at a time
//! under one shard lock — via [`Session::submit_batch`]), a pushed
//! [`Event`] stream, and the unified [`CoordinationError`] hierarchy
//! ([`error`]) for refused operations. A round rejects a query for one of two reasons
//! ([`RejectReason`]: a non-unique coordination structure, §3.1.2, or
//! no database solution, §4.2). For one-shot, set-at-a-time
//! coordination over a fixed query set, [`coordinate()`] drives a bare
//! [`CoordinationEngine`] for one round and labels each unanswered
//! query ([`Unanswered`]).

#![forbid(unsafe_code)]

pub mod bruteforce;
pub mod combine;
pub mod coordinate;
mod dispatch;
pub mod durable;
pub mod engine;
pub mod error;
pub mod events;
pub mod graph;
pub mod index;
pub mod intra;
pub mod matching;
pub mod safety;
pub mod service;
pub mod ucs;

pub use combine::{CombinedQuery, QueryAnswer};
pub use coordinate::{coordinate, CoordinationOutcome, Unanswered};
pub use durable::{DurableCoordinator, DurableError};
pub use engine::{
    BatchReport, CoordinationEngine, EngineConfig, EngineMode, FailReason, NoSolutionPolicy,
    QueryHandle, QueryOutcome, QueryStatus, RejectReason, SubmitError, SubmitOptions,
};
pub use error::{CoordinationError, InvariantViolation};
pub use events::{Events, OverflowPolicy, SubscriberStats};
pub use graph::{Edge, MatchGraph};
pub use index::{AtomIndex, AtomRef};
pub use intra::{ComponentPlan, WorkUnit};
pub use service::{Coordinator, Event, LockStats, Session, SubmitRequest, DEFAULT_EVENT_CAPACITY};
pub use ucs::UcsViolation;
