//! The D3C engine of §5.1: a long-running coordination service.
//!
//! The engine accepts entangled queries asynchronously, keeps them in a
//! pending pool, and answers them when its caller asks:
//!
//! * **admission** ([`CoordinationEngine::submit`] and the batch and
//!   re-admission entries) only admits: it links each arrival into the
//!   resident match graph and marks the components it joined dirty;
//! * **evaluation** ([`CoordinationEngine::flush`], the one call that
//!   evaluates) re-matches the *dirty* components of the resident match
//!   graph, each matched and evaluated on its own (§4.1.2).
//!
//! *When* to evaluate is the middleware's scheduling choice (§5.1,
//! §5.3.4), not the engine's: the `Coordinator` service reads
//! [`EngineConfig::mode`] and, in incremental mode, flushes a shard at
//! the end of every admission call; a bare engine's caller flushes
//! whenever it likes. The same input reaches the same per-query
//! outcomes under either cadence whenever the evaluation points see the
//! same pool.
//!
//! Match state is **resident**: the engine owns one [`MatchGraph`], the
//! unifiability graph of §4.1.1 with its atom indexes and component
//! registry, keyed by engine slots. Admission discovers an arrival's
//! edges through the graph's indexes (an edge is four indices — which
//! head of which query unifies with which postcondition — and keeps no
//! unifier: matching folds each edge's atom pair afresh) and links it;
//! retirement unlinks it (lazy component-split resolution).
//! Evaluation runs straight off the graph, borrowing
//! pending queries in place; nothing is cloned into a per-flush
//! throwaway graph, and a flush with no changes since the previous one
//! evaluates zero components. Per-slot engine state — the no-solution
//! policy and whether a deadline is set — sits in a slot table beside
//! it, indexed by the same slot ids; deadlines themselves live on one
//! heap.
//!
//! Admission and retirement are the two costs every query pays, so
//! their bookkeeping is slot-indexed: one map from [`QueryId`] to the
//! query's status and, while it is pending, its slot; the graph's
//! per-slot links for everything else. Admission probes into a reused
//! edge buffer and allocates nothing of its own but what validation
//! needs; retirement looks up the id once, to record the status, and
//! allocates nothing.
//!
//! Queries that cannot currently be matched stay pending until they
//! succeed, fail, or pass their own deadline ([`SubmitOptions::deadline`];
//! §5.1: "when a query becomes stale, it is removed from the list of
//! pending queries and its evaluation is considered to have failed").
//!
//! The engine is a plain state machine: it reads no clock and starts
//! no thread. Time is an argument ([`CoordinationEngine::expire_stale`]
//! takes `now`; the `Coordinator` service reads the clock), and every
//! evaluation runs on the calling thread.
//!
//! A terminal outcome leaves the engine one way: retirement moves it
//! onto the engine's outcome log, and whoever drives the engine takes
//! it from there with [`CoordinationEngine::drain_outcome_log`] (the
//! `Coordinator` service drains after every locked call and pushes
//! each outcome to its subscribers as an `Event` — the middleware
//! layer's asynchronous answer delivery).

use crate::combine::{self, QueryAnswer, Simplified};
use crate::error::InvariantViolation;
use crate::graph::{Edge, MatchGraph};
use crate::intra;
use crate::matching::{self, MatchStats};
use crate::safety;
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, FastSet, QueryId, ValidationError, VarGen};
use parking_lot::RwLock;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Evaluation scheduling mode (§5.1, §5.3.4): the `Coordinator`
/// service's cadence. A bare [`CoordinationEngine`] ignores it; its
/// caller decides when to [`CoordinationEngine::flush`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// The service evaluates a shard's dirty set at the end of every
    /// admission call (§5.1's incremental matching: re-match what the
    /// call dirtied).
    Incremental,
    /// The service evaluates only on `Coordinator::flush`.
    SetAtATime {
        /// Inert: nothing flushes after a number of admissions. The
        /// field stays only because the frozen benchmark still names
        /// it; ROADMAP item 2(b) deletes it.
        batch_size: usize,
    },
}

/// What to do with a matched component whose combined query has no
/// solution in the database.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NoSolutionPolicy {
    /// Fail the component's queries (§4.2's rejection semantics).
    #[default]
    Reject,
    /// Keep them pending; they are retried by the next evaluation
    /// ([`CoordinationEngine::flush`]) after their component changes or
    /// the database is updated — under an incremental `Coordinator`, the
    /// one that ends the next admission call on their shard.
    KeepPending,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Scheduling mode, read once by the `Coordinator` service when it
    /// is built. The engine itself never reads it.
    pub mode: EngineMode,
    /// Admission-time safety enforcement: a new query is rejected when
    /// it would make the pending set unsafe (one of its postconditions
    /// unifies with ≥ 2 pending heads, or one of its heads gives a
    /// pending postcondition a second satisfier). This is the check
    /// stress-tested in Figure 9. Disable to admit everything and rely
    /// on §3.1.1 removal at matching time.
    pub admission_safety_check: bool,
    /// See [`NoSolutionPolicy`].
    pub on_no_solution: NoSolutionPolicy,
    /// Ignored: evaluation runs on the caller's thread. The field stays
    /// only because the frozen benchmark still sets it; ROADMAP item
    /// 2(b) deletes it.
    #[deprecated(note = "ignored: evaluation runs on the caller's thread (ROADMAP 2(b))")]
    pub flush_threads: usize,
    /// Ignored: every coordinating set, whatever its size, is evaluated
    /// through the partitioned path ([`crate::intra`]). The field stays
    /// only because the frozen benchmark still reads it; ROADMAP item
    /// 2(b) deletes it.
    #[deprecated(note = "ignored: every coordinating set is evaluated by `intra` (ROADMAP 2(b))")]
    pub intra_component_threshold: usize,
    /// Number of independently locked **service shards** the
    /// `Coordinator` partitions its pending pool into (the engine
    /// itself ignores this; it is read once at service construction).
    /// Queries are routed by `(relation, arity)` connectivity — two
    /// queries whose key sets never intersect can never share a
    /// match-graph edge, so each connectivity group lives on exactly
    /// one shard and admission, flushing, and the Figure-9 safety
    /// check touch only that shard's lock. `1` (the default) keeps
    /// the classic single-mutex service. Values are clamped to at
    /// least 1.
    pub service_shards: usize,
}

impl Default for EngineConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        EngineConfig {
            mode: EngineMode::Incremental,
            admission_safety_check: true,
            on_no_solution: NoSolutionPolicy::default(),
            flush_threads: 1,
            intra_component_threshold: 128,
            service_shards: 1,
        }
    }
}

/// Status of a submitted query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// Waiting for coordination partners.
    Pending,
    /// Answered; the answer is on the outcome log.
    Answered,
    /// Failed with a reason.
    Failed(FailReason),
}

/// Why a coordination round rejected a query: the two ways §3–4 let a
/// matched query fail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Its piece of the matched component — the survivors it is
    /// connected to — spans several strongly connected components, so
    /// it violates the unique-coordination-structure condition of
    /// §3.1.2.
    NonUcs,
    /// Its coordinating set matched but the database had no tuple
    /// satisfying the combined query (§4.2).
    NoSolution,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::NonUcs => "coordination structure not unique",
            RejectReason::NoSolution => "no coordinated solution in the database",
        })
    }
}

/// Why a pending query failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailReason {
    /// Rejected by a coordination round, for a [`RejectReason`].
    Rejected(RejectReason),
    /// Passed its deadline without coordinating.
    Stale,
    /// Withdrawn by the application via
    /// [`CoordinationEngine::cancel`].
    Cancelled,
}

/// A query's terminal outcome, as retirement records it on the outcome
/// log ([`CoordinationEngine::drain_outcome_log`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryOutcome {
    /// The coordinated answer.
    Answered(QueryAnswer),
    /// Failure and its reason.
    Failed(FailReason),
}

/// What [`CoordinationEngine::submit`] returns for an admitted query:
/// the id it was assigned. Its terminal outcome appears under that id
/// on the outcome log ([`CoordinationEngine::drain_outcome_log`]).
#[derive(Debug)]
pub struct QueryHandle {
    /// The id assigned to the query.
    pub id: QueryId,
}

/// Why a submission was refused outright.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Structurally invalid.
    Invalid(ValidationError),
    /// The admission safety check failed (§3.1.1 / Figure 9).
    Unsafe,
}

/// Per-query submission options, overriding the engine-wide
/// [`EngineConfig`] knobs for one query. The `Coordinator` service's
/// `SubmitRequest` builder produces these; engine users can pass them
/// directly through [`CoordinationEngine::submit_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Absolute deadline: if the query is still pending when this
    /// instant passes, it is failed as [`FailReason::Stale`] at the next
    /// deadline sweep ([`CoordinationEngine::expire_stale`], which the
    /// `Coordinator` runs before every submit and flush; a bare engine
    /// sweeps only when its caller asks). `None` never expires.
    pub deadline: Option<Instant>,
    /// Per-query no-solution policy; `None` uses
    /// [`EngineConfig::on_no_solution`]. When a matched component's
    /// combined query has no database solution, members with an
    /// effective [`NoSolutionPolicy::Reject`] are failed and members
    /// with [`NoSolutionPolicy::KeepPending`] stay pending, retried by
    /// the next evaluation ([`CoordinationEngine::flush`]) after their
    /// component or the database changes.
    pub on_no_solution: Option<NoSolutionPolicy>,
}

/// Summary of one evaluation ([`CoordinationEngine::flush`]). A
/// `Coordinator::flush` report also folds in every evaluation the
/// service ran at admission since the previous flush.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Components examined (after safety masking and split resolution).
    pub components: usize,
    /// Resident components skipped because nothing in them changed
    /// since they were last evaluated (the dirty-set payoff).
    pub skipped_clean: usize,
    /// Queries answered.
    pub answered: usize,
    /// Queries failed (rejections + no-solution under the reject
    /// policy).
    pub failed: usize,
    /// Queries left pending.
    pub pending: usize,
    /// Coordinating sets evaluated. Every set goes through the
    /// partitioned path ([`crate::intra`]), so this counts them all.
    pub intra_components: usize,
    /// Work units evaluated across those sets (each unit is one
    /// variable-disjoint sub-join of a combined query).
    pub intra_units: usize,
    /// Work units that additionally went through shared-variable
    /// biconnected-region splitting: every unit whose variable graph
    /// [`crate::intra::split_unit`] cuts into regions.
    pub intra_split_units: usize,
    /// Biconnected regions dispatched as work items across those split
    /// units.
    pub intra_regions: usize,
    /// Region-local solutions the region runs were handed across split
    /// units. It equals [`BatchReport::intra_regions`] when every split
    /// unit was answered by the first-choice descent (one pinned run per
    /// region, one solution each). A unit whose descent dead-ended adds
    /// its bottom-up projection and top-down pinned pick, which under
    /// projection track the articulation domain — a few per witnessed
    /// value — rather than the regions' solution counts; compare with
    /// [`BatchReport::intra_witness_peak`] to see how little of it was
    /// retained.
    pub intra_region_streamed: u64,
    /// Peak witness-map size — the most entries any single region's
    /// articulation-value witness set held — across split units
    /// (maximum, not sum). Bounded by the articulation-value domain
    /// width, **not** by region solution counts: this is the region
    /// evaluator's memory guarantee, surfaced as a counter. 0 means the
    /// descent answered every split unit and no witness set was built.
    pub intra_witness_peak: u64,
    /// Nanoseconds the **service shard locks** were held by the
    /// `Coordinator::flush` that produced this report (engine flush;
    /// event fan-out is staged inside but delivered outside the
    /// critical section) — summed across shards when the service is
    /// sharded; 0 when the engine is driven directly, without a
    /// `Coordinator`. Lifetime lock counters are on
    /// `Coordinator::lock_stats()` and `Coordinator::shard_lock_stats()`.
    pub lock_hold_ns: u64,
    /// Aggregated matching statistics.
    pub stats: MatchStats,
    /// Unifier `merge_from` folds performed while producing this
    /// report — the delta of [`eq_unify::ops`]'s process counter across
    /// the operation. Matching's SCC `fold` is the only counted caller:
    /// it merges predecessors into an SCC's unifier and each SCC into
    /// the component's global unifier. In-edge unification
    /// (`Unifier::unify_atoms`) and admission probes
    /// (`eq_unify::unifiable`) are not counted.
    pub unify_merges: u64,
    /// `Unifier::clone` calls across the operation. The engine's
    /// matching / admission / combine paths move or merge unifiers in
    /// place, so this must be 0 — ci asserts it on the benchmark
    /// counters.
    pub unify_clones: u64,
}

/// What the engine keeps per query id: its status and, while it is
/// pending, its slot. One entry stays per retired id, for
/// [`CoordinationEngine::status`].
struct IdEntry {
    status: QueryStatus,
    /// The query's slot while it is pending; [`NO_SLOT`] once it left.
    slot: u32,
}

/// [`IdEntry::slot`] of a query that is no longer pending.
const NO_SLOT: u32 = u32::MAX;

impl IdEntry {
    /// The slot of a pending query.
    fn pending(&self) -> Option<u32> {
        (self.slot != NO_SLOT).then_some(self.slot)
    }
}

/// What the engine keeps for a pending slot beside the graph's query.
/// The deadline itself lives only on the deadline heap.
#[derive(Clone, Copy)]
struct SlotState {
    /// Per-query no-solution policy override (see [`SubmitOptions`]).
    on_no_solution: Option<NoSolutionPolicy>,
    /// The query has a deadline, hence a live entry on the heap.
    dated: bool,
}

/// A query the service acknowledged earlier, with everything that
/// travels with it: the unit shard-merge migration lifts out of one
/// engine ([`CoordinationEngine::extract_pending`]) and recovery
/// rebuilds from the log, both re-admitted through
/// [`CoordinationEngine::readmit`]. The id, per-query policy and
/// deadline survive the move.
pub(crate) struct PendingQuery {
    pub(crate) query: EntangledQuery,
    opts: SubmitOptions,
}

impl PendingQuery {
    /// A submission recovered from the log, under its recorded id
    /// (`query.id`) and no-solution policy. It carries no deadline:
    /// wall-clock instants do not survive a restart.
    pub(crate) fn recovered(
        query: EntangledQuery,
        on_no_solution: Option<NoSolutionPolicy>,
    ) -> Self {
        let opts = SubmitOptions {
            deadline: None,
            on_no_solution,
        };
        PendingQuery { query, opts }
    }
}

/// Where an admitted query's id comes from.
enum IdFrom<'a> {
    /// A new submission: Figure 9 judges it (when the check is on), then
    /// it draws the next id — from the service's shared counter when one
    /// is given.
    Draw(Option<&'a AtomicU64>),
    /// A query the service acknowledged before (migrated or recovered):
    /// it keeps its own id and is not judged again.
    Own,
}

/// The coordination engine.
///
/// Not `Sync`: submissions mutate internal indexes, so drive it from one
/// thread; evaluation runs on that thread too. The database is shared
/// behind a read-write lock; evaluation takes read guards, so an
/// application may update tables between rounds.
pub struct CoordinationEngine {
    config: EngineConfig,
    db: Arc<RwLock<Database>>,
    gen: VarGen,
    next_id: u64,
    /// The pending queries' match graph: queries by slot (slots are
    /// reused; `AtomRef.query` is a slot), atom indexes, edges,
    /// components and dirty tracking.
    graph: MatchGraph,
    /// Per-slot engine state, indexed by the graph's slot ids (`None`
    /// for a vacant slot).
    slots: Vec<Option<SlotState>>,
    /// Every admitted id: its status, and its slot while it is pending
    /// — the one map an id is looked up in.
    ids: FastMap<QueryId, IdEntry>,
    /// The admission probe's edges, kept between admissions so that a
    /// probe allocates nothing once the buffer has grown.
    edge_buf: Vec<Edge>,
    /// Per-query deadlines ([`SubmitOptions::deadline`]), earliest
    /// first — the one expiry structure. Entries of queries that left
    /// the pool early (answered, failed, cancelled, migrated) are dead:
    /// skipped when popped, and dropped wholesale once they outnumber
    /// the live ones ([`CoordinationEngine::compact_deadlines`]).
    deadlines: BinaryHeap<Reverse<(Instant, QueryId)>>,
    /// Pending queries that carry a deadline — the heap's live entries.
    dated: usize,
    /// Database revision seen by the last evaluation; a change marks
    /// every component dirty (kept-pending components may now be
    /// answerable).
    flushed_db_revision: u64,
    /// Every terminal transition, in retirement order, until drained
    /// ([`CoordinationEngine::drain_outcome_log`]).
    outcome_log: Vec<(QueryId, QueryOutcome)>,
}

impl CoordinationEngine {
    /// Creates an engine over a database.
    pub fn new(db: Database, config: EngineConfig) -> Self {
        Self::with_shared_db(Arc::new(RwLock::new(db)), config)
    }

    /// Creates an engine over an already-shared database handle — the
    /// sharded `Coordinator` gives each engine shard the same database
    /// while every other piece of engine state stays shard-private.
    pub(crate) fn with_shared_db(db: Arc<RwLock<Database>>, config: EngineConfig) -> Self {
        let revision = db.read().revision();
        CoordinationEngine {
            config,
            db,
            gen: VarGen::new(),
            next_id: 1,
            graph: MatchGraph::default(),
            slots: Vec::new(),
            ids: FastMap::default(),
            edge_buf: Vec::new(),
            deadlines: BinaryHeap::new(),
            dated: 0,
            flushed_db_revision: revision,
            outcome_log: Vec::new(),
        }
    }

    /// Takes every terminal outcome (answer, rejection, expiry,
    /// cancellation) recorded since the last drain, in retirement order:
    /// the one way an outcome leaves the engine, exactly once per
    /// retired query. The log keeps what nobody drains, so the caller
    /// drains — the `Coordinator` service does after every locked call.
    pub fn drain_outcome_log(&mut self) -> Vec<(QueryId, QueryOutcome)> {
        std::mem::take(&mut self.outcome_log)
    }

    /// Shared handle to the engine's database (write to it between
    /// rounds to load data).
    pub fn db(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.db)
    }

    /// Allocates the next query id: from the shared service counter
    /// when one is given, else from the engine-local sequence. The
    /// local watermark follows the shared counter so mixed driving and
    /// checkpointing stay coherent.
    fn draw_id(&mut self, source: Option<&AtomicU64>) -> QueryId {
        let raw = match source {
            Some(counter) => counter.fetch_add(1, Ordering::Relaxed),
            None => self.next_id,
        };
        self.next_id = self.next_id.max(raw + 1);
        QueryId(raw)
    }

    /// Number of pending queries.
    pub fn pending_count(&self) -> usize {
        self.graph.linked_count()
    }

    /// The status of a query, if known.
    pub fn status(&self, id: QueryId) -> Option<&QueryStatus> {
        self.ids.get(&id).map(|entry| &entry.status)
    }

    /// The slot of a pending query.
    fn pending_slot(&self, id: QueryId) -> Option<u32> {
        self.ids.get(&id).and_then(IdEntry::pending)
    }

    /// Submits a query with default [`SubmitOptions`]. Returns the
    /// query's handle (its id). Admission evaluates nothing: the query
    /// stays pending, and off the outcome log, until a
    /// [`CoordinationEngine::flush`] coordinates it.
    pub fn submit(&mut self, query: EntangledQuery) -> Result<QueryHandle, SubmitError> {
        self.submit_with(query, SubmitOptions::default())
    }

    /// Submits a query with per-query options (deadline, no-solution
    /// policy): a batch of one ([`CoordinationEngine::submit_batch`]),
    /// without the batch's vectors.
    pub fn submit_with(
        &mut self,
        query: EntangledQuery,
        opts: SubmitOptions,
    ) -> Result<QueryHandle, SubmitError> {
        query.validate().map_err(SubmitError::Invalid)?;
        self.submit_entry(Ok((query, opts)), None)
    }

    /// The admission step — the one way a query enters the engine:
    /// rename it apart in place, probe the graph for its edges
    /// ([`MatchGraph::probe`], which also gives the Figure-9 verdict on
    /// a new submission while the check is on), draw or keep its id,
    /// link it and register its slot state, id, status and deadline.
    ///
    /// Every entry point runs this in a loop, in submission order, under
    /// one lock. Earlier members of the loop are linked by the time a
    /// later one is probed, so the probe sees them as residents and its
    /// early exit is the whole verdict. A refused query leaves no trace:
    /// the id is drawn after the verdict.
    fn admit(
        &mut self,
        mut query: EntangledQuery,
        opts: SubmitOptions,
        id: IdFrom<'_>,
    ) -> Result<QueryId, SubmitError> {
        debug_assert!(query.validate().is_ok(), "callers validate first");
        query.rename_apart_in_place(&self.gen);
        let check = self.config.admission_safety_check && matches!(id, IdFrom::Draw(_));
        if self
            .graph
            .probe(&query, check, &mut self.edge_buf)
            .is_break()
        {
            return Err(SubmitError::Unsafe);
        }
        let id = match id {
            IdFrom::Draw(source) => self.draw_id(source),
            IdFrom::Own => query.id,
        };
        if let Some(deadline) = opts.deadline {
            self.deadlines.push(Reverse((deadline, id)));
            self.dated += 1;
        }
        let state = SlotState {
            on_no_solution: opts.on_no_solution,
            dated: opts.deadline.is_some(),
        };
        let slot = self.graph.link(query.with_id(id), &self.edge_buf);
        if self.slots.len() <= slot as usize {
            self.slots.resize_with(slot as usize + 1, || None);
        }
        self.slots[slot as usize] = Some(state);
        let entry = IdEntry {
            status: QueryStatus::Pending,
            slot,
        };
        self.ids.insert(id, entry);
        Ok(id)
    }

    /// Removes every pending query matching `pred` from this engine
    /// without retiring it — no outcome is logged, no terminal
    /// status is recorded — and returns the queries (ascending by id)
    /// for re-admission elsewhere. This is the donor half of the
    /// service's shard-merge migration. Each query takes its deadline
    /// along, read off the deadline heap in one pass; the heap entries
    /// stay behind as dead entries, like any other retirement's.
    pub(crate) fn extract_pending(
        &mut self,
        mut pred: impl FnMut(&EntangledQuery) -> bool,
    ) -> Vec<PendingQuery> {
        let victims: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&s| self.slots[s as usize].is_some() && pred(self.graph.query(s)))
            .collect();
        let dated: FastSet<QueryId> = victims
            .iter()
            .filter(|&&s| self.slots[s as usize].is_some_and(|state| state.dated))
            .map(|&s| self.graph.query(s).id)
            .collect();
        let deadlines: FastMap<QueryId, Instant> = self
            .deadlines
            .iter()
            .filter(|Reverse((_, id))| dated.contains(id))
            .map(|&Reverse((deadline, id))| (id, deadline))
            .collect();
        let mut out = Vec::with_capacity(victims.len());
        for slot in victims {
            let (query, state) = self.detach(slot).expect("victim slot live");
            // The id's entry travels with the query; the destination
            // re-inserts it on admission.
            self.ids.remove(&query.id);
            if state.dated {
                self.compact_deadlines();
            }
            let opts = SubmitOptions {
                deadline: deadlines.get(&query.id).copied(),
                on_no_solution: state.on_no_solution,
            };
            out.push(PendingQuery { query, opts });
        }
        out.sort_by_key(|m| m.query.id);
        out
    }

    /// Links queries the service acknowledged before — moved in from
    /// another shard, or back from the log at recovery — through the
    /// admission step, in order, under their own ids, policies and
    /// deadlines; an outcome retired before the move was drained where
    /// it happened, and one retired after it lands on this engine's
    /// log. Each is renamed apart against *this*
    /// engine's variable generator (the donor's names could collide
    /// here). None is judged by Figure 9 again: a migrated query passed
    /// it on admission, and merging disjoint connectivity groups admits
    /// no new unifiable pairs between them; a recovered one was
    /// acknowledged under whatever configuration wrote the log.
    /// Matching-time §3.1.1 enforcement still sidelines any ambiguity.
    /// Like every admission it evaluates nothing; linking marks the
    /// components dirty.
    pub(crate) fn readmit(&mut self, queries: Vec<PendingQuery>) {
        for PendingQuery { query, opts } in queries {
            self.admit(query, opts, IdFrom::Own)
                .expect("no verdict without the check");
        }
    }

    /// Submits a batch of queries: the engine's one admission step (edge
    /// probe, Figure-9 verdict, id, link) for each one in submission
    /// order, so ids, safety decisions and linked edges are exactly
    /// those of `n` individual submits — and into an empty engine the
    /// graph is [`MatchGraph::build`] of the admitted queries, edge id
    /// for edge id. Structurally invalid entries are refused in place.
    ///
    /// The call sweeps no deadline (the caller owns the clock:
    /// [`CoordinationEngine::expire_stale`]) and evaluates nothing: the
    /// admitted queries' components are left dirty for the next
    /// [`CoordinationEngine::flush`].
    ///
    /// `submit_batch` followed by `flush` is observationally equivalent
    /// to sequential submits followed by `flush` (same admission
    /// results, same terminal statuses) — property-tested in
    /// `tests/service_proptest.rs`.
    pub fn submit_batch(
        &mut self,
        batch: Vec<(EntangledQuery, SubmitOptions)>,
    ) -> Vec<Result<QueryHandle, SubmitError>> {
        let checked = batch.into_iter().map(|(query, opts)| {
            query.validate().map_err(SubmitError::Invalid)?;
            Ok((query, opts))
        });
        self.submit_batch_with_source(checked, None)
    }

    /// [`CoordinationEngine::submit_batch`] over entries already
    /// validated or refused (validation is pure, so the service runs it
    /// before routing and before any lock), drawing ids from an
    /// optional shared counter instead of the engine-local one — the
    /// sharded `Coordinator` routes submissions to independently locked
    /// engines but keeps one global id sequence. An id is drawn only
    /// after the Figure-9 verdict, so successful submissions draw
    /// exactly one id each and the sequence matches single-shard
    /// submission bit for bit.
    pub(crate) fn submit_batch_with_source(
        &mut self,
        batch: impl IntoIterator<Item = Result<(EntangledQuery, SubmitOptions), SubmitError>>,
        source: Option<&AtomicU64>,
    ) -> Vec<Result<QueryHandle, SubmitError>> {
        let batch = batch.into_iter();
        self.reserve(batch.size_hint().0);
        batch
            .map(|entry| self.submit_entry(entry, source))
            .collect()
    }

    /// One entry of [`CoordinationEngine::submit_batch_with_source`]: a
    /// new submission through the admission step.
    fn submit_entry(
        &mut self,
        entry: Result<(EntangledQuery, SubmitOptions), SubmitError>,
        source: Option<&AtomicU64>,
    ) -> Result<QueryHandle, SubmitError> {
        let (query, opts) = entry?;
        let id = self.admit(query, opts, IdFrom::Draw(source))?;
        Ok(QueryHandle { id })
    }

    /// Makes room for `n` admissions at once — the graph's slot vectors,
    /// the slot table and the id map — so a batch grows each of them
    /// once instead of doubling through it.
    fn reserve(&mut self, n: usize) {
        let slots = self.graph.len() + self.graph.reserve_slots(n);
        self.slots.reserve(slots.saturating_sub(self.slots.len()));
        self.ids.reserve(n);
    }

    /// Fails and removes every pending query whose deadline
    /// ([`SubmitOptions::deadline`]) is at or before `now`. The engine
    /// reads no clock: whoever drives it passes the time (the
    /// `Coordinator` reads the clock and sweeps before every submit and
    /// flush).
    pub fn expire_stale(&mut self, now: Instant) -> usize {
        let mut expired = 0;
        // Earliest first. Dead entries (queries that already left the
        // pool) are skipped.
        while let Some(&Reverse((t, id))) = self.deadlines.peek() {
            if t > now {
                break;
            }
            self.deadlines.pop();
            if let Some(slot) = self.pending_slot(id) {
                self.retire(slot, Err(FailReason::Stale));
                expired += 1;
            }
        }
        expired
    }

    /// Drops the deadline heap's dead entries once they outnumber its
    /// live ones — the posting lists' compaction rule — so a query that
    /// leaves the pool early holds heap space for a bounded time, not
    /// until its deadline. (A query that migrates away and back can
    /// leave two identical entries; the rebuild keeps one.)
    fn compact_deadlines(&mut self) {
        if self.deadlines.len() <= 2 * self.dated {
            return;
        }
        let mut live = std::mem::take(&mut self.deadlines).into_vec();
        live.retain(|Reverse((_, id))| self.pending_slot(*id).is_some());
        live.sort_unstable();
        live.dedup();
        self.deadlines = BinaryHeap::from(live);
    }

    /// Evaluates the dirty set — the engine's one evaluation: the
    /// components whose membership changed since they were last
    /// evaluated, or all of them if the database was written in between,
    /// taken and processed one after another under one database read
    /// guard. Clean components are skipped (reported in
    /// [`BatchReport::skipped_clean`]); with no change since the previous
    /// evaluation it evaluates zero components. Unmatched queries remain
    /// pending.
    pub fn flush(&mut self) -> BatchReport {
        let db = Arc::clone(&self.db);
        let db = db.read();
        if db.revision() != self.flushed_db_revision {
            self.flushed_db_revision = db.revision();
            self.graph.mark_all_dirty();
        }
        // Count skips before splits resolve: a split-pending dirty
        // component may become several groups, which must not eat into
        // the clean-skip count.
        let skipped = self.graph.component_count() - self.graph.dirty_count();
        let groups = self.graph.take_dirty();
        let mut report = self.process_groups(groups, &db);
        report.skipped_clean = skipped;
        report
    }

    /// Withdraws a pending query, failing it with
    /// [`FailReason::Cancelled`]. Returns false if the id is unknown or
    /// already terminal. Used by churn workloads and applications whose
    /// users abandon a coordination request.
    pub fn cancel(&mut self, id: QueryId) -> bool {
        let Some(slot) = self.pending_slot(id) else {
            return false;
        };
        self.retire(slot, Err(FailReason::Cancelled));
        true
    }

    /// Matches and evaluates component member groups straight off the
    /// match graph. Each group must be one weakly connected component
    /// (as produced by [`MatchGraph::take_dirty`]). Per group: §3.1.1
    /// safety enforcement sidelines ambiguous members (they stay
    /// pending), the survivors are re-partitioned (removals may
    /// disconnect them), and every piece is matched + evaluated in turn.
    fn process_groups(&mut self, groups: Vec<Vec<u32>>, db: &Database) -> BatchReport {
        let mut report = BatchReport::default();
        if groups.is_empty() {
            report.pending = self.pending_count();
            return report;
        }
        // Unifier-op accounting: diff the process-global counters
        // across the whole operation.
        let unify_before = eq_unify::ops::global();

        // Phase 1 (read-only but for the partition's scratch marks):
        // safety, partition, match, evaluate.
        let mut pieces: Vec<Vec<u32>> = Vec::with_capacity(groups.len());
        for group in groups {
            // Safety enforcement (§3.1.1) at matching time: ambiguous
            // queries sit out this round but stay pending — their
            // ambiguity may resolve when partners retire. (The
            // admission-time check, when enabled, makes this a no-op.)
            let removed = safety::enforce_members(&self.graph, &group);
            if removed.is_empty() {
                // A dirty group is a sorted connected component: its
                // own one piece.
                pieces.push(group);
                continue;
            }
            let removed: FastSet<u32> = removed.into_iter().collect();
            let live: Vec<u32> = group.into_iter().filter(|s| !removed.contains(s)).collect();
            pieces.extend(self.graph.connected_pieces(&live));
        }
        report.components = pieces.len();
        let graph = &self.graph;
        let outcomes: Vec<ComponentOutcome> = pieces
            .iter()
            .map(|piece| process_component(graph, piece, db, &mut report))
            .collect();

        // Phase 2: deliver outcomes and retire queries.
        // Retirement unlinks slots from the match graph, re-marking
        // partially-retired components dirty — the next flush re-checks
        // whatever remains pending in them.
        for outcome in outcomes {
            for (slot, answer) in outcome.answered {
                self.retire(slot, Ok(answer));
                report.answered += 1;
            }
            for (slot, reason) in outcome.failed {
                self.retire(slot, Err(FailReason::Rejected(reason)));
                report.failed += 1;
            }
            // A matched component without a database solution: apply
            // each member's effective no-solution policy — Reject
            // members fail, KeepPending members stay for a retry when
            // their component or the database changes.
            for slot in outcome.no_solution {
                if self.effective_no_solution(slot) == NoSolutionPolicy::Reject {
                    self.retire(slot, Err(FailReason::Rejected(RejectReason::NoSolution)));
                    report.failed += 1;
                }
            }
            // Unmatched stay pending.
        }
        report.pending = self.pending_count();
        let unify_delta = eq_unify::ops::global().delta_since(&unify_before);
        report.unify_merges = unify_delta.merges;
        report.unify_clones = unify_delta.clones;
        report
    }

    /// The no-solution policy in force for a live slot: its per-query
    /// override, or the engine-wide default.
    fn effective_no_solution(&self, slot: u32) -> NoSolutionPolicy {
        self.slots[slot as usize]
            .as_ref()
            .and_then(|p| p.on_no_solution)
            .unwrap_or(self.config.on_no_solution)
    }

    /// Takes the query at `slot` out of the pending pool — slot state
    /// and the graph (atom indexes, O(arity) per atom whatever the pool
    /// size; incident edges; component) — and frees the slot. The id's
    /// entry and the outcome log are the caller's. `None` if the slot is
    /// not live.
    fn detach(&mut self, slot: u32) -> Option<(EntangledQuery, SlotState)> {
        let state = self.slots[slot as usize].take()?;
        let query = self.graph.unlink(slot);
        if state.dated {
            self.dated -= 1;
        }
        Some((query, state))
    }

    /// Removes a query from all engine state, records its terminal
    /// status in its id's entry (the one lookup of a retirement) and
    /// moves its outcome onto the outcome log.
    fn retire(&mut self, slot: u32, outcome: Result<QueryAnswer, FailReason>) {
        let Some((query, state)) = self.detach(slot) else {
            return;
        };
        let id = query.id;

        let (status, outcome) = match outcome {
            Ok(answer) => (QueryStatus::Answered, QueryOutcome::Answered(answer)),
            Err(reason) => (
                QueryStatus::Failed(reason.clone()),
                QueryOutcome::Failed(reason),
            ),
        };
        let entry = self.ids.get_mut(&id).expect("a pending query has an entry");
        *entry = IdEntry {
            status,
            slot: NO_SLOT,
        };
        self.outcome_log.push((id, outcome));
        if state.dated {
            self.compact_deadlines();
        }
    }

    /// Structural invariant check over the whole engine, for tests and
    /// debugging: the match graph is internally consistent
    /// ([`MatchGraph`]'s edges, components and atom indexes), the slot
    /// table holds state for exactly the linked slots, and the id map
    /// names exactly the linked slots as pending. Violations are typed ([`InvariantViolation`]) and fold
    /// into [`crate::CoordinationError`].
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.graph.check_invariants()?;
        let mut live = 0usize;
        for slot in 0..self.graph.len() as u32 {
            let held = self.slots.get(slot as usize).is_some_and(Option::is_some);
            if held != self.graph.is_linked(slot) {
                return Err(InvariantViolation::IdMapMismatch { slot });
            }
            if !held {
                continue;
            }
            live += 1;
            let entry = self.ids.get(&self.graph.query(slot).id);
            if entry.is_none_or(|e| e.pending() != Some(slot) || e.status != QueryStatus::Pending) {
                return Err(InvariantViolation::IdMapMismatch { slot });
            }
        }
        let ids = self.ids.values().filter(|e| e.pending().is_some()).count();
        if ids != live {
            return Err(InvariantViolation::IdMapSizeMismatch { ids, live });
        }
        Ok(())
    }

    /// The queries that §3.1.1 enforcement would sideline if a flush
    /// ran now: per component, the removal fixpoint over ambiguous
    /// postconditions. These queries stay pending through flushes until
    /// their ambiguity resolves; one-shot coordination reports them as
    /// unsafe.
    pub fn safety_sidelined(&self) -> Vec<QueryId> {
        let components = self.graph.components();
        components
            .iter()
            .flat_map(|c| safety::enforce_members(&self.graph, c))
            .map(|slot| self.graph.query(slot).id)
            .collect()
    }

    /// Number of slot positions ever allocated (reuse means this stays
    /// near the peak pending count, not the total submission count).
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// The pending pool's match graph: its queries by slot, edges and
    /// components.
    pub fn graph(&self) -> &MatchGraph {
        &self.graph
    }
}

/// Result of processing one component: outcomes keyed by engine slot.
/// `no_solution` members matched but found no database tuple; the
/// engine's retirement phase applies each one's no-solution policy
/// (policies are per-query state, which the read-only evaluation phase
/// does not see).
struct ComponentOutcome {
    answered: Vec<(u32, QueryAnswer)>,
    failed: Vec<(u32, RejectReason)>,
    no_solution: Vec<u32>,
}

/// Evaluates one coordinating set's combined query, simplified under
/// the global unifier: the body is partitioned into variable-disjoint
/// work units evaluated one by one ([`intra`]; shared-variable units
/// split into regions wherever their variable graph has an articulation
/// variable). Returns the first coordinated solution (one answer per
/// survivor, in survivor order) and adds the plan's counters to
/// `report`.
fn evaluate_simplified(
    simplified: Simplified,
    db: &Database,
    report: &mut BatchReport,
) -> Result<Option<Vec<QueryAnswer>>, eq_db::DbError> {
    let plan = intra::partition(simplified);
    report.intra_components += 1;
    report.intra_units += plan.units.len();
    for rp in plan.units.iter().filter_map(|u| u.regions.as_ref()) {
        report.intra_split_units += 1;
        report.intra_regions += rp.regions.len();
    }
    let (answers, stats) = intra::evaluate_plan(&plan, db)?;
    report.intra_region_streamed += stats.region_streamed;
    report.intra_witness_peak = report.intra_witness_peak.max(stats.witness_peak);
    Ok(answers)
}

/// Matches one component and evaluates each of its coordinating sets
/// alone, so one set's missing solution or database error never fails
/// another. Members matching removed stay pending — their partners may
/// still arrive. Matching and evaluation counters go to `report`.
fn process_component(
    graph: &MatchGraph,
    members: &[u32],
    db: &Database,
    report: &mut BatchReport,
) -> ComponentOutcome {
    let matching::ComponentMatch {
        mut global,
        sets,
        non_ucs,
        stats,
        ..
    } = matching::match_component(graph, members);
    report.stats.dequeues += stats.dequeues;
    report.stats.mgu_calls += stats.mgu_calls;
    report.stats.cleanups += stats.cleanups;
    let mut out = ComponentOutcome {
        answered: Vec::new(),
        failed: Vec::new(),
        no_solution: Vec::new(),
    };
    // §3.1.2: a piece of the survivors spanning several SCCs is never
    // evaluated as one combined query.
    for &s in &non_ucs {
        out.failed.push((s, RejectReason::NonUcs));
    }
    for (i, set) in sets.iter().enumerate() {
        // The all-survivor fold conflicts only inside a non-UCS piece;
        // then each set folds its own unifier by matching alone (it has
        // no in-edge from outside itself, so it matches to itself).
        let simplified = match &global {
            Some(global) => combine::simplify_survivors(graph, set, global),
            None => match matching::match_component(graph, set).global {
                Some(own) => combine::simplify_survivors(graph, set, &own),
                None => continue, // unreachable: a coordinating set matches alone
            },
        };
        // The simplified body borrows nothing: the global goes as soon
        // as the last set no longer needs it, before that set's plan is
        // built.
        if i + 1 == sets.len() {
            global = None;
        }
        match evaluate_simplified(simplified, db, report) {
            // `answers` is parallel to `set`.
            Ok(Some(answers)) => out.answered.extend(set.iter().copied().zip(answers)),
            // Policy application happens on the engine's sequential
            // phase (per-query overrides live in the slot table).
            Ok(None) => out.no_solution.extend_from_slice(set),
            // Unknown relation / arity error in some body: fail those
            // queries rather than poisoning the component forever.
            Err(_) => out
                .failed
                .extend(set.iter().map(|&s| (s, RejectReason::NoSolution))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::Value;
    use eq_sql::parse_ir_query;
    use std::time::Duration;

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

    /// The engine's outcome log, drained into a map keyed by id.
    fn drained(engine: &mut CoordinationEngine) -> FastMap<QueryId, QueryOutcome> {
        engine.drain_outcome_log().into_iter().collect()
    }

    /// Everything a refused admission must leave untouched: the id
    /// watermark, slot table, resident edges and both atom indexes.
    fn admission_footprint(e: &CoordinationEngine) -> [usize; 5] {
        e.check_invariants().unwrap();
        [
            e.next_id as usize,
            e.slot_capacity(),
            e.graph.edge_count(),
            e.graph.head_index().len(),
            e.graph.pc_index().len(),
        ]
    }

    #[test]
    fn admission_never_evaluates_even_under_an_incremental_config() {
        // The default config names the incremental cadence, which is the
        // service's to apply: a bare engine's submits only admit, so a
        // matching pair stays pending, with nothing on the outcome log,
        // until the caller flushes.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        assert_eq!(EngineConfig::default().mode, EngineMode::Incremental);
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let batch = vec![(
            q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
            SubmitOptions::default(),
        )];
        let h2 = engine.submit_batch(batch).pop().unwrap().unwrap();
        for h in [&h1, &h2] {
            assert_eq!(engine.status(h.id), Some(&QueryStatus::Pending));
        }
        assert!(engine.drain_outcome_log().is_empty());
        assert_eq!(engine.pending_count(), 2);

        let report = engine.flush();
        assert_eq!((report.answered, report.pending), (2, 0));
        let out = drained(&mut engine);
        assert!(out.values().all(|o| matches!(o, QueryOutcome::Answered(_))));
        assert!(out.contains_key(&h1.id) && out.contains_key(&h2.id));
    }

    #[test]
    fn incremental_pair_coordinates_on_second_arrival() {
        // The incremental cadence, driven by hand: a flush after every
        // submit.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        assert_eq!(engine.flush().pending, 1);
        assert_eq!(engine.status(h1.id), Some(&QueryStatus::Pending));
        assert!(!drained(&mut engine).contains_key(&h1.id));

        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)"))
            .unwrap();
        // Both answered by the flush after the second submit.
        assert_eq!(engine.flush().answered, 2);
        let mut out = drained(&mut engine);
        let o1 = out.remove(&h1.id).unwrap();
        let o2 = out.remove(&h2.id).unwrap();
        let (QueryOutcome::Answered(a1), QueryOutcome::Answered(a2)) = (o1, o2) else {
            panic!("expected both answered");
        };
        assert_eq!(a1.tuples[0][1], a2.tuples[0][1]);
        assert_eq!(engine.pending_count(), 0);
        assert_eq!(engine.status(h1.id), Some(&QueryStatus::Answered));
    }

    #[test]
    fn set_at_a_time_waits_for_flush() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        assert_eq!(engine.pending_count(), 2);
        assert!(!drained(&mut engine).contains_key(&h1.id));
        let report = engine.flush();
        assert_eq!(report.answered, 2);
        assert_eq!(report.pending, 0);
        assert!(matches!(
            drained(&mut engine).remove(&h2.id).unwrap(),
            QueryOutcome::Answered(_)
        ));
    }

    #[test]
    fn unmatched_queries_stay_pending_across_flushes() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let report = engine.flush();
        assert_eq!(report.answered, 0);
        assert_eq!(report.pending, 1);
        assert!(!drained(&mut engine).contains_key(&h.id));
        // Partner arrives; next flush coordinates.
        let _h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let report = engine.flush();
        assert_eq!(report.answered, 2);
    }

    #[test]
    fn admission_safety_check_rejects_second_satisfier() {
        // Two pending heads R(*, ITH); a new query whose pc unifies both
        // is rejected (Figure 9 semantics).
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        engine
            .submit(q("{R(Kramer, ITH)} R(Jerry, ITH) <- F(x, Paris)"))
            .unwrap();
        engine
            .submit(q("{R(Kramer, ITH)} R(Elaine, ITH) <- F(y, Paris)"))
            .unwrap();
        let err = engine
            .submit(q("{R(p, ITH)} R(Kramer, ITH) <- F(p, Paris)"))
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsafe);

        // A head that would give a pending pc its second satisfier is
        // also rejected: both pending queries' pcs R(Kramer, ITH) already
        // have... none; give one a satisfier first.
        engine
            .submit(q("{R(Jerry, ITH)} R(Kramer, ITH) <- F(z, Paris)"))
            .unwrap();
        // Now R(Kramer, ITH) pcs of q1/q2 each have one satisfier; a new
        // provider of R(Kramer, ITH) would be a second one.
        let err = engine
            .submit(q("{} R(Kramer, ITH) <- F(w, Paris)"))
            .unwrap_err();
        assert_eq!(err, SubmitError::Unsafe);

        // Figure 9's shape: k resident heads on one hub, and an arrival
        // whose wildcard postcondition unifies with all of them. Both
        // entry points refuse it the same way and leave no trace.
        for i in 0..5 {
            let resident = format!("{{R(Ghost{i}, HUB)}} R(Res{i}, HUB) <- F(h{i}, Paris)");
            engine.submit(q(&resident)).unwrap();
        }
        let arrival = q("{R(x, HUB)} R(Att, Elsewhere) <- F(x, Paris)");
        let before = admission_footprint(&engine);
        assert_eq!(
            engine.submit(arrival.clone()).unwrap_err(),
            SubmitError::Unsafe
        );
        assert_eq!(admission_footprint(&engine), before);
        let mut batched = engine.submit_batch(vec![(arrival.clone(), SubmitOptions::default())]);
        assert_eq!(batched.pop().unwrap().unwrap_err(), SubmitError::Unsafe);
        assert_eq!(admission_footprint(&engine), before);
        // The probe stops unifying at the verdict — the second head —
        // and finds all five when nothing is being decided.
        let renamed = arrival.rename_apart(&engine.gen);
        let mut edges = Vec::new();
        assert!(engine.graph.probe(&renamed, true, &mut edges).is_break());
        assert_eq!(edges.len(), 2);
        assert!(engine
            .graph
            .probe(&renamed, false, &mut edges)
            .is_continue());
        assert_eq!(edges.len(), 5);
    }

    #[test]
    fn staleness_fails_old_queries() {
        // A stale query fails at the next sweep, which its caller runs
        // with its own clock; a partner arriving after that sweep finds
        // nobody to coordinate with.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let h1 = engine
            .submit_with(
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                SubmitOptions {
                    deadline: Some(t0 + ms(1)),
                    ..Default::default()
                },
            )
            .unwrap();
        // The partner arrives too late: the sweep before its submit
        // expires h1.
        assert_eq!(engine.expire_stale(t0 + ms(5)), 1);
        let h2 = engine
            .submit_with(
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
                SubmitOptions {
                    deadline: Some(t0 + ms(6)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            drained(&mut engine).remove(&h1.id).unwrap(),
            QueryOutcome::Failed(FailReason::Stale)
        );
        assert_eq!(engine.expire_stale(t0 + ms(10)), 1);
        assert_eq!(engine.flush().answered, 0);
        assert_eq!(
            drained(&mut engine).remove(&h2.id).unwrap(),
            QueryOutcome::Failed(FailReason::Stale)
        );
        assert_eq!(engine.pending_count(), 0);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn no_solution_reject_policy() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
            .unwrap();
        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
            .unwrap();
        assert_eq!(engine.flush().failed, 2);
        let mut out = drained(&mut engine);
        assert_eq!(
            out.remove(&h1.id).unwrap(),
            QueryOutcome::Failed(FailReason::Rejected(RejectReason::NoSolution))
        );
        assert!(matches!(
            out.remove(&h2.id).unwrap(),
            QueryOutcome::Failed(_)
        ));
    }

    #[test]
    fn no_solution_keep_pending_policy_retries_after_db_update() {
        let mut engine = CoordinationEngine::new(
            flight_db(),
            EngineConfig {
                on_no_solution: NoSolutionPolicy::KeepPending,
                ..Default::default()
            },
        );
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
            .unwrap();
        let _h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
            .unwrap();
        let report = engine.flush();
        assert_eq!(report.answered, 0);
        assert_eq!(report.pending, 2);
        // An Athens flight appears.
        engine
            .db()
            .write()
            .insert("F", vec![Value::int(200), Value::str("Athens")])
            .unwrap();
        let report = engine.flush();
        assert_eq!(report.answered, 2);
        assert!(matches!(
            drained(&mut engine).remove(&h1.id).unwrap(),
            QueryOutcome::Answered(_)
        ));
    }

    #[test]
    fn flush_answers_every_independent_component() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        for i in 0..20 {
            let a = format!("U{i}a");
            let b = format!("U{i}b");
            engine
                .submit(q(&format!("{{R({b}, ITH)}} R({a}, ITH) <- F(x{i}, Paris)")))
                .unwrap();
            engine
                .submit(q(&format!("{{R({a}, ITH)}} R({b}, ITH) <- F(y{i}, Paris)")))
                .unwrap();
        }
        let report = engine.flush();
        assert_eq!(report.answered, 40);
        assert_eq!(report.components, 20);
    }

    #[test]
    fn incremental_partition_isolation() {
        // Submitting a new pair must not re-trigger work on unrelated
        // pending queries: with a flush after every submit, the last one
        // evaluates the pair's component alone and skips the lonely
        // query's, which stays pending and unanswered.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let lonely = engine
            .submit(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
            .unwrap();
        engine.flush();
        engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        engine.flush();
        engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let report = engine.flush();
        assert_eq!((report.components, report.skipped_clean), (1, 1));
        assert_eq!(report.answered, 2);
        assert_eq!(engine.pending_count(), 1);
        assert!(!drained(&mut engine).contains_key(&lonely.id));
    }

    #[test]
    fn invalid_query_rejected_at_submit() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let err = engine
            .submit(EntangledQuery::new(vec![], vec![], vec![]))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Invalid(_)));
    }

    #[test]
    fn slots_are_reused_after_retirement() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        for _ in 0..5 {
            let h1 = engine
                .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
                .unwrap();
            let _h2 = engine
                .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
                .unwrap();
            engine.flush();
            assert!(matches!(
                drained(&mut engine).remove(&h1.id).unwrap(),
                QueryOutcome::Answered(_)
            ));
        }
        // Ten queries processed, but only two slots ever allocated.
        assert!(engine.slots.len() <= 4, "slots: {}", engine.slots.len());
    }

    #[test]
    fn flush_with_no_changes_evaluates_zero_components() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        // Two queries that never coordinate (different destinations).
        engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        engine
            .submit(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
            .unwrap();
        let first = engine.flush();
        assert_eq!(first.components, 2);
        assert_eq!(first.pending, 2);
        // Nothing changed: the dirty set is empty, both resident
        // components are skipped, and no matching work happens.
        let second = engine.flush();
        assert_eq!(second.components, 0);
        assert_eq!(second.skipped_clean, 2);
        assert_eq!(second.stats.mgu_calls, 0);
        assert_eq!(second.pending, 2);
        // A new submission dirties exactly the component it joins.
        engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let third = engine.flush();
        assert_eq!(third.components, 1);
        assert_eq!(third.skipped_clean, 1);
        assert_eq!(third.answered, 2);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn db_write_re_dirties_kept_pending_components() {
        let mut engine = CoordinationEngine::new(
            flight_db(),
            EngineConfig {
                on_no_solution: NoSolutionPolicy::KeepPending,
                ..Default::default()
            },
        );
        engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
            .unwrap();
        engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
            .unwrap();
        assert_eq!(engine.flush().components, 1);
        // Clean now; an unrelated flush skips it.
        assert_eq!(engine.flush().components, 0);
        // A database write invalidates every kept-pending component.
        engine
            .db()
            .write()
            .insert("F", vec![Value::int(900), Value::str("Athens")])
            .unwrap();
        let report = engine.flush();
        assert_eq!(report.components, 1);
        assert_eq!(report.answered, 2);
    }

    #[test]
    fn cancel_fails_pending_query_and_cleans_state() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        assert!(engine.cancel(h.id));
        assert_eq!(
            drained(&mut engine).remove(&h.id).unwrap(),
            QueryOutcome::Failed(FailReason::Cancelled)
        );
        assert_eq!(engine.pending_count(), 0);
        assert!(!engine.cancel(h.id), "already terminal");
        engine.check_invariants().unwrap();
        // The cancelled partner is gone: the arriving partner finds
        // nobody and stays pending.
        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        assert_eq!(engine.flush().pending, 1);
        assert!(!drained(&mut engine).contains_key(&h2.id));
    }

    #[test]
    fn resident_state_shrinks_back_after_churn() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        for round in 0..10 {
            let a = format!("A{round}");
            let b = format!("B{round}");
            engine
                .submit(q(&format!("{{R({b}, x)}} R({a}, x) <- F(x, Paris)")))
                .unwrap();
            engine
                .submit(q(&format!("{{R({a}, y)}} R({b}, y) <- F(y, Paris)")))
                .unwrap();
            let report = engine.flush();
            assert_eq!(report.answered, 2);
            engine.check_invariants().unwrap();
        }
        assert_eq!(engine.graph.edge_count(), 0);
        assert_eq!(engine.graph.component_count(), 0);
        assert!(
            engine.slot_capacity() <= 4,
            "slots: {}",
            engine.slot_capacity()
        );
        // Twenty distinct user constants went through the indexes; no
        // posting or relation list may outlive its last atom.
        let (heads, pcs) = (engine.graph.head_index(), engine.graph.pc_index());
        assert!(heads.is_empty() && pcs.is_empty());
        assert_eq!(heads.list_count(), 0);
        assert_eq!(pcs.list_count(), 0);
    }

    #[test]
    fn deadline_heap_compacts_once_dead_entries_outnumber_live_ones() {
        // 10k queries with a one-hour deadline, each pair answered by
        // the flush after its second submit: without compaction every one would leave its
        // heap entry behind for the hour.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let hour = || SubmitOptions {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..Default::default()
        };
        let lonely = engine
            .submit_with(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"), hour())
            .unwrap();
        for round in 0..5_000 {
            let (a, b) = (format!("A{round}"), format!("B{round}"));
            let first = engine
                .submit_with(
                    q(&format!("{{R({b}, x)}} R({a}, x) <- F(x, Paris)")),
                    hour(),
                )
                .unwrap();
            let second = engine
                .submit_with(
                    q(&format!("{{R({a}, y)}} R({b}, y) <- F(y, Paris)")),
                    hour(),
                )
                .unwrap();
            engine.flush();
            let mut out = drained(&mut engine);
            for handle in [first, second] {
                assert!(matches!(
                    out.remove(&handle.id),
                    Some(QueryOutcome::Answered(_))
                ));
            }
            assert!(engine.deadlines.len() <= 2 * engine.pending_count());
        }
        assert_eq!(engine.pending_count(), 1);
        // The live entry survived every compaction.
        assert!(engine.cancel(lonely.id));
        assert!(engine.deadlines.is_empty());
    }

    #[test]
    fn submit_batch_matches_sequential_submits() {
        // Same queries, one as a batch, one sequentially: identical
        // admission results and identical statuses after one flush —
        // with the safety check ON, so intra-batch safety accounting is
        // exercised (`tests/service_proptest.rs` churns this).
        let texts: Vec<String> = (0..6)
            .flat_map(|i| {
                vec![
                    format!("{{R(B{i}, ITH)}} R(A{i}, ITH) <- F(x{i}, Paris)"),
                    format!("{{R(A{i}, ITH)}} R(B{i}, ITH) <- F(y{i}, Paris)"),
                ]
            })
            .chain([
                // Ambiguous arrivals: a second provider of R(A0, ITH)
                // and a pc unifying two admitted heads.
                "{R(A0, ITH)} R(B0, ITH) <- F(z, Paris)".to_owned(),
                "{R(p, ITH)} R(Solo, ITH) <- F(p, Paris)".to_owned(),
            ])
            .collect();
        let config = EngineConfig {
            admission_safety_check: true,
            ..Default::default()
        };

        let mut seq = CoordinationEngine::new(flight_db(), config.clone());
        let seq_results: Vec<_> = texts.iter().map(|t| seq.submit(q(t))).collect();
        seq.flush();

        let mut bat = CoordinationEngine::new(flight_db(), config);
        let bat_results = bat.submit_batch(
            texts
                .iter()
                .map(|t| (q(t), SubmitOptions::default()))
                .collect(),
        );
        bat.flush();

        for (i, (s, b)) in seq_results.iter().zip(&bat_results).enumerate() {
            match (s, b) {
                (Ok(hs), Ok(hb)) => {
                    assert_eq!(hs.id, hb.id, "ids diverge at {i}");
                    assert_eq!(
                        seq.status(hs.id),
                        bat.status(hb.id),
                        "statuses diverge at {i}"
                    );
                }
                (Err(es), Err(eb)) => assert_eq!(es, eb, "errors diverge at {i}"),
                other => panic!("admission diverges at {i}: {other:?}"),
            }
        }
        bat.check_invariants().unwrap();
        seq.check_invariants().unwrap();

        // One resident head on a hub, then a second head and a wildcard
        // arrival: the batch member supplies the arrival's second hit
        // exactly as the sequential submit before it does, and the
        // refusal leaves both engines as they were.
        let resident = "{R(Ghost, HUB)} R(Res, HUB) <- F(r, Paris)";
        let member = "{R(Ghost2, HUB)} R(Mem, HUB) <- F(m, Paris)";
        let arrival = "{R(w, HUB)} R(Att, Elsewhere) <- F(w, Paris)";
        seq.submit(q(resident)).unwrap();
        bat.submit(q(resident)).unwrap();
        let member_id = seq.submit(q(member)).unwrap().id;
        let before = admission_footprint(&seq);
        assert_eq!(seq.submit(q(arrival)).unwrap_err(), SubmitError::Unsafe);
        assert_eq!(admission_footprint(&seq), before);
        let mut results = bat.submit_batch(vec![
            (q(member), SubmitOptions::default()),
            (q(arrival), SubmitOptions::default()),
        ]);
        assert_eq!(results.pop().unwrap().unwrap_err(), SubmitError::Unsafe);
        assert_eq!(results.pop().unwrap().unwrap().id, member_id);
        assert_eq!(admission_footprint(&bat), before);
    }

    #[test]
    fn submit_batch_incremental_evaluates_once_at_the_end() {
        // The batch only admits (its invalid entry is refused in place);
        // the one flush after it answers the pair.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let results = engine.submit_batch(vec![
            (
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                SubmitOptions::default(),
            ),
            (
                q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"),
                SubmitOptions::default(),
            ),
            (
                EntangledQuery::new(vec![], vec![], vec![]),
                SubmitOptions::default(),
            ),
        ]);
        assert!(matches!(results[2], Err(SubmitError::Invalid(_))));
        assert!(engine.drain_outcome_log().is_empty());
        assert_eq!(engine.flush().answered, 2);
        let mut out = drained(&mut engine);
        for r in &results[..2] {
            let h = r.as_ref().unwrap();
            assert!(matches!(
                out.remove(&h.id).unwrap(),
                QueryOutcome::Answered(_)
            ));
        }
        assert_eq!(engine.pending_count(), 0);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn per_query_deadline_expires_only_that_query() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let t0 = Instant::now();
        let doomed = engine
            .submit_with(
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                SubmitOptions {
                    deadline: Some(t0 + Duration::from_millis(1)),
                    ..Default::default()
                },
            )
            .unwrap();
        let patient = engine
            .submit(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
            .unwrap();
        assert_eq!(engine.expire_stale(t0 + Duration::from_millis(5)), 1);
        let mut out = drained(&mut engine);
        assert_eq!(
            out.remove(&doomed.id).unwrap(),
            QueryOutcome::Failed(FailReason::Stale)
        );
        assert!(!out.contains_key(&patient.id));
        assert_eq!(engine.pending_count(), 1);
        engine.check_invariants().unwrap();
    }

    #[test]
    fn deadline_is_inclusive_at_the_sweep_time() {
        // A query with deadline `t` survives a sweep at any earlier
        // instant and expires at the sweep at `t` itself.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let t = Instant::now() + Duration::from_secs(1);
        let h = engine
            .submit_with(
                q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
                SubmitOptions {
                    deadline: Some(t),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(engine.expire_stale(t - Duration::from_nanos(1)), 0);
        assert_eq!(engine.status(h.id), Some(&QueryStatus::Pending));
        assert_eq!(engine.expire_stale(t), 1);
        assert_eq!(
            drained(&mut engine).remove(&h.id).unwrap(),
            QueryOutcome::Failed(FailReason::Stale)
        );
    }

    #[test]
    fn per_query_no_solution_policy_overrides_engine_default() {
        // Engine default rejects on no-solution; the pair opts into
        // KeepPending and survives the miss, coordinating after the
        // database gains an Athens flight.
        let mut engine = CoordinationEngine::new(
            flight_db(),
            EngineConfig {
                on_no_solution: NoSolutionPolicy::Reject,
                ..Default::default()
            },
        );
        let opts = SubmitOptions {
            on_no_solution: Some(NoSolutionPolicy::KeepPending),
            ..Default::default()
        };
        let h1 = engine
            .submit_with(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"), opts)
            .unwrap();
        let _h2 = engine
            .submit_with(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"), opts)
            .unwrap();
        assert_eq!(engine.flush().pending, 2);
        assert!(!drained(&mut engine).contains_key(&h1.id));
        engine
            .db()
            .write()
            .insert("F", vec![Value::int(200), Value::str("Athens")])
            .unwrap();
        assert_eq!(engine.flush().answered, 2);
    }

    #[test]
    fn outcome_log_records_every_terminal_transition() {
        // A bare engine with nothing subscribed and nothing switched on
        // still fills its log: one entry per retired id, whatever the
        // way out.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let t0 = Instant::now();
        let stale = engine
            .submit_with(
                q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"),
                SubmitOptions {
                    deadline: Some(t0 + Duration::from_millis(1)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(engine.expire_stale(t0 + Duration::from_millis(5)), 1);
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let r1 = engine
            .submit(q("{R(George, u)} R(Elaine, u) <- F(u, Athens)"))
            .unwrap();
        let r2 = engine
            .submit(q("{R(Elaine, v)} R(George, v) <- F(v, Athens)"))
            .unwrap();
        engine.flush();
        let lonely = engine
            .submit(q("{R(Puddy, w)} R(Bania, w) <- F(w, Rome)"))
            .unwrap();
        assert!(engine.cancel(lonely.id));

        // A query that moves to another engine (shard migration) leaves
        // no entry behind; its outcome lands on the destination's log.
        let moved = engine
            .submit(q("{R(Babu, m)} R(Soup, m) <- F(m, Rome)"))
            .unwrap();
        let lifted = engine.extract_pending(|query| query.id == moved.id);
        assert_eq!(lifted.len(), 1);
        let mut other = CoordinationEngine::new(flight_db(), EngineConfig::default());
        other.readmit(lifted);
        assert_eq!(other.status(moved.id), Some(&QueryStatus::Pending));
        assert!(
            other.drain_outcome_log().is_empty(),
            "readmission retires nothing"
        );

        let log = engine.drain_outcome_log();
        let expected = [
            (stale.id, Some(QueryOutcome::Failed(FailReason::Stale))),
            (h1.id, None),
            (h2.id, None),
            (
                r1.id,
                Some(QueryOutcome::Failed(FailReason::Rejected(
                    RejectReason::NoSolution,
                ))),
            ),
            (
                r2.id,
                Some(QueryOutcome::Failed(FailReason::Rejected(
                    RejectReason::NoSolution,
                ))),
            ),
            (lonely.id, Some(QueryOutcome::Failed(FailReason::Cancelled))),
        ];
        assert_eq!(log.len(), expected.len());
        for (id, failure) in expected {
            let entries: Vec<&QueryOutcome> = log
                .iter()
                .filter(|(logged, _)| *logged == id)
                .map(|(_, o)| o)
                .collect();
            assert_eq!(entries.len(), 1, "{id:?} is logged exactly once");
            match failure {
                Some(failure) => assert_eq!(entries[0], &failure),
                None => assert!(matches!(entries[0], QueryOutcome::Answered(_))),
            }
        }
        assert!(log.iter().all(|(id, _)| *id != moved.id));
        assert!(engine.drain_outcome_log().is_empty(), "drained");

        assert!(other.cancel(moved.id));
        assert_eq!(
            other.drain_outcome_log(),
            vec![(moved.id, QueryOutcome::Failed(FailReason::Cancelled))]
        );
    }

    #[test]
    fn safety_accessors_report_violations_and_sidelined() {
        let mut engine = CoordinationEngine::new(
            flight_db(),
            EngineConfig {
                admission_safety_check: false,
                ..Default::default()
            },
        );
        engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        engine
            .submit(q("{R(Jerry, y)} R(Elaine, y) <- F(y, Rome)"))
            .unwrap();
        let ambiguous = engine
            .submit(q("{R(f, z)} R(Jerry, z) <- F(z, w), A(z, f)"))
            .unwrap();
        assert_eq!(engine.safety_sidelined(), vec![ambiguous.id]);
    }

    #[test]
    fn intra_partitioned_flush_matches_sequential_evaluation() {
        // A six-member ring entangled through ground heads, each with a
        // private-variable body: the engine partitions it into one unit
        // per member, and its answers must equal the whole-body join's
        // (`CombinedQuery::evaluate`) on the same coordinating set tuple
        // for tuple — the partitioned merge reproduces the join's answer
        // choice. Two United flights go to Paris, so each `B` head shows
        // which one was chosen.
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        for i in 0..6 {
            let me = format!("U{i}");
            let next = format!("U{}", (i + 1) % 6);
            engine
                .submit(q(&format!(
                    "{{R({next}, ITH)}} R({me}, ITH), B({me}, x{i}) <- F(x{i}, Paris), A(x{i}, United)"
                )))
                .unwrap();
        }
        let components = engine.graph().components();
        assert_eq!(components.len(), 1);
        let m = matching::match_component(engine.graph(), &components[0]);
        assert_eq!(m.sets.len(), 1);
        let combined = crate::CombinedQuery::build(engine.graph(), &m.sets[0], m.global.unwrap());
        let reference = combined.evaluate(&flight_db(), 1).unwrap().remove(0);
        assert_eq!(reference.len(), 6);

        let report = engine.flush();
        engine.check_invariants().unwrap();
        assert_eq!(report.answered, 6);
        assert_eq!(report.intra_components, 1);
        assert!(report.intra_units >= 6, "units: {}", report.intra_units);
        let mut out = drained(&mut engine);
        for answer in reference {
            assert_eq!(
                out.remove(&answer.query),
                Some(QueryOutcome::Answered(answer))
            );
        }
        assert!(out.is_empty());
    }

    #[test]
    fn intra_partitioned_no_solution_respects_policies() {
        // A component with an unsatisfiable unit: all members fail
        // under Reject, stay under KeepPending.
        for (policy, expect_pending) in [
            (NoSolutionPolicy::Reject, 0usize),
            (NoSolutionPolicy::KeepPending, 2usize),
        ] {
            let mut engine = CoordinationEngine::new(
                flight_db(),
                EngineConfig {
                    on_no_solution: policy,
                    ..Default::default()
                },
            );
            engine
                .submit(q("{R(Kramer, ITH)} R(Jerry, ITH) <- F(x, Paris)"))
                .unwrap();
            engine
                .submit(q("{R(Jerry, ITH)} R(Kramer, ITH) <- F(y, Athens)"))
                .unwrap();
            let report = engine.flush();
            assert_eq!(report.answered, 0);
            assert_eq!(report.pending, expect_pending);
            assert_eq!(report.intra_components, 1);
        }
    }

    #[test]
    fn three_way_incremental() {
        let mut engine = CoordinationEngine::new(flight_db(), EngineConfig::default());
        let h1 = engine
            .submit(q("{R(Kramer, IAH)} R(Jerry, IAH) <- F(x, Paris)"))
            .unwrap();
        engine.flush();
        let h2 = engine
            .submit(q("{R(Elaine, IAH)} R(Kramer, IAH) <- F(y, Paris)"))
            .unwrap();
        engine.flush();
        assert!(!drained(&mut engine).contains_key(&h1.id));
        let h3 = engine
            .submit(q("{R(Jerry, IAH)} R(Elaine, IAH) <- F(z, Paris)"))
            .unwrap();
        assert_eq!(engine.flush().answered, 3);
        let mut out = drained(&mut engine);
        assert!(matches!(
            out.remove(&h1.id).unwrap(),
            QueryOutcome::Answered(_)
        ));
        assert!(matches!(
            out.remove(&h2.id).unwrap(),
            QueryOutcome::Answered(_)
        ));
        assert!(matches!(
            out.remove(&h3.id).unwrap(),
            QueryOutcome::Answered(_)
        ));
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

    /// Submits `texts`, flushes once, and returns
    /// each query's status.
    fn flush_statuses(texts: &[&str]) -> Vec<QueryStatus> {
        let mut engine = CoordinationEngine::new(twin_db(), EngineConfig::default());
        let handles: Vec<QueryHandle> =
            texts.iter().map(|t| engine.submit(q(t)).unwrap()).collect();
        engine.flush();
        handles
            .iter()
            .map(|h| engine.status(h.id).unwrap().clone())
            .collect()
    }

    #[test]
    fn each_coordinating_set_is_evaluated_alone() {
        // The bridge demands both pairs' heads and `Missing(D)`, which
        // nobody heads: CLEANUP removes it and leaves two two-cycles in
        // one component. The Y pair has no rows; that must not fail
        // the X pair.
        let statuses = flush_statuses(&[
            "{R(Xp, ITH)} R(X, ITH) <- F(X, Xp)",
            "{R(X, ITH)} R(Xp, ITH) <- F(Xp, X)",
            "{R(Yp, ITH)} R(Y, ITH) <- F(Y, Yp)",
            "{R(Y, ITH)} R(Yp, ITH) <- F(Yp, Y)",
            "{R(X, ITH) & R(Y, ITH) & Missing(D)} R(D, ITH) <- F(D, X)",
        ]);
        let no_solution = QueryStatus::Failed(FailReason::Rejected(RejectReason::NoSolution));
        assert_eq!(
            statuses,
            [
                QueryStatus::Answered,
                QueryStatus::Answered,
                no_solution.clone(),
                no_solution,
                QueryStatus::Pending,
            ]
        );
    }

    #[test]
    fn a_non_ucs_piece_fails_without_its_neighbour_set() {
        // The doomed bridge joins the X pair to a piece of several SCCs:
        // A → B, or a provider whose two consumers bind its variable to
        // 1 and to 2, so that the all-survivor fold conflicts as well
        // and the X pair must fold its own unifier. Only the piece
        // fails NonUcs.
        let pieces: [&[&str]; 2] = [
            &["{} A(C1) <- T(C1)", "{A(v)} B(v) <- T(v)"],
            &[
                "{} A(w) <- T(w)",
                "{A(1)} B(1) <- T(1)",
                "{A(2)} B(2) <- T(2)",
            ],
        ];
        for piece in pieces {
            let mut texts = vec![
                "{R(Xp, ITH)} R(X, ITH) <- F(X, Xp)",
                "{R(X, ITH)} R(Xp, ITH) <- F(Xp, X)",
            ];
            texts.extend_from_slice(piece);
            texts.push("{R(X, ITH) & B(1) & Missing(D)} R(D, ITH) <- F(D, X)");
            let non_ucs = QueryStatus::Failed(FailReason::Rejected(RejectReason::NonUcs));
            let mut expected = vec![QueryStatus::Answered, QueryStatus::Answered];
            expected.extend(piece.iter().map(|_| non_ucs.clone()));
            expected.push(QueryStatus::Pending);
            assert_eq!(flush_statuses(&texts), expected, "piece {piece:?}");
        }
    }

    #[test]
    fn safety_scan_walks_each_component_once() {
        // A count, not a timing: the scan groups the pool by one walk of
        // the component registry, so doubling a ring (one component)
        // doubles the member slots copied into groups; copying the
        // component once per member would quadruple them.
        use crate::graph::GROUP_STEPS;
        use std::cell::Cell;
        let steps = |n: usize| {
            let (db, queries) = eq_workload::giant_component(&eq_workload::GiantComponentConfig {
                queries: n,
                friends_per_user: 1,
                body: eq_workload::GiantBody::SharedChain,
            });
            let mut engine = CoordinationEngine::new(
                db,
                EngineConfig {
                    admission_safety_check: false,
                    ..Default::default()
                },
            );
            let batch = queries.into_iter().map(|q| (q, SubmitOptions::default()));
            let admitted = engine.submit_batch(batch.collect());
            assert!(admitted.iter().all(Result::is_ok));
            assert_eq!(engine.graph.component_count(), 1);
            let before = GROUP_STEPS.with(Cell::get);
            assert!(engine.safety_sidelined().is_empty());
            GROUP_STEPS.with(Cell::get) - before
        };
        let (small, large) = (steps(2_048), steps(4_096));
        assert!(
            2 * large <= 5 * small,
            "grouping copied {small} -> {large} member slots when the ring doubled"
        );
    }
}
