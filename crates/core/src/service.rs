//! The `Coordinator` service: the paper's D3C middleware (§5.1) as a
//! long-running service API rather than a single-owner `&mut` engine.
//!
//! A [`Coordinator`] is a clonable handle around a **sharded** pool of
//! [`CoordinationEngine`]s; clones share the service, so an
//! application can submit from one place, flush from another, and
//! observe outcomes from a third. On top of the raw engine it adds:
//!
//! * **[`Session`]s**, which withdraw their still-pending queries when
//!   closed or dropped (the paper's queries live inside client
//!   transactions; a dropped connection must not leak residents);
//! * **[`SubmitRequest`]**, a per-query builder (`deadline`,
//!   `staleness`, `on_no_solution`, `tag`), and
//!   [`Session::submit_batch`] — a single submit is a batch of one;
//! * **[`Event`] subscriptions** over bounded per-subscriber queues with
//!   an explicit [`OverflowPolicy`] ([`crate::events`]). Events are
//!   staged inside the shard critical section that produced them and
//!   fanned out only after every service lock is released
//!   (`crate::dispatch`), so a slow subscriber can stall at most the
//!   dispatching thread, never admission;
//! * **service sharding** ([`EngineConfig::service_shards`]): queries
//!   are partitioned by `(relation, arity)` connectivity
//!   (`crate::router`) across independently locked shards, and a query
//!   bridging two groups takes a rendezvous that merges them;
//! * **typed errors** ([`CoordinationError`]).
//!
//! This file is the **lock shell**. What one shard does — admission,
//! the cadence, migration, recovery, the flush and its report — is
//! `crate::shard`'s `Shard`, a state machine that holds no lock and
//! reads no clock. The shell keeps one `Mutex<Shard>` per shard, the
//! router behind a read-write lock, the durability sink (fixed when the
//! service is built) and the dispatcher. Each public call reads the
//! clock at most once, before any shard lock, and passes that instant
//! to every shard it touches. Under a shard lock it applies effects in
//! one order — encode the submission records, admit, commit their
//! frame, then record and stage the drained outcomes — so log order is
//! acknowledgment order.
//!
//! # Example: a session, a subscriber, a flush
//!
//! ```
//! use eq_core::{Coordinator, EngineConfig, EngineMode, Event, SubmitRequest};
//! use eq_db::Database;
//! use eq_ir::Value;
//! use eq_sql::parse_ir_query;
//!
//! let mut db = Database::new();
//! db.create_table("F", &["fno", "dest"]).unwrap();
//! db.insert("F", vec![Value::int(122), Value::str("Paris")]).unwrap();
//!
//! let coordinator = Coordinator::new(
//!     db,
//!     EngineConfig {
//!         mode: EngineMode::SetAtATime { batch_size: 0 },
//!         ..Default::default()
//!     },
//! );
//! let events = coordinator.subscribe();
//! let mut session = coordinator.session();
//! session
//!     .submit(SubmitRequest::new(
//!         parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap(),
//!     ))
//!     .unwrap();
//! session
//!     .submit(SubmitRequest::new(
//!         parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)").unwrap(),
//!     ))
//!     .unwrap();
//!
//! let report = coordinator.flush();
//! assert_eq!(report.answered, 2);
//! // Two terminal events, then the flush report — in that order.
//! // Subscribers receive `Arc<Event>`: the service materializes each
//! // event once and fans it out by pointer.
//! let drained = events.drain();
//! assert_eq!(drained.len(), 3);
//! assert!(drained[0].is_terminal() && drained[1].is_terminal());
//! assert!(matches!(*drained[2], Event::Flushed(_)));
//! ```

use crate::dispatch::Dispatcher;
use crate::durable::DurabilitySink;
use crate::engine::{
    BatchReport, CoordinationEngine, EngineConfig, FailReason, NoSolutionPolicy, QueryHandle,
    QueryOutcome, QueryStatus, SubmitError, SubmitOptions,
};
use crate::error::CoordinationError;
use crate::router::Router;
use crate::shard::{merge_reports, rendezvous, Shard};
use eq_db::{Database, Tuple};
use eq_ir::{EntangledQuery, QueryId};
use parking_lot::{Mutex, MutexGuard, RwLock};

pub use parking_lot::LockStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::events::{Event, Events, OverflowPolicy, SubscriberStats};

/// Queue capacity used by [`Coordinator::subscribe`] (the
/// [`OverflowPolicy::Block`] default): deep enough that a subscriber
/// draining at flush granularity never blocks a moderate flush, small
/// enough to bound memory under a 100k-query sweep.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One query submission, built fluently: a deadline or staleness bound,
/// a no-solution policy and a tag that travels to the query's
/// [`Event`]s, all for *this* query.
///
/// ```
/// use eq_core::{Coordinator, EngineConfig, NoSolutionPolicy, QueryStatus, SubmitRequest};
/// use eq_db::Database;
/// use eq_sql::parse_ir_query;
/// use std::time::Duration;
///
/// let mut db = Database::new();
/// db.create_table("F", &["fno", "dest"]).unwrap();
/// let coordinator = Coordinator::new(db, EngineConfig::default());
/// let mut session = coordinator.session();
///
/// let request = SubmitRequest::new(
///     parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap())
///     .staleness(Duration::from_secs(30))
///     .on_no_solution(NoSolutionPolicy::KeepPending)
///     .tag("kramer-paris");
/// let handle = session.submit(request).unwrap();
/// assert_eq!(coordinator.pending_count(), 1);
/// assert_eq!(coordinator.status(handle.id), Some(QueryStatus::Pending)); // waiting for Jerry
/// ```
#[derive(Debug)]
pub struct SubmitRequest {
    pub(crate) query: EntangledQuery,
    pub(crate) deadline: Option<Instant>,
    staleness: Option<Duration>,
    pub(crate) on_no_solution: Option<NoSolutionPolicy>,
    pub(crate) tag: Option<String>,
}

impl SubmitRequest {
    /// A request with no per-query overrides.
    pub fn new(query: EntangledQuery) -> Self {
        SubmitRequest {
            query,
            deadline: None,
            staleness: None,
            on_no_solution: None,
            tag: None,
        }
    }

    /// Absolute deadline: fail the query as expired if it is still
    /// pending when `deadline` passes. Takes precedence over
    /// [`SubmitRequest::staleness`] when both are set.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Relative staleness bound: fail the query as expired if it is
    /// still pending `bound` after submission — the paper's "stale
    /// query … considered to have failed" (§5.1). A bound too large for
    /// the clock to represent (`Duration::MAX`) never expires.
    pub fn staleness(mut self, bound: Duration) -> Self {
        self.staleness = Some(bound);
        self
    }

    /// What to do with this query when its matched component has no
    /// database solution (overrides [`EngineConfig::on_no_solution`]).
    pub fn on_no_solution(mut self, policy: NoSolutionPolicy) -> Self {
        self.on_no_solution = Some(policy);
        self
    }

    /// Opaque application label, echoed on every [`Event`] this query
    /// produces.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    pub(crate) fn to_options(&self, now: Instant) -> SubmitOptions {
        SubmitOptions {
            deadline: self
                .deadline
                .or_else(|| self.staleness.and_then(|bound| now.checked_add(bound))),
            on_no_solution: self.on_no_solution,
        }
    }
}

impl From<EntangledQuery> for SubmitRequest {
    fn from(query: EntangledQuery) -> Self {
        SubmitRequest::new(query)
    }
}

/// Everything the `Coordinator` clones share. Lock order (debug builds
/// validate it through the instrumented `parking_lot` shim): `router`
/// → shard locks in ascending index → database lock → whatever the
/// sink locks internally.
struct ServiceShared {
    shards: Vec<Mutex<Shard>>,
    /// Admission holds a read guard across the shard operation; only
    /// group merges and their migrations take the write side.
    router: RwLock<Router>,
    dispatcher: Dispatcher,
    db: Arc<RwLock<Database>>,
    /// Global id counter, drawn only on successful admission: the
    /// sequence is that of one shard, and recovery reads one watermark.
    next_id: AtomicU64,
    sink: Option<Box<dyn DurabilitySink>>,
}

/// A clonable handle to a running coordination service: every clone
/// shares one pool of engine shards ([`EngineConfig::service_shards`],
/// one by default). A method locks only the shards it touches; event
/// fan-out happens after those locks are released, and evaluation runs
/// on the thread that holds a shard's lock.
#[derive(Clone)]
pub struct Coordinator {
    shared: Arc<ServiceShared>,
}

impl Coordinator {
    /// Starts an in-memory coordination service over `db` with
    /// [`EngineConfig::service_shards`] engine shards (clamped to at
    /// least 1). [`Coordinator::open`] starts a durable one.
    pub fn new(db: Database, config: EngineConfig) -> Self {
        Self::with_sink(db, config, None)
    }

    /// [`Coordinator::new`] with the durability recorder every
    /// admission, drain and load commits to ([`Coordinator::open`]).
    pub(crate) fn with_sink(
        db: Database,
        config: EngineConfig,
        sink: Option<Box<dyn DurabilitySink>>,
    ) -> Self {
        let shard_count = config.service_shards.max(1);
        let db = Arc::new(RwLock::new(db));
        let shards = (0..shard_count)
            .map(|_| {
                let engine = CoordinationEngine::with_shared_db(Arc::clone(&db), config.clone());
                Mutex::new(Shard::new(engine, config.mode))
            })
            .collect();
        Coordinator {
            shared: Arc::new(ServiceShared {
                shards,
                router: RwLock::new(Router::new(shard_count)),
                dispatcher: Dispatcher::new(),
                db,
                next_id: AtomicU64::new(1),
                sink,
            }),
        }
    }

    /// Opens a [`Session`]. Queries submitted through the session are
    /// withdrawn when it is closed or dropped.
    pub fn session(&self) -> Session {
        Session {
            coordinator: self.clone(),
            ids: Vec::new(),
            id_set: eq_ir::FastSet::default(),
            closed: false,
        }
    }

    /// Subscribes to the [`Event`] stream from now on (nothing is
    /// replayed; events staged while nobody listens are dropped), as a
    /// queue of [`DEFAULT_EVENT_CAPACITY`] events under
    /// [`OverflowPolicy::Block`].
    ///
    /// **Blocking contract:** a full `Block` queue suspends only the
    /// thread currently draining the dispatch queue, after every
    /// service lock is released; other sessions keep submitting and
    /// flushing. That thread is whichever `Coordinator` call picked up
    /// dispatch duty, so drain from a thread that does not call back
    /// into the `Coordinator`, size the queue for the largest round
    /// ([`Coordinator::subscribe_with`]), or prefer
    /// [`OverflowPolicy::DropOldest`] (evictions are counted).
    pub fn subscribe(&self) -> Events {
        self.subscribe_with(DEFAULT_EVENT_CAPACITY, OverflowPolicy::Block)
    }

    /// [`Coordinator::subscribe`] with an explicit bound and
    /// [`OverflowPolicy`]. No policy loses events silently: `DropOldest`
    /// counts evictions in [`SubscriberStats`], and `Disconnect` is
    /// counted in [`Coordinator::disconnected_subscribers`].
    ///
    /// ```
    /// use eq_core::{Coordinator, EngineConfig, OverflowPolicy};
    /// use eq_db::Database;
    ///
    /// let coordinator = Coordinator::new(Database::new(), EngineConfig::default());
    /// let events = coordinator.subscribe_with(64, OverflowPolicy::DropOldest);
    /// assert_eq!(events.stats().dropped, 0);
    /// ```
    pub fn subscribe_with(&self, capacity: usize, policy: OverflowPolicy) -> Events {
        self.shared.dispatcher.subscribe(capacity, policy)
    }

    /// Number of live event subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.shared.dispatcher.subscriber_count()
    }

    /// Subscriptions ended from the publisher's side: a dropped
    /// receiver, or an [`OverflowPolicy::Disconnect`] overflow. The
    /// fan-out prunes such a subscriber and counts it here.
    pub fn disconnected_subscribers(&self) -> u64 {
        self.shared.dispatcher.disconnected()
    }

    /// Sweeps every shard's expired queries and evaluates its dirty
    /// components ([`CoordinationEngine::flush`]), staging one terminal
    /// event per retired query, then an [`Event::Flushed`] report.
    ///
    /// The report also covers every evaluation an incremental service
    /// ran at admission since the previous flush (counts added,
    /// [`BatchReport::intra_witness_peak`] maxed, [`BatchReport::pending`]
    /// this round's). Its [`BatchReport::lock_hold_ns`] sums the shards'
    /// critical sections of *this* flush; lifetime counters are on
    /// [`Coordinator::lock_stats`].
    pub fn flush(&self) -> BatchReport {
        let now = Instant::now();
        let mut report = BatchReport::default();
        self.each_shard(|shard| {
            merge_reports(&mut report, shard.flush(now));
            self.stage_outcomes(shard);
            report.lock_hold_ns += shard.held_ns();
            None::<()>
        });
        self.stage_flushed(report);
        self.shared.dispatcher.drain();
        report
    }

    /// The shard locks' hold-time counters, summed across shards (max
    /// hold maxed; completed holds only).
    pub fn lock_stats(&self) -> LockStats {
        let mut out = LockStats::default();
        for s in self.shared.shards.iter().map(|shard| shard.stats()) {
            out.acquisitions += s.acquisitions;
            out.hold_ns += s.hold_ns;
            out.max_hold_ns = out.max_hold_ns.max(s.max_hold_ns);
        }
        out
    }

    /// Number of engine shards ([`EngineConfig::service_shards`]).
    pub fn service_shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Per-shard lock hold counters, indexed by shard.
    pub fn shard_lock_stats(&self) -> Vec<LockStats> {
        self.shared.shards.iter().map(|s| s.stats()).collect()
    }

    /// The most events ever staged awaiting the out-of-lock drain.
    pub fn dispatch_queue_peak(&self) -> u64 {
        self.shared.dispatcher.queue_peak()
    }

    /// Sweeps expired queries on every shard, staging their
    /// [`Event::Expired`] events. Returns how many expired.
    pub fn expire_stale(&self) -> usize {
        let now = Instant::now();
        let mut expired = 0;
        self.each_shard(|shard| {
            expired += shard.engine.expire_stale(now);
            self.stage_outcomes(shard);
            None::<()>
        });
        self.shared.dispatcher.drain();
        expired
    }

    /// Withdraws a pending query, or refuses:
    /// [`CoordinationError::UnknownQuery`] or
    /// [`CoordinationError::AlreadyTerminal`].
    pub fn cancel(&self, id: QueryId) -> Result<(), CoordinationError> {
        let mut terminal = None;
        let cancelled = self.each_shard(|shard| {
            if shard.engine.cancel(id) {
                self.stage_outcomes(shard);
                return Some(());
            }
            if terminal.is_none() {
                terminal = shard.engine.status(id).cloned();
            }
            None
        });
        self.shared.dispatcher.drain();
        match (cancelled, terminal) {
            (Some(()), _) => Ok(()),
            (None, Some(status)) => Err(CoordinationError::AlreadyTerminal(status)),
            (None, None) => Err(CoordinationError::UnknownQuery(id)),
        }
    }

    /// Withdraws every still-pending query in `ids` (others are
    /// skipped) under one lock per shard and one dispatch. Returns how
    /// many were withdrawn.
    pub fn cancel_all(&self, ids: &[QueryId]) -> usize {
        let mut withdrawn = 0;
        self.each_shard(|shard| {
            let local = ids.iter().filter(|&&id| shard.engine.cancel(id)).count();
            if local > 0 {
                self.stage_outcomes(shard);
            }
            withdrawn += local;
            None::<()>
        });
        if withdrawn > 0 {
            self.shared.dispatcher.drain();
        }
        withdrawn
    }

    /// The status of a query, if known.
    pub fn status(&self, id: QueryId) -> Option<QueryStatus> {
        self.each_shard(|shard| shard.engine.status(id).cloned())
    }

    /// Number of pending queries across all shards.
    pub fn pending_count(&self) -> usize {
        let mut pending = 0;
        self.each_shard(|shard| {
            pending += shard.engine.pending_count();
            None::<()>
        });
        pending
    }

    /// Shared handle to the database; a write re-dirties kept-pending
    /// components at each shard's next evaluation.
    pub fn db(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.shared.db)
    }

    /// Bulk-loads rows under one database lock and one revision bump
    /// ([`Database::insert_many`]).
    pub fn load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize, CoordinationError> {
        // Encoded from a borrow, outside the database lock.
        let sink = self.sink();
        let mut record = Vec::new();
        if let Some(sink) = sink {
            sink.stage_load(&mut record, table, &rows);
        }
        let mut db = self.shared.db.write();
        let inserted = db.insert_many(table, rows)?;
        // Only a load that happened is logged, before the write guard
        // goes: a checkpoint can then never fold these rows into its
        // image with their record above its watermark.
        if let Some(sink) = sink {
            sink.commit_load(&record);
        }
        Ok(inserted)
    }

    /// Structural invariant check over every shard.
    pub fn check_invariants(&self) -> Result<(), CoordinationError> {
        match self.each_shard(|shard| shard.engine.check_invariants().err()) {
            Some(violation) => Err(violation.into()),
            None => Ok(()),
        }
    }

    /// Queries that §3.1.1 enforcement would sideline right now (see
    /// [`CoordinationEngine::safety_sidelined`]).
    pub fn safety_sidelined(&self) -> Vec<QueryId> {
        let mut sidelined = Vec::new();
        self.each_shard(|shard| {
            sidelined.extend(shard.engine.safety_sidelined());
            None::<()>
        });
        sidelined
    }

    /// The one way a call visits the shards: `f` runs on each in
    /// ascending index order under its lock, until it returns `Some`.
    /// The router's read guard keeps a merge from moving a query
    /// between shards mid-scan.
    fn each_shard<R>(
        &self,
        mut f: impl FnMut(&mut MutexGuard<'_, Shard>) -> Option<R>,
    ) -> Option<R> {
        let _router = (self.shared.shards.len() > 1).then(|| self.shared.router.read());
        self.shared
            .shards
            .iter()
            .find_map(|shard| f(&mut shard.lock()))
    }

    /// Drains a shard's outcomes, records them, and **stages** their
    /// events, inside its critical section, so stage order is
    /// retirement order; delivery waits for the dispatcher's drain.
    /// This and [`Coordinator::stage_flushed`] are the only functions
    /// that build events (`eq_check`'s `event-choke-point`).
    fn stage_outcomes(&self, shard: &mut Shard) {
        let drained = shard.drain();
        if drained.outcomes.is_empty() {
            return;
        }
        // The whole drain is logged, as one frame, before its first
        // event is enqueued: no dispatcher publishes an unlogged one.
        if let Some(sink) = &self.shared.sink {
            sink.commit_outcomes(&drained.outcomes);
        }
        for (id, tag, outcome) in drained.tagged() {
            let event = match outcome {
                QueryOutcome::Answered(answer) => Event::Answered { id, tag, answer },
                QueryOutcome::Failed(FailReason::Stale) => Event::Expired { id, tag },
                QueryOutcome::Failed(FailReason::Cancelled) => Event::Cancelled { id, tag },
                QueryOutcome::Failed(FailReason::Rejected(reason)) => {
                    Event::Failed { id, tag, reason }
                }
            };
            self.shared.dispatcher.enqueue(event);
        }
    }

    /// The single place a [`Event::Flushed`] report is staged.
    fn stage_flushed(&self, report: BatchReport) {
        self.shared
            .dispatcher
            .enqueue(Event::Flushed(Box::new(report)));
    }

    /// Write-path placement: merges the groups of every key set that
    /// does not resolve, and when a merged group spans shards, moves its
    /// pending queries from the losers into the winner under the
    /// involved locks, taken in **ascending index order**. Each set's
    /// shard is read after the whole pass (a later merge may move an
    /// earlier group). The caller holds the router write guard.
    fn route_all(&self, router: &mut Router, keys: &[Vec<u64>]) -> Vec<usize> {
        for k in keys {
            if router.resolve(k).is_some() {
                continue;
            }
            let route = router.route(k);
            if route.losers.is_empty() {
                continue;
            }
            let mut order = route.losers.clone();
            order.push(route.shard);
            order.sort_unstable();
            let mut guards: Vec<_> = order
                .iter()
                .map(|&i| self.shared.shards[i].lock())
                .collect();
            let shards = guards.iter_mut().map(|guard| &mut **guard);
            rendezvous(router, &route, order.iter().copied().zip(shards));
        }
        keys.iter()
            .map(|k| router.resolve(k).expect("every key group was routed above"))
            .collect()
    }

    /// Submits a batch outside any session: the one routed entry of
    /// every submission ([`Session::submit_batch`] is this plus the
    /// session's bookkeeping). A query submitted here is withdrawn by no
    /// session close, so it is how a durable query, which outlives its
    /// client, enters ([`Coordinator::open`]). Results are positional;
    /// on a durable coordinator the admitted queries' records — one
    /// frame per shard the batch touches — precede the return.
    ///
    /// Validation goes first: an invalid request is refused in place
    /// and takes no lock. Valid ones are resolved under the router
    /// **read** guard, held across admission; only keys that are
    /// unknown, unplaced or span groups take the write guard and are
    /// placed there.
    pub fn submit_batch(
        &self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        let now = Instant::now();
        let mut out: Vec<Option<Result<QueryHandle, CoordinationError>>> =
            Vec::with_capacity(requests.len());
        let mut valid = Vec::with_capacity(requests.len());
        for request in requests {
            match request.query.validate() {
                Ok(()) => {
                    valid.push((out.len(), request));
                    out.push(None);
                }
                Err(e) => out.push(Some(Err(SubmitError::Invalid(e).into()))),
            }
        }
        if self.shared.shards.len() == 1 {
            self.admit_runs(valid, |_| 0, &mut out, now);
        } else {
            let keys: Vec<Vec<u64>> = valid
                .iter()
                .map(|(_, r)| Router::query_keys(&r.query))
                .collect();
            let router = self.shared.router.read();
            let resolved: Option<Vec<usize>> = keys.iter().map(|k| router.resolve(k)).collect();
            if let Some(shards) = resolved {
                self.admit_runs(valid, |k| shards[k], &mut out, now);
            } else {
                drop(router);
                let mut router = self.shared.router.write();
                let shards = self.route_all(&mut router, &keys);
                self.admit_runs(valid, |k| shards[k], &mut out, now);
            }
        }
        self.shared.dispatcher.drain();
        out.into_iter()
            .map(|r| r.expect("every request was refused or admitted"))
            .collect()
    }

    /// Admits `(position, request)` pairs in submission order (the
    /// `k`-th on `shard_of(k)`), one lock per maximal same-shard run, so
    /// ids are those of a sequential replay. Under each lock: encode the
    /// records, admit, commit the admitted ones as one frame before any
    /// handle escapes, then record and stage the outcomes — after the
    /// submissions they may retire.
    fn admit_runs(
        &self,
        valid: Vec<(usize, SubmitRequest)>,
        shard_of: impl Fn(usize) -> usize,
        out: &mut [Option<Result<QueryHandle, CoordinationError>>],
        now: Instant,
    ) {
        let total = valid.len();
        let mut valid = valid.into_iter();
        let mut k = 0;
        while k < total {
            let i = shard_of(k);
            let len = (k..total).take_while(|&j| shard_of(j) == i).count();
            k += len;
            // One exact allocation each: `unzip` reserves the run's
            // length.
            let (positions, batch): (Vec<usize>, Vec<SubmitRequest>) =
                valid.by_ref().take(len).unzip();
            let mut shard = self.shared.shards[i].lock();
            let sink = self.sink();
            if let Some(sink) = sink {
                let staged = &mut shard.staged;
                staged.bytes.clear();
                staged.ends.clear();
                for r in &batch {
                    sink.stage_submit(staged, r, now);
                }
            }
            let results = shard.admit(batch, now, &self.shared.next_id);
            if let Some(sink) = sink {
                let mut admitted = results.iter().map(|r| r.as_ref().ok().map(|h| h.id));
                sink.commit_submits(&shard.staged, &mut admitted);
            }
            self.stage_outcomes(&mut shard);
            for (pos, result) in positions.into_iter().zip(results) {
                out[pos] = Some(result.map_err(CoordinationError::from));
            }
        }
    }

    /// Re-admits the recovered pending set, ascending id, under the
    /// recorded ids, tags and policies: all routed first, then one lock
    /// per shard with a share ([`Shard::recover`]) that also stages the
    /// outcomes of the cadence's evaluation. The sink records only
    /// those outcomes; the log already holds the submissions. A query
    /// that no longer validates refuses the whole set first.
    pub(crate) fn recover(&self, requests: Vec<SubmitRequest>) -> Result<(), CoordinationError> {
        for r in &requests {
            r.query.validate().map_err(SubmitError::Invalid)?;
        }
        let keys: Vec<Vec<u64>> = requests
            .iter()
            .map(|r| Router::query_keys(&r.query))
            .collect();
        {
            let mut router = self.shared.router.write();
            let shards = self.route_all(&mut router, &keys);
            let mut per_shard: Vec<Vec<SubmitRequest>> =
                self.shared.shards.iter().map(|_| Vec::new()).collect();
            for (r, shard) in requests.into_iter().zip(shards) {
                per_shard[shard].push(r);
            }
            for (i, requests) in per_shard.into_iter().enumerate() {
                if !requests.is_empty() {
                    let mut shard = self.shared.shards[i].lock();
                    shard.recover(requests);
                    self.stage_outcomes(&mut shard);
                }
            }
        }
        self.shared.dispatcher.drain();
        Ok(())
    }

    /// Runs `f` with every shard locked in ascending index order: a
    /// consistent cut for checkpoints.
    pub(crate) fn with_exclusive<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        f()
    }

    /// The id the next submission will draw (checkpointed).
    pub(crate) fn id_watermark(&self) -> u64 {
        self.shared.next_id.load(Ordering::Relaxed)
    }

    /// The durability sink, if the service was opened on a directory.
    pub(crate) fn sink(&self) -> Option<&dyn DurabilitySink> {
        self.shared.sink.as_deref()
    }

    /// Moves the id counter forward, never back, so submissions after
    /// recovery never reuse an id.
    pub(crate) fn set_id_watermark(&self, next: u64) {
        self.shared.next_id.fetch_max(next, Ordering::Relaxed);
    }
}

/// The queries of one client of the [`Coordinator`]: when the session
/// is closed or dropped, its still-pending queries are withdrawn and
/// their subscribers receive [`Event::Cancelled`].
///
/// ```
/// use eq_core::{Coordinator, EngineConfig, EngineMode, SubmitRequest};
/// use eq_db::Database;
/// use eq_sql::parse_ir_query;
///
/// let mut db = Database::new();
/// db.create_table("F", &["fno", "dest"]).unwrap();
/// let coordinator = Coordinator::new(
///     db,
///     EngineConfig {
///         mode: EngineMode::SetAtATime { batch_size: 0 },
///         ..Default::default()
///     },
/// );
/// {
///     let mut session = coordinator.session();
///     session
///         .submit(SubmitRequest::new(
///             parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap(),
///         ))
///         .unwrap();
///     assert_eq!(coordinator.pending_count(), 1);
/// } // session dropped: its pending query is withdrawn
/// assert_eq!(coordinator.pending_count(), 0);
/// ```
pub struct Session {
    coordinator: Coordinator,
    ids: Vec<QueryId>,
    /// Membership mirror of `ids`, so per-query operations don't scan
    /// the submission history.
    id_set: eq_ir::FastSet<QueryId>,
    closed: bool,
}

impl Session {
    /// Submits one query, as a batch of one. In incremental mode its
    /// shard is evaluated before this returns (the report rides on the
    /// next [`Coordinator::flush`]); in set-at-a-time mode it waits for
    /// that flush.
    pub fn submit(
        &mut self,
        request: impl Into<SubmitRequest>,
    ) -> Result<QueryHandle, CoordinationError> {
        let mut results = self.submit_batch(vec![request.into()]);
        results.pop().expect("one result per request")
    }

    /// Submits a batch through each shard engine's one admission step,
    /// in order ([`CoordinationEngine::submit_batch`]), one lock per run
    /// of same-shard requests. Results are positional.
    pub fn submit_batch(
        &mut self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        let results = self.coordinator.submit_batch(requests);
        for handle in results.iter().flatten() {
            self.ids.push(handle.id);
            self.id_set.insert(handle.id);
        }
        results
    }

    /// Withdraws one of this session's queries (see
    /// [`Coordinator::cancel`]).
    pub fn cancel(&self, id: QueryId) -> Result<(), CoordinationError> {
        if !self.id_set.contains(&id) {
            return Err(CoordinationError::UnknownQuery(id));
        }
        self.coordinator.cancel(id)
    }

    /// Ids of every query submitted through this session, in
    /// submission order.
    pub fn ids(&self) -> &[QueryId] {
        &self.ids
    }

    /// Ids of this session's queries that are still pending.
    pub fn pending_ids(&self) -> Vec<QueryId> {
        self.ids
            .iter()
            .copied()
            .filter(|&id| matches!(self.coordinator.status(id), Some(QueryStatus::Pending)))
            .collect()
    }

    /// Closes the session, withdrawing its still-pending queries;
    /// returns how many. Dropping the session does the same.
    pub fn close(mut self) -> usize {
        self.close_inner()
    }

    fn close_inner(&mut self) -> usize {
        if self.closed {
            return 0;
        }
        self.closed = true;
        self.coordinator.cancel_all(&self.ids)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.close_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::StagedSubmits;
    use eq_ir::Value;
    use eq_sql::parse_ir_query;
    use std::sync::OnceLock;

    fn q(text: &str) -> EntangledQuery {
        parse_ir_query(text).unwrap()
    }

    /// The one terminal event `evs` holds for `id`.
    fn terminal_for(evs: &[Arc<Event>], id: QueryId) -> &Event {
        let mut found = evs.iter().filter(|e| e.is_terminal() && e.id() == Some(id));
        let event = found.next().expect("a terminal event for the query");
        assert!(found.next().is_none(), "one terminal event per query");
        event
    }

    /// Submission tags the shards still hold.
    fn held_tags(coordinator: &Coordinator) -> usize {
        coordinator
            .shared
            .shards
            .iter()
            .map(|s| s.lock().tags.len())
            .sum()
    }

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.insert_many(
            "F",
            vec![
                vec![Value::int(122), Value::str("Paris")],
                vec![Value::int(136), Value::str("Rome")],
            ],
        )
        .unwrap();
        db
    }

    /// A sink that only watches the recording points: it logs each
    /// commit with the dispatch queue's high-water mark at that moment.
    /// (Holding the coordinator it is built into leaks the pair — a
    /// test-only cycle.)
    struct ProbeSink {
        coordinator: Arc<OnceLock<Coordinator>>,
        commits: Commits,
    }

    /// Each recording point reached, with the dispatch queue's peak.
    type Commits = Arc<Mutex<Vec<(&'static str, u64)>>>;

    impl ProbeSink {
        /// A set-at-a-time service that records through a probe, and
        /// the probe's log.
        fn build(db: Database) -> (Coordinator, Commits) {
            let commits = Arc::default();
            let handle = Arc::new(OnceLock::new());
            let sink = ProbeSink {
                coordinator: Arc::clone(&handle),
                commits: Arc::clone(&commits),
            };
            let coordinator = Coordinator::with_sink(db, batch_config(), Some(Box::new(sink)));
            assert!(handle.set(coordinator.clone()).is_ok());
            (coordinator, commits)
        }

        fn coordinator(&self) -> &Coordinator {
            self.coordinator.get().expect("built")
        }

        fn note(&self, what: &'static str) {
            let peak = self.coordinator().dispatch_queue_peak();
            self.commits.lock().push((what, peak));
        }
    }

    impl DurabilitySink for ProbeSink {
        fn stage_submit(&self, staged: &mut StagedSubmits, _: &SubmitRequest, _: Instant) {
            staged.ends.push(0);
        }

        fn commit_submits(
            &self,
            staged: &StagedSubmits,
            admitted: &mut dyn Iterator<Item = Option<QueryId>>,
        ) {
            assert_eq!(admitted.count(), staged.ends.len(), "a verdict per query");
            self.note("submits");
        }

        fn commit_outcomes(&self, _: &[(QueryId, QueryOutcome)]) {
            self.note("outcomes");
        }

        fn stage_load(&self, _: &mut Vec<u8>, _: &str, _: &[Tuple]) {}

        fn commit_load(&self, _: &[u8]) {
            // The load‖checkpoint race: a checkpoint reads the database
            // under its read lock. If that lock can be had here, a
            // checkpoint could fold the just-inserted rows into its image
            // with this record still above its watermark.
            assert!(
                self.coordinator().shared.db.try_read().is_none(),
                "the load record must be committed under the database write guard"
            );
            self.note("load");
        }

        fn commit_create_table(&self, _: &str, _: &[&str]) {
            // Like a load, under the database write guard.
            assert!(self.coordinator().shared.db.try_read().is_none());
            self.note("create table");
        }
    }

    #[test]
    fn a_flushed_event_boxes_its_report() {
        // Every queued event is as large as the largest variant.
        assert!(std::mem::size_of::<Event>() <= 96);
    }

    #[test]
    fn load_is_logged_while_the_database_write_guard_is_held() {
        let (coordinator, commits) = ProbeSink::build(flight_db());
        let n = coordinator
            .load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
            .unwrap();
        assert_eq!(n, 1);
        // A refused load commits nothing.
        assert!(coordinator.load("F", vec![vec![Value::int(1)]]).is_err());
        assert!(coordinator.load("Nope", vec![]).is_err());
        assert_eq!(*commits.lock(), [("load", 0)]);
    }

    #[test]
    fn create_table_is_logged_while_the_database_write_guard_is_held() {
        let (coordinator, commits) = ProbeSink::build(Database::new());
        coordinator.create_table("G", &["a", "b"]).unwrap();
        // A refused one commits nothing.
        assert!(coordinator.create_table("G", &["a"]).is_err());
        assert_eq!(*commits.lock(), [("create table", 0)]);
        assert_eq!(coordinator.db().read().table_names().count(), 1);
    }

    #[test]
    fn a_drain_is_committed_once_and_before_its_first_event_is_enqueued() {
        let (coordinator, commits) = ProbeSink::build(flight_db());
        let _events = coordinator.subscribe();
        let results = coordinator.submit_batch(vec![
            SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
            SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
        ]);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(coordinator.flush().answered, 2);
        // One commit per batch, one for the whole drain — and when the
        // drain was committed no event had ever been queued.
        assert_eq!(*commits.lock(), [("submits", 0), ("outcomes", 0)]);
        assert!(coordinator.dispatch_queue_peak() >= 2);
    }

    fn batch_config() -> EngineConfig {
        EngineConfig {
            mode: crate::engine::EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        }
    }

    fn batch_coordinator(db: Database) -> Coordinator {
        Coordinator::new(db, batch_config())
    }

    #[test]
    fn handles_and_events_agree() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        let h1 = session
            .submit(
                SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")).tag("kramer"),
            )
            .unwrap();
        let _h2 = session
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let report = coordinator.flush();
        assert_eq!(report.answered, 2);
        let evs = events.drain();
        assert!(matches!(terminal_for(&evs, h1.id), Event::Answered { .. }));
        // Two Answered events then the Flushed report.
        assert_eq!(evs.len(), 3);
        assert!(evs[0].is_terminal() && evs[1].is_terminal());
        let kramer = evs.iter().find(|e| e.id() == Some(h1.id)).unwrap();
        assert_eq!(kramer.tag(), Some("kramer"));
        assert!(matches!(&*evs[2], Event::Flushed(r) if r.answered == 2));
        session.close();
    }

    #[test]
    fn retired_queries_leave_no_tags_without_listeners() {
        // Nobody subscribed and no sink installed: every retirement
        // still drops its tag, after a flush and inside an
        // incremental-mode submit alike.
        let kramer = || SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")).tag("k");
        let jerry = || SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")).tag("j");

        let coordinator = batch_coordinator(flight_db());
        let mut session = coordinator.session();
        session.submit(kramer()).unwrap();
        session.submit(jerry()).unwrap();
        assert_eq!(held_tags(&coordinator), 2);
        assert_eq!(coordinator.flush().answered, 2);
        assert_eq!(held_tags(&coordinator), 0);

        let coordinator = Coordinator::new(flight_db(), EngineConfig::default());
        let mut session = coordinator.session();
        session.submit(kramer()).unwrap();
        assert_eq!(held_tags(&coordinator), 1);
        session.submit(jerry()).unwrap();
        assert_eq!(coordinator.pending_count(), 0);
        assert_eq!(held_tags(&coordinator), 0);
    }

    #[test]
    fn flush_report_carries_lock_hold_counters() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        session
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        // The two submits completed their lock holds before the flush.
        let before = coordinator.lock_stats();
        assert!(before.acquisitions >= 2);
        let report = coordinator.flush();
        // The flush's own (in-progress) hold is measured directly off
        // its guard.
        assert!(report.lock_hold_ns > 0);
        // The published Flushed event carries the identical report.
        let evs = events.drain();
        let flushed = evs
            .iter()
            .find_map(|e| match &**e {
                Event::Flushed(r) => Some(**r),
                _ => None,
            })
            .unwrap();
        assert_eq!(flushed, report);
        // The lifetime counters live on the service alone: the flush
        // added one completed hold per shard, as long as the report's.
        let after = coordinator.lock_stats();
        assert_eq!(after.acquisitions, before.acquisitions + 1);
        assert!(after.hold_ns >= before.hold_ns + report.lock_hold_ns);
        assert!(after.max_hold_ns > 0);
        assert!(after.hold_ns >= after.max_hold_ns);
    }

    #[test]
    fn flush_reports_the_evaluations_run_at_submit() {
        // An incremental service answers the pair inside the second
        // submit; that evaluation's report is kept for the next flush,
        // which returns and publishes it, once.
        let coordinator = Coordinator::new(flight_db(), EngineConfig::default());
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        let h1 = session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let h2 = session
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        let evs = events.drain();
        for h in [h1, h2] {
            assert!(matches!(terminal_for(&evs, h.id), Event::Answered { .. }));
        }
        assert!(evs.iter().all(|e| e.is_terminal()), "no report per submit");

        let report = coordinator.flush();
        assert_eq!((report.answered, report.pending), (2, 0));
        assert!(report.intra_components >= 1);
        assert!(report.components >= 1 && report.stats.mgu_calls >= 2);
        let evs = events.drain();
        assert!(
            matches!(evs.as_slice(), [e] if matches!(&**e, Event::Flushed(r) if **r == report))
        );

        let again = coordinator.flush();
        assert_eq!((again.answered, again.intra_components), (0, 0));
    }

    #[test]
    fn session_drop_withdraws_pending_queries() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe();
        let h = {
            let mut session = coordinator.session();
            session
                .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
                .unwrap()
        };
        assert_eq!(coordinator.pending_count(), 0);
        let evs = events.drain();
        assert!(matches!(terminal_for(&evs, h.id), Event::Cancelled { .. }));
        assert!(matches!(evs.as_slice(), [e] if matches!(**e, Event::Cancelled { .. })));
        coordinator.check_invariants().unwrap();
    }

    #[test]
    fn cancel_reports_typed_errors() {
        let coordinator = batch_coordinator(flight_db());
        let mut session = coordinator.session();
        let h = session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        assert!(session.cancel(h.id).is_ok());
        assert_eq!(
            coordinator.cancel(h.id),
            Err(CoordinationError::AlreadyTerminal(QueryStatus::Failed(
                FailReason::Cancelled
            )))
        );
        assert_eq!(
            coordinator.cancel(QueryId(999)),
            Err(CoordinationError::UnknownQuery(QueryId(999)))
        );
        assert!(matches!(
            session.cancel(QueryId(999)),
            Err(CoordinationError::UnknownQuery(_))
        ));
    }

    #[test]
    fn per_query_deadline_expires_via_service() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        let h = session
            .submit(
                SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
                    .staleness(Duration::from_millis(1))
                    .tag("doomed"),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(coordinator.expire_stale(), 1);
        let evs = events.drain();
        assert!(matches!(terminal_for(&evs, h.id), Event::Expired { .. }));
        assert!(
            matches!(evs.as_slice(), [e] if matches!(&**e, Event::Expired { tag: Some(t), .. } if t == "doomed")),
            "{evs:?}"
        );
    }

    #[test]
    fn unrepresentable_staleness_never_expires() {
        // `now + Duration::MAX` is past what `Instant` can hold: both
        // admission paths take it as "never expires" instead of
        // panicking under the shard lock.
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        let forever = |text: &str| SubmitRequest::new(q(text)).staleness(Duration::MAX);
        let h1 = session
            .submit(forever("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        let mut batch =
            session.submit_batch(vec![forever("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")]);
        let h2 = batch.pop().unwrap().unwrap();
        assert_eq!(coordinator.expire_stale(), 0);
        assert_eq!(coordinator.flush().answered, 2);
        let evs = events.drain();
        for h in [h1, h2] {
            assert!(matches!(terminal_for(&evs, h.id), Event::Answered { .. }));
        }
        coordinator.check_invariants().unwrap();
    }

    #[test]
    fn submit_batch_through_session() {
        let coordinator = batch_coordinator(flight_db());
        let mut session = coordinator.session();
        let results = session.submit_batch(vec![
            SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
            SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
            SubmitRequest::new(EntangledQuery::new(vec![], vec![], vec![])),
        ]);
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(matches!(results[2], Err(CoordinationError::Invalid(_))));
        assert_eq!(coordinator.flush().answered, 2);
        assert_eq!(session.pending_ids().len(), 0);
    }

    #[test]
    fn clones_share_one_engine() {
        let coordinator = batch_coordinator(flight_db());
        let other = coordinator.clone();
        let mut session = coordinator.session();
        session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        assert_eq!(other.pending_count(), 1);
        let worker = {
            let other = other.clone();
            std::thread::spawn(move || other.flush())
        };
        let report = worker.join().unwrap();
        assert_eq!(report.pending, 1);
    }

    #[test]
    fn load_goes_through_one_revision_bump() {
        let coordinator = batch_coordinator(flight_db());
        let before = coordinator.db().read().revision();
        coordinator
            .load(
                "F",
                vec![
                    vec![Value::int(200), Value::str("Athens")],
                    vec![Value::int(201), Value::str("Athens")],
                ],
            )
            .unwrap();
        assert_eq!(coordinator.db().read().revision(), before + 1);
        assert!(matches!(
            coordinator.load("Nope", vec![]),
            Err(CoordinationError::Db(_))
        ));
    }

    #[test]
    fn events_start_at_subscription_not_at_service_birth() {
        // No subscriber: the flush drains its outcomes and the events
        // are dropped. A later subscriber sees only what happens after
        // it arrived — no replay.
        let coordinator = batch_coordinator(flight_db());
        let mut session = coordinator.session();
        session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        session
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        assert_eq!(coordinator.flush().answered, 2);

        let events = coordinator.subscribe();
        assert!(events.try_next().is_none(), "no replay of old outcomes");
        let h = session
            .submit(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
            .unwrap();
        coordinator.cancel(h.id).unwrap();
        let evs = events.drain();
        assert!(matches!(evs.as_slice(), [e] if matches!(**e, Event::Cancelled { .. })));
    }

    #[test]
    fn flushed_arrives_after_every_terminal_event_under_bounded_channels() {
        // A tiny Block queue forces the dispatcher to interleave with a
        // concurrent drainer; FIFO dispatch plus stage-then-report
        // ordering must still deliver every terminal event of a flush
        // *before* that flush's report.
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe_with(2, OverflowPolicy::Block);
        let drainer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Some(e) = events.next_timeout(Duration::from_secs(10)) {
                let flushed = matches!(*e, Event::Flushed(_));
                seen.push(e);
                if flushed {
                    break;
                }
            }
            seen
        });
        let mut session = coordinator.session();
        let mut expected = Vec::new();
        for i in 0..8 {
            let h = session
                .submit(q(&format!(
                    "{{R(B{i}, ITH)}} R(A{i}, ITH) <- F(x{i}, Paris)"
                )))
                .unwrap();
            expected.push(h.id);
            let h = session
                .submit(q(&format!(
                    "{{R(A{i}, ITH)}} R(B{i}, ITH) <- F(y{i}, Paris)"
                )))
                .unwrap();
            expected.push(h.id);
        }
        let report = coordinator.flush();
        assert_eq!(report.answered, 16);
        let seen = drainer.join().unwrap();
        let flushed_at = seen
            .iter()
            .position(|e| matches!(**e, Event::Flushed(_)))
            .expect("flush report delivered");
        let terminals_before: Vec<QueryId> =
            seen[..flushed_at].iter().filter_map(|e| e.id()).collect();
        for id in expected {
            assert!(
                terminals_before.contains(&id),
                "terminal event for {id:?} must precede Flushed"
            );
        }
        assert_eq!(flushed_at, seen.len() - 1, "Flushed is last");
    }

    #[test]
    fn dropped_subscriber_mid_flight_is_accounted_not_fatal() {
        // A subscriber vanishes (receiver dropped) while its session's
        // queries are still pending; the session close then dispatches
        // Cancelled events into the dead subscription. The fan-out must
        // prune it and account the disconnect — never panic, never
        // block.
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe_with(1, OverflowPolicy::Block);
        let mut session = coordinator.session();
        for i in 0..4 {
            session
                .submit(q(&format!(
                    "{{R(Ghost{i}, ITH)}} R(Solo{i}, ITH) <- F(x{i}, Paris)"
                )))
                .unwrap();
        }
        drop(events); // subscriber dies with 4 queries in flight
        session.close(); // dispatches 4 Cancelled events
        assert_eq!(coordinator.disconnected_subscribers(), 1);
        assert_eq!(coordinator.subscriber_count(), 0);
        assert_eq!(coordinator.pending_count(), 0);
        coordinator.check_invariants().unwrap();
    }

    #[test]
    fn drop_oldest_policy_counts_evictions() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe_with(2, OverflowPolicy::DropOldest);
        let mut session = coordinator.session();
        for i in 0..6 {
            let h = session
                .submit(q(&format!(
                    "{{R(Ghost{i}, ITH)}} R(Solo{i}, ITH) <- F(x{i}, Paris)"
                )))
                .unwrap();
            coordinator.cancel(h.id).unwrap();
        }
        let stats_before_drain = events.stats();
        assert_eq!(stats_before_drain.dropped, 4, "evictions are counted");
        assert_eq!(events.drain().len(), 2);
        assert!(!events.stats().disconnected);
        // Published (6) == delivered (2) + dropped (4): nothing silent.
        let stats = events.stats();
        assert_eq!(stats.delivered + stats.dropped, 6);
    }

    #[test]
    fn disconnect_policy_surfaces_overflow() {
        let coordinator = batch_coordinator(flight_db());
        let events = coordinator.subscribe_with(2, OverflowPolicy::Disconnect);
        let mut session = coordinator.session();
        for i in 0..5 {
            let h = session
                .submit(q(&format!(
                    "{{R(Ghost{i}, ITH)}} R(Solo{i}, ITH) <- F(x{i}, Paris)"
                )))
                .unwrap();
            coordinator.cancel(h.id).unwrap();
        }
        // Third cancel overflowed the queue: subscriber disconnected,
        // backlog still drainable, publisher accounted it.
        assert_eq!(coordinator.disconnected_subscribers(), 1);
        assert_eq!(coordinator.subscriber_count(), 0);
        assert_eq!(events.drain().len(), 2);
        assert!(events.stats().disconnected);
    }

    #[test]
    fn stalled_block_subscriber_does_not_stall_unrelated_sessions() {
        // A Block subscriber with a full queue and no drainer suspends
        // only the thread that became the dispatcher. Pre-dispatch,
        // the publisher blocked while holding the service lock, so
        // every other session froze with it — this is the regression
        // the out-of-lock dispatch queue exists to prevent.
        let coordinator = batch_coordinator(flight_db());
        let stalled = coordinator.subscribe_with(1, OverflowPolicy::Block);
        let victim = {
            let coordinator = coordinator.clone();
            std::thread::spawn(move || {
                let mut session = coordinator.session();
                // Three Cancelled events against capacity 1: the first
                // fills the queue, the second wedges this thread inside
                // the dispatcher's drain (no locks held).
                for i in 0..3 {
                    let h = session
                        .submit(q(&format!(
                            "{{R(Stall{i}, ITH)}} R(Whoa{i}, ITH) <- F(x{i}, Paris)"
                        )))
                        .unwrap();
                    coordinator.cancel(h.id).unwrap();
                }
            })
        };
        // Give the victim time to wedge in the dispatcher.
        std::thread::sleep(Duration::from_millis(50));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = {
            let coordinator = coordinator.clone();
            std::thread::spawn(move || {
                let mut session = coordinator.session();
                session
                    .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
                    .unwrap();
                session
                    .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
                    .unwrap();
                done_tx.send(coordinator.flush().answered).unwrap();
            })
        };
        let answered = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("unrelated session must not block on the stalled subscriber");
        assert_eq!(answered, 2);
        worker.join().unwrap();
        // The victim is still parked on the full queue; dropping the
        // receiver disconnects it and lets the dispatcher finish.
        drop(stalled);
        victim.join().unwrap();
        assert_eq!(coordinator.disconnected_subscribers(), 1);
    }

    #[test]
    fn sharded_service_coordinates_within_and_across_groups() {
        let coordinator = Coordinator::new(
            flight_db(),
            EngineConfig {
                mode: crate::engine::EngineMode::SetAtATime { batch_size: 0 },
                service_shards: 4,
                ..Default::default()
            },
        );
        assert_eq!(coordinator.service_shard_count(), 4);
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        // Two disjoint relation groups land on different shards; each
        // coordinates internally.
        session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        session
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
            .unwrap();
        session
            .submit(q("{S(George, u)} S(Elaine, u) <- F(u, Rome)"))
            .unwrap();
        session
            .submit(q("{S(Elaine, v)} S(George, v) <- F(v, Rome)"))
            .unwrap();
        let report = coordinator.flush();
        assert_eq!(report.answered, 4);
        coordinator.check_invariants().unwrap();
        // A pair of queries spanning both groups forces a rendezvous:
        // the R and S groups merge onto one shard and the cross-group
        // pair still coordinates.
        let h1 = session
            .submit(q("{S(Newman, w)} R(Newman, w) <- F(w, Paris)"))
            .unwrap();
        let h2 = session
            .submit(q("{R(Newman, z)} S(Newman, z) <- F(z, Paris)"))
            .unwrap();
        let report = coordinator.flush();
        assert_eq!(
            report.answered, 2,
            "cross-group pair coordinates after the merge"
        );
        let evs = events.drain();
        assert!(matches!(terminal_for(&evs, h1.id), Event::Answered { .. }));
        assert!(matches!(terminal_for(&evs, h2.id), Event::Answered { .. }));
        coordinator.check_invariants().unwrap();
        assert_eq!(evs.iter().filter(|e| e.is_terminal()).count(), 6);
    }

    #[test]
    fn rendezvous_migrates_pending_queries_with_tags() {
        // Pending queries physically move between shards when their
        // groups merge: ids, tags, and coordination all survive the
        // migration.
        let coordinator = Coordinator::new(
            flight_db(),
            EngineConfig {
                mode: crate::engine::EngineMode::SetAtATime { batch_size: 0 },
                service_shards: 2,
                ..Default::default()
            },
        );
        let events = coordinator.subscribe();
        let mut session = coordinator.session();
        // Four-cycle across two relation groups: R-group q1/q4 heads
        // satisfy q3/q1 postconditions, S-group q2/q3 close the loop.
        let h1 = session
            .submit(q("{R(Beta, x)} R(Alpha, x) <- F(x, Paris)"))
            .unwrap();
        let h2 = session
            .submit(SubmitRequest::new(q("{S(Delta, u)} S(Gamma, u) <- F(u, Paris)")).tag("moved"))
            .unwrap();
        assert_eq!(coordinator.pending_count(), 2);
        // q3 bridges the groups (head in S, postcondition in R): the
        // router merges them and the losing shard's pending query
        // (q2) migrates.
        let h3 = session
            .submit(q("{R(Alpha, y)} S(Delta, y) <- F(y, Paris)"))
            .unwrap();
        let h4 = session
            .submit(q("{S(Gamma, z)} R(Beta, z) <- F(z, Paris)"))
            .unwrap();
        let report = coordinator.flush();
        assert_eq!(report.answered, 4, "the merged four-cycle coordinates");
        let evs = events.drain();
        for h in [h1, h2, h3, h4] {
            assert!(matches!(terminal_for(&evs, h.id), Event::Answered { .. }));
        }
        coordinator.check_invariants().unwrap();
        assert_eq!(coordinator.pending_count(), 0);
        // The migrated query's tag traveled with it.
        let moved = evs.iter().find(|e| e.tag() == Some("moved")).unwrap();
        assert!(matches!(**moved, Event::Answered { .. }));
    }

    #[test]
    fn invalid_spanning_request_is_refused_before_routing() {
        // Two disjoint groups pending on different shards; a
        // structurally invalid query naming both must not merge them,
        // migrate anything, or take a shard lock — through either
        // entry point.
        let coordinator = Coordinator::new(
            flight_db(),
            EngineConfig {
                mode: crate::engine::EngineMode::SetAtATime { batch_size: 0 },
                service_shards: 4,
                ..Default::default()
            },
        );
        let mut session = coordinator.session();
        session
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        session
            .submit(q("{S(George, u)} S(Elaine, u) <- F(u, Rome)"))
            .unwrap();
        let spanning = || {
            let mut bad = q("{S(Newman, w)} R(Newman, w) <- F(w, Paris)");
            bad.body.clear(); // `w` is no longer range-restricted
            bad
        };
        let per_shard_pending = || -> Vec<usize> {
            let shards = coordinator.shared.shards.iter();
            shards.map(|s| s.lock().engine.pending_count()).collect()
        };
        let acquisitions = || -> Vec<u64> {
            let stats = coordinator.shard_lock_stats();
            stats.iter().map(|s| s.acquisitions).collect()
        };
        let pending_before = per_shard_pending();
        assert_eq!(pending_before.iter().filter(|&&n| n == 1).count(), 2);
        let interned_before = coordinator.shared.router.read().index.len();
        let locks_before = acquisitions();

        let err = session.submit(spanning()).unwrap_err();
        assert!(matches!(err, CoordinationError::Invalid(_)), "{err:?}");
        let mut results = session.submit_batch(vec![SubmitRequest::new(spanning())]);
        let err = results.pop().unwrap().unwrap_err();
        assert!(matches!(err, CoordinationError::Invalid(_)), "{err:?}");

        assert_eq!(acquisitions(), locks_before, "no shard lock taken");
        assert_eq!(
            coordinator.shared.router.read().index.len(),
            interned_before,
            "no key interned"
        );
        assert_eq!(per_shard_pending(), pending_before, "nothing migrated");
        coordinator.check_invariants().unwrap();
    }

    #[test]
    fn coordinator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Coordinator>();
        assert_send_sync::<Event>();
    }
}
