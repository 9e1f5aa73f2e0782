//! The `Coordinator` service facade: the paper's D3C middleware as a
//! long-running *service* API (§5.1) rather than a single-owner
//! `&mut` engine.
//!
//! A [`Coordinator`] is a clonable handle around a **sharded** pool of
//! internally synchronized [`CoordinationEngine`]s; clones share the
//! service, so an application can submit from one place, flush from
//! another, and observe outcomes from a third. On top of the raw
//! engine it adds:
//!
//! * **[`Session`]s** — each session owns the queries submitted through
//!   it and withdraws the still-pending ones when it is closed or
//!   dropped, giving connection-scoped cleanup for free (the paper's
//!   queries live inside client transactions; a dropped connection must
//!   not leak pending residents);
//! * **[`SubmitRequest`]** — a per-query builder (`deadline`,
//!   `staleness`, `on_no_solution`, `tag`) replacing engine-wide
//!   configuration knobs for per-query concerns, plus
//!   [`Session::submit_batch`], which admits a run of queries under one
//!   shard lock ([`CoordinationEngine::submit_batch`]) — a single
//!   submit is a batch of one;
//! * **[`Event`] subscriptions** — terminal outcomes and flush reports
//!   are *pushed* over **bounded** per-subscriber queues
//!   ([`Coordinator::subscribe`], [`Coordinator::subscribe_with`]) with
//!   an explicit [`OverflowPolicy`] (block / drop-oldest / disconnect —
//!   see [`crate::events`]). Delivery is **out-of-lock**: events are
//!   staged on an ordered dispatch queue inside the shard critical
//!   section that produced them and fanned out only after every
//!   service lock is released (`crate::dispatch`), so a slow
//!   subscriber can stall at most the dispatching thread, never
//!   admission;
//! * **service sharding** — with [`EngineConfig::service_shards`] > 1,
//!   pending queries are partitioned by `(relation, arity)`
//!   connectivity across independently locked engine shards (see
//!   `Router` below); a submission touching only one connectivity group
//!   contends only on that group's shard lock, and the rare query
//!   bridging two groups takes a rendezvous path that merges them;
//! * **typed errors** — every operation reports
//!   [`CoordinationError`], the unified hierarchy of
//!   [`crate::error`];
//! * **the cadence** — an engine only admits until it is flushed, so
//!   *when* a shard evaluates is decided here, once, from
//!   [`EngineConfig::mode`]: an incremental service flushes a shard at
//!   the end of every admission call and of recovery's re-admission
//!   (under the same lock, before the call's outcomes are staged), a
//!   set-at-a-time service only on [`Coordinator::flush`]. The reports
//!   of admission-time evaluations are kept per shard and folded into
//!   the next flush's report.
//!
//! One-shot coordination (`coordinate()`) drives a bare engine for one
//! round.
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

use crate::combine::QueryAnswer;
use crate::dispatch::Dispatcher;
use crate::engine::{
    BatchReport, CoordinationEngine, EngineConfig, EngineMode, FailReason, NoSolutionPolicy,
    PendingQuery, QueryHandle, QueryOutcome, QueryStatus, RejectReason, SubmitError, SubmitOptions,
};
use crate::error::CoordinationError;
use eq_db::{Database, Tuple};
use eq_ir::{Atom, EntangledQuery, FastMap, QueryId};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

pub use parking_lot::LockStats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::events::{Events, OverflowPolicy, SubscriberStats};

/// Queue capacity used by [`Coordinator::subscribe`] (the
/// [`OverflowPolicy::Block`] default): deep enough that a subscriber
/// draining at flush granularity never blocks a moderate flush, small
/// enough to bound memory under a 100k-query sweep.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One query submission, built fluently.
///
/// Replaces the per-query knobs that used to hide in [`EngineConfig`]:
/// a deadline or staleness bound applies to *this* query, a no-solution
/// policy applies to *this* query's component outcomes, and a tag
/// travels to the [`Event`]s the query produces.
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
    deadline: Option<Instant>,
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
    /// query … considered to have failed" (§5.1); an engine-wide bound
    /// is this, set on every request. A bound too large for the clock
    /// to represent (`Duration::MAX`) never expires.
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

    fn to_options(&self, now: Instant) -> SubmitOptions {
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

/// A coordination event, pushed to every subscriber
/// ([`Coordinator::subscribe`]).
///
/// Query events carry the submission's tag (if any); every submitted
/// query produces **exactly one** terminal event — `Answered`,
/// `Failed`, `Expired`, or `Cancelled` — property-tested against the
/// engine's final [`QueryStatus`] under churn.
#[derive(Clone, Debug)]
pub enum Event {
    /// The query coordinated; the answer is attached.
    Answered {
        /// The answered query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
        /// The coordinated answer.
        answer: QueryAnswer,
    },
    /// The query was rejected during a coordination round.
    Failed {
        /// The rejected query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// The query exceeded its deadline or staleness bound.
    Expired {
        /// The expired query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
    },
    /// The query was withdrawn (explicit cancel, or its session
    /// closed).
    Cancelled {
        /// The withdrawn query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
    },
    /// A flush completed; the report summarizes the round. Boxed, so
    /// the other events do not carry a report's worth of bytes.
    Flushed(Box<BatchReport>),
}

impl Event {
    /// The query this event concerns (`None` for [`Event::Flushed`]).
    pub fn id(&self) -> Option<QueryId> {
        match self {
            Event::Answered { id, .. }
            | Event::Failed { id, .. }
            | Event::Expired { id, .. }
            | Event::Cancelled { id, .. } => Some(*id),
            Event::Flushed(_) => None,
        }
    }

    /// The submission tag, if the event concerns a tagged query.
    pub fn tag(&self) -> Option<&str> {
        match self {
            Event::Answered { tag, .. }
            | Event::Failed { tag, .. }
            | Event::Expired { tag, .. }
            | Event::Cancelled { tag, .. } => tag.as_deref(),
            Event::Flushed(_) => None,
        }
    }

    /// True for a query's terminal event (everything except
    /// [`Event::Flushed`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Event::Flushed(_))
    }
}

/// The durability hook: a write-ahead recorder consulted inside the
/// owning critical section at the points that define the
/// crash-recovery contract — after a batch of submissions is admitted
/// (before any handle is released to the caller), when terminal
/// outcomes are drained (before the first of their events is staged
/// for dispatch), and after a bulk load (before the database lock is
/// released). Each call is *encode into a buffer, commit once*: one
/// log frame per service call. `eq_core::durable` installs a
/// WAL-backed implementation; the trait stays crate-private so the
/// recording points cannot be bypassed or reordered from outside.
pub(crate) trait DurabilitySink: Send {
    /// Encodes one submission about to be offered to the engine, from
    /// a borrow (the engine consumes the query). Deadlines are
    /// deliberately not recorded — wall-clock instants don't survive a
    /// restart; a recovered query re-enters the pool deadline-free.
    fn stage_submit(
        &mut self,
        staged: &mut StagedSubmits,
        query: &EntangledQuery,
        tag: Option<&str>,
        on_no_solution: Option<NoSolutionPolicy>,
    );
    /// Commits the staged submissions the engine admitted: `admitted`
    /// yields, in staging order, the id each one drew or `None` for a
    /// refused one, whose bytes are discarded.
    fn commit_submits(
        &mut self,
        staged: &StagedSubmits,
        admitted: &mut dyn Iterator<Item = Option<QueryId>>,
    );
    /// Commits terminal outcomes drained from the engine's outcome log
    /// and not yet staged for broadcast.
    fn commit_outcomes(&mut self, outcomes: &[(QueryId, QueryOutcome)]);
    /// Encodes a bulk load into `record`, from a borrow of the rows.
    fn stage_load(&mut self, record: &mut Vec<u8>, table: &str, rows: &[Tuple]);
    /// Commits a staged load that succeeded.
    fn commit_load(&mut self, record: &[u8]);
}

/// Submission records encoded ahead of admission, back to back; the
/// `i`-th ends at `ends[i]`. Owned by the shard, so the buffers are
/// reused from batch to batch under the shard lock.
#[derive(Default)]
pub(crate) struct StagedSubmits {
    pub(crate) bytes: Vec<u8>,
    pub(crate) ends: Vec<usize>,
}

/// One engine shard: a slice of the pending pool behind its own lock.
/// Queries are routed here by `(relation, arity)` connectivity (see
/// [`Router`]), so every match-graph edge — and the Figure-9 admission
/// safety check that polices edges — is shard-local by construction.
struct ShardInner {
    engine: CoordinationEngine,
    tags: FastMap<QueryId, String>,
    staged: StagedSubmits,
    /// The evaluations run at admission since the last flush, folded
    /// into one report (`pending` left 0) that the next
    /// [`Coordinator::flush`] merges into its own.
    unreported: BatchReport,
}

/// Sentinel shard for a union-find group that has not been placed yet.
const UNASSIGNED: u32 = u32::MAX;

/// Routes queries to engine shards by `(relation, arity)` connectivity.
///
/// Two entangled queries can share a match-graph edge only if a head
/// of one unifies with a postcondition of the other — which requires
/// the same relation symbol and arity. A union-find over the
/// `(relation, arity)` keys of every admitted query's head and
/// postcondition atoms therefore *over-approximates* match-graph
/// connectivity: queries whose key sets ended up in different groups
/// are provably edge-free, so homing each group on one shard keeps
/// every possible edge — and the Figure-9 admission safety check that
/// polices edges — shard-local. Over-merging (a query bridging groups
/// that never actually coordinate) only costs parallelism, never
/// correctness.
///
/// A submission whose keys all resolve to one placed group takes the
/// read-locked fast path straight to that group's shard. Anything else
/// — unknown keys, a group not yet placed, or keys spanning groups —
/// takes the write path: groups merge, and if the merged group spans
/// shards the rendezvous migrates every losing shard's members to the
/// winner ([`Coordinator`]'s `route_and_migrate`).
struct Router {
    /// `(relation, arity)` key → union-find slot.
    index: FastMap<u64, u32>,
    parent: Vec<u32>,
    /// Shard owning each group; valid at root slots, [`UNASSIGNED`]
    /// until the group is first placed.
    shard: Vec<u32>,
    /// Key groups homed per shard (placement heuristic for new
    /// groups).
    load: Vec<u32>,
}

/// One write-path routing decision: the shard to admit on, the merged
/// group's union-find root, and the shards whose members of that group
/// must migrate to `shard`.
struct Route {
    shard: usize,
    root: u32,
    losers: Vec<usize>,
}

impl Router {
    fn new(shards: usize) -> Self {
        Router {
            index: FastMap::default(),
            parent: Vec::new(),
            shard: Vec::new(),
            load: vec![0; shards],
        }
    }

    /// The routing key of one answer-relation atom. `Symbol` is
    /// interned, so `(relation, arity)` packs collision-free into a
    /// `u64` — atoms unify only when relation and arity agree, which
    /// is exactly what makes the key a sound connectivity
    /// over-approximation.
    fn key(atom: &Atom) -> u64 {
        ((atom.relation.index() as u64) << 32) | atom.terms.len() as u64
    }

    /// Sorted, deduplicated routing keys of a query's head and
    /// postcondition atoms (body atoms name database relations and
    /// never form match edges).
    fn query_keys(query: &EntangledQuery) -> Vec<u64> {
        let mut keys: Vec<u64> = query
            .head
            .iter()
            .chain(query.postconditions.iter())
            .map(Self::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn intern(&mut self, key: u64) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = self.parent.len() as u32;
        self.parent.push(slot);
        self.shard.push(UNASSIGNED);
        self.index.insert(key, slot);
        slot
    }

    /// Non-compressing find, usable under a read guard (chains grow by
    /// one hop per merge and merges are rare; the write path re-roots
    /// directly).
    fn find(&self, mut slot: u32) -> u32 {
        while self.parent[slot as usize] != slot {
            slot = self.parent[slot as usize];
        }
        slot
    }

    /// Root of the group owning `query`, if its keys are interned. All
    /// of an admitted query's keys are in one group (an admission
    /// invariant the write path maintains), so the first head atom's
    /// key decides.
    fn root_of(&self, query: &EntangledQuery) -> Option<u32> {
        let key = Self::key(&query.head[0]);
        self.index.get(&key).map(|&slot| self.find(slot))
    }

    /// Read-path resolution: the placed shard every key agrees on, or
    /// `None` if any key is unknown, the keys span groups, or the
    /// group is unplaced — all of which take the write path.
    fn resolve(&self, keys: &[u64]) -> Option<usize> {
        let mut root: Option<u32> = None;
        for key in keys {
            let slot = *self.index.get(key)?;
            let r = self.find(slot);
            match root {
                None => root = Some(r),
                Some(r0) if r0 == r => {}
                Some(_) => return None,
            }
        }
        let shard = self.shard[root? as usize];
        (shard != UNASSIGNED).then_some(shard as usize)
    }

    /// Write-path routing: interns unknown keys, merges every group
    /// the key set touches into one, places the merged group — on the
    /// least-loaded shard if none was placed yet, else on the
    /// least-loaded *involved* shard, ties to the lowest index (the
    /// deterministic rendezvous winner; preferring the lowest index
    /// unconditionally would pile every merged group onto shard 0) —
    /// and names the shards that now owe a migration.
    fn route(&mut self, keys: &[u64]) -> Route {
        let slots: Vec<u32> = keys.iter().map(|&k| self.intern(k)).collect();
        let mut roots: Vec<u32> = slots.iter().map(|&s| self.find(s)).collect();
        roots.sort_unstable();
        roots.dedup();
        let mut involved: Vec<u32> = roots
            .iter()
            .map(|&r| self.shard[r as usize])
            .filter(|&s| s != UNASSIGNED)
            .collect();
        involved.sort_unstable();
        involved.dedup();
        let target = if involved.is_empty() {
            let mut best = 0usize;
            for (s, &l) in self.load.iter().enumerate() {
                if l < self.load[best] {
                    best = s;
                }
            }
            best as u32
        } else {
            *involved
                .iter()
                .min_by_key(|&&s| (self.load[s as usize], s))
                .expect("non-empty involved set")
        };
        let winner_root = roots[0];
        for &r in &roots {
            let owner = self.shard[r as usize];
            if owner != UNASSIGNED {
                self.load[owner as usize] -= 1;
            }
            self.parent[r as usize] = winner_root;
        }
        self.shard[winner_root as usize] = target;
        self.load[target as usize] += 1;
        Route {
            shard: target as usize,
            root: winner_root,
            losers: involved
                .into_iter()
                .filter(|&s| s != target)
                .map(|s| s as usize)
                .collect(),
        }
    }
}

/// Everything the `Coordinator` clones share. Lock order (debug builds
/// validate it through the instrumented `parking_lot` shim): `router`
/// → shard locks in ascending index → database lock → `sink` →
/// whatever the sink locks internally.
struct ServiceShared {
    shards: Vec<Mutex<ShardInner>>,
    /// Connectivity router. Shard-local admission holds a read guard
    /// across the shard operation; only group merges (and their
    /// migrations) serialize on the write side.
    router: RwLock<Router>,
    dispatcher: Dispatcher,
    /// The database, shared by every engine shard.
    db: Arc<RwLock<Database>>,
    /// Global id counter. Every shard draws from it and a submission
    /// consumes an id only on successful admission, so the sequence is
    /// identical to single-shard submission and recovery reads one
    /// watermark.
    next_id: AtomicU64,
    /// Durability recorder, behind its own (leaf) lock so the
    /// recording points stay inside the producing shard's critical
    /// section without a global service lock.
    sink: Mutex<Option<Box<dyn DurabilitySink>>>,
    /// Lock-free mirror of `sink.is_some()` — submission fast paths
    /// consult it to decide whether to encode the query for logging.
    has_sink: AtomicBool,
    /// The cadence, read from [`EngineConfig::mode`] once: evaluate a
    /// shard at the end of every admission call.
    incremental: bool,
}

/// A clonable handle to a running coordination service.
///
/// All clones share one pool of [`CoordinationEngine`] shards
/// ([`EngineConfig::service_shards`]; one shard — the default — is the
/// classic single-mutex service). Every method locks only the shard(s)
/// an operation touches, and event fan-out happens *after* those locks
/// are released (see `crate::dispatch`). Evaluation runs inside an
/// engine, on the thread that holds its shard lock; the service owns
/// the clock and the cadence, passing the one to the engine's deadline
/// sweep and deciding with the other when the engine flushes.
#[derive(Clone)]
pub struct Coordinator {
    shared: Arc<ServiceShared>,
}

impl Coordinator {
    /// Starts a coordination service over `db` with
    /// [`EngineConfig::service_shards`] engine shards (clamped to at
    /// least 1).
    pub fn new(db: Database, config: EngineConfig) -> Self {
        let shard_count = config.service_shards.max(1);
        let db = Arc::new(RwLock::new(db));
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(ShardInner {
                    engine: CoordinationEngine::with_shared_db(Arc::clone(&db), config.clone()),
                    tags: FastMap::default(),
                    staged: StagedSubmits::default(),
                    unreported: BatchReport::default(),
                })
            })
            .collect();
        Coordinator {
            shared: Arc::new(ServiceShared {
                shards,
                router: RwLock::new(Router::new(shard_count)),
                dispatcher: Dispatcher::new(),
                db,
                next_id: AtomicU64::new(1),
                sink: Mutex::new(None),
                has_sink: AtomicBool::new(false),
                incremental: config.mode == EngineMode::Incremental,
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

    /// Subscribes to the service's [`Event`] stream, starting now
    /// (outcomes that became terminal before the subscription are not
    /// replayed: every locked call drains its shard's outcome log, and
    /// events staged while nobody listens are dropped). The
    /// subscription is a bounded queue of [`DEFAULT_EVENT_CAPACITY`]
    /// events under [`OverflowPolicy::Block`]: a full queue applies
    /// backpressure to the dispatcher instead of growing without bound.
    ///
    /// **Blocking contract:** events are dispatched *after* every
    /// service lock is released, so a full `Block` queue suspends only
    /// the thread that is currently draining the dispatch queue —
    /// other sessions keep submitting, flushing, and cancelling, with
    /// their events staged for whenever the dispatcher resumes. The
    /// suspended thread is whichever `Coordinator` call happened to
    /// pick up dispatch duty, so that *caller* still waits on the
    /// subscriber: drain from a dedicated thread that does **not**
    /// call back into the `Coordinator`, pick a capacity that covers
    /// the largest round you publish before draining
    /// ([`Coordinator::subscribe_with`]), or — for single-threaded
    /// consumers that drain lazily — prefer
    /// [`OverflowPolicy::DropOldest`] (evictions are counted, never
    /// silent).
    pub fn subscribe(&self) -> Events {
        self.subscribe_with(DEFAULT_EVENT_CAPACITY, OverflowPolicy::Block)
    }

    /// [`Coordinator::subscribe`] with an explicit queue bound and
    /// [`OverflowPolicy`]. No policy loses terminal events *silently*:
    /// `Block` delivers everything (backpressure on the dispatching
    /// thread, never on a shard lock), `DropOldest` counts every
    /// eviction in the subscriber's [`SubscriberStats`], and
    /// `Disconnect` ends the subscription visibly on overflow (counted
    /// in [`Coordinator::disconnected_subscribers`]).
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

    /// How many subscriptions ended from the publisher's side — the
    /// subscriber's receiver was dropped (possibly mid-flush), or its
    /// [`OverflowPolicy::Disconnect`] queue overflowed. The fan-out
    /// never panics or stalls on such a subscriber; it prunes it and
    /// accounts the disconnect here.
    pub fn disconnected_subscribers(&self) -> u64 {
        self.shared.dispatcher.disconnected()
    }

    /// Sweeps every shard's expired queries, then runs a set-at-a-time
    /// evaluation round over the dirty components
    /// of every shard (see [`CoordinationEngine::flush`]), staging one
    /// terminal event per retired query followed by an
    /// [`Event::Flushed`] report and dispatching them after all shard
    /// locks are released.
    ///
    /// The report also covers every evaluation an incremental service
    /// ran at admission since the previous flush: their counts are
    /// added, [`BatchReport::intra_witness_peak`] is the maximum, and
    /// [`BatchReport::pending`] is this round's. Its
    /// [`BatchReport::lock_hold_ns`] sums each shard's critical section
    /// for *this* flush (engine flush + event staging, measured off the
    /// live guards); lifetime lock counters are on
    /// [`Coordinator::lock_stats`].
    pub fn flush(&self) -> BatchReport {
        let mut report = BatchReport::default();
        {
            let _router = self.scan_guard();
            for shard in &self.shared.shards {
                let mut inner = shard.lock();
                inner.engine.expire_stale(Instant::now());
                let shard_report = inner.engine.flush();
                self.stage_outcomes(&mut inner);
                let held = inner.held_ns();
                merge_reports(&mut report, std::mem::take(&mut inner.unreported));
                merge_reports(&mut report, shard_report);
                report.lock_hold_ns += held;
            }
        }
        self.stage_flushed(report);
        self.shared.dispatcher.drain();
        report
    }

    /// Snapshot of the shard locks' hold-time counters, aggregated
    /// across shards (acquisitions and hold time summed, max hold
    /// maxed; completed holds only). Per-shard figures are available
    /// from [`Coordinator::shard_lock_stats`].
    pub fn lock_stats(&self) -> LockStats {
        let mut out = LockStats::default();
        for shard in &self.shared.shards {
            let s = shard.stats();
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

    /// High-water mark of the out-of-lock dispatch queue — the most
    /// events that were ever staged (under a shard lock) awaiting the
    /// post-release drain, over the service's lifetime.
    pub fn dispatch_queue_peak(&self) -> u64 {
        self.shared.dispatcher.queue_peak()
    }

    /// Sweeps expired queries (per-query deadlines and staleness
    /// bounds) on every shard, staging their [`Event::Expired`]
    /// events. Returns how many queries expired.
    pub fn expire_stale(&self) -> usize {
        let mut expired = 0;
        {
            let _router = self.scan_guard();
            for shard in &self.shared.shards {
                let mut inner = shard.lock();
                expired += inner.engine.expire_stale(Instant::now());
                self.stage_outcomes(&mut inner);
            }
        }
        self.shared.dispatcher.drain();
        expired
    }

    /// Withdraws a pending query. Typed refusals: the id was never
    /// submitted ([`CoordinationError::UnknownQuery`]) or the query
    /// already reached a terminal status
    /// ([`CoordinationError::AlreadyTerminal`]).
    pub fn cancel(&self, id: QueryId) -> Result<(), CoordinationError> {
        let result = self.cancel_routed(id);
        self.shared.dispatcher.drain();
        result
    }

    fn cancel_routed(&self, id: QueryId) -> Result<(), CoordinationError> {
        let _router = self.scan_guard();
        let mut terminal: Option<QueryStatus> = None;
        for shard in &self.shared.shards {
            let mut inner = shard.lock();
            if inner.engine.cancel(id) {
                self.stage_outcomes(&mut inner);
                return Ok(());
            }
            if terminal.is_none() {
                terminal = inner.engine.status(id).cloned();
            }
        }
        match terminal {
            Some(status) => Err(CoordinationError::AlreadyTerminal(status)),
            None => Err(CoordinationError::UnknownQuery(id)),
        }
    }

    /// Withdraws every still-pending query in `ids` under **one** lock
    /// acquisition per shard (session close uses this), staging their
    /// [`Event::Cancelled`] events and dispatching once at the end.
    /// Already-terminal and unknown ids are skipped. Returns how many
    /// were withdrawn.
    pub fn cancel_all(&self, ids: &[QueryId]) -> usize {
        let mut withdrawn = 0;
        {
            let _router = self.scan_guard();
            for shard in &self.shared.shards {
                let mut inner = shard.lock();
                let mut local = 0;
                for &id in ids {
                    if inner.engine.cancel(id) {
                        local += 1;
                    }
                }
                if local > 0 {
                    self.stage_outcomes(&mut inner);
                }
                withdrawn += local;
            }
        }
        if withdrawn > 0 {
            self.shared.dispatcher.drain();
        }
        withdrawn
    }

    /// The status of a query, if known.
    pub fn status(&self, id: QueryId) -> Option<QueryStatus> {
        let _router = self.scan_guard();
        for shard in &self.shared.shards {
            if let Some(status) = shard.lock().engine.status(id).cloned() {
                return Some(status);
            }
        }
        None
    }

    /// Number of pending queries across all shards.
    pub fn pending_count(&self) -> usize {
        let _router = self.scan_guard();
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().engine.pending_count())
            .sum()
    }

    /// Shared handle to the service's database; write to it between
    /// rounds to load or update data (a write re-dirties kept-pending
    /// components at a shard's next evaluation — in incremental mode
    /// the one that ends its next admission call, in set-at-a-time
    /// mode the next [`Coordinator::flush`]).
    pub fn db(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.shared.db)
    }

    /// Bulk-loads rows into a table through the database lock — one
    /// lock acquisition and one revision bump
    /// ([`Database::insert_many`]).
    pub fn load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize, CoordinationError> {
        // The durable record is encoded from a borrow, before
        // `insert_many` takes the rows and outside the database lock.
        let logged = self.shared.has_sink.load(Ordering::Relaxed);
        let mut record = Vec::new();
        if logged {
            if let Some(sink) = self.shared.sink.lock().as_mut() {
                sink.stage_load(&mut record, table, &rows);
            }
        }
        let mut db = self.shared.db.write();
        // Only a load that actually happened is recorded; a refused one
        // (unknown table, arity mismatch) leaves no trace to replay.
        let inserted = db.insert_many(table, rows)?;
        // Logged before the write guard goes: a checkpoint (which reads
        // the database) can then never fold these rows into its image
        // and leave their record above its watermark to be replayed on
        // top of them.
        if logged {
            if let Some(sink) = self.shared.sink.lock().as_mut() {
                sink.commit_load(&record);
            }
        }
        Ok(inserted)
    }

    /// Structural invariant check over every shard, typed
    /// ([`crate::InvariantViolation`] folded into
    /// [`CoordinationError`]).
    pub fn check_invariants(&self) -> Result<(), CoordinationError> {
        let _router = self.scan_guard();
        for shard in &self.shared.shards {
            shard.lock().engine.check_invariants()?;
        }
        Ok(())
    }

    /// Queries that §3.1.1 enforcement would sideline right now (see
    /// [`CoordinationEngine::safety_sidelined`]).
    pub fn safety_sidelined(&self) -> Vec<QueryId> {
        let _router = self.scan_guard();
        self.shared
            .shards
            .iter()
            .flat_map(|s| s.lock().engine.safety_sidelined())
            .collect()
    }

    /// Router read guard held across scan/shard-lock sections so a
    /// concurrent group merge (router write + migration) cannot move a
    /// query between shards mid-scan. `None` with a single shard —
    /// there is nothing to route.
    fn scan_guard(&self) -> Option<RwLockReadGuard<'_, Router>> {
        (self.shared.shards.len() > 1).then(|| self.shared.router.read())
    }

    /// Converts a shard's freshly drained terminal outcomes into
    /// events and **stages** them on the dispatch queue, recording
    /// each in the durability sink first (durability before
    /// visibility). Runs inside the shard's critical section so stage
    /// order equals retirement order — but performs no subscriber I/O:
    /// delivery happens in the dispatcher's drain, after every lock is
    /// released. This and [`Coordinator::stage_flushed`] are the only
    /// functions that construct events (`eq_check`'s
    /// `event-choke-point` rule), and nothing publishes under a lock
    /// (`no-publish-under-lock`).
    fn stage_outcomes(&self, inner: &mut ShardInner) {
        let outcomes = inner.engine.drain_outcome_log();
        if !outcomes.is_empty() {
            // Two passes: the whole drain is logged, as one frame,
            // before its first event is enqueued — a concurrent
            // dispatcher drain can never publish an unlogged outcome.
            let mut sink = self.shared.sink.lock();
            if let Some(sink) = sink.as_mut() {
                sink.commit_outcomes(&outcomes);
            }
            for (id, outcome) in outcomes {
                let tag = inner.tags.remove(&id);
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
    }

    /// The single place a [`Event::Flushed`] report is staged.
    fn stage_flushed(&self, report: BatchReport) {
        self.shared
            .dispatcher
            .enqueue(Event::Flushed(Box::new(report)));
    }

    /// Write-path routing: merges the key groups, and — when the
    /// merged group spans shards — migrates its pending queries from
    /// every losing shard into the winner. The rendezvous takes the
    /// involved shard locks in **ascending index order** (the debug
    /// lock-order graph validates the discipline): extract under each
    /// loser's lock, re-admit under the winner's, carrying ids, tags,
    /// policies and deadlines unchanged.
    /// Returns the shard to admit on. Caller holds the router write
    /// guard, which keeps fast-path readers out until placement is
    /// consistent again.
    fn route_and_migrate(&self, router: &mut Router, keys: &[u64]) -> usize {
        let route = router.route(keys);
        if route.losers.is_empty() {
            return route.shard;
        }
        let mut order: Vec<usize> = route.losers.clone();
        order.push(route.shard);
        order.sort_unstable();
        let snapshot: &Router = router;
        let mut guards: Vec<(usize, _)> = order
            .iter()
            .map(|&i| (i, self.shared.shards[i].lock()))
            .collect();
        let mut migrated = Vec::new();
        let mut moved_tags: Vec<(QueryId, String)> = Vec::new();
        for (idx, guard) in guards.iter_mut() {
            if *idx == route.shard {
                continue;
            }
            let lifted = guard
                .engine
                .extract_pending(|q| snapshot.root_of(q) == Some(route.root));
            for m in &lifted {
                if let Some(tag) = guard.tags.remove(&m.query.id) {
                    moved_tags.push((m.query.id, tag));
                }
            }
            migrated.extend(lifted);
        }
        migrated.sort_by_key(|m| m.query.id);
        let winner = guards
            .iter_mut()
            .find(|(i, _)| *i == route.shard)
            .expect("winner shard locked");
        winner.1.engine.readmit(migrated);
        for (id, tag) in moved_tags {
            winner.1.tags.insert(id, tag);
        }
        route.shard
    }

    /// Write-path placement of a batch's key sets: routes (merging
    /// groups and migrating losers) every set that does not resolve,
    /// then reads each set's shard — after the whole pass, since a later
    /// merge may move a group routed earlier.
    fn route_all(&self, router: &mut Router, keys: &[Vec<u64>]) -> Vec<usize> {
        for k in keys {
            if router.resolve(k).is_none() {
                self.route_and_migrate(router, k);
            }
        }
        keys.iter()
            .map(|k| router.resolve(k).expect("every key group was routed above"))
            .collect()
    }

    /// The one routed entry: every submission — a session's single
    /// submit is a batch of one — is validated, routed and admitted
    /// here, then its events are dispatched.
    pub(crate) fn submit_batch_request(
        &self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        let results = self.submit_batch_routed(requests);
        self.shared.dispatcher.drain();
        results
    }

    /// Validation goes first — the one pure step: an invalid request is
    /// refused in place, interns no key, merges no group and takes no
    /// lock. With several shards every valid request is then resolved
    /// under the router **read** guard, held across admission; only
    /// when some request's keys are unknown, unplaced or span groups is
    /// the write guard taken, the groups merged and losing shards
    /// migrated, and the batch admitted under it.
    ///
    /// Admission runs each maximal run of consecutive same-shard
    /// requests under one lock, in submission order, so the shared id
    /// counter hands out the ids a sequential replay would, and a run
    /// sees earlier runs on its shard as residents. Requests on
    /// different shards are provably edge-free (different key groups),
    /// so per-shard admission loses no coordination.
    fn submit_batch_routed(
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
        out.into_iter()
            .map(|r| r.expect("every request was refused or admitted"))
            .collect()
    }

    /// Admits the valid requests (`(position, request)`, in submission
    /// order; the `k`-th goes to `shard_of(k)`), one lock per maximal
    /// same-shard run, and scatters the results to their positions.
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
            let shard = shard_of(k);
            let len = (k..total).take_while(|&j| shard_of(j) == shard).count();
            k += len;
            // One exact allocation each: `unzip` reserves the run's
            // length.
            let (positions, batch): (Vec<usize>, Vec<SubmitRequest>) =
                valid.by_ref().take(len).unzip();
            let mut inner = self.shared.shards[shard].lock();
            let results = self.admit_batch_in(&mut inner, batch, now);
            for (pos, result) in positions.into_iter().zip(results) {
                out[pos] = Some(result);
            }
        }
    }

    /// Admission under a held shard guard: the deadline sweep at the
    /// current time, engine admission with ids
    /// drawn from the global counter, the durability record (inside the
    /// shard's critical section, before any handle escapes — the
    /// record-before-visibility contract), tag registration, the
    /// cadence's evaluation ([`Coordinator::evaluate_if_incremental`]),
    /// and staging of whatever outcomes the sweep and that evaluation
    /// produced. The requests are validated.
    fn admit_batch_in(
        &self,
        inner: &mut ShardInner,
        requests: Vec<SubmitRequest>,
        now: Instant,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        // The engine consumes each query, so its durable record is
        // encoded from a borrow first; the id it draws (or its refusal)
        // is settled at commit.
        let log = self.shared.has_sink.load(Ordering::Relaxed);
        if log {
            inner.staged.bytes.clear();
            inner.staged.ends.clear();
            if let Some(sink) = self.shared.sink.lock().as_mut() {
                for r in &requests {
                    sink.stage_submit(
                        &mut inner.staged,
                        &r.query,
                        r.tag.as_deref(),
                        r.on_no_solution,
                    );
                }
            }
        }
        let mut tags = Vec::with_capacity(requests.len());
        let batch = requests.into_iter().map(|r| {
            let opts = r.to_options(now);
            tags.push(r.tag);
            Ok((r.query, opts))
        });
        // The service owns the clock: the engine reads none.
        inner.engine.expire_stale(Instant::now());
        let results = inner
            .engine
            .submit_batch_with_source(batch, Some(&self.shared.next_id));
        if log {
            if let Some(sink) = self.shared.sink.lock().as_mut() {
                let mut admitted = results.iter().map(|r| r.as_ref().ok().map(|h| h.id));
                sink.commit_submits(&inner.staged, &mut admitted);
            }
        }
        for (result, tag) in results.iter().zip(tags) {
            if let (Ok(handle), Some(tag)) = (result, tag) {
                inner.tags.insert(handle.id, tag);
            }
        }
        self.evaluate_if_incremental(inner);
        // Stage after the submit records: an incremental-mode outcome
        // of these very submissions must land in the log *after* them.
        self.stage_outcomes(inner);
        results
            .into_iter()
            .map(|r| r.map_err(CoordinationError::from))
            .collect()
    }

    /// Installs the durability recorder: from here on every drained
    /// outcome log is committed to it before its events are staged. One
    /// sink per service; called by
    /// [`crate::durable::DurableCoordinator`] before any submission.
    pub(crate) fn install_sink(&self, sink: Box<dyn DurabilitySink>) {
        *self.shared.sink.lock() = Some(sink);
        self.shared.has_sink.store(true, Ordering::Relaxed);
    }

    /// Re-admits the recovered pending set — ascending id, each under
    /// its **recorded** id (`query.id`), tag and no-solution policy —
    /// in one call: every query is routed first, then each shard with a
    /// share takes it under one lock through the engine's admission step
    /// ([`CoordinationEngine::readmit`]: no Figure-9 verdict, the log
    /// already acknowledged them) and, like any admission call, ends in
    /// the cadence's evaluation
    /// ([`Coordinator::evaluate_if_incremental`]). The sink
    /// is bypassed (the log already holds these records; logging them
    /// again would duplicate them on the next replay). Does not
    /// dispatch: the caller pumps once afterwards, so recovery-time
    /// outcomes are recorded after every submission record. A recorded
    /// query that no longer validates refuses the whole set before
    /// anything is admitted.
    pub(crate) fn recover(&self, requests: Vec<SubmitRequest>) -> Result<(), CoordinationError> {
        for r in &requests {
            r.query.validate().map_err(SubmitError::Invalid)?;
        }
        let keys: Vec<Vec<u64>> = requests
            .iter()
            .map(|r| Router::query_keys(&r.query))
            .collect();
        let mut router = self.shared.router.write();
        let shards = self.route_all(&mut router, &keys);
        let mut per_shard: Vec<Vec<SubmitRequest>> =
            self.shared.shards.iter().map(|_| Vec::new()).collect();
        for (r, shard) in requests.into_iter().zip(shards) {
            per_shard[shard].push(r);
        }
        for (shard, requests) in per_shard.into_iter().enumerate() {
            if requests.is_empty() {
                continue;
            }
            let mut inner = self.shared.shards[shard].lock();
            let mut pending = Vec::with_capacity(requests.len());
            for r in requests {
                if let Some(tag) = r.tag {
                    inner.tags.insert(r.query.id, tag);
                }
                pending.push(PendingQuery::recovered(r.query, r.on_no_solution));
            }
            inner.engine.readmit(pending);
            self.evaluate_if_incremental(&mut inner);
        }
        Ok(())
    }

    /// The cadence, decided in one place: an incremental service
    /// evaluates a shard's dirty set at the end of each admission call
    /// (and of recovery's re-admission), under the same lock, and keeps
    /// the report for the next [`Coordinator::flush`]; a set-at-a-time
    /// service leaves the shard to that flush. Shard migration
    /// re-admits without evaluating: the admission that caused it ends
    /// here.
    fn evaluate_if_incremental(&self, inner: &mut ShardInner) {
        if self.shared.incremental {
            let report = inner.engine.flush();
            merge_reports(&mut inner.unreported, report);
            // A flush reports its own pass's pending count.
            inner.unreported.pending = 0;
        }
    }

    /// Drains, records, and dispatches any terminal outcomes produced
    /// outside the normal operation paths (recovery replay uses this).
    pub(crate) fn pump_now(&self) {
        {
            let _router = self.scan_guard();
            for shard in &self.shared.shards {
                let mut inner = shard.lock();
                self.stage_outcomes(&mut inner);
            }
        }
        self.shared.dispatcher.drain();
    }

    /// Runs `f` with every shard locked in ascending index order — a
    /// consistent cut across the whole service. Checkpointing and
    /// durable schema changes snapshot the database, the WAL state,
    /// and the id watermark through this so no acknowledgment can land
    /// inside the cut.
    pub(crate) fn with_exclusive<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guards: Vec<_> = self.shared.shards.iter().map(|s| s.lock()).collect();
        f()
    }

    /// The id the next submission will draw. Recovery persists this in
    /// checkpoints.
    pub(crate) fn id_watermark(&self) -> u64 {
        self.shared.next_id.load(Ordering::Relaxed)
    }

    /// Moves the global id counter forward (never backward) — recovery
    /// replays acknowledged submissions under their original ids and
    /// then restores the watermark so post-recovery submissions never
    /// reuse an id.
    pub(crate) fn set_id_watermark(&self, next: u64) {
        self.shared.next_id.fetch_max(next, Ordering::Relaxed);
    }
}

/// Accumulates one evaluation's report into another: per-shard flush
/// reports into the service-wide one, admission-time reports into a
/// shard's accumulator. Counts sum; the witness peak is a maximum. The
/// lock hold is stamped by the caller.
fn merge_reports(into: &mut BatchReport, from: BatchReport) {
    into.components += from.components;
    into.skipped_clean += from.skipped_clean;
    into.answered += from.answered;
    into.failed += from.failed;
    into.pending += from.pending;
    into.intra_components += from.intra_components;
    into.intra_units += from.intra_units;
    into.intra_split_units += from.intra_split_units;
    into.intra_regions += from.intra_regions;
    into.intra_region_streamed += from.intra_region_streamed;
    into.intra_witness_peak = into.intra_witness_peak.max(from.intra_witness_peak);
    into.stats.dequeues += from.stats.dequeues;
    into.stats.mgu_calls += from.stats.mgu_calls;
    into.stats.cleanups += from.stats.cleanups;
    into.unify_merges += from.unify_merges;
    into.unify_clones += from.unify_clones;
}

/// A group of queries owned by one client of the [`Coordinator`].
///
/// Submissions go through the session so the service knows which
/// pending queries belong to which client; when the session is closed
/// (or dropped), its still-pending queries are withdrawn and their
/// subscribers receive [`Event::Cancelled`].
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
    /// Submits one query, as a batch of one. In incremental mode the
    /// service evaluates the query's shard before this returns, so the
    /// query's terminal event may already be published (the
    /// evaluation's report rides on the next [`Coordinator::flush`]); in
    /// set-at-a-time mode it waits for that flush.
    pub fn submit(
        &mut self,
        request: impl Into<SubmitRequest>,
    ) -> Result<QueryHandle, CoordinationError> {
        let mut results = self.submit_batch(vec![request.into()]);
        results.pop().expect("one result per request")
    }

    /// Submits a batch: each query goes through its shard engine's one
    /// admission step in submission order (see
    /// [`CoordinationEngine::submit_batch`]). Per-query results are
    /// positional; each maximal run of consecutive same-shard requests
    /// is admitted under one lock acquisition.
    pub fn submit_batch(
        &mut self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        let results = self.coordinator.submit_batch_request(requests);
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

    /// Closes the session, withdrawing its still-pending queries.
    /// Returns how many were withdrawn. Dropping the session does the
    /// same.
    pub fn close(mut self) -> usize {
        self.close_inner()
    }

    fn close_inner(&mut self) -> usize {
        if self.closed {
            return 0;
        }
        self.closed = true;
        // One lock acquisition per shard and one dispatch for the
        // whole session, however many queries it submitted over its
        // life.
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
    use eq_ir::Value;
    use eq_sql::parse_ir_query;

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
    /// (Holding the coordinator it is installed in leaks the pair — a
    /// test-only cycle.)
    struct ProbeSink {
        coordinator: Coordinator,
        commits: Arc<Mutex<Vec<(&'static str, u64)>>>,
    }

    impl ProbeSink {
        fn install(coordinator: &Coordinator) -> Arc<Mutex<Vec<(&'static str, u64)>>> {
            let commits = Arc::default();
            coordinator.install_sink(Box::new(ProbeSink {
                coordinator: coordinator.clone(),
                commits: Arc::clone(&commits),
            }));
            commits
        }

        fn note(&self, what: &'static str) {
            let peak = self.coordinator.dispatch_queue_peak();
            self.commits.lock().push((what, peak));
        }
    }

    impl DurabilitySink for ProbeSink {
        fn stage_submit(
            &mut self,
            staged: &mut StagedSubmits,
            _: &EntangledQuery,
            _: Option<&str>,
            _: Option<NoSolutionPolicy>,
        ) {
            staged.ends.push(0);
        }

        fn commit_submits(
            &mut self,
            staged: &StagedSubmits,
            admitted: &mut dyn Iterator<Item = Option<QueryId>>,
        ) {
            assert_eq!(admitted.count(), staged.ends.len(), "a verdict per query");
            self.note("submits");
        }

        fn commit_outcomes(&mut self, _: &[(QueryId, QueryOutcome)]) {
            self.note("outcomes");
        }

        fn stage_load(&mut self, _: &mut Vec<u8>, _: &str, _: &[Tuple]) {}

        fn commit_load(&mut self, _: &[u8]) {
            // The load‖checkpoint race: a checkpoint reads the database
            // under its read lock. If that lock can be had here, a
            // checkpoint could fold the just-inserted rows into its image
            // with this record still above its watermark.
            assert!(
                self.coordinator.shared.db.try_read().is_none(),
                "the load record must be committed under the database write guard"
            );
            self.note("load");
        }
    }

    #[test]
    fn a_flushed_event_boxes_its_report() {
        // Every queued event is as large as the largest variant.
        assert!(std::mem::size_of::<Event>() <= 96);
    }

    #[test]
    fn load_is_logged_while_the_database_write_guard_is_held() {
        let coordinator = batch_coordinator(flight_db());
        let commits = ProbeSink::install(&coordinator);
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
    fn a_drain_is_committed_once_and_before_its_first_event_is_enqueued() {
        let coordinator = batch_coordinator(flight_db());
        let commits = ProbeSink::install(&coordinator);
        let _events = coordinator.subscribe();
        let results = coordinator.submit_batch_request(vec![
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

    fn batch_coordinator(db: Database) -> Coordinator {
        Coordinator::new(
            db,
            EngineConfig {
                mode: crate::engine::EngineMode::SetAtATime { batch_size: 0 },
                ..Default::default()
            },
        )
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
