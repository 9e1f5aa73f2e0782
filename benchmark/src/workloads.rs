//! The five workloads. Each builds its inputs from the seed alone,
//! prepares a fresh service per iteration (leftovers of one iteration
//! must not meet the next), and drives it through the measuring
//! [`Client`]. Sizes are pinned here; README.md says how they were
//! chosen.

use crate::driver::{Client, Finished};
use eq_core::{
    Coordinator, DurableCoordinator, EngineConfig, EngineMode, NoSolutionPolicy, Session,
    SubmitRequest,
};
use eq_db::{Database, StoreIoStats};
use eq_ir::EntangledQuery;
use eq_workload::rng::{SliceRandom, StdRng};
use eq_workload::{
    build_database, build_out_of_core_database, clique_groups, giant_component,
    scale_service_script, two_way_pairs, GiantBody, GiantComponentConfig, PairStyle,
    ScaleServiceConfig, ScriptSubmission, ServiceOp, SocialGraph, SocialGraphConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Queries per `submit_batch` burst on the round-based workloads.
const BURST: usize = 1000;

/// One workload: inputs built once per set-up, a fresh service per
/// iteration.
pub trait Workload: Sized {
    /// A live service plus the requests about to be sent to it.
    type Live;

    const NAME: &'static str;
    /// Share of submitted queries that must end `Answered`; below it
    /// the run measures rejection, not coordination, and aborts.
    const ANSWERED_FLOOR: f64;

    fn build(seed: u64) -> Self;
    /// Fresh service over a private copy of the data, requests built.
    /// Counted in `setup_s`, so work moved into service construction
    /// shows there.
    fn prepare(&self) -> Self::Live;
    fn coordinator(live: &Self::Live) -> Coordinator;
    /// Most events the service can queue between two drains.
    fn event_capacity(&self) -> usize;
    /// The timed window.
    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>);
    /// The query at a position of the submission stream.
    fn query(&self, index: u32) -> &EntangledQuery;
    /// Untimed, straight after the timed window: reads the workload's
    /// own layer counters into `finished.it.layers` and runs its own
    /// checks, before anything else touches the service.
    fn layers(&self, _live: &Self::Live, _finished: &mut Finished) {}
    /// Untimed: tears the service down. `recover` asks the durable
    /// workload to kill and recover first.
    fn finish(&self, live: Self::Live, finished: &mut Finished, recover: bool);
    /// The whole query stream, for the layer replay, and the database
    /// to replay it on.
    fn replay_sample(&self) -> Vec<EntangledQuery>;
    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R;
    /// Layer numbers that need runs of their own (traced run only);
    /// `measured` holds the run's medians so far.
    fn extra_layers(
        &self,
        _measured: &BTreeMap<&'static str, f64>,
        _layers: &mut Vec<(&'static str, f64)>,
    ) {
    }
}

/// The social network is the experiment's dataset (the paper's is one
/// fixed Slashdot trace): its generator seed stays the repo's default
/// and `--seed` decides the query stream sent against it.
fn social_graph(users: usize) -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users,
        ..Default::default()
    })
}

fn requests_of(queries: &[EntangledQuery]) -> Vec<SubmitRequest> {
    queries
        .iter()
        .map(|q| SubmitRequest::new(q.clone()))
        .collect()
}

pub fn bursts_of(queries: &[EntangledQuery]) -> Vec<Vec<SubmitRequest>> {
    queries.chunks(BURST).map(requests_of).collect()
}

pub fn set_at_a_time() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        flush_threads: 1,
        ..Default::default()
    }
}

/// `0, 1, 2, ...`: stream positions of a batch that is a contiguous
/// slice of the stream.
fn positions(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

// ---------------------------------------------------------------------
// 1. pairs_incremental
// ---------------------------------------------------------------------

/// Users of the social graph behind the two pair workloads: half the
/// paper's 82,168, because the durable workload reloads its checkpoint
/// image — the whole database — before every iteration.
const PAIR_USERS: usize = 41_084;
/// Queries per iteration of the two pair workloads.
const PAIR_QUERIES: usize = 70_000;

/// Paper Figure 6: best-case two-way pairs, one `submit` per query,
/// incremental mode. Admission is the work.
pub struct PairsIncremental {
    db: Database,
    queries: Vec<EntangledQuery>,
}

pub struct PairsIncrementalLive {
    coordinator: Coordinator,
    session: Session,
    requests: Vec<SubmitRequest>,
}

impl Workload for PairsIncremental {
    type Live = PairsIncrementalLive;
    const NAME: &'static str = "pairs_incremental";
    const ANSWERED_FLOOR: f64 = 0.90;

    fn build(seed: u64) -> Self {
        let graph = social_graph(PAIR_USERS);
        PairsIncremental {
            db: build_database(&graph),
            queries: two_way_pairs(&graph, PAIR_QUERIES, PairStyle::BestCase, seed),
        }
    }

    fn prepare(&self) -> Self::Live {
        let coordinator = Coordinator::new(
            self.db.snapshot(),
            EngineConfig {
                mode: EngineMode::Incremental,
                flush_threads: 1,
                ..Default::default()
            },
        );
        PairsIncrementalLive {
            session: coordinator.session(),
            coordinator,
            requests: requests_of(&self.queries),
        }
    }

    fn coordinator(live: &Self::Live) -> Coordinator {
        live.coordinator.clone()
    }

    fn event_capacity(&self) -> usize {
        64
    }

    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>) {
        let session = &mut live.session;
        for (i, request) in std::mem::take(&mut live.requests).into_iter().enumerate() {
            client.begin_step();
            client.admit_one(i as u32, || session.submit(request));
            client.end_step();
        }
    }

    fn query(&self, index: u32) -> &EntangledQuery {
        &self.queries[index as usize]
    }

    fn finish(&self, live: Self::Live, _finished: &mut Finished, _recover: bool) {
        drop(live);
    }

    fn replay_sample(&self) -> Vec<EntangledQuery> {
        self.queries.clone()
    }

    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db)
    }
}

// ---------------------------------------------------------------------
// 2. cliques_paged
// ---------------------------------------------------------------------

const CLIQUE_USERS: usize = 82_168;
const CLIQUE_QUERIES: usize = 24_000;
const PAGE_BYTES: usize = 4096;
/// Hot relation at least this many times the page-cache budget (the
/// EMBANKS regime ROADMAP's parked disk-side-index item watches).
const SPILL_RATIO: usize = 10;

/// Paper Figure 7: groups of four mutual friends, three postconditions
/// per query, bursts of 1,000 + flush, `Friends` behind the page cache.
pub struct CliquesPaged {
    graph: SocialGraph,
    queries: Vec<EntangledQuery>,
    positions: Vec<u32>,
}

pub struct CliquesPagedLive {
    coordinator: Coordinator,
    session: Session,
    bursts: Vec<Vec<SubmitRequest>>,
    dir: PathBuf,
    budget_bytes: usize,
    io_before: StoreIoStats,
}

impl Workload for CliquesPaged {
    type Live = CliquesPagedLive;
    const NAME: &'static str = "cliques_paged";
    const ANSWERED_FLOOR: f64 = 0.80;

    fn build(seed: u64) -> Self {
        let graph = social_graph(CLIQUE_USERS);
        let queries = clique_groups(&graph, CLIQUE_QUERIES, 3, seed);
        CliquesPaged {
            positions: positions(queries.len()),
            graph,
            queries,
        }
    }

    fn prepare(&self) -> Self::Live {
        let setup = build_out_of_core_database(&self.graph, PAGE_BYTES, SPILL_RATIO);
        assert!(
            setup.hot_data_bytes >= SPILL_RATIO * setup.budget_bytes,
            "hot relation must dwarf the cache budget"
        );
        let io_before = setup.db.io_stats();
        let coordinator = Coordinator::new(setup.db, set_at_a_time());
        CliquesPagedLive {
            session: coordinator.session(),
            coordinator,
            bursts: bursts_of(&self.queries),
            dir: setup.dir,
            budget_bytes: setup.budget_bytes,
            io_before,
        }
    }

    fn coordinator(live: &Self::Live) -> Coordinator {
        live.coordinator.clone()
    }

    fn event_capacity(&self) -> usize {
        self.queries.len() + 64
    }

    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>) {
        let (session, coordinator) = (&mut live.session, &live.coordinator);
        let mut at = 0;
        for burst in std::mem::take(&mut live.bursts) {
            let indices = &self.positions[at..at + burst.len()];
            at += burst.len();
            client.begin_step();
            client.admit_batch(indices, || session.submit_batch(burst));
            client.flush(|| coordinator.flush());
            client.end_step();
        }
    }

    fn query(&self, index: u32) -> &EntangledQuery {
        &self.queries[index as usize]
    }

    fn layers(&self, live: &Self::Live, finished: &mut Finished) {
        // The database's I/O counters are lifetime-cumulative and the
        // bulk load already went through the cache: subtract it.
        let io = live.coordinator.db().read().io_stats();
        let before = live.io_before;
        let it = &mut finished.it;
        let reads = io.page_reads - before.page_reads;
        let hits = io.cache_hits - before.cache_hits;
        it.layers.insert("store.page_reads", reads as f64);
        it.layers.insert(
            "store.page_writes",
            (io.page_writes - before.page_writes) as f64,
        );
        it.layers
            .insert("store.evictions", (io.evictions - before.evictions) as f64);
        it.layers.insert(
            "store.cache_hit_rate",
            hits as f64 / (hits + reads).max(1) as f64,
        );
        it.layers
            .insert("store.resident_bytes_peak", io.resident_bytes_peak as f64);
        if io.resident_bytes_peak as usize > live.budget_bytes {
            it.fail(
                1,
                format!(
                    "page cache held {} bytes, over its {} byte budget",
                    io.resident_bytes_peak, live.budget_bytes
                ),
            );
        }
    }

    fn finish(&self, live: Self::Live, _finished: &mut Finished, _recover: bool) {
        let dir = live.dir.clone();
        drop(live);
        eq_store::purge_dir(&dir);
    }

    fn replay_sample(&self) -> Vec<EntangledQuery> {
        self.queries.clone()
    }

    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let setup = build_out_of_core_database(&self.graph, PAGE_BYTES, SPILL_RATIO);
        let out = f(&setup.db);
        drop(setup.db);
        eq_store::purge_dir(&setup.dir);
        out
    }
}

// ---------------------------------------------------------------------
// 3. giant_shared
// ---------------------------------------------------------------------

const GIANT_QUERIES: usize = 20_000;
const GIANT_FRIENDS: usize = 12;

/// ROADMAP's north-star shape: one 20,000-query component whose bodies
/// share variables, one `submit_batch` + one `flush` per iteration.
pub struct GiantShared {
    db: Database,
    queries: Vec<EntangledQuery>,
    positions: Vec<u32>,
}

pub struct GiantSharedLive {
    coordinator: Coordinator,
    session: Session,
    requests: Vec<SubmitRequest>,
}

impl Workload for GiantShared {
    type Live = GiantSharedLive;
    const NAME: &'static str = "giant_shared";
    const ANSWERED_FLOOR: f64 = 1.0;

    fn build(seed: u64) -> Self {
        let (db, mut queries) = giant_component(&GiantComponentConfig {
            queries: GIANT_QUERIES,
            friends_per_user: GIANT_FRIENDS,
            body: GiantBody::SharedChain,
        });
        // The ring itself has no random part; the seed decides the
        // order its members arrive in.
        queries.shuffle(&mut StdRng::seed_from_u64(seed));
        GiantShared {
            positions: positions(queries.len()),
            db,
            queries,
        }
    }

    fn prepare(&self) -> Self::Live {
        let coordinator = Coordinator::new(self.db.snapshot(), set_at_a_time());
        GiantSharedLive {
            session: coordinator.session(),
            coordinator,
            requests: requests_of(&self.queries),
        }
    }

    fn coordinator(live: &Self::Live) -> Coordinator {
        live.coordinator.clone()
    }

    fn event_capacity(&self) -> usize {
        self.queries.len() + 64
    }

    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>) {
        let (session, coordinator) = (&mut live.session, &live.coordinator);
        let requests = std::mem::take(&mut live.requests);
        client.begin_step();
        client.admit_batch(&self.positions, || session.submit_batch(requests));
        client.flush(|| coordinator.flush());
        client.end_step();
    }

    fn query(&self, index: u32) -> &EntangledQuery {
        &self.queries[index as usize]
    }

    fn finish(&self, live: Self::Live, _finished: &mut Finished, _recover: bool) {
        drop(live);
    }

    fn replay_sample(&self) -> Vec<EntangledQuery> {
        self.queries.clone()
    }

    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db)
    }
}

// ---------------------------------------------------------------------
// 4. churn_sharded
// ---------------------------------------------------------------------

const CHURN_USERS: usize = 10_000;
const CHURN_QUERIES: usize = 140_000;
const CHURN_SHARDS: usize = 4;

enum ChurnOp {
    /// One arrival burst, already split by client session:
    /// (session, stream positions, requests).
    Burst(Vec<(usize, Vec<u32>, Vec<SubmitRequest>)>),
    Load(&'static str, Vec<Vec<eq_ir::Value>>),
    Flush,
}

/// The service layer used differently: 2,000 sessions over 64
/// connectivity groups on 4 shards, cross-shard pairs, zero-staleness
/// expiry, `KeepPending` pairs that wait for a final `Load`.
pub struct ChurnSharded {
    db: Database,
    ops: Vec<ServiceOp>,
    /// (op, position in the op's burst) of every submission, in order.
    stream: Vec<(u32, u32)>,
    sessions: usize,
    expiring: u64,
    deferred: usize,
    cross: usize,
}

pub struct ChurnShardedLive {
    coordinator: Coordinator,
    sessions: Vec<Session>,
    ops: Vec<ChurnOp>,
}

fn churn_request(sub: &ScriptSubmission) -> SubmitRequest {
    let mut request = SubmitRequest::new(sub.query.clone());
    if let Some(bound) = sub.staleness {
        request = request.staleness(bound);
    }
    if sub.keep_pending {
        request = request.on_no_solution(NoSolutionPolicy::KeepPending);
    }
    request
}

impl ChurnSharded {
    fn submission(&self, index: u32) -> &ScriptSubmission {
        let (op, pos) = self.stream[index as usize];
        match &self.ops[op as usize] {
            ServiceOp::SubmitBatchWith(subs) => &subs[pos as usize],
            _ => unreachable!("stream positions point at bursts"),
        }
    }
}

impl Workload for ChurnSharded {
    type Live = ChurnShardedLive;
    const NAME: &'static str = "churn_sharded";
    const ANSWERED_FLOOR: f64 = 0.60;

    fn build(seed: u64) -> Self {
        let graph = social_graph(CHURN_USERS);
        let script = scale_service_script(
            &graph,
            &ScaleServiceConfig {
                queries: CHURN_QUERIES,
                burst: BURST,
                flush_every_bursts: 4,
                expiring_permille: 200,
                deferred_permille: 150,
                sessions: 2000,
                locality_groups: 64,
                cross_permille: 20,
                seed,
            },
        );
        let mut stream = Vec::with_capacity(CHURN_QUERIES);
        for (op, service_op) in script.ops.iter().enumerate() {
            match service_op {
                ServiceOp::SubmitBatchWith(subs) => {
                    stream.extend((0..subs.len()).map(|pos| (op as u32, pos as u32)));
                }
                ServiceOp::Load { .. } | ServiceOp::Flush => {}
                ServiceOp::SubmitBatch(_) | ServiceOp::Cancel(_) => {
                    unreachable!("scale scripts only use SubmitBatchWith/Load/Flush")
                }
            }
        }
        ChurnSharded {
            db: build_database(&graph),
            ops: script.ops,
            stream,
            sessions: script.sessions.max(1),
            expiring: script.expiring as u64,
            deferred: script.deferred,
            cross: script.cross,
        }
    }

    fn prepare(&self) -> Self::Live {
        let coordinator = Coordinator::new(
            self.db.snapshot(),
            EngineConfig {
                admission_safety_check: false,
                on_no_solution: NoSolutionPolicy::Reject,
                service_shards: CHURN_SHARDS,
                ..set_at_a_time()
            },
        );
        let mut next = 0u32;
        let ops = self
            .ops
            .iter()
            .map(|op| match op {
                ServiceOp::SubmitBatchWith(subs) => {
                    let mut by_session: Vec<(usize, Vec<u32>, Vec<SubmitRequest>)> = Vec::new();
                    let mut slot_of = vec![usize::MAX; self.sessions];
                    for sub in subs {
                        if slot_of[sub.session] == usize::MAX {
                            slot_of[sub.session] = by_session.len();
                            by_session.push((sub.session, Vec::new(), Vec::new()));
                        }
                        let slot = &mut by_session[slot_of[sub.session]];
                        slot.1.push(next);
                        slot.2.push(churn_request(sub));
                        next += 1;
                    }
                    // Sessions submit in index order, like the
                    // repo's own scale harness.
                    by_session.sort_by_key(|s| s.0);
                    ChurnOp::Burst(by_session)
                }
                ServiceOp::Load { relation, rows } => ChurnOp::Load(relation, rows.clone()),
                ServiceOp::Flush => ChurnOp::Flush,
                ServiceOp::SubmitBatch(_) | ServiceOp::Cancel(_) => unreachable!(),
            })
            .collect();
        ChurnShardedLive {
            sessions: (0..self.sessions).map(|_| coordinator.session()).collect(),
            coordinator,
            ops,
        }
    }

    fn coordinator(live: &Self::Live) -> Coordinator {
        live.coordinator.clone()
    }

    fn event_capacity(&self) -> usize {
        self.stream.len() + 64
    }

    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>) {
        let coordinator = &live.coordinator;
        for op in std::mem::take(&mut live.ops) {
            client.begin_step();
            match op {
                ChurnOp::Burst(by_session) => {
                    for (session, indices, requests) in by_session {
                        let session = &mut live.sessions[session];
                        client.admit_batch(&indices, || session.submit_batch(requests));
                    }
                }
                ChurnOp::Load(relation, rows) => {
                    let loaded = client.call("service.load", || coordinator.load(relation, rows));
                    if let Err(e) = loaded {
                        panic!("scripted load into {relation} failed: {e}");
                    }
                }
                ChurnOp::Flush => client.flush(|| coordinator.flush()),
            }
            client.end_step();
        }
    }

    fn query(&self, index: u32) -> &EntangledQuery {
        &self.submission(index).query
    }

    fn layers(&self, live: &Self::Live, finished: &mut Finished) {
        let it = &mut finished.it;
        it.layers.insert(
            "service.rendezvous_share",
            self.cross as f64 / self.stream.len() as f64,
        );
        // The script's own promises: every zero-staleness query
        // expires, every deferred pair coordinates after the load.
        if it.outcomes.expired != self.expiring {
            it.fail(
                it.outcomes.expired.abs_diff(self.expiring),
                format!(
                    "{} of {} zero-staleness queries expired",
                    it.outcomes.expired, self.expiring
                ),
            );
        }
        let deferred_answered = finished
            .admitted
            .iter()
            .filter(|&&(id, index)| {
                self.submission(index).keep_pending
                    && matches!(
                        live.coordinator.status(id),
                        Some(eq_core::QueryStatus::Answered)
                    )
            })
            .count();
        if deferred_answered != self.deferred {
            finished.it.fail(
                deferred_answered.abs_diff(self.deferred) as u64,
                format!(
                    "{deferred_answered} of {} deferred queries answered after the load",
                    self.deferred
                ),
            );
        }
    }

    fn finish(&self, live: Self::Live, _finished: &mut Finished, _recover: bool) {
        drop(live);
    }

    fn replay_sample(&self) -> Vec<EntangledQuery> {
        (0..self.stream.len() as u32)
            .map(|i| self.query(i).clone())
            .collect()
    }

    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.db)
    }
}

// ---------------------------------------------------------------------
// 5. pairs_durable
// ---------------------------------------------------------------------

/// The query stream of workload 1 (same graph, same seed, same
/// queries) in bursts of 1,000 through a `DurableCoordinator`: WAL
/// appends beside the reads, one checkpoint at the midpoint, and
/// kill + recover compared id for id.
pub struct PairsDurable {
    pairs: PairsIncremental,
    positions: Vec<u32>,
    /// Holds the checkpoint image every iteration starts from.
    base: PathBuf,
}

pub struct PairsDurableLive {
    dc: DurableCoordinator,
    bursts: Vec<Vec<SubmitRequest>>,
    dir: PathBuf,
    wal_bytes: u64,
}

fn copy_state(from: &Path, to: &Path) {
    let entries = std::fs::read_dir(from).expect("durable base directory");
    for entry in entries {
        let entry = entry.expect("durable base entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy durable state");
    }
}

impl Workload for PairsDurable {
    type Live = PairsDurableLive;
    const NAME: &'static str = "pairs_durable";
    const ANSWERED_FLOOR: f64 = 0.90;

    fn build(seed: u64) -> Self {
        let pairs = PairsIncremental::build(seed);
        // Tables enter through the durable API and are folded into a
        // checkpoint, the state a long-running deployment restarts from.
        let base = eq_store::scratch_dir("durable-base");
        let dc = DurableCoordinator::open(&base, set_at_a_time()).expect("fresh durable state");
        for (table, columns) in [("User", ["name", "home"]), ("Friends", ["name1", "name2"])] {
            dc.create_table(table, &columns).expect("fresh table");
            let rows = pairs.db.scan(table).expect("table just built");
            dc.load(table, rows).expect("schema arity");
        }
        dc.checkpoint().expect("initial checkpoint");
        drop(dc);
        PairsDurable {
            positions: positions(pairs.queries.len()),
            pairs,
            base,
        }
    }

    fn prepare(&self) -> Self::Live {
        let dir = eq_store::scratch_dir("durable-iter");
        copy_state(&self.base, &dir);
        PairsDurableLive {
            dc: DurableCoordinator::open(&dir, set_at_a_time()).expect("open from checkpoint"),
            bursts: bursts_of(&self.pairs.queries),
            dir,
            wal_bytes: 0,
        }
    }

    fn coordinator(live: &Self::Live) -> Coordinator {
        live.dc.coordinator().clone()
    }

    fn event_capacity(&self) -> usize {
        2 * BURST + 64
    }

    fn drive(&self, live: &mut Self::Live, client: &mut Client<'_>) {
        let dc = &live.dc;
        let bursts = std::mem::take(&mut live.bursts);
        let midpoint = bursts.len() / 2;
        let mut at = 0;
        for (round, burst) in bursts.into_iter().enumerate() {
            let indices = &self.positions[at..at + burst.len()];
            at += burst.len();
            client.begin_step();
            client.admit_batch(indices, || dc.submit_batch(burst));
            client.flush(|| dc.flush());
            if round + 1 == midpoint {
                // The checkpoint empties the log: read its size first.
                live.wal_bytes += dc.wal_len_bytes();
                let t = Instant::now();
                let done = client.call("durable.checkpoint", || dc.checkpoint());
                client.note_layer("durable.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = done {
                    panic!("mid-stream checkpoint failed: {e}");
                }
            }
            client.end_step();
        }
        live.wal_bytes += dc.wal_len_bytes();
    }

    fn query(&self, index: u32) -> &EntangledQuery {
        self.pairs.query(index)
    }

    fn layers(&self, live: &Self::Live, finished: &mut Finished) {
        let it = &mut finished.it;
        it.layers.insert(
            "durable.wal_bytes_per_query",
            live.wal_bytes as f64 / it.outcomes.submitted.max(1) as f64,
        );
        it.layers.insert("durable.wal_bytes", live.wal_bytes as f64);
        // One record per admitted submission, one per terminal outcome.
        let records = it.outcomes.submitted - it.outcomes.rejected_at_admit + it.terminal_events();
        it.layers.insert("durable.wal_records", records as f64);
    }

    fn finish(&self, live: Self::Live, finished: &mut Finished, recover: bool) {
        let it = &mut finished.it;
        let PairsDurableLive { dc, dir, .. } = live;
        if recover {
            // Kill (drop without ceremony) and recover: every
            // acknowledged query exactly once, outcomes and answers
            // identical.
            let before = dc.accounting();
            drop(dc);
            let t = Instant::now();
            match DurableCoordinator::open(&dir, set_at_a_time()) {
                Ok(recovered) => {
                    it.layers
                        .insert("durable.recover_ms", t.elapsed().as_secs_f64() * 1e3);
                    let after = recovered.accounting();
                    let differing = before
                        .iter()
                        .zip(&after)
                        .filter(|(b, a)| b != a)
                        .count()
                        .max(before.len().abs_diff(after.len()));
                    if differing > 0 {
                        it.fail(
                            differing as u64,
                            format!(
                                "{differing} queries accounted differently after kill + recover \
                                 ({} before, {} after)",
                                before.len(),
                                after.len()
                            ),
                        );
                    }
                }
                Err(e) => it.fail(
                    before.len() as u64,
                    format!("recovery after the kill failed: {e}"),
                ),
            }
        } else {
            drop(dc);
        }
        eq_store::purge_dir(&dir);
    }

    fn replay_sample(&self) -> Vec<EntangledQuery> {
        self.pairs.replay_sample()
    }

    fn with_replay_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.pairs.db)
    }

    fn extra_layers(
        &self,
        measured: &BTreeMap<&'static str, f64>,
        layers: &mut Vec<(&'static str, f64)>,
    ) {
        crate::replay::durable_extras(&self.pairs.db, &self.pairs.queries, measured, layers);
    }
}

impl Drop for PairsDurable {
    fn drop(&mut self) {
        eq_store::purge_dir(&self.base);
    }
}
