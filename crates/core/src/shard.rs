//! One engine shard as a plain state machine: the per-shard half of the
//! `Coordinator` service, the paper's D3C middleware loop (§5.1).
//!
//! A [`Shard`] owns one slice of the pending pool — a
//! [`CoordinationEngine`] — with the submission tags of the queries in
//! it and the report of the evaluations it ran at admission that no
//! flush has returned yet. Like the engine it wraps, it holds no lock,
//! reads no clock, starts no thread and knows no durability sink
//! (`eq_check`'s `sans-io-shard` rule): a method that needs the time
//! takes `now`, and each returns what its caller must apply — the
//! admission results to hand back, the drained outcomes with their tags
//! to record and stage as events, the report to publish. The service
//! (`crate::service`) decides where the locks go and in which order the
//! effects land; this file decides what a shard does.
//!
//! **The cadence** is decided here, from [`EngineConfig::mode`], once:
//! an engine only admits until it is flushed, so an incremental shard
//! evaluates its dirty set at the end of every admission call and of
//! recovery's re-admission, and a set-at-a-time shard only in
//! [`Shard::flush`]. The reports of admission-time evaluations are
//! folded into the next flush's report.
//!
//! [`EngineConfig::mode`]: crate::EngineConfig::mode

use crate::engine::{
    BatchReport, CoordinationEngine, EngineMode, PendingQuery, QueryHandle, QueryOutcome,
    SubmitError,
};
use crate::router::{Route, Router};
use crate::service::SubmitRequest;
use eq_ir::{FastMap, QueryId};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// One engine shard. Queries are routed to it by `(relation, arity)`
/// connectivity ([`crate::router::Router`]), so every match-graph edge
/// — and the Figure-9 admission check that polices edges — is
/// shard-local by construction.
pub(crate) struct Shard {
    /// The shard's slice of the pending pool. Read-only queries and
    /// single-query steps (status, cancel, deadline sweep) go to it
    /// directly.
    pub(crate) engine: CoordinationEngine,
    /// Submission tags of this shard's queries, until their outcomes
    /// are drained.
    pub(crate) tags: FastMap<QueryId, String>,
    /// The evaluations run at admission since the last flush, folded
    /// into one report (`pending` left 0).
    unreported: BatchReport,
    /// The cadence: evaluate at the end of every admission call.
    incremental: bool,
    /// Submission records the service encodes ahead of admission,
    /// reused from call to call.
    pub(crate) staged: StagedSubmits,
}

/// Terminal outcomes drained from a shard, in retirement order.
pub(crate) struct Drained<'a> {
    /// What the durability sink records before any of them is staged.
    pub(crate) outcomes: Vec<(QueryId, QueryOutcome)>,
    tags: &'a mut FastMap<QueryId, String>,
}

impl<'a> Drained<'a> {
    /// Each outcome with its submission tag, which leaves the shard
    /// with it.
    pub(crate) fn tagged(
        self,
    ) -> impl Iterator<Item = (QueryId, Option<String>, QueryOutcome)> + 'a {
        let tags = self.tags;
        self.outcomes
            .into_iter()
            .map(move |(id, outcome)| (id, tags.remove(&id), outcome))
    }
}

impl Shard {
    pub(crate) fn new(engine: CoordinationEngine, mode: EngineMode) -> Self {
        Shard {
            engine,
            tags: FastMap::default(),
            unreported: BatchReport::default(),
            incremental: mode == EngineMode::Incremental,
            staged: StagedSubmits::default(),
        }
    }

    /// Admits validated requests in submission order: sweeps the
    /// deadlines due at `now`, runs each request through the engine's
    /// admission step, drawing the id of every admitted one from the
    /// service-wide counter `ids` (after its Figure-9 verdict), keeps
    /// its tag, and ends in the cadence's evaluation. A staleness bound
    /// counts from `now`.
    pub(crate) fn admit(
        &mut self,
        requests: Vec<SubmitRequest>,
        now: Instant,
        ids: &AtomicU64,
    ) -> Vec<Result<QueryHandle, SubmitError>> {
        let mut tags = Vec::with_capacity(requests.len());
        let batch = requests.into_iter().map(|r| {
            let opts = r.to_options(now);
            tags.push(r.tag);
            Ok((r.query, opts))
        });
        self.engine.expire_stale(now);
        let results = self.engine.submit_batch_with_source(batch, Some(ids));
        for (result, tag) in results.iter().zip(tags) {
            if let (Ok(handle), Some(tag)) = (result, tag) {
                self.tags.insert(handle.id, tag);
            }
        }
        self.evaluate_if_incremental();
        results
    }

    /// Re-admits recovered submissions, ascending id, each under its
    /// recorded id (`query.id`), tag, no-solution policy and deadline
    /// (a past one expires at the next sweep), through
    /// the engine's admission step without a second Figure-9 verdict
    /// ([`CoordinationEngine::readmit`]: the log already acknowledged
    /// them), and ends in the cadence's evaluation.
    pub(crate) fn recover(&mut self, requests: Vec<SubmitRequest>) {
        let mut pending = Vec::with_capacity(requests.len());
        for r in requests {
            if let Some(tag) = r.tag {
                self.tags.insert(r.query.id, tag);
            }
            pending.push(PendingQuery::recovered(
                r.query,
                r.deadline,
                r.on_no_solution,
            ));
        }
        self.engine.readmit(pending);
        self.evaluate_if_incremental();
    }

    /// Sweeps the deadlines due at `now` and evaluates the dirty set
    /// ([`CoordinationEngine::flush`]). The report also covers every
    /// evaluation run at admission since the previous flush: their
    /// counts are added, [`BatchReport::intra_witness_peak`] is the
    /// maximum, and [`BatchReport::pending`] is this flush's. The lock
    /// hold is left for the caller to stamp.
    pub(crate) fn flush(&mut self, now: Instant) -> BatchReport {
        self.engine.expire_stale(now);
        let mut report = std::mem::take(&mut self.unreported);
        merge_reports(&mut report, self.engine.flush());
        report
    }

    /// Takes the terminal outcomes retired since the last drain.
    pub(crate) fn drain(&mut self) -> Drained<'_> {
        Drained {
            outcomes: self.engine.drain_outcome_log(),
            tags: &mut self.tags,
        }
    }

    /// The cadence: an incremental shard evaluates its dirty set and
    /// keeps the report for the next [`Shard::flush`].
    fn evaluate_if_incremental(&mut self) {
        if self.incremental {
            let report = self.engine.flush();
            merge_reports(&mut self.unreported, report);
            // A flush reports its own pass's pending count.
            self.unreported.pending = 0;
        }
    }
}

/// A rendezvous: moves the pending queries of the merged group
/// (`route.root`) from every losing shard of `route` into its winner,
/// with their ids, tags, policies and deadlines. `shards` yields each
/// involved shard once, with its index. The winner re-admits them
/// ascending id and evaluates nothing: the admission that caused the
/// merge ends in the cadence's evaluation. Nothing retires, so nothing
/// is drained.
pub(crate) fn rendezvous<'a>(
    router: &Router,
    route: &Route,
    shards: impl IntoIterator<Item = (usize, &'a mut Shard)>,
) {
    let mut queries = Vec::new();
    let mut tags = Vec::new();
    let mut winner = None;
    for (i, shard) in shards {
        if i == route.shard {
            winner = Some(shard);
            continue;
        }
        let lifted = shard
            .engine
            .extract_pending(|q| router.root_of(q) == Some(route.root));
        for m in &lifted {
            if let Some(tag) = shard.tags.remove(&m.query.id) {
                tags.push((m.query.id, tag));
            }
        }
        queries.extend(lifted);
    }
    let winner = winner.expect("the winner is one of the involved shards");
    queries.sort_by_key(|m| m.query.id);
    winner.engine.readmit(queries);
    winner.tags.extend(tags);
}

/// Submission records encoded ahead of admission, back to back; the
/// `i`-th ends at `ends[i]`. Each shard keeps one for reuse.
#[derive(Default)]
pub(crate) struct StagedSubmits {
    pub(crate) bytes: Vec<u8>,
    pub(crate) ends: Vec<usize>,
}

/// Accumulates one evaluation's report into another: per-shard flush
/// reports into the service-wide one, admission-time reports into a
/// shard's. Counts sum; the witness peak is a maximum. The lock hold is
/// stamped by the caller.
pub(crate) fn merge_reports(into: &mut BatchReport, from: BatchReport) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use eq_db::Database;
    use eq_ir::Value;
    use eq_sql::parse_ir_query;

    /// What the service is handed by a shard's drains, in order: each
    /// outcome with its tag.
    type Log = Vec<(QueryId, Option<String>, QueryOutcome)>;

    fn set_at_a_time_shard() -> Shard {
        let mut db = Database::new();
        db.create_table("F", &["fno", "dest"]).unwrap();
        db.insert("F", vec![Value::int(122), Value::str("Paris")])
            .unwrap();
        let engine = CoordinationEngine::new(db, EngineConfig::default());
        Shard::new(engine, EngineMode::SetAtATime { batch_size: 0 })
    }

    fn request(text: &str, tag: Option<&str>) -> SubmitRequest {
        let request = SubmitRequest::new(parse_ir_query(text).unwrap());
        match tag {
            Some(tag) => request.tag(tag),
            None => request,
        }
    }

    /// Places `keys` like the service's write path: merges their
    /// groups and, when the merged group spans shards, runs the
    /// rendezvous. Returns the shard and whether queries had to move.
    fn route(shards: &mut [Shard], router: &mut Router, keys: &[u64]) -> (usize, bool) {
        if let Some(shard) = router.resolve(keys) {
            return (shard, false);
        }
        let route = router.route(keys);
        if route.losers.is_empty() {
            return (route.shard, false);
        }
        let involved = |i: &usize| *i == route.shard || route.losers.contains(i);
        let shards = shards.iter_mut().enumerate().filter(|(i, _)| involved(i));
        rendezvous(router, &route, shards);
        (route.shard, true)
    }

    /// The script: a four-cycle across the R and S relation groups.
    /// q1 (R) and the tagged q2 (S) land apart; q3 bridges the groups,
    /// so the router merges them and q2 migrates; q4, recovered from a
    /// log under its recorded id 100 with its tag, closes the cycle;
    /// one flush of every shard at `now` answers all four. Returns the
    /// drains and how many rendezvous moved queries.
    fn run(shards: &mut [Shard], now: Instant) -> (Log, usize) {
        let ids = AtomicU64::new(1);
        let mut router = Router::new(shards.len());
        let mut moved = 0;
        for r in [
            request("{R(Beta, x)} R(Alpha, x) <- F(x, Paris)", None),
            request("{S(Delta, u)} S(Gamma, u) <- F(u, Paris)", Some("moved")),
            request("{R(Alpha, y)} S(Delta, y) <- F(y, Paris)", None),
        ] {
            let (shard, m) = route(shards, &mut router, &Router::query_keys(&r.query));
            moved += usize::from(m);
            let results = shards[shard].admit(vec![r], now, &ids);
            assert!(results.iter().all(Result::is_ok));
        }
        let mut recovered = request("{S(Gamma, z)} R(Beta, z) <- F(z, Paris)", Some("recovered"));
        recovered.query.id = QueryId(100);
        let (shard, m) = route(shards, &mut router, &Router::query_keys(&recovered.query));
        moved += usize::from(m);
        shards[shard].recover(vec![recovered]);

        let mut log = Log::new();
        for shard in shards.iter_mut() {
            let report = shard.flush(now);
            let drained = shard.drain();
            assert_eq!(drained.outcomes.len(), report.answered);
            log.extend(drained.tagged());
            assert!(
                shard.tags.is_empty(),
                "a drained outcome takes its tag along"
            );
        }
        (log, moved)
    }

    #[test]
    fn two_shards_and_a_router_driven_by_hand_equal_one_shard() {
        let now = Instant::now();
        let (one, moved) = run(&mut [set_at_a_time_shard()], now);
        assert_eq!(moved, 0);
        let (two, moved) = run(&mut [set_at_a_time_shard(), set_at_a_time_shard()], now);
        assert_eq!(moved, 1, "the bridge moves the S group's query");
        assert_eq!(two, one, "per-id outcomes, tags and their order");

        let ids: Vec<u64> = one.iter().map(|(id, _, _)| id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [1, 2, 3, 100], "recovered under its recorded id");
        assert!(one
            .iter()
            .all(|(_, _, outcome)| matches!(outcome, QueryOutcome::Answered(_))));
        let tagged = |id: u64| one.iter().find(|(i, _, _)| i.0 == id).unwrap().1.clone();
        assert_eq!(tagged(2).as_deref(), Some("moved"));
        assert_eq!(tagged(100).as_deref(), Some("recovered"));
        assert_eq!(tagged(1), None);
    }
}
