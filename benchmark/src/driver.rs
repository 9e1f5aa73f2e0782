//! The closed-loop, single-threaded client every workload is driven
//! with, and the per-iteration measurements it takes.
//!
//! A *step* is one client action followed by `Events::drain()`: one
//! `submit`, or one `submit_batch` + `flush` round. The service
//! dispatches events on the calling thread once its locks are released,
//! so whatever a step produced is in the queue when its call returns.
//! The latency of a joint answer is the drain time minus the start of
//! the step whose drain delivered it: from the arrival of the last
//! partner to the answer in the client's hands.

use crate::stats::Histogram;
use crate::trace::{SpanId, Tracer};
use eq_core::{
    BatchReport, CoordinationError, Coordinator, Event, Events, OverflowPolicy, QueryHandle,
};
use eq_ir::QueryId;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// What became of the queries one iteration submitted. Must repeat
/// exactly, iteration after iteration, for a fixed seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    pub submitted: u64,
    /// Refused by the Figure-9 admission safety check (a legitimate
    /// outcome: the stream contains users who ask twice).
    pub rejected_at_admit: u64,
    pub answered: u64,
    pub failed: u64,
    pub expired: u64,
    pub cancelled: u64,
    /// Admitted, no terminal event by the end of the iteration.
    pub pending_end: u64,
}

/// Everything measured in one iteration.
#[derive(Default)]
pub struct Iteration {
    /// Building the fresh service and its requests, before the timed
    /// window: counted in `setup_s`, in no iteration metric.
    pub prepare_ns: u64,
    /// Wall clock of the timed window (first step start → last drain).
    pub wall_ns: u64,
    /// Time inside `submit` / `submit_batch` calls.
    pub admit_ns: u64,
    pub flush_ns_total: u64,
    pub flush_ns_max: u64,
    /// Time inside `Events::drain()` and the number of events it gave.
    pub drain_ns: u64,
    pub events: u64,
    pub outcomes: Outcomes,
    /// Latency of every `Answered` event, nanoseconds.
    pub latency: Histogram,
    /// Steps whose drain delivered at least one answer.
    pub answer_steps: u64,
    /// Order-independent hash of (query, answer tuples) over the
    /// iteration's answers: identical answers, not just counts.
    pub answers_hash: u64,
    /// Operations that went wrong: an error from a call expected to
    /// succeed, a duplicate or unknown terminal event, a pending count
    /// the service disagrees with.
    pub op_failures: u64,
    pub failure_notes: Vec<String>,
    /// Sums and peaks over the iteration's flush reports.
    pub components: u64,
    pub skipped_clean: u64,
    pub pending_peak: u64,
    pub flush_lock_hold_ns: u64,
    /// Layer numbers the workload or the client read off the service's
    /// public counters, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
}

impl Iteration {
    pub fn fail(&mut self, count: u64, note: String) {
        self.op_failures += count;
        if self.failure_notes.len() < 20 {
            self.failure_notes.push(note);
        }
    }

    pub fn terminal_events(&self) -> u64 {
        let o = &self.outcomes;
        o.answered + o.failed + o.expired + o.cancelled
    }
}

/// The measuring client of one iteration.
pub struct Client<'t> {
    tracer: &'t mut Tracer,
    events: Events,
    root: Option<SpanId>,
    started: Instant,
    step_start: Instant,
    it: Iteration,
    /// (service id, index of the query in the workload's stream).
    admitted: Vec<(QueryId, u32)>,
    kept: Vec<Arc<Event>>,
    unify_before: eq_unify::ops::UnifyOps,
}

/// What a finished iteration hands to the checks.
pub struct Finished {
    pub it: Iteration,
    pub admitted: Vec<(QueryId, u32)>,
    pub kept: Vec<Arc<Event>>,
}

impl<'t> Client<'t> {
    /// Subscribes to `coordinator` with a `Block` queue deep enough for
    /// `capacity` events between two drains.
    pub fn new(tracer: &'t mut Tracer, coordinator: &Coordinator, capacity: usize) -> Self {
        let events = coordinator.subscribe_with(capacity, OverflowPolicy::Block);
        let now = Instant::now();
        Client {
            tracer,
            events,
            root: None,
            started: now,
            step_start: now,
            it: Iteration::default(),
            admitted: Vec::new(),
            kept: Vec::new(),
            unify_before: eq_unify::ops::global(),
        }
    }

    /// Opens the timed window.
    pub fn start(&mut self) {
        self.unify_before = eq_unify::ops::global();
        self.root = Some(self.tracer.enter("iteration"));
        self.started = Instant::now();
        self.step_start = self.started;
    }

    pub fn begin_step(&mut self) {
        self.step_start = Instant::now();
    }

    /// One `submit`; `index` is the query's position in the stream.
    pub fn admit_one(
        &mut self,
        index: u32,
        call: impl FnOnce() -> Result<QueryHandle, CoordinationError>,
    ) {
        let span = self.tracer.enter("service.submit");
        let t = Instant::now();
        let result = call();
        self.it.admit_ns += t.elapsed().as_nanos() as u64;
        self.tracer.exit(span);
        self.note_admission(index, result);
    }

    /// One `submit_batch`; `indices[i]` is the stream position of the
    /// batch's `i`-th request.
    pub fn admit_batch(
        &mut self,
        indices: &[u32],
        call: impl FnOnce() -> Vec<Result<QueryHandle, CoordinationError>>,
    ) {
        let span = self.tracer.enter("service.submit_batch");
        let t = Instant::now();
        let results = call();
        self.it.admit_ns += t.elapsed().as_nanos() as u64;
        self.tracer.exit(span);
        if results.len() != indices.len() {
            self.it.fail(
                indices.len() as u64,
                format!(
                    "submit_batch returned {} results for {} requests",
                    results.len(),
                    indices.len()
                ),
            );
            return;
        }
        for (&index, result) in indices.iter().zip(results) {
            self.note_admission(index, result);
        }
    }

    fn note_admission(&mut self, index: u32, result: Result<QueryHandle, CoordinationError>) {
        self.it.outcomes.submitted += 1;
        match result {
            Ok(handle) => self.admitted.push((handle.id, index)),
            Err(CoordinationError::UnsafeAdmission) => self.it.outcomes.rejected_at_admit += 1,
            Err(e) => self
                .it
                .fail(1, format!("submit of query #{index} failed: {e}")),
        }
    }

    pub fn flush(&mut self, call: impl FnOnce() -> BatchReport) {
        let span = self.tracer.enter("service.flush");
        let t = Instant::now();
        let report = call();
        let ns = t.elapsed().as_nanos() as u64;
        self.tracer.exit(span);
        self.it.flush_ns_total += ns;
        self.it.flush_ns_max = self.it.flush_ns_max.max(ns);
        self.it.components += report.components as u64;
        self.it.skipped_clean += report.skipped_clean as u64;
        // The pool this flush looked at: what it retired plus what it left.
        let pool = (report.pending + report.answered + report.failed) as u64;
        self.it.pending_peak = self.it.pending_peak.max(pool);
        self.it.flush_lock_hold_ns += report.lock_hold_ns;
        if report.unify_clones != 0 {
            self.it.fail(
                1,
                format!("flush cloned a unifier {} times", report.unify_clones),
            );
        }
    }

    /// Records a layer number the workload measured itself.
    pub fn note_layer(&mut self, name: &'static str, value: f64) {
        self.it.layers.insert(name, value);
    }

    /// Any other call into the system, spanned under `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.tracer.enter(name);
        let out = f();
        self.tracer.exit(span);
        out
    }

    /// Drains the event queue and stamps what arrived with the step's
    /// latency.
    pub fn end_step(&mut self) {
        let span = self.tracer.enter("events.drain");
        let t = Instant::now();
        let drained = self.events.drain();
        let now = Instant::now();
        self.it.drain_ns += (now - t).as_nanos() as u64;
        self.it.events += drained.len() as u64;
        let mut answered = 0u64;
        for event in &drained {
            match **event {
                Event::Answered { .. } => answered += 1,
                Event::Failed { .. } => self.it.outcomes.failed += 1,
                Event::Expired { .. } => self.it.outcomes.expired += 1,
                Event::Cancelled { .. } => self.it.outcomes.cancelled += 1,
                Event::Flushed(_) => {}
            }
        }
        if answered > 0 {
            self.it.outcomes.answered += answered;
            self.it.answer_steps += 1;
            self.it
                .latency
                .record_n((now - self.step_start).as_nanos() as u64, answered);
        }
        self.kept.extend(drained);
        self.tracer.exit(span);
    }

    /// Closes the timed window and reads the service's own counters.
    pub fn stop(mut self, coordinator: &Coordinator) -> Finished {
        self.it.wall_ns = self.started.elapsed().as_nanos() as u64;
        if let Some(root) = self.root.take() {
            self.tracer.exit(root);
        }
        let unify = eq_unify::ops::global().delta_since(&self.unify_before);
        let shard_stats = coordinator.shard_lock_stats();
        let lock = coordinator.lock_stats();
        let subscriber = self.events.stats();
        let it = &mut self.it;
        let ms = |ns: u64| ns as f64 / 1e6;
        it.layers
            .insert("service.lock_acquisitions", lock.acquisitions as f64);
        it.layers
            .insert("service.lock_hold_ms_total", ms(lock.hold_ns));
        it.layers
            .insert("service.lock_max_hold_ms", ms(lock.max_hold_ns));
        let hottest = shard_stats.iter().map(|s| s.hold_ns).max().unwrap_or(0);
        it.layers.insert(
            "service.shard_hottest_hold_share",
            if lock.hold_ns == 0 {
                0.0
            } else {
                hottest as f64 / lock.hold_ns as f64
            },
        );
        it.layers.insert(
            "dispatch.queue_peak",
            coordinator.dispatch_queue_peak() as f64,
        );
        it.layers
            .insert("events.delivered", subscriber.delivered as f64);
        it.layers
            .insert("events.dropped", subscriber.dropped as f64);
        it.layers.insert("unify.merges", unify.merges as f64);
        it.layers.insert("unify.rollbacks", unify.rollbacks as f64);
        it.layers.insert("unify.clones", unify.clones as f64);
        it.layers
            .insert("unify.undo_high_water", unify.undo_high_water as f64);
        if subscriber.dropped != 0 || subscriber.disconnected {
            it.fail(
                subscriber.dropped.max(1),
                format!(
                    "subscription lost events: {} dropped, disconnected={}",
                    subscriber.dropped, subscriber.disconnected
                ),
            );
        }
        if unify.clones != 0 {
            it.fail(1, format!("{} unifier clones on a hot path", unify.clones));
        }
        Finished {
            it: self.it,
            admitted: self.admitted,
            kept: self.kept,
        }
        // `self.events` drops here: a session closed afterwards sends
        // its `Cancelled` events to nobody instead of a full queue.
    }
}
