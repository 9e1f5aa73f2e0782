//! The metric names the benchmark reports, in the order BENCHMARK.json
//! lists them. `--trace 0` prints [`END_TO_END`], `--trace 1` prints
//! [`PER_LAYER`]; a metric that does not apply to a workload reads 0.

/// (name, unit). What an operator of the service sees: the metrics
/// BENCHMARK.json fixes a regression bound for. The timings a client
/// sees head [`PER_LAYER`]: measured in every run, but with no bound,
/// because none of a tenth holds on a shared two-core machine.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The client-facing timings, by name; an untraced run prints them on
/// standard error and in its first line of standard output.
pub const CLIENT_TIMINGS: &[&str] = &["throughput_qps", "coord_latency_p50_ms", "admit_mean_us"];

/// (name, unit). The client-facing timings, then one layer each,
/// measured from outside: the service's own counters, spans around
/// public calls, and the layer replay.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What a client sees. End-to-end by meaning; listed here because
    // their run-to-run spread on the reference machine is 2 to 30 %.
    ("throughput_qps", "1/s"),
    ("coord_latency_p50_ms", "ms"),
    // The tails, where a workload has the samples for one.
    ("coord_latency_p99_ms", "ms"),
    ("coord_latency_p90_ms", "ms"),
    // Time inside submit / submit_batch per query.
    ("admit_mean_us", "us"),
    // service: locks, flushes
    ("service.lock_acquisitions", "count"),
    ("service.lock_hold_ms_total", "ms"),
    ("service.lock_max_hold_ms", "ms"),
    ("service.flush_lock_hold_ms_total", "ms"),
    ("service.flush_ms_total", "ms"),
    ("service.flush_ms_max", "ms"),
    ("service.overhead_share", "ratio"),
    ("service.shard_hottest_hold_share", "ratio"),
    ("service.rendezvous_share", "ratio"),
    // dispatch + events
    ("dispatch.queue_peak", "count"),
    ("events.drain_ns_per_event", "ns"),
    ("events.delivered", "count"),
    ("events.dropped", "count"),
    // index + unify + graph (replay)
    ("index.probe_ns_per_probe", "ns"),
    ("index.candidates_per_probe", "ratio"),
    ("unify.mgu_ns_per_call", "ns"),
    ("unify.mgu_success_ratio", "ratio"),
    ("graph.build_ms", "ms"),
    // safety + ucs (replay)
    ("safety.enforce_ms", "ms"),
    ("safety.removed", "count"),
    ("ucs.violations_ms", "ms"),
    // matching (replay) and the unifier's process counters (service)
    ("matching.match_ms", "ms"),
    ("matching.dequeues", "count"),
    ("matching.mgu_calls", "count"),
    ("matching.cleanups", "count"),
    ("unify.merges", "count"),
    ("unify.rollbacks", "count"),
    ("unify.clones", "count"),
    ("unify.undo_high_water", "count"),
    // combine + intra + db (replay)
    ("combine.build_ms", "ms"),
    ("intra.plan_ms", "ms"),
    ("intra.evaluate_ms", "ms"),
    ("intra.units", "count"),
    ("intra.split_units", "count"),
    ("intra.regions", "count"),
    ("intra.region_streamed", "count"),
    ("intra.witness_peak", "count"),
    ("db.evaluate_ms", "ms"),
    ("db.rows_considered_per_answer", "ratio"),
    ("db.index_probes", "count"),
    ("db.full_scans", "count"),
    ("replay.total_ms", "ms"),
    // engine (flush reports)
    ("engine.components_evaluated", "count"),
    ("engine.skipped_clean", "count"),
    ("engine.pending_peak", "count"),
    ("engine.reevaluated_per_answer", "ratio"),
    // store (paged workload only)
    ("store.page_reads", "count"),
    ("store.page_writes", "count"),
    ("store.evictions", "count"),
    ("store.cache_hit_rate", "ratio"),
    ("store.resident_bytes_peak", "bytes"),
    // durable (durable workload only)
    ("durable.wal_bytes_per_query", "bytes"),
    ("durable.wal_append_us_per_record", "us"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.recover_ms", "ms"),
    ("durable.submit_overhead_ratio", "ratio"),
    // outcome accounting
    ("outcome.submitted", "count"),
    ("outcome.rejected_at_admit", "count"),
    ("outcome.answered", "count"),
    ("outcome.failed", "count"),
    ("outcome.expired", "count"),
    ("outcome.cancelled", "count"),
    ("outcome.pending_end", "count"),
    // the traced run itself
    ("trace.iterations", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Layer counters read off the service that must repeat exactly from
/// iteration to iteration and from run to run for a fixed seed (the
/// single-threaded driver makes them deterministic), which is what
/// lets a later change rest a claim on them.
pub const EXACT_LAYER_COUNTS: &[&str] = &[
    "service.lock_acquisitions",
    "dispatch.queue_peak",
    "events.delivered",
    "events.dropped",
    "unify.merges",
    "unify.rollbacks",
    "unify.clones",
    "store.page_reads",
    "store.page_writes",
    "store.evictions",
    "store.resident_bytes_peak",
    "durable.wal_bytes",
    "durable.wal_records",
];
