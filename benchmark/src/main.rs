//! The repo's benchmark. One process runs one workload:
//!
//! ```text
//! eq_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! set-up (inputs from the seed, a service, one warm-up iteration whose
//! timings are discarded; three times over, median reported, the last
//! one's answers checked in full) → measured iterations for `--seconds`
//! and at least five, each against a fresh service → (traced run only)
//! the layer replay. The last line of standard output
//! is one JSON object with the run's metrics; progress goes to standard
//! error. See README.md for what is measured and why.

mod check;
mod driver;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use driver::{Client, Iteration, Outcomes};
use stats::{median, Histogram, Tail};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// Fewest measured iterations, however slow the machine.
const MIN_ITERATIONS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where a traced run writes its spans.
const TRACE_DIR: &str = "benchmark/results";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 2011,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

/// The pinned outcome accounting of seed 2011, one row per workload:
/// a later change that alters who gets answered fails the run even if
/// it is self-consistent.
fn pinned_2011(workload: &str) -> Option<Outcomes> {
    let row = |submitted, rejected_at_admit, answered, failed, expired, pending_end| Outcomes {
        submitted,
        rejected_at_admit,
        answered,
        failed,
        expired,
        cancelled: 0,
        pending_end,
    };
    match workload {
        "pairs_incremental" => Some(row(70_000, 443, 67_676, 1_276, 0, 605)),
        "cliques_paged" => Some(row(24_000, 180, 21_752, 1_927, 0, 141)),
        "giant_shared" => Some(row(20_000, 0, 20_000, 0, 0, 0)),
        "churn_sharded" => Some(row(140_000, 0, 124_488, 0, 15_508, 4)),
        "pairs_durable" => Some(row(70_000, 454, 67_658, 1_283, 0, 605)),
        _ => None,
    }
}

/// One iteration against a fresh service: prepare, drive, settle,
/// check, tear down.
fn iterate<W: Workload>(w: &W, tracer: &mut Tracer, verify: bool, recover: bool) -> Iteration {
    let t = Instant::now();
    let mut live = w.prepare();
    let prepare_ns = t.elapsed().as_nanos() as u64;
    let coordinator = W::coordinator(&live);
    let mut client = Client::new(tracer, &coordinator, w.event_capacity());
    client.start();
    w.drive(&mut live, &mut client);
    let mut finished = client.stop(&coordinator);
    check::settle(&mut finished, &coordinator);
    w.layers(&live, &mut finished);
    if verify {
        check::verify_answers(&mut finished, &coordinator.db().read(), |i| w.query(i));
        if let Err(e) = coordinator.check_invariants() {
            finished.it.fail(1, format!("engine invariant broken: {e}"));
        }
    }
    w.finish(live, &mut finished, recover);
    finished.it.prepare_ns = prepare_ns;
    finished.it
}

/// The numbers one iteration contributes, by metric name; the run
/// reports the median of each across iterations.
fn iteration_values(it: &Iteration) -> BTreeMap<&'static str, f64> {
    let o = &it.outcomes;
    let submitted = o.submitted.max(1) as f64;
    let wall_s = it.wall_ns as f64 / 1e9;
    let mut v: BTreeMap<&'static str, f64> = it.layers.clone();
    v.insert("throughput_qps", it.terminal_events() as f64 / wall_s);
    v.insert("admit_mean_us", it.admit_ns as f64 / 1e3 / submitted);
    v.insert("service.flush_ms_total", it.flush_ns_total as f64 / 1e6);
    v.insert("service.flush_ms_max", it.flush_ns_max as f64 / 1e6);
    v.insert(
        "service.flush_lock_hold_ms_total",
        it.flush_lock_hold_ns as f64 / 1e6,
    );
    v.insert(
        "service.call_ms",
        (it.admit_ns + it.flush_ns_total) as f64 / 1e6,
    );
    v.insert(
        "events.drain_ns_per_event",
        it.drain_ns as f64 / it.events.max(1) as f64,
    );
    v.insert("engine.components_evaluated", it.components as f64);
    v.insert("engine.skipped_clean", it.skipped_clean as f64);
    v.insert("engine.pending_peak", it.pending_peak as f64);
    v.insert(
        "engine.reevaluated_per_answer",
        it.components as f64 / o.answered.max(1) as f64,
    );
    v.insert("outcome.submitted", o.submitted as f64);
    v.insert("outcome.rejected_at_admit", o.rejected_at_admit as f64);
    v.insert("outcome.answered", o.answered as f64);
    v.insert("outcome.failed", o.failed as f64);
    v.insert("outcome.expired", o.expired as f64);
    v.insert("outcome.cancelled", o.cancelled as f64);
    v.insert("outcome.pending_end", o.pending_end as f64);
    for (name, p) in [
        ("coord_latency_p50_ms", 0.5),
        ("latency_p90_ms", 0.9),
        ("latency_p99_ms", 0.99),
    ] {
        if let Some(ns) = it.latency.percentile(p) {
            v.insert(name, ns / 1e6);
        }
    }
    v
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct RunResult {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

fn run<W: Workload>(opts: &Opts) -> RunResult {
    let mut notes: Vec<String> = Vec::new();
    let mut failed = 0u64;

    let mut tracer = Tracer::new();

    // Set-up: everything before the first measured request — inputs
    // from the seed, a service over them, and one warm-up iteration
    // whose timings are discarded. Three times over (a fixed number,
    // so the heap the measured iterations start from is the same in
    // every run); the checks between the timed parts are not counted.
    // The last warm-up's answers are checked in full, and its
    // accounting is what every measured iteration must reproduce.
    let mut attempted = 0u64;
    let mut setup_s = Vec::new();
    let mut built: Option<(W, Iteration)> = None;
    for rep in 1..=SETUP_REPS {
        drop(built.take());
        let last = rep == SETUP_REPS;
        let t = Instant::now();
        let w = W::build(opts.seed);
        let build_s = t.elapsed().as_secs_f64();
        let warm = iterate(&w, &mut tracer, last, last);
        setup_s.push(build_s + (warm.prepare_ns + warm.wall_ns) as f64 / 1e9);
        attempted += warm.outcomes.submitted;
        failed += warm.op_failures;
        notes.extend(warm.failure_notes.iter().cloned());
        built = Some((w, warm));
    }
    let (w, warm) = built.expect("SETUP_REPS > 0");
    eprintln!(
        "[{}] set-up x{}: {:?} s",
        W::NAME,
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let expected = check::fingerprint(&warm);
    let share = warm.outcomes.answered as f64 / warm.outcomes.submitted.max(1) as f64;
    eprintln!(
        "[{}] warm-up: {:?}, answered share {share:.4}",
        W::NAME,
        warm.outcomes
    );
    if share < W::ANSWERED_FLOOR {
        notes.push(format!(
            "answered share {share:.4} is below the floor {}: this measures rejection, not coordination",
            W::ANSWERED_FLOOR
        ));
        failed += warm.outcomes.submitted - warm.outcomes.answered;
    }
    if opts.seed == 2011 {
        if let Some(pinned) = pinned_2011(W::NAME) {
            if pinned != warm.outcomes {
                notes.push(format!(
                    "outcome accounting {:?} differs from the pinned {:?}",
                    warm.outcomes, pinned
                ));
                failed += 1;
            }
        }
    }

    // Measured iterations. In a traced run every second one records
    // spans, so traced and untraced throughput alternate in one process.
    let mut per_metric: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut qps = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut pooled = Histogram::default();
    let mut min_answer_steps = u64::MAX;
    let mut pooled_answer_steps = 0u64;
    let mut iterations = 0usize;
    let started = Instant::now();
    while iterations < MIN_ITERATIONS || started.elapsed().as_secs_f64() < opts.seconds {
        iterations += 1;
        let traced = opts.trace && iterations.is_multiple_of(2);
        tracer.set(traced, iterations as u32);
        let it = iterate(&w, &mut tracer, false, opts.trace);
        tracer.set(false, 0);
        attempted += it.outcomes.submitted;
        failed += it.op_failures;
        notes.extend(it.failure_notes.iter().cloned());
        let got = check::fingerprint(&it);
        if got != expected {
            let differing: Vec<String> = expected
                .iter()
                .zip(&got)
                .filter(|(e, g)| e != g)
                .map(|(e, g)| format!("{}: {} -> {}", e.0, e.1, g.1))
                .collect();
            notes.push(format!(
                "iteration {iterations} is not a repeat of the warm-up: {}",
                differing.join(", ")
            ));
            failed += 1;
        }
        let values = iteration_values(&it);
        qps[traced as usize].push(values["throughput_qps"]);
        eprintln!(
            "[{}] iteration {iterations}{}: {:.3} s, {:.0} q/s, answer p50 {:.4} ms, admit {:.3} us",
            W::NAME,
            if traced { " (traced)" } else { "" },
            it.wall_ns as f64 / 1e9,
            values["throughput_qps"],
            values.get("coord_latency_p50_ms").copied().unwrap_or(0.0),
            values["admit_mean_us"],
        );
        for (name, value) in values {
            per_metric.entry(name).or_default().push(value);
        }
        pooled.merge(&it.latency);
        min_answer_steps = min_answer_steps.min(it.answer_steps);
        pooled_answer_steps += it.answer_steps;
    }

    eprintln!(
        "[{}] {iterations} iterations in {:.1} s, the services built and checked between them included",
        W::NAME,
        started.elapsed().as_secs_f64()
    );

    let mut values: BTreeMap<&'static str, f64> = per_metric
        .iter()
        .filter_map(|(name, v)| median(v).map(|m| (*name, m)))
        .collect();
    values.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    values.insert("peak_rss_mb", peak_rss_mb());
    match stats::tail_rule(min_answer_steps, pooled_answer_steps) {
        Tail::P99PerIteration => {
            values.insert("coord_latency_p99_ms", values["latency_p99_ms"]);
        }
        Tail::P90PerIteration => {
            values.insert("coord_latency_p90_ms", values["latency_p90_ms"]);
        }
        Tail::P90Pooled => {
            if let Some(ns) = pooled.percentile(0.9) {
                values.insert("coord_latency_p90_ms", ns / 1e6);
            }
        }
        Tail::None => {}
    }

    if opts.trace {
        let sample = w.replay_sample();
        let replayed = w.with_replay_db(|db| replay::replay(&sample, db));
        // What the service spends around the layers the replay can
        // see: the same queries took `service.call_ms` inside
        // submit/flush calls and `replay.total_ms` in the bare layers.
        let call_ms = values["service.call_ms"];
        values.insert(
            "service.overhead_share",
            1.0 - replayed["replay.total_ms"] / call_ms.max(1e-9),
        );
        values.extend(replayed);

        let mut extras = Vec::new();
        w.extra_layers(&values, &mut extras);
        values.extend(extras);

        let spans = tracer.spans();
        values.insert("trace.iterations", iterations as f64);
        let coverage = trace::coverage(spans, "iteration");
        values.insert("trace.span_coverage", coverage);
        if coverage < 0.8 {
            notes.push(format!(
                "named spans cover only {coverage:.3} of the measured wall clock: \
                 the per-layer attribution cannot be trusted"
            ));
            failed += 1;
        }
        let (plain, traced) = (median(&qps[0]), median(&qps[1]));
        if let (Some(plain), Some(traced)) = (plain, traced) {
            values.insert("trace.overhead_ratio", 1.0 - traced / plain);
        }
        let path = Path::new(TRACE_DIR).join(format!("trace_{}.json", W::NAME));
        let written = std::fs::create_dir_all(TRACE_DIR).and_then(|()| {
            std::fs::write(&path, trace::to_json(W::NAME, "iteration", spans, 20_000))
        });
        match written {
            Ok(()) => eprintln!("[{}] {} spans -> {}", W::NAME, spans.len(), path.display()),
            Err(e) => eprintln!("[{}] could not write {}: {e}", W::NAME, path.display()),
        }
    }

    RunResult {
        attempted,
        failed,
        notes,
        values,
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("eq_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "pairs_incremental" => run::<workloads::PairsIncremental>(&opts),
        "cliques_paged" => run::<workloads::CliquesPaged>(&opts),
        "giant_shared" => run::<workloads::GiantShared>(&opts),
        "churn_sharded" => run::<workloads::ChurnSharded>(&opts),
        "pairs_durable" => run::<workloads::PairsDurable>(&opts),
        other => {
            eprintln!(
                "eq_benchmark: unknown workload {other:?}; one of pairs_incremental, \
                 cliques_paged, giant_shared, churn_sharded, pairs_durable"
            );
            return ExitCode::from(2);
        }
    };

    for note in &result.notes {
        eprintln!("FAILED: {note}");
    }
    // Every value this run measured, by name, for spread.py and the
    // curious; the result proper is the last line.
    let all: Vec<String> = result
        .values
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(name, v)| format!("\"{name}\": {v}"))
        .collect();
    println!("{{{}}}", all.join(", "));

    // Every end-to-end metric applies to every workload and is never 0:
    // one that is missing must not read as a perfect score. A per-layer
    // metric that does not apply to a workload (`store.*` off the paged
    // one, a tail the sample count does not support) reads 0.
    let listed = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    eprintln!("{:<36} {:>16}  unit", "metric", "value");
    let mut fields = Vec::new();
    for (name, unit) in listed {
        let value = match result.values.get(name).copied() {
            Some(v) if v.is_finite() && (opts.trace || v > 0.0) => v,
            None if opts.trace => 0.0,
            other => {
                eprintln!("eq_benchmark: metric {name} was not measured ({other:?})");
                return ExitCode::from(1);
            }
        };
        eprintln!("{name:<36} {value:>16.4}  {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    if !opts.trace {
        // Measured all the same; in the result of a traced run.
        for name in metrics::CLIENT_TIMINGS {
            let value = result.values.get(name).copied().unwrap_or(0.0);
            eprintln!("{name:<36} {value:>16.4}  (per-layer list)");
        }
    }
    let correct = result.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
