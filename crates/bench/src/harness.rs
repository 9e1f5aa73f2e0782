//! Hand-rolled micro-benchmark harness used by the `benches/` targets
//! (offline-dependency policy: no criterion). Each `[[bench]]` target
//! sets `harness = false` and drives a [`BenchGroup`] from `main`.
//!
//! Reported statistics are min / median / mean wall-clock time over the
//! sample runs, after one untimed warm-up. `--smoke` asks benches to
//! shrink their workloads so CI can run them as build-and-run smoke
//! tests.

use std::time::{Duration, Instant};

/// Whether the process was asked for a fast smoke run (`--smoke`).
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// A named group of benchmark cases, printed as an aligned table.
pub struct BenchGroup {
    name: String,
    samples: usize,
    printed_header: bool,
}

impl BenchGroup {
    pub fn new(name: impl Into<String>) -> Self {
        BenchGroup {
            name: name.into(),
            samples: 10,
            printed_header: false,
        }
    }

    /// Number of timed samples per case (default 10).
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Times `routine` (after one untimed warm-up) and prints one row.
    /// `x` is the case's parameter (query count, postconditions, ...).
    pub fn bench<R>(&mut self, series: &str, x: u64, mut routine: impl FnMut() -> R) {
        self.bench_with_setup(series, x, || (), |()| routine());
    }

    /// Like [`BenchGroup::bench`], but re-runs `setup` before every
    /// sample outside the timed section (criterion's `iter_batched`).
    pub fn bench_with_setup<T, R>(
        &mut self,
        series: &str,
        x: u64,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T) -> R,
    ) {
        if !self.printed_header {
            self.printed_header = true;
            println!("== bench group: {} ==", self.name);
            println!(
                "{:<36} {:>10} {:>12} {:>12} {:>12}",
                "series", "x", "min ms", "median ms", "mean ms"
            );
        }
        // Warm-up.
        std::hint::black_box(routine(setup()));

        let mut times: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            times.push(start.elapsed());
        }
        times.sort_unstable();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let min = ms(times[0]);
        let median = ms(times[times.len() / 2]);
        let mean = times.iter().map(|&d| ms(d)).sum::<f64>() / times.len() as f64;
        println!("{series:<36} {x:>10} {min:>12.3} {median:>12.3} {mean:>12.3}");
    }
}
