//! Fixed-memory statistics for the benchmark: a log-bucketed latency
//! histogram, the median-of-iterations reducer, and the rule that
//! decides which tail percentile a workload may report.

/// Sub-buckets per power of two: a bucket spans at most 1/1024 of its
/// lower bound, so whatever is read back from it is within 0.1 % of
/// every sample in it — finer than two runs of a two-second round
/// ever agree, so a bucket does not hide that a time was measured.
const SUB: u64 = 1024;
const SUB_BITS: u32 = 10;
/// Values below this are counted exactly, one bucket each.
const LINEAR: u64 = 2 * SUB;
const BUCKETS: usize = LINEAR as usize + (63 - SUB_BITS as usize) * SUB as usize;

/// Log-bucketed histogram of `u64` samples (nanoseconds here). Memory
/// is fixed (~450 KB) however many samples arrive; a percentile read
/// back is within 0.2 % of the exact order statistic.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // > SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    (LINEAR + u64::from(exp - SUB_BITS - 1) * SUB + sub) as usize
}

/// The value range `[low, low + width)` bucket `b` covers.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < LINEAR {
        return (b as f64, 1.0);
    }
    let exp = (b - LINEAR) / SUB + u64::from(SUB_BITS) + 1;
    let sub = (b - LINEAR) % SUB;
    let shift = exp as u32 - SUB_BITS;
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[bucket_of(v)] += n;
        self.total += n;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `p`-quantile (`0 < p <= 1`) by the nearest-rank rule, `None`
    /// when empty. The rank's position inside its bucket is
    /// interpolated.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (low, width) = bucket_range(b);
                let inside = (rank - seen) as f64 - 0.5;
                return Some(low + (width - 1.0).max(0.0) * inside / c as f64);
            }
            seen += c;
        }
        None
    }
}

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty. Every reported timing is reduced with
/// this across iterations, so one descheduled iteration cannot move it.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Which tail percentile a latency distribution supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tail {
    /// p99 of every iteration, then the median of those.
    P99PerIteration,
    /// p90 of every iteration, then the median of those.
    P90PerIteration,
    /// p90 of all iterations' samples pooled.
    P90Pooled,
    /// Too few samples for any tail: report the median only.
    None,
}

/// The highest percentile that has at least ten samples beyond it:
/// p99 needs 1,000 samples, p90 needs 100. `per_iteration` is the
/// smallest sample count of any one iteration, `pooled` the count over
/// all of them. A sample is one answer-producing client step — the
/// events of one round share one latency.
pub fn tail_rule(per_iteration: u64, pooled: u64) -> Tail {
    if per_iteration >= 1000 {
        Tail::P99PerIteration
    } else if per_iteration >= 100 {
        Tail::P90PerIteration
    } else if pooled >= 100 {
        Tail::P90Pooled
    } else {
        Tail::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64).
    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            })
            .collect()
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1, "gap at {v}");
            let (low, width) = bucket_range(b);
            assert!(
                low <= v as f64 && (v as f64) < low + width,
                "{v} outside its bucket"
            );
            last = b;
        }
        for shift in 0..64 {
            assert!(bucket_of(1u64 << shift) < BUCKETS);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn a_round_based_iteration_reads_back_closely() {
        // Five rounds, one latency each, a thousand answers per round.
        let mut h = Histogram::default();
        for (round, ms) in [203u64, 198, 2038, 201, 199].into_iter().enumerate() {
            h.record_n(ms * 1_000_003, 1000 + round as u64);
        }
        let near = |got: Option<f64>, ms: f64| {
            let (got, want) = (got.unwrap(), ms * 1_000_003.0);
            assert!((got - want).abs() <= 0.002 * want, "{got} vs {want}");
        };
        near(h.percentile(0.5), 201.0);
        near(h.percentile(1.0), 2038.0);
    }

    #[test]
    fn percentiles_are_within_a_fifth_of_a_percent_of_exact() {
        // Log-uniform samples from 100 ns to ~100 s: every octave used.
        let samples: Vec<u64> = stream(7, 50_000)
            .into_iter()
            .map(|r| {
                let octave = 7 + (r % 30) as u32;
                (1u64 << octave) + (r >> 8) % (1u64 << octave)
            })
            .collect();
        let mut h = Histogram::default();
        for &s in &samples {
            h.record_n(s, 1);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let got = h.percentile(p).unwrap();
            assert!(
                (got - exact).abs() <= 0.002 * exact,
                "p{p}: exact {exact}, histogram {got}"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_merge_adds_up() {
        let mut a = Histogram::default();
        a.record_n(5, 3);
        a.record_n(90, 1);
        let mut b = Histogram::default();
        b.record_n(5, 6);
        a.merge(&b);
        assert_eq!(a.total, 10);
        assert_eq!(a.percentile(0.5), Some(5.0));
        assert_eq!(a.percentile(1.0), Some(90.0));
        assert_eq!(Histogram::default().percentile(0.5), None);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.84, 1.88, 2.32]), Some(1.88));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 60.0]), Some(1.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_rule(48_000, 300_000), Tail::P99PerIteration);
        assert_eq!(tail_rule(1000, 1000), Tail::P99PerIteration);
        assert_eq!(tail_rule(999, 5000), Tail::P90PerIteration);
        assert_eq!(tail_rule(100, 100), Tail::P90PerIteration);
        assert_eq!(tail_rule(20, 120), Tail::P90Pooled);
        assert_eq!(tail_rule(1, 6), Tail::None);
    }
}
