//! Harness version of Figure 9: per-arrival cost of the admission
//! safety check against a resident pool.

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_core::{CoordinationEngine, EngineConfig};
use eq_db::Database;
use eq_workload::{unsafe_arrivals, unsafe_residents};

fn main() {
    let (resident_sizes, arrivals_n): (&[usize], usize) = if smoke_mode() {
        (&[500], 100)
    } else {
        (&[2_000, 10_000], 500)
    };
    let mut group = BenchGroup::new("fig9");
    group.sample_size(10);
    for &residents in resident_sizes {
        let resident_queries = unsafe_residents(residents, 8, 1);
        let arrivals = unsafe_arrivals(arrivals_n, 8, 2);
        group.bench_with_setup(
            &format!("safety check ({arrivals_n} arrivals)"),
            residents as u64,
            // Engine setup (loading residents) stays outside the timed
            // section.
            || {
                let mut e = CoordinationEngine::new(Database::new(), EngineConfig::default());
                for q in &resident_queries {
                    e.submit(q.clone()).expect("residents are safe");
                }
                e
            },
            |mut e| {
                for q in &arrivals {
                    let _ = e.submit(q.clone());
                }
            },
        );
    }
}
