//! Harness version of Figure 6: incremental coordination throughput on
//! the two-way (random + best-case) and three-way workloads, at reduced
//! scale so `cargo bench` stays fast. Run the `fig6` binary for the
//! paper-scale sweep.

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_core::engine::NoSolutionPolicy;
use eq_core::{CoordinationEngine, EngineConfig};
use eq_workload::{
    build_database, three_way_triangles, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig,
};

fn engine(graph: &SocialGraph) -> CoordinationEngine {
    CoordinationEngine::new(
        build_database(graph),
        EngineConfig {
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        },
    )
}

fn main() {
    let (users, cliques, sizes): (usize, usize, &[usize]) = if smoke_mode() {
        (1_000, 60, &[100])
    } else {
        (5_000, 300, &[200, 1_000])
    };
    let graph = SocialGraph::generate(&SocialGraphConfig {
        users,
        planted_cliques: cliques,
        ..Default::default()
    });
    let mut group = BenchGroup::new("fig6");
    group.sample_size(10);
    for &n in sizes {
        let workloads = [
            (
                "two-way random",
                two_way_pairs(&graph, n, PairStyle::Random, 1),
            ),
            (
                "two-way best-case",
                two_way_pairs(&graph, n, PairStyle::BestCase, 2),
            ),
            ("three-way", three_way_triangles(&graph, n, 3)),
        ];
        for (series, qs) in &workloads {
            group.bench(series, n as u64, || {
                // The incremental cadence: a flush after every submit.
                let mut e = engine(&graph);
                for q in qs {
                    let _ = e.submit(q.clone());
                    e.flush();
                }
            });
        }
    }
}
