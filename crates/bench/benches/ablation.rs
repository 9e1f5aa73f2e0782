//! Ablation benches for two design decisions the paper argues for:
//!
//! 1. **Atom index vs pairwise edge discovery** (§4.1.4): the paper's
//!    `(Relation, Position, Value/Δ)` index against exhaustive pairwise
//!    unification of all heads with all postconditions.
//! 2. **Safe matching vs brute-force search** (Theorem 3.1 vs Theorem
//!    2.1): the polynomial pipeline against the exponential generic
//!    coordinating-set search, on a workload both can handle.

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_bench::pairwise_edges;
use eq_core::graph::MatchGraph;
use eq_core::{bruteforce, coordinate};
use eq_ir::{EntangledQuery, VarGen};
use eq_workload::{build_database, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig};

fn renamed(queries: &[EntangledQuery]) -> Vec<EntangledQuery> {
    let gen = VarGen::new();
    queries.iter().map(|q| q.rename_apart(&gen)).collect()
}

fn main() {
    let smoke = smoke_mode();
    let graph = SocialGraph::generate(&SocialGraphConfig {
        users: if smoke { 1_000 } else { 5_000 },
        planted_cliques: 100,
        ..Default::default()
    });

    let mut group = BenchGroup::new("ablation-edge-discovery");
    group.sample_size(10);
    let sizes: &[usize] = if smoke { &[100] } else { &[200, 1_000] };
    for &n in sizes {
        let qs = renamed(&two_way_pairs(&graph, n, PairStyle::BestCase, 7));
        group.bench("indexed", n as u64, || {
            MatchGraph::build(qs.clone()).edge_count()
        });
        group.bench("pairwise", n as u64, || pairwise_edges(&qs).len());
    }

    let graph = SocialGraph::generate(&SocialGraphConfig {
        users: if smoke { 500 } else { 2_000 },
        planted_cliques: 100,
        ..Default::default()
    });
    let db = build_database(&graph);
    let mut group = BenchGroup::new("ablation-matching-vs-bruteforce");
    group.sample_size(10);
    // Brute force is exponential in the query count: keep it tiny.
    let sizes: &[usize] = if smoke { &[4] } else { &[4, 8] };
    for &n in sizes {
        let qs = two_way_pairs(&graph, n, PairStyle::BestCase, 11);
        group.bench("safe matching", n as u64, || {
            coordinate(&qs, &db).answers.len()
        });
        let rn = renamed(&qs);
        group.bench("brute force", n as u64, || {
            bruteforce::find_coordinating_set(&rn, &db, false)
                .unwrap()
                .is_some()
        });
    }
}
