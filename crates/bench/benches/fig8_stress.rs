//! Harness version of Figure 8: matching stress — no-unification
//! workload, bounded chains ("usual partitions"), and giant cluster in
//! incremental versus set-at-a-time mode (sequential and parallel
//! flush).

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_core::{CoordinationEngine, EngineConfig, EngineMode};
use eq_db::Database;
use eq_ir::EntangledQuery;
use eq_workload::{
    build_database, chains, giant_cluster, no_unify, SocialGraph, SocialGraphConfig,
};

fn drive(db: Database, queries: &[EntangledQuery], config: EngineConfig, flush: bool) {
    let mut e = CoordinationEngine::new(db, config);
    for q in queries {
        let _ = e.submit(q.clone());
    }
    if flush {
        e.flush();
    }
}

fn main() {
    let (users, sizes, giant_cap): (usize, &[usize], usize) = if smoke_mode() {
        (1_000, &[200], 150)
    } else {
        (5_000, &[500, 2_000], 800)
    };
    let graph = SocialGraph::generate(&SocialGraphConfig {
        users,
        planted_cliques: 100,
        ..Default::default()
    });
    let incremental = EngineConfig {
        mode: EngineMode::Incremental,
        admission_safety_check: false,
        ..Default::default()
    };
    let batch = EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        admission_safety_check: false,
        ..Default::default()
    };
    // The sharded flush: one worker per hardware thread over the
    // match-graph components (§4.1.2).
    let batch_parallel = EngineConfig {
        flush_threads: 0,
        ..batch.clone()
    };

    let mut group = BenchGroup::new("fig8");
    group.sample_size(10);
    for &n in sizes {
        let nu = no_unify(n, 102, 1);
        let ch = chains(n, 16, 2);
        let giant = giant_cluster(&graph, n.min(giant_cap), 3);

        group.bench("no unification", n as u64, || {
            drive(Database::new(), &nu, incremental.clone(), false)
        });
        group.bench("usual partitions", n as u64, || {
            drive(Database::new(), &ch, incremental.clone(), false)
        });
        group.bench("usual partitions (parallel flush)", n as u64, || {
            drive(Database::new(), &ch, batch_parallel.clone(), true)
        });
        group.bench("giant incremental", giant.len() as u64, || {
            drive(build_database(&graph), &giant, incremental.clone(), false)
        });
        group.bench("giant set-at-a-time", giant.len() as u64, || {
            drive(build_database(&graph), &giant, batch.clone(), true)
        });
    }
}
