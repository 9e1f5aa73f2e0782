//! Harness version of Figure 8: matching stress — no-unification
//! workload, bounded chains ("usual partitions"), and giant cluster in
//! incremental versus set-at-a-time mode; the bounded chains also run
//! set-at-a-time.

use eq_bench::harness::{smoke_mode, BenchGroup};
use eq_core::{CoordinationEngine, EngineConfig};
use eq_db::Database;
use eq_ir::EntangledQuery;
use eq_workload::{
    build_database, chains, giant_cluster, no_unify, SocialGraph, SocialGraphConfig,
};

/// Submits every query, flushing after each one when `incremental` (the
/// incremental cadence) and once at the end otherwise.
fn drive(db: Database, queries: &[EntangledQuery], incremental: bool) {
    let mut e = CoordinationEngine::new(
        db,
        EngineConfig {
            admission_safety_check: false,
            ..Default::default()
        },
    );
    for q in queries {
        let _ = e.submit(q.clone());
        if incremental {
            e.flush();
        }
    }
    if !incremental {
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
    let mut group = BenchGroup::new("fig8");
    group.sample_size(10);
    for &n in sizes {
        let nu = no_unify(n, 102, 1);
        let ch = chains(n, 16, 2);
        let giant = giant_cluster(&graph, n.min(giant_cap), 3);

        group.bench("no unification", n as u64, || {
            drive(Database::new(), &nu, true)
        });
        group.bench("usual partitions", n as u64, || {
            drive(Database::new(), &ch, true)
        });
        group.bench("usual partitions (set-at-a-time flush)", n as u64, || {
            drive(Database::new(), &ch, false)
        });
        group.bench("giant incremental", giant.len() as u64, || {
            drive(build_database(&graph), &giant, true)
        });
        group.bench("giant set-at-a-time", giant.len() as u64, || {
            drive(build_database(&graph), &giant, false)
        });
    }
}
