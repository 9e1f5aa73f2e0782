//! Figure runners: generate the workload, drive the engine, time it.

use eq_core::engine::{NoSolutionPolicy, QueryOutcome};
use eq_core::graph::MatchGraph;
use eq_core::{matching, safety, CombinedQuery, CoordinationEngine, EngineConfig, EngineMode};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, VarGen};
use eq_workload::{
    build_database, chains, clique_groups, giant_cluster, no_unify, three_way_triangles,
    two_way_pairs, unsafe_arrivals, unsafe_residents, PairStyle, SocialGraph, SocialGraphConfig,
};
use std::time::Instant;

/// One data point of a figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// Figure id, e.g. `"fig6"`.
    pub figure: &'static str,
    /// Series name as plotted in the paper.
    pub series: String,
    /// X coordinate (query-set size, postcondition count, ...).
    pub x: u64,
    /// Wall-clock milliseconds.
    pub millis: f64,
    /// Optional second metric (e.g. answered queries).
    pub extra: Option<f64>,
}

/// The experiment graph at a given scale (default: the paper's 82,168
/// users over 102 airports).
pub fn standard_graph(users: usize) -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users,
        ..Default::default()
    })
}

fn incremental_engine(db: Database) -> CoordinationEngine {
    CoordinationEngine::new(
        db,
        EngineConfig {
            mode: EngineMode::Incremental,
            // Figure 6/8 measure matching throughput; the admission
            // safety check is the subject of Figure 9 only.
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        },
    )
}

fn drive_incremental(db: &Database, queries: &[EntangledQuery]) -> (f64, usize) {
    let mut engine = incremental_engine(clone_db(db));
    let mut handles = Vec::with_capacity(queries.len());
    let start = Instant::now();
    for q in queries {
        if let Ok(h) = engine.submit(q.clone()) {
            handles.push(h);
        }
    }
    let millis = start.elapsed().as_secs_f64() * 1e3;
    let mut log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
    let answered = handles
        .iter()
        .filter(|h| matches!(log.remove(&h.id), Some(QueryOutcome::Answered(_))))
        .count();
    (millis, answered)
}

/// An independent copy of the workload database for one run: a
/// [`Database::snapshot`], whose tables are copy-on-write, so a run's
/// writes never reach the next run's copy.
pub fn clone_db(db: &Database) -> Database {
    db.snapshot()
}

/// Configuration for the Figure 6 run.
pub struct Fig6Config {
    /// Query-set sizes (paper: 5 … 100,000).
    pub sizes: Vec<usize>,
    /// Social graph scale.
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 6 — scalability of two-way (random + best-case) and three-way
/// coordination, incremental mode.
pub fn run_fig6(cfg: &Fig6Config) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        for (series, queries) in [
            (
                "two-way random",
                two_way_pairs(&graph, n, PairStyle::Random, cfg.seed),
            ),
            (
                "two-way best-case",
                two_way_pairs(&graph, n, PairStyle::BestCase, cfg.seed + 1),
            ),
            ("three-way", three_way_triangles(&graph, n, cfg.seed + 2)),
        ] {
            let (millis, answered) = drive_incremental(&db, &queries);
            rows.push(Row {
                figure: "fig6",
                series: series.to_owned(),
                x: n as u64,
                millis,
                extra: Some(answered as f64),
            });
        }
    }
    rows
}

/// Split timing of one set-at-a-time batch: matching phase versus
/// database evaluation phase (Figure 7's two components).
#[derive(Clone, Copy, Debug, Default)]
pub struct SplitTiming {
    /// Graph construction + safety + matching, milliseconds.
    pub match_ms: f64,
    /// Combined-query evaluation, milliseconds.
    pub db_ms: f64,
    /// Queries answered.
    pub answered: usize,
    /// Number of components matched.
    pub components: usize,
}

/// Runs the batch pipeline with match/db phases timed separately.
pub fn instrumented_batch(queries: &[EntangledQuery], db: &Database) -> SplitTiming {
    let gen = VarGen::new();
    let mut timing = SplitTiming::default();

    let t0 = Instant::now();
    let renamed: Vec<EntangledQuery> = queries
        .iter()
        .map(|q| q.rename_apart(&gen).with_id(q.id))
        .collect();
    let graph = MatchGraph::build(renamed);
    let mut alive = vec![true; graph.len()];
    safety::enforce(&graph, &mut alive);
    let components = graph.components_live(&alive);
    let mut matched = Vec::new();
    for c in &components {
        let m = matching::match_component(&graph, c);
        if !m.survivors.is_empty() {
            if let Some(global) = m.global {
                matched.push(CombinedQuery::build(&graph, &m.survivors, global));
            }
        }
    }
    timing.match_ms = t0.elapsed().as_secs_f64() * 1e3;
    timing.components = components.len();

    let t1 = Instant::now();
    for cq in &matched {
        if let Ok(solutions) = cq.evaluate(db, 1) {
            if let Some(answers) = solutions.first() {
                timing.answered += answers.len();
            }
        }
    }
    timing.db_ms = t1.elapsed().as_secs_f64() * 1e3;
    timing
}

/// Figure 7 — 10,000 queries per point; postconditions per query 1…5;
/// reports the matching and DB components separately.
pub fn run_fig7(users: usize, n: usize, seed: u64) -> Vec<Row> {
    let graph = standard_graph(users);
    let db = build_database(&graph);
    let mut rows = Vec::new();
    for pc in 1..=5usize {
        let queries = clique_groups(&graph, n, pc, seed + pc as u64);
        let t = instrumented_batch(&queries, &db);
        rows.push(Row {
            figure: "fig7",
            series: "matching time".to_owned(),
            x: pc as u64,
            millis: t.match_ms,
            extra: Some(queries.len() as f64),
        });
        rows.push(Row {
            figure: "fig7",
            series: "database evaluation time".to_owned(),
            x: pc as u64,
            millis: t.db_ms,
            extra: Some(t.answered as f64),
        });
    }
    rows
}

/// Configuration for the Figure 8 stress run.
pub struct Fig8Config {
    /// Sizes for the near-linear series (no-unification, chains).
    pub sizes: Vec<usize>,
    /// Sizes for the giant-cluster series (quadratic in incremental
    /// mode — keep smaller).
    pub giant_sizes: Vec<usize>,
    /// Chain segment length ("usual partitions" bound).
    pub segment_len: usize,
    /// Social graph scale (giant-cluster bodies reference User rows).
    pub users: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 8 — stress-testing query matching: workloads with little or no
/// coordination.
pub fn run_fig8(cfg: &Fig8Config) -> Vec<Row> {
    let graph = standard_graph(cfg.users);
    let db = build_database(&graph);
    let mut rows = Vec::new();

    for &n in &cfg.sizes {
        // (a) No coordination, no unification.
        let queries = no_unify(n, 102, cfg.seed);
        let (millis, _) = drive_incremental(&db, &queries);
        rows.push(Row {
            figure: "fig8",
            series: "no coordination, no unification".to_owned(),
            x: n as u64,
            millis,
            extra: None,
        });

        // (b) Usual partitions: unification without coordination,
        // partition sizes bounded by the segment length.
        let queries = chains(n, cfg.segment_len, cfg.seed + 1);
        let (millis, _) = drive_incremental(&db, &queries);
        rows.push(Row {
            figure: "fig8",
            series: "usual partitions".to_owned(),
            x: n as u64,
            millis,
            extra: None,
        });
    }

    for &n in &cfg.giant_sizes {
        let queries = giant_cluster(&graph, n, cfg.seed + 2);

        // (c) Giant cluster, incremental: the whole partition is
        // re-matched on every arrival.
        let mut engine = CoordinationEngine::new(
            clone_db(&db),
            EngineConfig {
                mode: EngineMode::Incremental,
                admission_safety_check: false,
                ..Default::default()
            },
        );
        let start = Instant::now();
        for q in &queries {
            let _ = engine.submit(q.clone());
        }
        rows.push(Row {
            figure: "fig8",
            series: "giant cluster (incremental)".to_owned(),
            x: n as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: None,
        });

        // (d) Giant cluster, set-at-a-time: one matching pass at flush.
        let mut engine = CoordinationEngine::new(
            clone_db(&db),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                admission_safety_check: false,
                ..Default::default()
            },
        );
        let start = Instant::now();
        for q in &queries {
            let _ = engine.submit(q.clone());
        }
        engine.flush();
        rows.push(Row {
            figure: "fig8",
            series: "giant cluster (set-at-a-time)".to_owned(),
            x: n as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: None,
        });
    }
    rows
}

/// Configuration for the Figure 9 safety-check run.
pub struct Fig9Config {
    /// Resident (non-coordinating) queries loaded first (paper: 20,000).
    pub residents: usize,
    /// Sizes of the unsafe arrival sets (paper: 5 … 100,000).
    pub sizes: Vec<usize>,
    /// Number of hub destinations the residents cluster on.
    pub hubs: usize,
    /// Workload seed.
    pub seed: u64,
}

/// Figure 9 — the admission safety check under load: every arrival
/// fails the check against the resident set; we time the checks.
pub fn run_fig9(cfg: &Fig9Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &m in &cfg.sizes {
        let mut engine = CoordinationEngine::new(
            Database::new(),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                admission_safety_check: true,
                ..Default::default()
            },
        );
        for q in unsafe_residents(cfg.residents, cfg.hubs, cfg.seed) {
            engine.submit(q).expect("residents are safe");
        }
        let arrivals = unsafe_arrivals(m, cfg.hubs, cfg.seed + 1);
        let start = Instant::now();
        let mut rejected = 0usize;
        for q in arrivals {
            if engine.submit(q).is_err() {
                rejected += 1;
            }
        }
        rows.push(Row {
            figure: "fig9",
            series: "safety check".to_owned(),
            x: m as u64,
            millis: start.elapsed().as_secs_f64() * 1e3,
            extra: Some(rejected as f64),
        });
    }
    rows
}

/// Ablation baseline for the atom index (§4.1.4): edge discovery by
/// exhaustive pairwise unification. Returns every edge found as
/// `(from, head_idx, to, pc_idx)`, query positions as slots — the same
/// multiset [`MatchGraph::build`] finds through its indexes.
pub fn pairwise_edges(queries: &[EntangledQuery]) -> Vec<(u32, u32, u32, u32)> {
    let mut edges = Vec::new();
    for (i, qi) in queries.iter().enumerate() {
        for (hi, h) in qi.head.iter().enumerate() {
            for (j, qj) in queries.iter().enumerate() {
                if i == j {
                    continue;
                }
                for (pi, p) in qj.postconditions.iter().enumerate() {
                    if eq_unify::mgu_atoms(h, p).is_some() {
                        edges.push((i as u32, hi as u32, j as u32, pi as u32));
                    }
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> SocialGraph {
        standard_graph(400)
    }

    #[test]
    fn fig6_runner_produces_all_series() {
        let rows = run_fig6(&Fig6Config {
            sizes: vec![10, 20],
            users: 400,
            seed: 1,
        });
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.millis >= 0.0));
        let series: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(series.len(), 3);
    }

    #[test]
    fn fig7_runner_reports_both_phases() {
        let rows = run_fig7(400, 30, 2);
        assert_eq!(rows.len(), 10); // 5 pc counts × 2 series
        assert!(rows.iter().any(|r| r.series == "matching time"));
        assert!(rows.iter().any(|r| r.series == "database evaluation time"));
    }

    #[test]
    fn fig8_runner_covers_four_series() {
        let rows = run_fig8(&Fig8Config {
            sizes: vec![50],
            giant_sizes: vec![30],
            segment_len: 8,
            users: 400,
            seed: 3,
        });
        let series: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(series.len(), 4);
    }

    #[test]
    fn fig9_runner_rejects_every_arrival() {
        let rows = run_fig9(&Fig9Config {
            residents: 200,
            sizes: vec![10, 20],
            hubs: 4,
            seed: 4,
        });
        for r in &rows {
            assert_eq!(r.extra, Some(r.x as f64), "all arrivals must be rejected");
        }
    }

    #[test]
    fn pairwise_discovery_agrees_with_index() {
        // One definition of an edge: the graph's indexed discovery finds
        // exactly the pairwise-MGU multiset.
        let graph = tiny_graph();
        for style in [PairStyle::BestCase, PairStyle::Random] {
            let queries = two_way_pairs(&graph, 40, style, 5);
            let gen = VarGen::new();
            let renamed: Vec<EntangledQuery> =
                queries.iter().map(|q| q.rename_apart(&gen)).collect();
            let indexed = MatchGraph::build(renamed.clone());
            let mut found: Vec<(u32, u32, u32, u32)> = (0..indexed.len() as u32)
                .flat_map(|slot| indexed.out_edges(slot))
                .map(|&eid| indexed.edge(eid))
                .map(|e| (e.from, e.head_idx, e.to, e.pc_idx))
                .collect();
            let mut expected = pairwise_edges(&renamed);
            assert!(!expected.is_empty());
            assert_eq!(found.len(), indexed.edge_count());
            found.sort_unstable();
            expected.sort_unstable();
            assert_eq!(found, expected, "{style:?}");
        }
    }

    #[test]
    fn instrumented_batch_answers_colocated_pairs() {
        let graph = tiny_graph();
        let db = build_database(&graph);
        let queries = two_way_pairs(&graph, 60, PairStyle::BestCase, 6);
        let t = instrumented_batch(&queries, &db);
        assert!(t.components > 0);
        assert_eq!(t.answered % 2, 0);
    }
}
