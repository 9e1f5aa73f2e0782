//! Giant single-component workload: every query entangled into **one**
//! match-graph component that actually coordinates.
//!
//! The Figure 8 `giant_cluster` workload stresses *matching* on a giant
//! partition that never closes; this one stresses *evaluation*: `n`
//! queries form one ring of ground entanglements (query `i`'s
//! postcondition names query `i+1 mod n`'s head), so the paper's
//! coordination semantics force all `n` to be answered together through
//! a single combined query — the worst case for per-component flush
//! parallelism, and the workload the engine's partitioned
//! intra-component path (`eq_core::intra`) exists for.
//!
//! Each query carries a body over a synthetic `Friends` relation, in
//! one of three flavors ([`GiantBody`]):
//!
//! ```text
//! Chain:       {R(G_{i+1}, HUB)}  R(G_i, HUB)  ⊣  Friends(G_i, x) ∧ Friends(x, y)
//! Triangle:    {R(G_{i+1}, HUB)}  R(G_i, HUB)  ⊣  Friends(G_i, x) ∧ Friends(x, y) ∧ Friends(y, G_i)
//! SharedChain: {R(G_{i+1}, y)}   R(G_i, x)    ⊣  Friends(G_i, x) ∧ Friends(x, y)
//! SharedWide:  {R(G_{i+1}, y)}   R(G_i, x)    ⊣  Friends(G_i, x) ∧ Friends(x, y) ∧ Friends(x, z)
//! ```
//!
//! `Chain` and `Triangle` bodies use **private** variables, so the
//! combined query decomposes into `n` variable-disjoint work units. The
//! difference is what the *sequential* (one combined join) evaluator
//! does with them:
//!
//! * **`Chain`** bodies never fail a row, so the sequential join is
//!   backtrack-free and terminates — its cost is the quadratic
//!   atom-selection scan over the 2n-atom body. Use this flavor to
//!   *measure* sequential-vs-partitioned on the same input.
//! * **`Triangle`** bodies are rigged so every triangle search
//!   succeeds, but only on (roughly) the **last** of its `k²` candidate
//!   2-paths: user `G_m`'s friends are `G_{m+1} … G_{m+k}` (forward
//!   ring edges — no triangles among themselves for `n > 3k`), plus one
//!   *closure* edge `G_{m+2k} → G_m` that completes exactly the longest
//!   2-path. Each work unit therefore does Θ(k²) indexed row visits —
//!   real, parallelizable work. Do **not** point the sequential
//!   evaluator at a triangle ring: chronological backtracking thrashes
//!   across the interleaved independent sub-searches (a dead end in one
//!   unit re-enumerates every binding of the units interleaved after
//!   it), which is exponential in the ring size. The partitioned path
//!   evaluates each unit in isolation and is immune — that cliff *is*
//!   the point of this workload.
//!
//! **`SharedChain`** is the flavor the other two cannot model: its
//! postcondition names the *body variable* `y`, so matching unifies
//! query `i`'s `y` with query `i+1`'s head/body variable `x` — each
//! guest must reserve exactly the value its predecessor's body chose.
//! After the global unifier runs, the whole `2n`-atom combined body is
//! **one variable-connected chain** `x_0 — x_1 — … — x_{n-1} — y_{n-1}`
//! (query `0` anchors the ring with a ground head `R(G_0, HUB)` and
//! query `n-1` closes it with the matching ground postcondition, so
//! the variable chain is a path, not a cycle). Variable-disjoint
//! partitioning (`eq_core::intra`) sees a single work unit and the
//! flush serializes again; the **biconnected-region split**
//! (`eq_core::intra::split_unit`) is what decomposes this flavor — every
//! interior chain variable is an articulation point, so the unit
//! shatters into `n` two-variable join regions evaluated in parallel
//! and glued by an exact tree semi-join. With `friends_per_user = 1`
//! the chain's solution is unique (`x_i = G_{i+1}`), making split and
//! whole-unit evaluation answer-identical — the property-test
//! configuration; larger `k` gives each region `Θ(k²)` local solutions,
//! real per-region work. The `SharedChain` database carries forward
//! ring edges only (no closure edges).
//!
//! **`SharedWide`** is `SharedChain` plus one **private** widening atom
//! `Friends(x, z)` per query. `z` never leaves its query, so the
//! biconnected split hangs a pendant region `{x_i, z_i}` off every
//! chain variable: per-query local solutions multiply to `Θ(k²)` while
//! the articulation domain (the values `x_i` can take) stays `k`. This
//! is the flavor that breaks any evaluator which *materializes*
//! per-region solution sets — memory scales with `n·k²` — or merely
//! *enumerates* them, while region evaluation by projection retains
//! `O(k)` witness values per region and is handed `O(k)` solutions.
//! Database rows are identical to `SharedChain`.
//!
//! All rings are safe (every postcondition has exactly one unifying
//! head), UCS (one cycle ⇒ one SCC), and fully answerable.
//!
//! [`giant_detour`] rigs a shared-flavor ring so that taking every
//! region's first solution dead-ends: user `G_d`'s first friend becomes
//! a `TRAP` user with no friends of its own. Region evaluation that
//! walks down from a root left of query `d` binds `x_{d-1} = G_d`, then
//! `x_d = TRAP` — which no solution of region `d` carries — and has to
//! back out; the ring stays answerable through `G_d`'s real friends.

use eq_db::Database;
use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var};

const RESERVE: &str = "Reserve";
const FRIENDS: &str = "Friends";

/// Per-query body flavor of the giant ring (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GiantBody {
    /// Backtrack-free two-atom walk: safe for the sequential evaluator.
    #[default]
    Chain,
    /// Θ(k²)-per-unit triangle search: partitioned evaluation only.
    Triangle,
    /// Postconditions name body variables: the combined body is one
    /// shared-variable chain, split only by biconnected regions.
    SharedChain,
    /// `SharedChain` plus a private `Friends(x, z)` widening atom:
    /// Θ(k²) local solutions per region against an articulation domain
    /// of width `k` — the anti-materialization stress flavor.
    SharedWide,
}

/// Configuration for [`giant_component`].
#[derive(Clone, Copy, Debug)]
pub struct GiantComponentConfig {
    /// Ring size: number of entangled queries (all in one component).
    pub queries: usize,
    /// Forward ring edges per user (`k`). Under [`GiantBody::Triangle`]
    /// each work unit's search visits Θ(k²) rows before closing, so
    /// this knob sets the per-unit evaluation cost. Must satisfy
    /// `queries > 4·k` so the modular arithmetic cannot create
    /// accidental early triangles.
    pub friends_per_user: usize,
    /// Body flavor (see [`GiantBody`]).
    pub body: GiantBody,
}

impl Default for GiantComponentConfig {
    fn default() -> Self {
        GiantComponentConfig {
            queries: 10_000,
            friends_per_user: 12,
            body: GiantBody::Chain,
        }
    }
}

fn user(i: usize, n: usize) -> Value {
    Value::str(&format!("G{}", i % n))
}

/// Builds the database (the rigged `Friends` graph) and the `n`-query
/// entangled ring described in the module docs. Queries are returned in
/// ring order with ids `0..n`; submission order does not matter — any
/// order yields the same single resident component.
pub fn giant_component(cfg: &GiantComponentConfig) -> (Database, Vec<EntangledQuery>) {
    let n = cfg.queries;
    let k = cfg.friends_per_user;
    assert!(
        n > 4 * k,
        "need queries > 4 * friends_per_user, got {n} vs {k}"
    );

    let mut db = Database::new();
    db.create_table(FRIENDS, &["name1", "name2"])
        .expect("fresh database");
    // Forward ring edges first (posting-list order matters: the closure
    // edge must be each user's *last* successor so the triangle search
    // pays for the full enumeration before succeeding). SharedChain
    // carries the forward edges only — `Friends(G_m, G_{m+1})` keeps the
    // whole chain satisfiable (uniquely so at k = 1), and closure edges
    // would add nothing but extra per-region solutions.
    let mut rows = Vec::with_capacity(n * (k + 1));
    for m in 0..n {
        for j in 1..=k {
            rows.push(vec![user(m, n), user(m + j, n)]);
        }
    }
    if matches!(cfg.body, GiantBody::Chain | GiantBody::Triangle) {
        for m in 0..n {
            rows.push(vec![user(m + 2 * k, n), user(m, n)]);
        }
    }
    db.insert_many(FRIENDS, rows).expect("schema arity");

    let hub = Term::str("HUB");
    let x = Term::Var(Var(0));
    let y = Term::Var(Var(1));
    let z = Term::Var(Var(2));
    let queries = (0..n)
        .map(|i| {
            let me = Term::Const(user(i, n));
            let next = Term::Const(user(i + 1, n));
            let mut body = vec![
                Atom::with_terms(FRIENDS, [me, x]),
                Atom::with_terms(FRIENDS, [x, y]),
            ];
            let (head, pc) = match cfg.body {
                GiantBody::Chain => (
                    Atom::with_terms(RESERVE, [me, hub]),
                    Atom::with_terms(RESERVE, [next, hub]),
                ),
                GiantBody::Triangle => {
                    body.push(Atom::with_terms(FRIENDS, [y, me]));
                    (
                        Atom::with_terms(RESERVE, [me, hub]),
                        Atom::with_terms(RESERVE, [next, hub]),
                    )
                }
                GiantBody::SharedChain | GiantBody::SharedWide => {
                    if cfg.body == GiantBody::SharedWide {
                        // Private widening atom: z stays local to this
                        // query, so each region's local solution count
                        // multiplies by k while the articulation domain
                        // (values of x) does not grow.
                        body.push(Atom::with_terms(FRIENDS, [x, z]));
                    }
                    // Query 0 anchors with a ground head; query n-1
                    // closes the entanglement ring with the matching
                    // ground postcondition. Everyone else reserves its
                    // own body's x and demands the successor reserve
                    // this body's y — matching chains the variables.
                    let head = if i == 0 {
                        Atom::with_terms(RESERVE, [me, hub])
                    } else {
                        Atom::with_terms(RESERVE, [me, x])
                    };
                    let pc = if i == n - 1 {
                        Atom::with_terms(RESERVE, [next, hub])
                    } else {
                        Atom::with_terms(RESERVE, [next, y])
                    };
                    (head, pc)
                }
            };
            EntangledQuery::new(vec![head], vec![pc], body).with_id(QueryId(i as u64))
        })
        .collect();
    (db, queries)
}

/// [`giant_component`] with a detour at query `at` (see the module
/// docs): the same queries, and the same `Friends` rows in the same
/// order behind one extra row, `Friends(G_at, TRAP)`. For the
/// shared flavors, so that region `at` has no solution under the pin
/// its parent's first choice sets whenever the block-cut tree's root
/// lies left of it (the first query to arrive is one of `0..at`).
pub fn giant_detour(cfg: &GiantComponentConfig, at: usize) -> (Database, Vec<EntangledQuery>) {
    let (ring, queries) = giant_component(cfg);
    let mut db = Database::new();
    db.create_table(FRIENDS, &["name1", "name2"])
        .expect("fresh database");
    let mut rows = vec![vec![user(at, cfg.queries), Value::str("TRAP")]];
    rows.extend(ring.scan(FRIENDS).expect("the ring has Friends"));
    db.insert_many(FRIENDS, rows).expect("schema arity");
    (db, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{FastMap, VarGen};

    #[test]
    fn ring_is_one_component_and_every_body_is_satisfiable() {
        for body in [
            GiantBody::Chain,
            GiantBody::Triangle,
            GiantBody::SharedChain,
            GiantBody::SharedWide,
        ] {
            let cfg = GiantComponentConfig {
                queries: 60,
                friends_per_user: 5,
                body,
            };
            let (db, queries) = giant_component(&cfg);
            let gen = VarGen::new();
            let renamed: Vec<EntangledQuery> =
                queries.iter().map(|q| q.rename_apart(&gen)).collect();
            let graph = eq_core::MatchGraph::build(renamed);
            let comps = graph.components();
            assert_eq!(comps.len(), 1, "ring must be one component ({body:?})");
            assert_eq!(comps[0].len(), 60);
            // Every body is satisfiable on its own.
            for q in &queries {
                let sols = db.evaluate(&q.body, 1).unwrap();
                assert_eq!(sols.len(), 1, "body must close for {:?} ({body:?})", q.id);
            }
        }
    }

    #[test]
    fn chain_ring_coordinates_sequentially() {
        // Chain bodies are backtrack-free, so even the plain one-shot
        // sequential evaluation handles the whole ring.
        let cfg = GiantComponentConfig {
            queries: 30,
            friends_per_user: 4,
            body: GiantBody::Chain,
        };
        let (db, queries) = giant_component(&cfg);
        let outcome = eq_core::coordinate(&queries, &db);
        assert_eq!(outcome.answers.len(), 30, "{:?}", outcome.rejected);
        assert!(outcome.rejected.is_empty());
    }

    #[test]
    fn triangle_ring_coordinates_through_the_partitioned_path() {
        // Triangle bodies thrash the interleaved sequential join (see
        // module docs); the intra-component path evaluates each unit in
        // isolation and answers the whole ring.
        use eq_core::{CoordinationEngine, EngineConfig, EngineMode, QueryOutcome};
        let cfg = GiantComponentConfig {
            queries: 40,
            friends_per_user: 6,
            body: GiantBody::Triangle,
        };
        let (db, queries) = giant_component(&cfg);
        let mut engine = CoordinationEngine::new(
            db,
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                intra_component_threshold: 1,
                flush_threads: 4,
                ..Default::default()
            },
        );
        let handles: Vec<_> = queries
            .iter()
            .map(|q| engine.submit(q.clone()).unwrap())
            .collect();
        let report = engine.flush();
        assert_eq!(report.answered, 40);
        assert_eq!(report.intra_components, 1);
        assert_eq!(report.intra_units, 40);
        let mut log: FastMap<QueryId, QueryOutcome> =
            engine.drain_outcome_log().into_iter().collect();
        for h in &handles {
            assert!(matches!(
                log.remove(&h.id).unwrap(),
                QueryOutcome::Answered(_)
            ));
        }
    }

    #[test]
    fn shared_chain_ring_coordinates_via_region_split() {
        // The engine's own split gate, `SplitOptions::default()`: a
        // k = 1 shared chain of n queries is one unit of 2n atoms and n
        // regions, so it splits iff (2n)² ≥ 4,096 · n — from n = 1,024
        // on — and answers the ring's unique valuation either way.
        use eq_core::{CoordinationEngine, EngineConfig, EngineMode, QueryOutcome};
        for (n, split_units) in [(1_023, 0), (1_024, 1)] {
            let cfg = GiantComponentConfig {
                queries: n,
                friends_per_user: 1, // unique chain solution: x_i = G_{i+1}
                body: GiantBody::SharedChain,
            };
            let (db, queries) = giant_component(&cfg);
            let mut engine = CoordinationEngine::new(
                db,
                EngineConfig {
                    mode: EngineMode::SetAtATime { batch_size: 0 },
                    ..Default::default()
                },
            );
            let handles: Vec<_> = queries
                .iter()
                .map(|q| engine.submit(q.clone()).unwrap())
                .collect();
            let report = engine.flush();
            assert_eq!(report.answered, n);
            assert_eq!(report.intra_components, 1);
            assert_eq!(report.intra_units, 1);
            assert_eq!(report.intra_split_units, split_units, "n = {n}");
            // One region per chain edge when split.
            assert_eq!(report.intra_regions, split_units * n, "n = {n}");
            let mut log: FastMap<QueryId, QueryOutcome> =
                engine.drain_outcome_log().into_iter().collect();
            for (i, h) in handles.iter().enumerate() {
                let QueryOutcome::Answered(answer) = log.remove(&h.id).unwrap() else {
                    panic!("query {i} must coordinate");
                };
                // k = 1 forces the unique valuation: guest i reserves
                // its successor (guest 0 anchors on HUB).
                let expect = if i == 0 {
                    Value::str("HUB")
                } else {
                    Value::str(&format!("G{}", (i + 1) % n))
                };
                assert_eq!(answer.tuples[0][1], expect, "n = {n}");
            }
        }
    }

    /// Matches a ring as one component and plans it under `split` — the
    /// level at which a split can be forced on a ring too small for the
    /// engine's gate (`crossover: 0`). `detour` builds the ring with
    /// [`giant_detour`] at that query; queries arrive in ring order, so
    /// query 0's region roots the block-cut tree.
    fn ring_plan(
        cfg: &GiantComponentConfig,
        detour: Option<usize>,
        split: &eq_core::intra::SplitOptions,
    ) -> (Database, eq_core::ComponentPlan) {
        let (db, queries) = match detour {
            Some(at) => giant_detour(cfg, at),
            None => giant_component(cfg),
        };
        let gen = VarGen::new();
        let graph = eq_core::MatchGraph::build(
            queries
                .iter()
                .map(|q| q.rename_apart(&gen).with_id(q.id))
                .collect(),
        );
        let members: Vec<u32> = (0..cfg.queries as u32).collect();
        let m = eq_core::matching::match_component(&graph, &members);
        let global = m.global.expect("rings always match");
        let plan = eq_core::intra::plan_component(&graph, &m.survivors, &global, split);
        (db, plan)
    }

    #[test]
    fn shared_chain_split_matches_unsplit_statuses() {
        use eq_core::intra::{evaluate_plan, SplitOptions};
        // Larger k: per-region solutions multiply, answers may differ
        // between split and whole-unit evaluation, but satisfiability —
        // hence every terminal status — must agree.
        let cfg = GiantComponentConfig {
            queries: 30,
            friends_per_user: 4,
            body: GiantBody::SharedChain,
        };
        let (db, split) = ring_plan(&cfg, None, &SplitOptions { crossover: 0 });
        let (_, whole) = ring_plan(&cfg, None, &SplitOptions::default());
        let regions = |plan: &eq_core::ComponentPlan| {
            plan.units
                .iter()
                .filter_map(|u| u.regions.as_ref())
                .map(|rp| rp.regions.len())
                .sum::<usize>()
        };
        assert_eq!(regions(&split), 30);
        assert_eq!(regions(&whole), 0);
        let split = evaluate_plan(&split, &db, 4).unwrap();
        let whole = evaluate_plan(&whole, &db, 4).unwrap();
        assert_eq!(split.map(|a| a.len()), Some(30));
        assert_eq!(whole.map(|a| a.len()), Some(30));
    }

    #[test]
    fn shared_wide_witness_peak_is_bounded_by_articulation_domain() {
        use eq_core::intra::{evaluate_plan_with_stats, SplitOptions};
        // The anti-materialization flavor: each pendant region carries
        // Θ(k²) local solutions, but the region evaluator retains only
        // the ≤ k articulation witness values per region — and, running
        // each region as a projection, is handed only O(k) of them. A
        // detour at query 1 makes the first-choice descent dead-end one
        // region below the root, so the witness pass runs over every
        // region while the descent adds no more than the handful of
        // solutions it was handed on the way down.
        let (n, k) = (30usize, 4usize);
        let cfg = GiantComponentConfig {
            queries: n,
            friends_per_user: k,
            body: GiantBody::SharedWide,
        };
        let (db, plan) = ring_plan(&cfg, Some(1), &SplitOptions { crossover: 0 });
        assert_eq!(plan.units.len(), 1);
        // n chain regions plus n pendant {x_i, z_i} regions.
        let regions = plan.units[0].regions.as_ref().expect("the ring splits");
        assert_eq!(regions.regions.len(), 2 * n);
        let (answers, stats) = evaluate_plan_with_stats(&plan, &db, 4).unwrap();
        assert_eq!(answers.map(|a| a.len()), Some(n));
        // Every region binds its parent articulation variable first, so
        // "done with this value" leaves one solution per value bottom-up
        // plus the one picked top-down — not the k² pre-image …
        assert!(
            stats.region_streamed <= (2 * n * (k + 1)) as u64,
            "streamed {} > {}",
            stats.region_streamed,
            2 * n * (k + 1)
        );
        // … and never held more than the articulation domain.
        assert!(
            stats.witness_peak >= 1 && stats.witness_peak <= k as u64,
            "witness peak {} out of [1, {k}]",
            stats.witness_peak
        );
    }

    #[test]
    fn triangle_search_pays_for_the_enumeration() {
        // The per-unit cost knob: the first solution must show up only
        // after ~k² row visits, not on the first probe.
        let cfg = GiantComponentConfig {
            queries: 50,
            friends_per_user: 8,
            body: GiantBody::Triangle,
        };
        let (db, queries) = giant_component(&cfg);
        let (sols, stats) = db.evaluate_with_stats(&queries[0].body, 1).unwrap();
        assert_eq!(sols.len(), 1);
        let k = cfg.friends_per_user as u64;
        assert!(
            stats.rows_considered >= k * (k - 1),
            "expected ≥ k(k-1) row visits, got {}",
            stats.rows_considered
        );
    }
}
