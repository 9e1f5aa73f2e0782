//! Query generators for the paper's five experiments (§5.3).
//!
//! All generators build IR directly (no parsing) with locally-numbered
//! variables; the engine renames queries apart at admission. The ANSWER
//! relation is `Reserve` (abbreviated `R` in the paper's figures).

use crate::rng::{Rng, SliceRandom, StdRng};
use crate::social::SocialGraph;
use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var};

const RESERVE: &str = "Reserve";
const FRIENDS: &str = "Friends";
const USER: &str = "User";

/// Two-way workload flavor (§5.3.1, Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PairStyle {
    /// `{R(x, D)} R(u, D) ⊣ Friends(u, x) ∧ User(u, c) ∧ User(x, c)` —
    /// the partner is any friend living in the same city ("random
    /// workload").
    Random,
    /// `{R(v, D)} R(u, D) ⊣ Friends(u, v) ∧ User(u, c) ∧ User(v, c)` —
    /// the partner is fully specified, eliminating the Friends/User join
    /// on the partner variable ("best-case workload").
    BestCase,
}

fn reserve(user: Term, dest: Term) -> Atom {
    Atom::with_terms(RESERVE, [user, dest])
}

fn friends(a: Term, b: Term) -> Atom {
    Atom::with_terms(FRIENDS, [a, b])
}

fn user(name: Term, home: Term) -> Atom {
    Atom::with_terms(USER, [name, home])
}

/// Generates `n` queries (n/2 mutually-coordinating friend pairs), in a
/// random global permutation — the paper's Figure 6 workload. Each pair
/// shares a uniformly random destination airport. Pairs are friends but
/// not necessarily co-located, giving a "realistic — not too small and
/// not too large — chance to coordinate".
pub fn two_way_pairs(
    graph: &SocialGraph,
    n: usize,
    style: PairStyle,
    seed: u64,
) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut next_id = 0u64;
    while out.len() + 2 <= n {
        let (u, v) = graph.random_edge(&mut rng);
        let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
        let (qu, qv) = match style {
            PairStyle::Random => (
                pair_query_random(graph, u, dest),
                pair_query_random(graph, v, dest),
            ),
            PairStyle::BestCase => (
                pair_query_best(graph, u, v, dest),
                pair_query_best(graph, v, u, dest),
            ),
        };
        out.push(qu.with_id(QueryId(next_id)));
        out.push(qv.with_id(QueryId(next_id + 1)));
        next_id += 2;
    }
    out.shuffle(&mut rng);
    out
}

fn pair_query_random(graph: &SocialGraph, u: u32, dest: Value) -> EntangledQuery {
    // {R(x, D)} R(u, D) <- Friends(u, x), User(u, c), User(x, c)
    let me = Term::Const(graph.user_value(u as usize));
    let d = Term::Const(dest);
    let x = Term::Var(Var(0));
    let c = Term::Var(Var(1));
    EntangledQuery::new(
        vec![reserve(me, d)],
        vec![reserve(x, d)],
        vec![friends(me, x), user(me, c), user(x, c)],
    )
}

fn pair_query_best(graph: &SocialGraph, u: u32, v: u32, dest: Value) -> EntangledQuery {
    // {R(v, D)} R(u, D) <- Friends(u, v), User(u, c), User(v, c)
    let me = Term::Const(graph.user_value(u as usize));
    let partner = Term::Const(graph.user_value(v as usize));
    let d = Term::Const(dest);
    let c = Term::Var(Var(0));
    EntangledQuery::new(
        vec![reserve(me, d)],
        vec![reserve(partner, d)],
        vec![friends(me, partner), user(me, c), user(partner, c)],
    )
}

/// Generates `n` queries as n/3 social-network triangles (§5.3.2): each
/// member requires the next member around the cycle, all fully
/// specified.
pub fn three_way_triangles(graph: &SocialGraph, n: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut next_id = 0u64;
    while out.len() + 3 <= n {
        let Some((a, b, c)) = graph.random_triangle(&mut rng) else {
            break;
        };
        let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
        // a needs b, b needs c, c needs a.
        for (me, need) in [(a, b), (b, c), (c, a)] {
            out.push(triangle_query(graph, me, need, dest).with_id(QueryId(next_id)));
            next_id += 1;
        }
    }
    out.shuffle(&mut rng);
    out
}

fn triangle_query(graph: &SocialGraph, me: u32, need: u32, dest: Value) -> EntangledQuery {
    // {R(need, D)} R(me, D) <- Friends(me, need), User(me, c), User(need, c)
    let m = Term::Const(graph.user_value(me as usize));
    let p = Term::Const(graph.user_value(need as usize));
    let d = Term::Const(dest);
    let c = Term::Var(Var(0));
    EntangledQuery::new(
        vec![reserve(m, d)],
        vec![reserve(p, d)],
        vec![friends(m, p), user(m, c), user(p, c)],
    )
}

/// Generates `n` queries in groups of `pc_count + 1` mutually-befriended
/// users (§5.3.3): every member requires *all* other members, so each
/// query carries `pc_count` postconditions. Requires planted cliques of
/// size ≥ `pc_count + 1` in the graph (1 ≤ pc_count ≤ 5).
pub fn clique_groups(
    graph: &SocialGraph,
    n: usize,
    pc_count: usize,
    seed: u64,
) -> Vec<EntangledQuery> {
    assert!((1..=5).contains(&pc_count), "pc_count must be 1..=5");
    let group = pc_count + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut next_id = 0u64;
    while out.len() + group <= n {
        let Some(members) = graph.random_clique(group, &mut rng) else {
            break;
        };
        let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
        let d = Term::Const(dest);
        let c = Term::Var(Var(0));
        for &me in &members {
            let m = Term::Const(graph.user_value(me as usize));
            let mut pcs = Vec::with_capacity(pc_count);
            let mut body = Vec::with_capacity(2 * group - 1);
            for &other in &members {
                if other == me {
                    continue;
                }
                let o = Term::Const(graph.user_value(other as usize));
                pcs.push(reserve(o, d));
                body.push(friends(m, o));
            }
            // All members from the same city (paper's sample bodies).
            for &mm in &members {
                body.push(user(Term::Const(graph.user_value(mm as usize)), c));
            }
            out.push(EntangledQuery::new(vec![reserve(m, d)], pcs, body).with_id(QueryId(next_id)));
            next_id += 1;
        }
    }
    out.shuffle(&mut rng);
    out
}

/// "No coordination, no unification" workload (§5.3.4, Figure 8): each
/// query's postcondition names a partner that no head ever mentions, so
/// the unifiability graph has no edges; only index lookups happen.
pub fn no_unify(n: usize, num_dests: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let me = Term::str(&format!("solo{i}"));
            let ghost = Term::str(&format!("ghost{i}"));
            let d = Term::str(&format!("D{}", rng.gen_range(0..num_dests.max(1))));
            EntangledQuery::new(vec![reserve(me, d)], vec![reserve(ghost, d)], vec![])
                .with_id(QueryId(i as u64))
        })
        .collect()
}

/// "Usual partitions" workload (§5.3.4, Figure 8): queries form long
/// unification *chains* — query `i` of a segment requires query `i+1`'s
/// head — with no cycles, so unifier propagation runs but coordination
/// never completes. Partition sizes are bounded by `segment_len`.
pub fn chains(n: usize, segment_len: usize, seed: u64) -> Vec<EntangledQuery> {
    assert!(segment_len >= 2, "segments need at least two queries");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let segment = i / segment_len;
        let pos = i % segment_len;
        let me = Term::str(&format!("chain_{segment}_{pos}"));
        let next = Term::str(&format!("chain_{segment}_{}", pos + 1));
        let d = Term::str("HUB");
        // The last query of a segment asks for a member that never
        // arrives, so the chain cannot close.
        out.push(
            EntangledQuery::new(vec![reserve(me, d)], vec![reserve(next, d)], vec![])
                .with_id(QueryId(i as u64)),
        );
    }
    out.shuffle(&mut rng);
    out
}

/// Giant-cluster workload (§5.3.4, Figure 8): one massive partition in
/// which every query unifies with its neighbor *through a variable*, so
/// unifier propagation does real work, but the chain never closes into
/// coordination. Stresses incremental mode; set-at-a-time amortizes it.
pub fn giant_cluster(graph: &SocialGraph, n: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let me = Term::str(&format!("giant{i}"));
        let next = Term::str(&format!("giant{}", i + 1));
        // Destination is a variable bound by a User row: heads and
        // postconditions unify on the destination column, chaining
        // variables across the whole cluster.
        let x = Term::Var(Var(0));
        let anchor = Term::Const(graph.user_value(rng.gen_range(0..graph.num_users())));
        out.push(
            EntangledQuery::new(
                vec![reserve(me, x)],
                vec![reserve(next, x)],
                vec![user(anchor, x)],
            )
            .with_id(QueryId(i as u64)),
        );
    }
    // Arrival order matters for incremental stress; permute.
    out.shuffle(&mut rng);
    out
}

/// Collision-heavy ground pairs for batch-submission and durability
/// drives: pair `p` coordinates on the grid cell
/// `(A{a}/B{a}, City{d})`, with cells enumerated uniquely over a
/// `side × side` grid (`side ≈ √(n/2)`), so every *user* name appears
/// in ~`√(n/2)` queries and every *city* in ~`√(n/2)` queries while
/// each (user, city) combination stays unique. Consequence: every
/// index posting list an admission probe can drive is hot, positional
/// filtering does real work on each probe, and — because no
/// postcondition ever has a second satisfier — the workload is *safe*,
/// so the Figure-9 admission check scans full candidate lists with no
/// early exit. This is the workload where batched admission's
/// probe-once strategy (safety decided from the same probes that
/// discover edges) beats sequential submission's scan-per-check, and
/// where those probes parallelize across index shards.
pub fn grid_pairs(n: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pairs = n / 2;
    let side = ((pairs as f64).sqrt().ceil() as usize).max(1);
    let mut out = Vec::with_capacity(n);
    let mut next_id = 0u64;
    for p in 0..pairs {
        let (a, d) = (p % side, p / side);
        let me = Term::str(&format!("A{a}"));
        let partner = Term::str(&format!("B{a}"));
        let city = Term::str(&format!("City{d}"));
        for (h, pc) in [(me, partner), (partner, me)] {
            out.push(
                EntangledQuery::new(vec![reserve(h, city)], vec![reserve(pc, city)], vec![])
                    .with_id(QueryId(next_id)),
            );
            next_id += 1;
        }
    }
    // Odd n: one extra solo query that never coordinates.
    if out.len() < n {
        let me = Term::str("grid_solo");
        let ghost = Term::str("grid_ghost");
        let city = Term::str("City0");
        out.push(
            EntangledQuery::new(vec![reserve(me, city)], vec![reserve(ghost, city)], vec![])
                .with_id(QueryId(next_id)),
        );
    }
    out.shuffle(&mut rng);
    out
}

/// Resident queries for the safety-check stress test (§5.3.5, Figure 9):
/// `n` queries that cannot coordinate (their postconditions name ghosts)
/// but whose heads cluster on `hubs` destinations, so that wildcard
/// postconditions over a hub unify with many of them.
pub fn unsafe_residents(n: usize, hubs: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = &mut rng;
    (0..n)
        .map(|i| {
            let me = Term::str(&format!("res{i}"));
            let ghost = Term::str(&format!("resghost{i}"));
            let hub = Term::str(&format!("HUB{}", i % hubs.max(1)));
            EntangledQuery::new(vec![reserve(me, hub)], vec![reserve(ghost, hub)], vec![])
                .with_id(QueryId(i as u64))
        })
        .collect()
}

/// Arrival queries for Figure 9: each has a wildcard postcondition
/// `R(x, HUBk)` that unifies with every resident head on that hub, so
/// each arrival **fails the safety check** against the resident set.
pub fn unsafe_arrivals(m: usize, hubs: usize, seed: u64) -> Vec<EntangledQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = &mut rng;
    (0..m)
        .map(|i| {
            let me = Term::str(&format!("att{i}"));
            let my_dest = Term::str(&format!("attdest{i}"));
            let hub = Term::str(&format!("HUB{}", i % hubs.max(1)));
            let x = Term::Var(Var(0));
            let c = Term::Var(Var(1));
            EntangledQuery::new(
                vec![reserve(me, my_dest)],
                vec![reserve(x, hub)],
                vec![user(x, c)],
            )
            .with_id(QueryId(i as u64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::social::SocialGraphConfig;
    use crate::{build_database, SocialGraph};
    use eq_core::{coordinate, Unanswered};

    fn small_graph() -> SocialGraph {
        SocialGraph::generate(&SocialGraphConfig {
            users: 1_000,
            airports: 10,
            planted_cliques: 100,
            ..Default::default()
        })
    }

    #[test]
    fn two_way_pairs_coordinate_when_colocated() {
        let g = small_graph();
        let db = build_database(&g);
        let queries = two_way_pairs(&g, 60, PairStyle::BestCase, 42);
        assert_eq!(queries.len(), 60);
        let outcome = coordinate(&queries, &db);
        // Every query either coordinated or failed with NoSolution
        // (pair not co-located) — never Unsafe/NonUcs.
        assert_eq!(outcome.answers.len() % 2, 0);
        for (_, reason) in &outcome.rejected {
            assert!(
                matches!(reason, Unanswered::NoSolution),
                "unexpected reject {reason:?}"
            );
        }
        assert!(
            !outcome.answers.is_empty(),
            "expected at least one co-located pair among 30"
        );
    }

    #[test]
    fn two_way_random_style_unifies_by_variable() {
        let g = small_graph();
        let queries = two_way_pairs(&g, 20, PairStyle::Random, 43);
        // Every query has a variable partner in its postcondition.
        for q in &queries {
            assert!(q.postconditions[0].terms[0].is_var());
            assert!(q.postconditions[0].terms[1].is_const());
            assert_eq!(q.body.len(), 3);
        }
    }

    #[test]
    fn three_way_triangles_coordinate() {
        let g = small_graph();
        let db = build_database(&g);
        let queries = three_way_triangles(&g, 30, 44);
        assert_eq!(queries.len() % 3, 0);
        assert!(!queries.is_empty());
        let outcome = coordinate(&queries, &db);
        // Groups answer in multiples of three.
        assert_eq!(outcome.answers.len() % 3, 0);
        for (_, reason) in &outcome.rejected {
            assert!(matches!(reason, Unanswered::NoSolution));
        }
    }

    #[test]
    fn clique_groups_have_requested_postconditions() {
        let g = small_graph();
        for pc in 1..=5 {
            let queries = clique_groups(&g, 3 * (pc + 1), pc, 45);
            assert!(!queries.is_empty(), "pc_count {pc}");
            for q in &queries {
                assert_eq!(q.pc_count(), pc);
                // Body: pc Friends atoms + (pc+1) User atoms.
                assert_eq!(q.body.len(), pc + (pc + 1));
            }
        }
    }

    #[test]
    fn clique_groups_coordinate_when_colocated() {
        let g = small_graph();
        let db = build_database(&g);
        let queries = clique_groups(&g, 40, 2, 46);
        let outcome = coordinate(&queries, &db);
        assert_eq!(outcome.answers.len() % 3, 0);
        for (_, reason) in &outcome.rejected {
            assert!(matches!(reason, Unanswered::NoSolution), "{reason:?}");
        }
    }

    #[test]
    fn no_unify_produces_edgeless_graph() {
        let queries = no_unify(50, 5, 47);
        let gen = eq_ir::VarGen::new();
        let renamed: Vec<_> = queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = eq_core::MatchGraph::build(renamed);
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn chains_unify_but_never_coordinate() {
        let queries = chains(40, 8, 48);
        let gen = eq_ir::VarGen::new();
        let renamed: Vec<_> = queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = eq_core::MatchGraph::build(renamed);
        // Edges exist (queries unify) ...
        assert!(graph.edge_count() > 0);
        // ... partitions are bounded by the segment length ...
        for c in graph.components() {
            assert!(c.len() <= 8);
        }
        // ... and nothing coordinates.
        let db = eq_db::Database::new();
        let outcome = coordinate(&queries, &db);
        assert!(outcome.answers.is_empty());
    }

    #[test]
    fn giant_cluster_is_one_component() {
        let g = small_graph();
        let queries = giant_cluster(&g, 50, 49);
        let gen = eq_ir::VarGen::new();
        let renamed: Vec<_> = queries.iter().map(|q| q.rename_apart(&gen)).collect();
        let graph = eq_core::MatchGraph::build(renamed);
        let comps = graph.components();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 50);
    }

    #[test]
    fn unsafe_arrivals_fail_safety_against_residents() {
        use eq_core::{CoordinationEngine, EngineConfig, EngineMode, SubmitError};
        let residents = unsafe_residents(100, 4, 50);
        let arrivals = unsafe_arrivals(20, 4, 51);
        let mut engine = CoordinationEngine::new(
            eq_db::Database::new(),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                ..Default::default()
            },
        );
        for q in &residents {
            engine.submit(q.clone()).unwrap();
        }
        let mut rejected = 0;
        for q in &arrivals {
            if matches!(engine.submit(q.clone()), Err(SubmitError::Unsafe)) {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 20, "all arrivals must fail the safety check");
    }

    #[test]
    fn residents_alone_are_safe() {
        use eq_core::{CoordinationEngine, EngineConfig, EngineMode};
        let residents = unsafe_residents(200, 4, 52);
        let mut engine = CoordinationEngine::new(
            eq_db::Database::new(),
            EngineConfig {
                mode: EngineMode::SetAtATime { batch_size: 0 },
                ..Default::default()
            },
        );
        for q in &residents {
            engine.submit(q.clone()).unwrap();
        }
        assert_eq!(engine.pending_count(), 200);
    }

    #[test]
    fn generators_are_deterministic() {
        let g = small_graph();
        let a = two_way_pairs(&g, 10, PairStyle::Random, 99);
        let b = two_way_pairs(&g, 10, PairStyle::Random, 99);
        assert_eq!(a, b);
    }
}
