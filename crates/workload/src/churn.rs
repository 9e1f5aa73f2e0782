//! Churn scenario generator: interleaved submit / flush / cancel
//! scripts for a long-running engine.
//!
//! The paper's figures drive the engine with submit-only workloads; the
//! resident match graph is stressed hardest by *churn* — queries
//! arriving, coordinating, being withdrawn, and slots being reused while
//! flushes run in between. A churn script mixes
//!
//! * **coordinating pairs** (best-case two-way style, §5.3.1) whose
//!   halves land in a random global order, so pairs regularly straddle a
//!   flush boundary (the first half is evaluated alone, stays pending,
//!   and must be picked up again when its partner dirties the
//!   component);
//! * **solo queries** whose postcondition names a partner that never
//!   arrives — they accumulate as pending residents until the script
//!   cancels them, exercising slot reuse and index cleanup;
//! * **flushes** every `flush_every` submissions, preceded by a wave of
//!   cancellations of the oldest solo residents.
//!
//! Scripts are deterministic in the seed, so every replay of one — on a
//! bare engine or a `Coordinator`, by single submits or batches — sees
//! a byte-identical operation stream.

use crate::rng::{Rng, SliceRandom, StdRng};
use crate::social::SocialGraph;
use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var};
use std::collections::VecDeque;

/// One operation of a churn script.
#[derive(Clone, Debug)]
pub enum ChurnOp {
    /// Submit the query. Its position among all `Submit` ops is its
    /// *submission index*, which `Cancel` refers back to.
    Submit(EntangledQuery),
    /// Flush the engine (evaluate dirty components).
    Flush,
    /// Withdraw the query submitted at this submission index (always a
    /// solo query that is still pending at this point in the script).
    Cancel(usize),
}

/// Shape of a churn script.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Total queries submitted.
    pub queries: usize,
    /// A `Flush` op is emitted every this many submissions (and once at
    /// the end). 0 means a single final flush.
    pub flush_every: usize,
    /// Out of 1000 submissions, how many are non-coordinating solo
    /// queries (the churn residents that later get cancelled).
    pub solo_permille: u32,
    /// Script seed.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            queries: 1_000,
            flush_every: 100,
            solo_permille: 300,
            seed: 7,
        }
    }
}

fn reserve(user: Term, dest: Term) -> Atom {
    Atom::with_terms("Reserve", [user, dest])
}

/// Generates a deterministic churn script. The returned ops contain
/// exactly `cfg.queries` `Submit`s; every `Cancel` references a solo
/// submission that precedes it and is never referenced twice.
pub fn churn_script(graph: &SocialGraph, cfg: &ChurnConfig) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let submissions = generate_submissions(graph, cfg.queries, cfg.solo_permille, &mut rng);

    // Interleave: every `flush_every` submissions, cancel the older
    // half of the outstanding solos, then flush.
    let mut ops =
        Vec::with_capacity(submissions.len() + submissions.len() / cfg.flush_every.max(1) + 2);
    let mut solo_backlog: VecDeque<usize> = VecDeque::new();
    let mut since_flush = 0usize;
    for (idx, (query, solo)) in submissions.into_iter().enumerate() {
        if solo {
            solo_backlog.push_back(idx);
        }
        ops.push(ChurnOp::Submit(query));
        since_flush += 1;
        if cfg.flush_every > 0 && since_flush >= cfg.flush_every {
            since_flush = 0;
            let to_cancel = solo_backlog.len() / 2;
            for _ in 0..to_cancel {
                let victim = solo_backlog.pop_front().expect("backlog non-empty");
                ops.push(ChurnOp::Cancel(victim));
            }
            ops.push(ChurnOp::Flush);
        }
    }
    // Drain: cancel the remaining solos and flush once more.
    for victim in solo_backlog {
        ops.push(ChurnOp::Cancel(victim));
    }
    ops.push(ChurnOp::Flush);
    ops
}

/// Builds the submission stream shared by [`churn_script`] and the
/// service scripts (`crate::service_script`): coordinating pairs plus
/// cancellable solo queries, globally shuffled. The second tuple field
/// marks a solo (cancellable) query. Deterministic in the caller's rng
/// state.
pub(crate) fn generate_submissions(
    graph: &SocialGraph,
    queries: usize,
    solo_permille: u32,
    rng: &mut StdRng,
) -> Vec<(EntangledQuery, bool)> {
    let mut submissions: Vec<(EntangledQuery, bool)> = Vec::with_capacity(queries);
    let mut next_id = 0u64;
    let mut solo_serial = 0usize;
    while submissions.len() < queries {
        let solo = rng.gen_range(0..1000) < solo_permille as usize;
        if solo || submissions.len() + 2 > queries {
            let me = Term::str(&format!("churn_solo_{solo_serial}"));
            let ghost = Term::str(&format!("churn_ghost_{solo_serial}"));
            solo_serial += 1;
            let d = Term::Const(graph.airport_value(rng.gen_range(0..graph.num_airports())));
            submissions.push((
                EntangledQuery::new(vec![reserve(me, d)], vec![reserve(ghost, d)], vec![])
                    .with_id(QueryId(next_id)),
                true,
            ));
            next_id += 1;
        } else {
            let (u, v) = graph.random_edge(rng);
            let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
            for (me, partner) in [(u, v), (v, u)] {
                submissions.push((
                    pair_query(graph, me, partner, dest).with_id(QueryId(next_id)),
                    false,
                ));
                next_id += 1;
            }
        }
    }
    submissions.shuffle(rng);
    submissions
}

/// Best-case two-way query (§5.3.1): the partner is fully specified.
fn pair_query(graph: &SocialGraph, me: u32, partner: u32, dest: Value) -> EntangledQuery {
    pair_query_in(graph, me, partner, dest, "Reserve", "Reserve")
}

/// [`pair_query`] with explicit answer-relation names for the head and
/// the postcondition — the locality-group flavor the sharded service
/// scripts use: same relation on both sides keeps the pair inside one
/// `(relation, arity)` connectivity group, different relations bridge
/// two groups (a cross-shard rendezvous in a sharded service).
pub(crate) fn pair_query_in(
    graph: &SocialGraph,
    me: u32,
    partner: u32,
    dest: Value,
    head_relation: &str,
    post_relation: &str,
) -> EntangledQuery {
    let m = Term::Const(graph.user_value(me as usize));
    let p = Term::Const(graph.user_value(partner as usize));
    let d = Term::Const(dest);
    let c = Term::Var(Var(0));
    EntangledQuery::new(
        vec![Atom::with_terms(head_relation, [m, d])],
        vec![Atom::with_terms(post_relation, [p, d])],
        vec![
            Atom::with_terms("Friends", [m, p]),
            Atom::with_terms("User", [m, c]),
            Atom::with_terms("User", [p, c]),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::social::SocialGraphConfig;

    fn small_graph() -> SocialGraph {
        SocialGraph::generate(&SocialGraphConfig {
            users: 300,
            airports: 6,
            ..Default::default()
        })
    }

    #[test]
    fn script_shape() {
        let g = small_graph();
        let cfg = ChurnConfig {
            queries: 200,
            flush_every: 25,
            solo_permille: 300,
            seed: 11,
        };
        let ops = churn_script(&g, &cfg);
        let submits = ops
            .iter()
            .filter(|o| matches!(o, ChurnOp::Submit(_)))
            .count();
        assert_eq!(submits, 200);
        let flushes = ops.iter().filter(|o| matches!(o, ChurnOp::Flush)).count();
        assert!(flushes >= 8, "flushes: {flushes}");
        assert!(matches!(ops.last(), Some(ChurnOp::Flush)));
    }

    #[test]
    fn cancels_reference_earlier_solo_submissions_once() {
        let g = small_graph();
        let ops = churn_script(&g, &ChurnConfig::default());
        let mut submitted = 0usize;
        let mut cancelled = std::collections::HashSet::new();
        for op in &ops {
            match op {
                ChurnOp::Submit(_) => submitted += 1,
                ChurnOp::Cancel(idx) => {
                    assert!(*idx < submitted, "cancel of a future submission");
                    assert!(cancelled.insert(*idx), "double cancel of {idx}");
                }
                ChurnOp::Flush => {}
            }
        }
        assert!(!cancelled.is_empty(), "default config produces cancels");
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = small_graph();
        let cfg = ChurnConfig::default();
        let a = churn_script(&g, &cfg);
        let b = churn_script(&g, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (ChurnOp::Submit(p), ChurnOp::Submit(q)) => assert_eq!(p, q),
                (ChurnOp::Cancel(p), ChurnOp::Cancel(q)) => assert_eq!(p, q),
                (ChurnOp::Flush, ChurnOp::Flush) => {}
                _ => panic!("scripts diverge"),
            }
        }
    }
}
