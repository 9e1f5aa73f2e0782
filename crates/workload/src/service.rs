//! Service scenario generator: scripted traffic for a long-running
//! `Coordinator` harness.
//!
//! Where `crate::churn_script` drives the raw engine one submission at
//! a time, a *service script* models the traffic shape the paper's
//! middleware sees in production: clients arrive in **bursts** (the
//! natural unit for batched parallel admission), abandon requests
//! between bursts, and the service flushes on a cadence. The same
//! script can be replayed through sequential `submit` calls and
//! through `submit_batch`, which is exactly how the equivalence
//! proptests cross-check the two paths.
//!
//! Scripts are deterministic in the seed, and the submission stream is
//! shared with the churn generator: `ServiceConfig { queries, burst: 1,
//! flush_every_bursts: k, .. }` submits the same queries in the same
//! order as `ChurnConfig { queries, flush_every: k, .. }` with the same
//! seed.

use crate::churn::{generate_submissions, pair_query_in};
use crate::rng::{Rng, StdRng};
use crate::social::SocialGraph;
use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var};
use std::collections::VecDeque;
use std::time::Duration;

/// One operation of a service script.
#[derive(Clone, Debug)]
pub enum ServiceOp {
    /// One arrival burst: submit these queries as a single batch. The
    /// position of each query among all submitted queries (across all
    /// bursts) is its *submission index*, which `Cancel` refers to.
    SubmitBatch(Vec<EntangledQuery>),
    /// An arrival burst with per-query service options (staleness
    /// bounds, no-solution policy) — the [`scale_service_script`]
    /// flavor. Queries count toward the same submission-index space as
    /// [`ServiceOp::SubmitBatch`].
    SubmitBatchWith(Vec<ScriptSubmission>),
    /// Withdraw the query with this submission index (always a solo
    /// query that is still pending at this point in the script).
    Cancel(usize),
    /// Bulk-load rows into a database table (`Coordinator::load`): one
    /// revision bump, re-dirtying kept-pending components so the next
    /// flush retries them.
    Load {
        /// Target relation.
        relation: &'static str,
        /// Rows to insert.
        rows: Vec<Vec<Value>>,
    },
    /// Flush the service (evaluate dirty components).
    Flush,
}

/// One submission of a [`scale_service_script`], carrying the per-query
/// service options the driver turns into a `SubmitRequest`.
#[derive(Clone, Debug)]
pub struct ScriptSubmission {
    /// The query to submit.
    pub query: EntangledQuery,
    /// Per-query staleness bound (`Duration::ZERO` expires the query at
    /// the service's next operation).
    pub staleness: Option<Duration>,
    /// Submit with `NoSolutionPolicy::KeepPending`: a matched component
    /// without a database solution leaves the query pending for a retry
    /// when the database changes.
    pub keep_pending: bool,
    /// Client session this submission belongs to (a `Coordinator`
    /// session in the driver). Scripts generated with
    /// [`ScaleServiceConfig::sessions`] `== 1` put everything in
    /// session 0.
    pub session: usize,
}

impl ScriptSubmission {
    fn plain(query: EntangledQuery) -> Self {
        ScriptSubmission {
            query,
            staleness: None,
            keep_pending: false,
            session: 0,
        }
    }
}

/// Shape of a service script.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Total queries submitted across all bursts.
    pub queries: usize,
    /// Queries per [`ServiceOp::SubmitBatch`] burst (≥ 1).
    pub burst: usize,
    /// A flush (preceded by a wave of cancellations of the oldest solo
    /// residents) is emitted every this many bursts, and once at the
    /// end. 0 means a single final flush.
    pub flush_every_bursts: usize,
    /// Out of 1000 submissions, how many are non-coordinating solo
    /// queries (the residents that later get cancelled).
    pub solo_permille: u32,
    /// Script seed.
    pub seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queries: 10_000,
            burst: 500,
            flush_every_bursts: 4,
            solo_permille: 300,
            seed: 2011,
        }
    }
}

/// Generates a deterministic service script. The returned ops submit
/// exactly `cfg.queries` queries; every `Cancel` references a solo
/// submission from an earlier burst and is never emitted twice.
pub fn service_script(graph: &SocialGraph, cfg: &ServiceConfig) -> Vec<ServiceOp> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let submissions = generate_submissions(graph, cfg.queries, cfg.solo_permille, &mut rng);
    let burst = cfg.burst.max(1);

    let mut ops = Vec::with_capacity(submissions.len() / burst + submissions.len() / 2 + 2);
    let mut solo_backlog: VecDeque<usize> = VecDeque::new();
    let mut bursts_since_flush = 0usize;
    let mut index = 0usize;
    let mut submissions = submissions.into_iter().peekable();
    while submissions.peek().is_some() {
        let mut queries = Vec::with_capacity(burst);
        for (query, solo) in submissions.by_ref().take(burst) {
            if solo {
                solo_backlog.push_back(index);
            }
            queries.push(query);
            index += 1;
        }
        ops.push(ServiceOp::SubmitBatch(queries));
        bursts_since_flush += 1;
        if cfg.flush_every_bursts > 0 && bursts_since_flush >= cfg.flush_every_bursts {
            bursts_since_flush = 0;
            let to_cancel = solo_backlog.len() / 2;
            for _ in 0..to_cancel {
                let victim = solo_backlog.pop_front().expect("backlog non-empty");
                ops.push(ServiceOp::Cancel(victim));
            }
            ops.push(ServiceOp::Flush);
        }
    }
    // Drain: cancel the remaining solos and flush once more.
    for victim in solo_backlog {
        ops.push(ServiceOp::Cancel(victim));
    }
    ops.push(ServiceOp::Flush);
    ops
}

/// Shape of a [`scale_service_script`] — the ROADMAP's 100k scale
/// target: staleness churn plus `KeepPending` retries through one
/// long-running service.
#[derive(Clone, Debug)]
pub struct ScaleServiceConfig {
    /// Total queries submitted across all bursts (the target is
    /// 100,000; smoke runs scale it down).
    pub queries: usize,
    /// Queries per burst (submitted through `submit_batch`).
    pub burst: usize,
    /// A flush every this many bursts, and once at the end.
    pub flush_every_bursts: usize,
    /// Out of 1000 submissions: solo queries submitted with a **zero
    /// staleness bound** — they churn straight through to `Expired` at
    /// the service's next operation.
    pub expiring_permille: u32,
    /// Out of 1000 submissions: members of **deferred pairs** — ground
    /// entangled pairs whose bodies need a `User(_, "Limbo")` row that
    /// is only [`ServiceOp::Load`]ed at the end of the script. They are
    /// submitted `KeepPending`, ride every flush as clean skips, and
    /// all coordinate on the final flush after the load.
    pub deferred_permille: u32,
    /// Client sessions the traffic is spread across (each submission
    /// carries its [`ScriptSubmission::session`]). 1 (the default)
    /// reproduces the single-session stream byte-for-byte.
    pub sessions: usize,
    /// `(relation, arity)` connectivity groups: group `g` answers on
    /// relation `Reserve{g}` (plain `Reserve` when 1, the default), and
    /// a session's traffic stays in group `session % locality_groups`.
    /// With a sharded `Coordinator` each group routes to one service
    /// shard, so most admissions take the shard-local fast path. Use
    /// more groups than shards and keep the count even.
    pub locality_groups: usize,
    /// Out of 1000 submissions: members of **cross-group pairs** whose
    /// head and postcondition bridge groups `g` and `g ^ 1` — the
    /// cross-shard rendezvous traffic. Pairing is XOR so merges stay
    /// bounded to neighbor groups instead of transitively collapsing
    /// every group onto one shard. Ignored (treated as ordinary pairs)
    /// when `sessions` and `locality_groups` are both 1.
    pub cross_permille: u32,
    /// Script seed.
    pub seed: u64,
}

impl Default for ScaleServiceConfig {
    fn default() -> Self {
        ScaleServiceConfig {
            queries: 100_000,
            burst: 1000,
            flush_every_bursts: 4,
            expiring_permille: 200,
            deferred_permille: 150,
            sessions: 1,
            locality_groups: 1,
            cross_permille: 0,
            seed: 2011,
        }
    }
}

/// A generated scale script plus the exact outcome counts a driver can
/// assert against.
#[derive(Clone, Debug)]
pub struct ScaleScript {
    /// The operations, ending with `Load` + `Flush`.
    pub ops: Vec<ServiceOp>,
    /// Queries submitted with the zero-staleness bound: every one of
    /// them must end `Expired`.
    pub expiring: usize,
    /// Queries in deferred pairs: every one of them must end
    /// `Answered`, all on the final flush.
    pub deferred: usize,
    /// Queries in cross-group pairs (bridging `Reserve{g}` and
    /// `Reserve{g ^ 1}`).
    pub cross: usize,
    /// Client sessions the script's submissions span (`session` fields
    /// are in `0..sessions`); drivers size their session pool from it.
    pub sessions: usize,
}

/// The home airport deferred pairs wait on; [`scale_service_script`]'s
/// final [`ServiceOp::Load`] inserts the single `User` row with this
/// home.
const LIMBO: &str = "Limbo";

/// Generates the staleness + `KeepPending` churn script (see
/// [`ScaleServiceConfig`]). Deterministic in the seed.
pub fn scale_service_script(graph: &SocialGraph, cfg: &ScaleServiceConfig) -> ScaleScript {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.queries;
    let sessions = cfg.sessions.max(1);
    let groups = cfg.locality_groups.max(1);
    // The single-session, single-group configuration must reproduce the
    // historical stream byte-for-byte, so every sharding-only rng draw
    // is gated on this flag.
    let sharded = sessions > 1 || groups > 1;
    let relation_of = |g: usize| -> String {
        if groups == 1 {
            "Reserve".to_string()
        } else {
            format!("Reserve{g}")
        }
    };
    let mut subs: Vec<ScriptSubmission> = Vec::with_capacity(n);
    let mut expiring = 0usize;
    let mut deferred = 0usize;
    let mut cross = 0usize;
    let mut serial = 0usize;
    while subs.len() < n {
        let session = if sharded {
            rng.gen_range(0..sessions)
        } else {
            0
        };
        let group = session % groups;
        let rel = relation_of(group);
        let roll = rng.gen_range(0..1000) as u32;
        if roll < cfg.expiring_permille || subs.len() + 2 > n {
            // A solo query that can never coordinate, bounded by zero
            // staleness: it expires at the service's next operation.
            let me = Term::str(&format!("scale_solo_{serial}"));
            let ghost = Term::str(&format!("scale_ghost_{serial}"));
            let d = Term::Const(graph.airport_value(rng.gen_range(0..graph.num_airports())));
            subs.push(ScriptSubmission {
                query: EntangledQuery::new(
                    vec![Atom::with_terms(rel.as_str(), [me, d])],
                    vec![Atom::with_terms(rel.as_str(), [ghost, d])],
                    vec![],
                )
                .with_id(QueryId(subs.len() as u64)),
                staleness: Some(Duration::ZERO),
                keep_pending: false,
                session,
            });
            expiring += 1;
        } else if roll < cfg.expiring_permille + cfg.deferred_permille {
            // A ground entangled pair blocked on the Limbo row: matched
            // immediately, no database solution until the final Load.
            let a = Term::str(&format!("scale_deferred_a_{serial}"));
            let b = Term::str(&format!("scale_deferred_b_{serial}"));
            let d = Term::Const(graph.airport_value(rng.gen_range(0..graph.num_airports())));
            for (me, partner) in [(a, b), (b, a)] {
                subs.push(ScriptSubmission {
                    query: EntangledQuery::new(
                        vec![Atom::with_terms(rel.as_str(), [me, d])],
                        vec![Atom::with_terms(rel.as_str(), [partner, d])],
                        vec![Atom::with_terms(
                            "User",
                            [Term::var(Var(0)), Term::str(LIMBO)],
                        )],
                    )
                    .with_id(QueryId(subs.len() as u64)),
                    staleness: None,
                    keep_pending: true,
                    session,
                });
                deferred += 1;
            }
        } else if sharded
            && roll < cfg.expiring_permille + cfg.deferred_permille + cfg.cross_permille
        {
            // A cross-group pair: the two halves answer on the XOR
            // neighbor's relation, forcing a cross-shard rendezvous in a
            // sharded service (and, lastingly, a merged routing group).
            let partner_group = (group ^ 1).min(groups - 1);
            let rel_b = relation_of(partner_group);
            let (u, v) = graph.random_edge(&mut rng);
            let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
            for (me, partner, head_rel, post_rel) in [(u, v, &rel, &rel_b), (v, u, &rel_b, &rel)] {
                let id = QueryId(subs.len() as u64);
                let query = pair_query_in(graph, me, partner, dest, head_rel, post_rel).with_id(id);
                subs.push(ScriptSubmission {
                    session,
                    ..ScriptSubmission::plain(query)
                });
                cross += 1;
            }
        } else if sharded {
            // An ordinary coordinating pair, shard-local: both halves
            // answer on the session's group relation.
            let (u, v) = graph.random_edge(&mut rng);
            let dest = graph.airport_value(rng.gen_range(0..graph.num_airports()));
            for (me, partner) in [(u, v), (v, u)] {
                let id = QueryId(subs.len() as u64);
                let query = pair_query_in(graph, me, partner, dest, &rel, &rel).with_id(id);
                subs.push(ScriptSubmission {
                    session,
                    ..ScriptSubmission::plain(query)
                });
            }
        } else {
            // An ordinary coordinating burst pair (same stream shape as
            // the churn generator's pairs).
            let pair = generate_submissions(graph, 2, 0, &mut rng);
            for (query, _) in pair {
                let id = QueryId(subs.len() as u64);
                subs.push(ScriptSubmission::plain(query.with_id(id)));
            }
        }
        serial += 1;
    }

    let burst = cfg.burst.max(1);
    let mut ops = Vec::with_capacity(subs.len() / burst + subs.len() / burst + 4);
    let mut bursts_since_flush = 0usize;
    let mut subs = subs.into_iter().peekable();
    while subs.peek().is_some() {
        let chunk: Vec<ScriptSubmission> = subs.by_ref().take(burst).collect();
        ops.push(ServiceOp::SubmitBatchWith(chunk));
        bursts_since_flush += 1;
        if cfg.flush_every_bursts > 0 && bursts_since_flush >= cfg.flush_every_bursts {
            bursts_since_flush = 0;
            ops.push(ServiceOp::Flush);
        }
    }
    // The Limbo resident arrives: one revision bump re-dirties every
    // kept-pending component, and the final flush answers them all.
    ops.push(ServiceOp::Load {
        relation: "User",
        rows: vec![vec![Value::str("limbo_resident"), Value::str(LIMBO)]],
    });
    ops.push(ServiceOp::Flush);
    ScaleScript {
        ops,
        expiring,
        deferred,
        cross,
        sessions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::social::SocialGraphConfig;
    use crate::{churn_script, ChurnConfig, ChurnOp};

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
        let cfg = ServiceConfig {
            queries: 200,
            burst: 25,
            flush_every_bursts: 2,
            solo_permille: 300,
            seed: 11,
        };
        let ops = service_script(&g, &cfg);
        let submitted: usize = ops
            .iter()
            .filter_map(|o| match o {
                ServiceOp::SubmitBatch(b) => Some(b.len()),
                _ => None,
            })
            .sum();
        assert_eq!(submitted, 200);
        let flushes = ops.iter().filter(|o| matches!(o, ServiceOp::Flush)).count();
        assert!(flushes >= 4, "flushes: {flushes}");
        assert!(matches!(ops.last(), Some(ServiceOp::Flush)));
        // Bursts respect the configured size.
        for op in &ops {
            if let ServiceOp::SubmitBatch(b) = op {
                assert!(!b.is_empty() && b.len() <= 25);
            }
        }
    }

    #[test]
    fn cancels_reference_earlier_solo_submissions_once() {
        let g = small_graph();
        let ops = service_script(&g, &ServiceConfig::default());
        let mut submitted = 0usize;
        let mut cancelled = std::collections::HashSet::new();
        for op in &ops {
            match op {
                ServiceOp::SubmitBatch(b) => submitted += b.len(),
                ServiceOp::Cancel(idx) => {
                    assert!(*idx < submitted, "cancel of a future submission");
                    assert!(cancelled.insert(*idx), "double cancel of {idx}");
                }
                ServiceOp::Flush => {}
                other => panic!("service_script emits no scale ops, got {other:?}"),
            }
        }
        assert!(!cancelled.is_empty(), "default config produces cancels");
    }

    #[test]
    fn burst_one_submits_the_same_stream_as_the_churn_script() {
        let g = small_graph();
        let service = service_script(
            &g,
            &ServiceConfig {
                queries: 120,
                burst: 1,
                flush_every_bursts: 30,
                solo_permille: 300,
                seed: 5,
            },
        );
        let churn = churn_script(
            &g,
            &ChurnConfig {
                queries: 120,
                flush_every: 30,
                solo_permille: 300,
                seed: 5,
            },
        );
        let service_queries: Vec<&EntangledQuery> = service
            .iter()
            .filter_map(|o| match o {
                ServiceOp::SubmitBatch(b) => Some(&b[0]),
                _ => None,
            })
            .collect();
        let churn_queries: Vec<&EntangledQuery> = churn
            .iter()
            .filter_map(|o| match o {
                ChurnOp::Submit(q) => Some(q),
                _ => None,
            })
            .collect();
        assert_eq!(service_queries, churn_queries);
    }

    #[test]
    fn scale_script_accounts_its_stream() {
        let g = small_graph();
        let script = scale_service_script(
            &g,
            &ScaleServiceConfig {
                queries: 400,
                burst: 50,
                ..Default::default()
            },
        );
        let mut submitted = 0usize;
        let (mut expiring, mut deferred) = (0usize, 0usize);
        for op in &script.ops {
            if let ServiceOp::SubmitBatchWith(batch) = op {
                submitted += batch.len();
                for sub in batch {
                    if sub.staleness == Some(Duration::ZERO) {
                        expiring += 1;
                    }
                    if sub.keep_pending {
                        deferred += 1;
                    }
                }
            }
        }
        assert_eq!(submitted, 400);
        assert_eq!(expiring, script.expiring);
        assert_eq!(deferred, script.deferred);
        assert!(script.expiring > 0 && script.deferred > 0);
        assert_eq!(deferred % 2, 0, "deferred queries come in pairs");
        // The script ends by loading the Limbo row and flushing once
        // more — the flush that answers every deferred pair.
        let len = script.ops.len();
        assert!(matches!(script.ops[len - 2], ServiceOp::Load { .. }));
        assert!(matches!(script.ops[len - 1], ServiceOp::Flush));
    }

    #[test]
    fn sharded_scale_script_spreads_sessions_and_groups() {
        let g = small_graph();
        let cfg = ScaleServiceConfig {
            queries: 600,
            burst: 50,
            sessions: 40,
            locality_groups: 8,
            cross_permille: 100,
            ..Default::default()
        };
        let script = scale_service_script(&g, &cfg);
        let mut sessions_seen = std::collections::HashSet::new();
        let mut relations_seen = std::collections::HashSet::new();
        let mut submitted = 0usize;
        let mut cross = 0usize;
        for op in &script.ops {
            if let ServiceOp::SubmitBatchWith(batch) = op {
                for sub in batch {
                    submitted += 1;
                    assert!(sub.session < 40, "session out of range: {}", sub.session);
                    sessions_seen.insert(sub.session);
                    let group = sub.session % 8;
                    let head = &sub.query.head[0];
                    let post = &sub.query.postconditions[0];
                    let head_rel = head.relation.as_str().to_string();
                    let post_rel = post.relation.as_str().to_string();
                    relations_seen.insert(head_rel.clone());
                    // A submission's head answers on its session group's
                    // relation (cross halves may answer on the XOR
                    // neighbor), and any bridge stays within {g, g ^ 1}.
                    let local = format!("Reserve{group}");
                    let neighbor = format!("Reserve{}", group ^ 1);
                    assert!(
                        head_rel == local || head_rel == neighbor,
                        "head {head_rel} outside session group {group}"
                    );
                    if head_rel != post_rel {
                        cross += 1;
                        assert!(
                            (head_rel == local && post_rel == neighbor)
                                || (head_rel == neighbor && post_rel == local),
                            "cross pair bridges non-neighbors: {head_rel} / {post_rel}"
                        );
                    }
                }
            }
        }
        assert_eq!(submitted, 600);
        assert_eq!(script.sessions, 40);
        assert!(
            sessions_seen.len() > 10,
            "sessions used: {}",
            sessions_seen.len()
        );
        assert_eq!(
            relations_seen.len(),
            8,
            "all groups appear: {relations_seen:?}"
        );
        assert_eq!(cross, script.cross);
        assert!(script.cross > 0 && script.cross.is_multiple_of(2));
        assert!(script.expiring > 0 && script.deferred > 0);
    }

    #[test]
    fn default_scale_config_is_single_session_single_group() {
        let g = small_graph();
        let script = scale_service_script(
            &g,
            &ScaleServiceConfig {
                queries: 200,
                burst: 50,
                ..Default::default()
            },
        );
        assert_eq!(script.sessions, 1);
        assert_eq!(script.cross, 0);
        for op in &script.ops {
            if let ServiceOp::SubmitBatchWith(batch) = op {
                for sub in batch {
                    assert_eq!(sub.session, 0);
                    assert_eq!(sub.query.head[0].relation.as_str(), "Reserve");
                }
            }
        }
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = small_graph();
        let cfg = ServiceConfig {
            queries: 150,
            ..Default::default()
        };
        let a = service_script(&g, &cfg);
        let b = service_script(&g, &cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (ServiceOp::SubmitBatch(p), ServiceOp::SubmitBatch(q)) => assert_eq!(p, q),
                (ServiceOp::Cancel(p), ServiceOp::Cancel(q)) => assert_eq!(p, q),
                (ServiceOp::Flush, ServiceOp::Flush) => {}
                _ => panic!("scripts diverge"),
            }
        }
    }
}
