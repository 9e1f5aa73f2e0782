//! Query matching: Algorithm 1 of §4.1.3–4.1.4 — unifier propagation
//! with cascading cleanup.
//!
//! Given one connected component of a *safe* unifiability graph, matching
//!
//! 1. seeds each node's unifier with the MGUs of its in-edges (the local
//!    constraint that its postconditions be satisfied by the matched
//!    heads);
//! 2. removes nodes with an unsatisfied postcondition (`INDEGREE(q) <
//!    PCCOUNT(q)`), cascading the removal to all descendants (CLEANUP);
//! 3. propagates unifiers along edges until fixpoint. The propagation
//!    has two tiers:
//!    * the **SCC-condensed fast path**: at the fixpoint, every node of
//!      a strongly connected component provably carries the same
//!      unifier — the merge of its SCC's seeds with the unifiers of all
//!      predecessor SCCs — so the fast path runs one merge pass over
//!      the condensation DAG in topological order instead of
//!      re-propagating ever-growing unifiers node by node. On a
//!      shared-variable entanglement ring (one big SCC whose global
//!      unifier chains *n* variables) this is the difference between
//!      O(n) unifier work and the naive fixpoint's O(n³);
//!    * the **naive worklist fixpoint** (`U(child) := MGU(U(parent),
//!      U(child))`, enqueue on growth): the exact Algorithm 1 loop,
//!      used as the fallback whenever the fast path hits *any* MGU
//!      conflict — conflicts trigger per-node CLEANUP whose outcome
//!      depends on where the conflict materializes, which only the
//!      faithful per-node propagation reproduces. The fast path never
//!      commits a partial result, so the two tiers are observationally
//!      identical: conflict-free components take the fast path, every
//!      other component is re-run through the naive loop untouched.
//! 4. folds the survivors' unifiers into a single global unifier for the
//!    component (§4.2); if that fails, the whole component is rejected.

use crate::graph::MatchView;
use eq_ir::{FastMap, FastSet};
use eq_unify::{Snapshot, Unifier};
use std::collections::VecDeque;

/// Counters for one matching run, reported by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Nodes dequeued from the updates queue.
    pub dequeues: u64,
    /// MGU merge operations performed.
    pub mgu_calls: u64,
    /// Nodes removed by CLEANUP (unsatisfiable queries).
    pub cleanups: u64,
}

/// Result of matching one component. (Per-node unifiers are an
/// internal artifact of the propagation; only the survivors and the
/// global unifier flow into combined-query construction, and the
/// SCC-condensed fast path deliberately never materializes n copies of
/// an n-entry unifier.)
#[derive(Debug)]
pub struct ComponentMatch {
    /// Slots that survived matching: every postcondition is satisfied
    /// and all constraints are mutually consistent along edges.
    pub survivors: Vec<u32>,
    /// Slots removed as unanswerable.
    pub removed: Vec<u32>,
    /// The component-wide unifier `U = mgu({U(qi)})` of §4.2; `None`
    /// when no survivors remain or when the global MGU does not exist
    /// (in which case the component must be rejected).
    pub global: Option<Unifier>,
    /// Run counters.
    pub stats: MatchStats,
}

impl ComponentMatch {
    /// True if matching produced an evaluable combined query.
    pub fn is_answerable(&self) -> bool {
        self.global.is_some() && !self.survivors.is_empty()
    }
}

/// Runs matching on the component `members` of `graph`. Slots outside
/// `members` are treated as absent; `members` must be closed under the
/// graph's edges (i.e. be a full connected component, as produced by
/// [`crate::graph::MatchGraph::components`] or taken from the engine's
/// resident graph) — edges to non-members are ignored.
///
/// State is keyed by member slot (not dense over `slot_bound`), so the
/// cost of matching a component depends on the component's size alone —
/// the property that makes dirty-component-only flushes O(dirty), not
/// O(pending).
pub fn match_component<V: MatchView>(graph: &V, members: &[u32]) -> ComponentMatch {
    let mut stats = MatchStats::default();
    let mut alive: FastSet<u32> = members.iter().copied().collect();
    let mut unifiers: FastMap<u32, Unifier> = FastMap::default();
    let mut removed = Vec::new();
    // Steps 1+2 (seed phase): fold each member's in-edge MGUs; a member
    // with an unsatisfied postcondition or conflicting in-edges is
    // doomed.
    let mut doomed: Vec<u32> = Vec::new();
    for &m in members {
        let (unifier, ok) = seed_member(graph, &alive, m, &mut stats);
        unifiers.insert(m, unifier);
        if !ok {
            doomed.push(m);
        }
    }
    for d in doomed {
        cleanup(graph, d, &mut alive, &mut removed, &mut stats);
    }
    let live: Vec<u32> = members
        .iter()
        .copied()
        .filter(|m| alive.contains(m))
        .collect();

    // Step 3, fast path: SCC-condensed propagation riding the seeds
    // in place (each is moved out and speculated on under a snapshot;
    // a conflict rolls every seed back exactly). Commits only when
    // conflict-free, in which case nothing is cleaned up and the
    // returned unifier is exactly the step-4 global.
    if let Some(global) = scc_propagate(graph, &live, &mut unifiers, &mut stats) {
        return ComponentMatch {
            survivors: live,
            removed,
            global: Some(global),
            stats,
        };
    }

    // Step 3, fallback: Algorithm 1's per-node worklist — propagate
    // unifiers along edges, cleaning up on conflict.
    let mut queue: VecDeque<u32> = live.iter().copied().collect();
    let mut queued: FastSet<u32> = queue.iter().copied().collect();
    while let Some(parent) = queue.pop_front() {
        queued.remove(&parent);
        if !alive.contains(&parent) {
            continue;
        }
        stats.dequeues += 1;
        // Move the parent's unifier out of the map for the fan-out
        // instead of cloning it — sound because the graph has no
        // self-edges (`discover_edges_for_pc` skips self-coordination),
        // so no child lookup can hit the parent's vacated entry.
        let Some(parent_unifier) = unifiers.remove(&parent) else {
            continue; // unreachable: every live member has a seed
        };
        for &eid in graph.out_edges(parent) {
            let child = graph.edge(eid).to;
            if !alive.contains(&child) {
                continue;
            }
            stats.mgu_calls += 1;
            let Some(child_unifier) = unifiers.get_mut(&child) else {
                continue; // unreachable: every live member has a seed
            };
            match child_unifier.merge_from(&parent_unifier) {
                Ok(true) => {
                    if queued.insert(child) {
                        queue.push_back(child);
                    }
                }
                Ok(false) => {}
                Err(_) => {
                    cleanup(graph, child, &mut alive, &mut removed, &mut stats);
                }
            }
        }
        unifiers.insert(parent, parent_unifier);
    }

    // Step 4: global unifier over survivors. The fold is clone-free by
    // construction (a fresh table absorbs each survivor's classes); it
    // deliberately does NOT move the first survivor's table in, because
    // the global's representatives — and hence every resolved term in
    // the combined query — depend on the fold building the forest from
    // canonical class lists, smallest variable first.
    let survivors: Vec<u32> = members
        .iter()
        .copied()
        .filter(|m| alive.contains(m))
        .collect();
    let mut global = None;
    if !survivors.is_empty() {
        let mut folded = Unifier::new();
        let mut conflicted = false;
        for &s in &survivors {
            stats.mgu_calls += 1;
            if folded.merge_from(&unifiers[&s]).is_err() {
                conflicted = true;
                break;
            }
        }
        if !conflicted {
            global = Some(folded);
        }
    }

    ComponentMatch {
        survivors,
        removed,
        global,
        stats,
    }
}

/// Seeds one member: its in-component in-edge MGUs folded into a local
/// unifier, and whether it can still be answered (every postcondition
/// has an in-component satisfier and the in-edge MGUs agree).
fn seed_member<V: MatchView>(
    graph: &V,
    in_component: &FastSet<u32>,
    m: u32,
    stats: &mut MatchStats,
) -> (Unifier, bool) {
    let mut satisfied = vec![false; graph.query(m).pc_count()];
    let mut unifier = Unifier::new();
    for &eid in graph.in_edges(m) {
        let e = graph.edge(eid);
        if !in_component.contains(&e.from) {
            continue;
        }
        satisfied[e.pc_idx as usize] = true;
        stats.mgu_calls += 1;
        if unifier.merge_from(&e.mgu).is_err() {
            return (unifier, false);
        }
    }
    let ok = satisfied.iter().all(|&s| s);
    (unifier, ok)
}

/// The SCC-condensed propagation fast path. At the fixpoint of
/// Algorithm 1's step 3, every node of a strongly connected component
/// carries the same unifier: the merge of all its SCC's seeds with the
/// unifiers of all DAG-predecessor SCCs (information flows freely
/// around a cycle, so SCC members are indistinguishable). This
/// computes exactly that, one merge pass over the condensation in
/// topological order, and folds the step-4 global unifier in the same
/// pass.
///
/// Returns `None` on *any* MGU conflict — including one that only the
/// final global fold would hit — with `seeds` restored exactly to its
/// pre-call state; the caller then reruns the naive per-node fixpoint,
/// whose conflict-cleanup semantics (which node is removed depends on
/// where the conflict materializes) must not be second-guessed here.
/// Also returns `None` for an empty live set (step 4 defines that as an
/// unanswerable component, which the fallback reproduces trivially).
///
/// # Speculation discipline
///
/// Each SCC *rides* one of its seeds instead of rebuilding an n-entry
/// unifier: the first member's table is moved out of the seed map, a
/// snapshot is opened on it, and every other seed / predecessor SCC is
/// merged into it in place. On success every snapshot is committed
/// before the ridden tables drop — bookkeeping only (the caller never
/// reuses the seed map after a fast-path commit), but it samples the
/// undo high-water counter and keeps the no-open-snapshots invariant
/// on drop. On conflict every ridden table — including the
/// half-merged current one — is rolled back to its snapshot and
/// reinserted, so the fallback sees pristine seeds. This halves the
/// fast path's peak table count (the old code held every seed *plus* a
/// rebuilt per-SCC copy) and makes rejection cost the logged writes,
/// not a rebuild. The global's construction is unchanged: it still
/// absorbs each SCC unifier's canonical class list in the same order,
/// so its forest — and hence every downstream representative — is
/// bit-identical to the pre-riding implementation.
fn scc_propagate<V: MatchView>(
    graph: &V,
    live: &[u32],
    seeds: &mut FastMap<u32, Unifier>,
    stats: &mut MatchStats,
) -> Option<Unifier> {
    if live.is_empty() {
        return None;
    }
    let scc_of = crate::ucs::scc_ids_members(graph, live);
    let nscc = scc_of.values().copied().max().map_or(0, |m| m as usize + 1);
    let mut members_of: Vec<Vec<u32>> = vec![Vec::new(); nscc];
    for &m in live {
        members_of[scc_of[&m] as usize].push(m);
    }
    // Condensation predecessors. Tarjan ids are assigned at SCC
    // completion, so every successor SCC has a smaller id than its
    // predecessors — descending id order is a topological order.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nscc];
    for &m in live {
        let from = scc_of[&m] as usize;
        for &eid in graph.out_edges(m) {
            let child = graph.edge(eid).to;
            let Some(&to) = scc_of.get(&child) else {
                continue; // edge out of the live set
            };
            if from != to as usize {
                preds[to as usize].push(from);
            }
        }
    }
    let mut scc_unifier: Vec<Option<Unifier>> = Vec::with_capacity(nscc);
    scc_unifier.resize_with(nscc, || None);
    // One (scc id, seed owner, snapshot) entry per committed SCC, kept
    // so a later conflict can restore every moved seed exactly.
    let mut marks: Vec<(usize, u32, Snapshot)> = Vec::with_capacity(nscc);
    let mut global = Unifier::new();
    for id in (0..nscc).rev() {
        // `members_of[id]` is never empty: every id was assigned to at
        // least one live member.
        let Some((&first, rest)) = members_of[id].split_first() else {
            restore_seeds(seeds, &mut scc_unifier, &mut marks, None);
            return None;
        };
        let Some(mut u) = seeds.remove(&first) else {
            // Unreachable: every live member has a seed.
            restore_seeds(seeds, &mut scc_unifier, &mut marks, None);
            return None;
        };
        let snap = u.snapshot();
        stats.dequeues += 1;
        let mut conflicted = false;
        for &m in rest {
            stats.dequeues += 1;
            stats.mgu_calls += 1;
            if u.merge_from(&seeds[&m]).is_err() {
                conflicted = true;
                break;
            }
        }
        if !conflicted {
            preds[id].sort_unstable();
            preds[id].dedup();
            for &p in &preds[id] {
                stats.mgu_calls += 1;
                let Some(pred_unifier) = scc_unifier[p].as_ref() else {
                    // Unreachable (descending-id order is topological,
                    // so every predecessor was filled first); bailing
                    // to the per-node fallback is the safe degradation.
                    conflicted = true;
                    break;
                };
                if u.merge_from(pred_unifier).is_err() {
                    conflicted = true;
                    break;
                }
            }
        }
        if !conflicted {
            // Fold into the global as we go (step 4, same information).
            stats.mgu_calls += 1;
            conflicted = global.merge_from(&u).is_err();
        }
        if conflicted {
            restore_seeds(seeds, &mut scc_unifier, &mut marks, Some((first, u, snap)));
            return None;
        }
        marks.push((id, first, snap));
        scc_unifier[id] = Some(u);
    }
    for (id, _owner, snap) in marks.drain(..) {
        if let Some(u) = scc_unifier[id].as_mut() {
            let closed = u.commit(snap);
            debug_assert!(closed.is_ok(), "seed snapshot discipline violated");
        }
    }
    Some(global)
}

/// Unwinds [`scc_propagate`]'s speculation: rolls every ridden seed —
/// the half-merged `current` one and every committed SCC's — back to
/// its snapshot and reinserts it under its owner, leaving the seed map
/// bit-identical to the fast path's entry state.
fn restore_seeds(
    seeds: &mut FastMap<u32, Unifier>,
    scc_unifier: &mut [Option<Unifier>],
    marks: &mut Vec<(usize, u32, Snapshot)>,
    current: Option<(u32, Unifier, Snapshot)>,
) {
    if let Some((owner, mut u, snap)) = current {
        let rolled = u.rollback_to(snap);
        debug_assert!(rolled.is_ok(), "seed snapshot discipline violated");
        seeds.insert(owner, u);
    }
    for (id, owner, snap) in marks.drain(..) {
        if let Some(mut u) = scc_unifier[id].take() {
            let rolled = u.rollback_to(snap);
            debug_assert!(rolled.is_ok(), "seed snapshot discipline violated");
            seeds.insert(owner, u);
        }
    }
}

/// CLEANUP(n) from §4.1.3: removes `n` and all its descendants (via
/// out-edges) from the live set. Safety guarantees each postcondition has
/// at most one satisfier, so a descendant losing its parent is
/// unanswerable and must go too. Since `alive` is a subset of the
/// component's members, nodes outside the component are never touched.
fn cleanup<V: MatchView>(
    graph: &V,
    start: u32,
    alive: &mut FastSet<u32>,
    removed: &mut Vec<u32>,
    stats: &mut MatchStats,
) {
    if !alive.remove(&start) {
        return;
    }
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        removed.push(v);
        stats.cleanups += 1;
        for &eid in graph.out_edges(v) {
            let w = graph.edge(eid).to;
            if alive.remove(&w) {
                stack.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MatchGraph;
    use eq_ir::{EntangledQuery, QueryId, Value, VarGen};
    use eq_sql::parse_ir_query;

    fn build(texts: &[&str]) -> MatchGraph {
        let gen = VarGen::new();
        let queries: Vec<EntangledQuery> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| {
                parse_ir_query(t)
                    .unwrap()
                    .rename_apart(&gen)
                    .with_id(QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    fn run_all(graph: &MatchGraph) -> ComponentMatch {
        let members: Vec<u32> = (0..graph.len() as u32).collect();
        match_component(graph, &members)
    }

    #[test]
    fn kramer_jerry_match() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        assert_eq!(m.survivors, vec![0, 1]);
        // The global unifier forces x = y.
        let global = m.global.unwrap();
        let x = g.queries()[0].head[0].terms[1].as_var().unwrap();
        let y = g.queries()[1].head[0].terms[1].as_var().unwrap();
        assert!(global.same_class(x, y));
    }

    #[test]
    fn running_example_figure_4_full_run() {
        // §4.1.4 running example. Expected final unifier:
        // {{x1, y1}, {x2, z2}, {x3, z1, 1}}.
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(z1)} S(z2) <- D3(z1, z2)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        assert_eq!(m.survivors, vec![0, 1, 2]);

        // Identify the renamed variables by structural position.
        let q = g.queries();
        let x1 = q[0].postconditions[0].terms[0].as_var().unwrap();
        let x2 = q[0].postconditions[1].terms[0].as_var().unwrap();
        let x3 = q[0].head[0].terms[0].as_var().unwrap();
        let y1 = q[1].head[0].terms[0].as_var().unwrap();
        let z1 = q[2].postconditions[0].terms[0].as_var().unwrap();
        let z2 = q[2].head[0].terms[0].as_var().unwrap();

        let u = m.global.unwrap();
        assert!(u.same_class(x1, y1));
        assert!(u.same_class(x2, z2));
        assert!(u.same_class(x3, z1));
        assert_eq!(u.constant_of(x3), Some(Value::int(1)));
        // And the classes are distinct.
        assert!(!u.same_class(x1, x2));
        assert!(!u.same_class(x1, x3));
    }

    #[test]
    fn figure_4_variant_with_conflicting_constant_fails() {
        // §4.1.4: if q3's postcondition is T(2) rather than T(z1), x3
        // would need to equal 1 and 2 simultaneously; matching eliminates
        // q1 and its children q2 and q3.
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(2)} S(z2) <- D3(z2)",
        ]);
        let m = run_all(&g);
        assert!(!m.is_answerable());
        assert!(m.survivors.is_empty());
        assert_eq!(m.removed.len(), 3);
    }

    #[test]
    fn unmatched_postcondition_cascades() {
        // q0 needs X(v) but nothing provides X; q1 depends on q0's head.
        let g = build(&["{X(v)} Y(v) <- T(v)", "{Y(w)} Z(w) <- T(w)"]);
        let m = run_all(&g);
        assert!(m.survivors.is_empty());
        assert_eq!(m.removed, vec![0, 1]);
        assert_eq!(m.stats.cleanups, 2);
    }

    #[test]
    fn independent_provider_survives_dependent_removal() {
        // q0 is a pure provider (no postconditions); q1 consumes q0's
        // head; q2 needs a head nobody provides. Removing q2 must not
        // remove q0 or q1.
        let g = build(&[
            "{} A(C1) <- T(C1)",
            "{A(v)} B(v) <- T(v)",
            "{Missing(w)} D(w) <- T(w)",
        ]);
        let m = run_all(&g);
        assert_eq!(m.survivors, vec![0, 1]);
        assert_eq!(m.removed, vec![2]);
    }

    #[test]
    fn ground_pairs_need_no_propagation_rounds() {
        // Fully specified pair (best-case workload §5.3.1): unifiers stay
        // empty, matching is pure graph work.
        let g = build(&[
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(Jerry, Kramer)",
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(Kramer, Jerry)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        assert!(m.global.unwrap().is_empty());
    }

    #[test]
    fn three_way_cycle_matches() {
        let g = build(&[
            "{R(Kramer, IAH)} R(Jerry, IAH) <- F(Jerry, Kramer)",
            "{R(Elaine, IAH)} R(Kramer, IAH) <- F(Kramer, Elaine)",
            "{R(Jerry, IAH)} R(Elaine, IAH) <- F(Elaine, Jerry)",
        ]);
        let m = run_all(&g);
        assert_eq!(m.survivors, vec![0, 1, 2]);
    }

    #[test]
    fn variable_pair_unifier_binds_partner_names() {
        // Random workload of §5.3.1: {R(x, ITH)} R(Jerry, ITH) and the
        // symmetric query; matching must bind x = Kramer and y = Jerry.
        let g = build(&[
            "{R(x, ITH)} R(Jerry, ITH) <- F(Jerry, x)",
            "{R(y, ITH)} R(Kramer, ITH) <- F(Kramer, y)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        let u = m.global.unwrap();
        let x = g.queries()[0].postconditions[0].terms[0].as_var().unwrap();
        let y = g.queries()[1].postconditions[0].terms[0].as_var().unwrap();
        assert_eq!(u.constant_of(x), Some(Value::str("Kramer")));
        assert_eq!(u.constant_of(y), Some(Value::str("Jerry")));
    }

    #[test]
    fn per_component_isolation() {
        // Two disjoint pairs; matching one component must not touch the
        // other.
        let g = build(&[
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(Kramer, Jerry)",
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(Jerry, Kramer)",
            "{R(Frank, SBN)} R(Elaine, SBN) <- F(Elaine, Frank)",
            "{R(Elaine, SBN)} R(Frank, SBN) <- F(Frank, Elaine)",
        ]);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        let m0 = match_component(&g, &comps[0]);
        assert_eq!(m0.survivors, comps[0]);
        let m1 = match_component(&g, &comps[1]);
        assert_eq!(m1.survivors, comps[1]);
    }

    #[test]
    fn stats_are_populated() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
        ]);
        let m = run_all(&g);
        assert!(m.stats.dequeues >= 2);
        assert!(m.stats.mgu_calls >= 2);
        assert_eq!(m.stats.cleanups, 0);
    }

    #[test]
    fn multi_postcondition_clique() {
        // §5.3.3 clique workload with two postconditions per query.
        let g = build(&[
            "{R(Jerry, SBN) & R(Kramer, SBN)} R(Elaine, SBN) <- F(Elaine, Jerry) & F(Elaine, Kramer)",
            "{R(Elaine, SBN) & R(Kramer, SBN)} R(Jerry, SBN) <- F(Jerry, Elaine) & F(Jerry, Kramer)",
            "{R(Elaine, SBN) & R(Jerry, SBN)} R(Kramer, SBN) <- F(Kramer, Elaine) & F(Kramer, Jerry)",
        ]);
        let m = run_all(&g);
        assert_eq!(m.survivors, vec![0, 1, 2]);
    }

    #[test]
    fn partial_clique_fails() {
        // Only two of the three clique queries arrive: each is missing
        // one postcondition satisfier, so nothing survives.
        let g = build(&[
            "{R(Jerry, SBN) & R(Kramer, SBN)} R(Elaine, SBN) <- F(Elaine, Jerry) & F(Elaine, Kramer)",
            "{R(Elaine, SBN) & R(Kramer, SBN)} R(Jerry, SBN) <- F(Jerry, Elaine) & F(Jerry, Kramer)",
        ]);
        let m = run_all(&g);
        assert!(m.survivors.is_empty());
    }

    #[test]
    fn empty_component() {
        let g = build(&["{} A(C) <- T(C)"]);
        let m = match_component(&g, &[]);
        assert!(m.survivors.is_empty());
        assert!(m.global.is_none());
    }

    #[test]
    fn constants_propagate_down_a_dag_chain() {
        // Three singleton SCCs in a line: q0's ground head binds q1's
        // variable, and that constant must flow through q1's unifier
        // into q2's — the cross-SCC leg of the condensed fast path.
        let g = build(&[
            "{} A(1) <- D(w)",
            "{A(u)} B(u) <- D(u)",
            "{B(z)} C(z) <- D(z)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        assert_eq!(m.survivors, vec![0, 1, 2]);
        let u = m.global.unwrap();
        let q1_u = g.queries()[1].head[0].terms[0].as_var().unwrap();
        let q2_z = g.queries()[2].head[0].terms[0].as_var().unwrap();
        assert_eq!(u.constant_of(q1_u), Some(Value::int(1)));
        assert_eq!(u.constant_of(q2_z), Some(Value::int(1)));
    }

    #[test]
    fn var_to_var_chain_collapses_classes() {
        // Heads and postconditions chain variables across three queries
        // in a cycle; all flight variables must end up in one class.
        let g = build(&[
            "{R(B, x)} R(A, x) <- F(x)",
            "{R(C, y)} R(B, y) <- F(y)",
            "{R(A, z)} R(C, z) <- F(z)",
        ]);
        let m = run_all(&g);
        assert!(m.is_answerable());
        let u = m.global.unwrap();
        let x = g.queries()[0].head[0].terms[1].as_var().unwrap();
        let z = g.queries()[2].head[0].terms[1].as_var().unwrap();
        assert!(u.same_class(x, z));
    }
}
