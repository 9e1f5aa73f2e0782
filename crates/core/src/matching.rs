//! Query matching: Algorithm 1 of §4.1.3–4.1.4 — unifier propagation
//! with cascading cleanup — and the §3.1.2 UCS verdict, both read off
//! one condensation of the component.
//!
//! Given one connected component of a *safe* unifiability graph, matching
//!
//! 1. checks each node's seed — the MGUs of its in-edges, the local
//!    constraint that its postconditions be satisfied by the matched
//!    heads — in one reused scratch unifier, unifying each edge's head
//!    and postcondition atoms straight from the query slots; edges keep
//!    no substitution, and no seed is kept;
//! 2. removes nodes with an unsatisfied postcondition (`INDEGREE(q) <
//!    PCCOUNT(q)`) or conflicting in-edges, cascading the removal to all
//!    descendants (CLEANUP);
//! 3. propagates unifiers along edges, removing a node whose unifier
//!    conflicts with a parent's together with its descendants;
//! 4. folds the survivors' unifiers into a single global unifier for the
//!    component (§4.2).
//!
//! # Why one pass is exact
//!
//! Algorithm 1 states step 3 as a per-node worklist, but its outcome
//! does not depend on the propagation order. Every unifier the worklist
//! builds is a merge of the seeds of its node and of some of the node's
//! ancestors, and merging a subset of a consistent constraint set cannot
//! conflict. So if the seeds of a node and of all its ancestors unify,
//! neither the node nor any ancestor (whose seed sets are subsets) ever
//! conflicts, and no CLEANUP reaches it. If they do not unify, the node
//! cannot survive: at the fixpoint a survivor's unifier holds the seeds
//! of all its ancestors, and an ancestor that was removed takes its
//! descendants with it. The survivors are therefore exactly
//! `{n : the seeds of n and of all its ancestors unify}`, whatever the
//! order.
//!
//! Members of one strongly connected component (SCC) share their
//! ancestors, so that set is a union of SCCs, and step 3 is one pass
//! over the condensation in topological order: an SCC dies if a
//! predecessor died or if merging its seeds with its predecessors'
//! unifiers conflicts; otherwise that merge is the fixpoint unifier of
//! each of its members, and it is folded into the global. The pass
//! builds the merge without the seeds: it unifies the live in-edges of
//! the SCC's members straight into one table, then folds in its
//! predecessors' unifiers. That table has the partition and class
//! constants of the seeds merged, so the global absorbs the same class
//! lists, and no node's seed is ever a table of its own (the seeds of
//! an n-query ring would be n tables alive at once). On a
//! shared-variable entanglement ring (one SCC whose unifier chains *n*
//! variables) this is O(n) unifier work, where the worklist spends
//! O(n²) growing n copies of the chain.
//!
//! The same SCC ids give the UCS verdict: a piece of the survivors has a
//! unique coordination structure iff it is one SCC, i.e. iff its SCC has
//! no surviving edge to or from another SCC. Such a piece is a
//! coordinating set and is evaluated alone.

use crate::graph::{Edge, MatchGraph};
use eq_ir::{FastMap, FastSet};
use eq_unify::{Conflict, Unifier};

#[cfg(test)]
thread_local! {
    /// Unifier entries folded by [`fold`], plus the terms of every edge
    /// [`unify_edge`] unified, on this thread: the step count the quadratic-cliff
    /// regression test reads.
    static FOLD_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counters for one matching run, reported by the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Live members whose in-edges the condensation pass unified.
    pub dequeues: u64,
    /// MGU operations performed: one per in-edge unified — by the seed
    /// check, and again by the condensation pass for an edge between
    /// live members — and one per unifier folded: a predecessor's into
    /// an SCC's, an SCC's into the global.
    pub mgu_calls: u64,
    /// Nodes removed by CLEANUP (unsatisfiable queries).
    pub cleanups: u64,
}

/// Result of matching one component. (Per-node unifiers are an
/// internal artifact of the propagation; only the survivors and the
/// global unifier flow into combined-query construction, and the pass
/// deliberately never materializes n copies of an n-entry unifier.)
#[derive(Debug)]
pub struct ComponentMatch {
    /// Slots that survived matching: every postcondition is satisfied
    /// and all constraints are mutually consistent along edges.
    pub survivors: Vec<u32>,
    /// Slots removed as unanswerable.
    pub removed: Vec<u32>,
    /// The component-wide unifier `U = mgu({U(qi)})` of §4.2; `None`
    /// when no survivors remain or when the survivors' unifiers do not
    /// unify. The latter needs two SCCs with a common ancestor that
    /// constrain its variables differently, so it happens only inside a
    /// piece that is not UCS.
    pub global: Option<Unifier>,
    /// The coordinating sets, in member order: each surviving SCC with
    /// no surviving edge to or from another SCC. A set has no ancestor
    /// outside itself, so no other survivor's unifier mentions its
    /// variables, and each resolves under `global` exactly as under a
    /// fold of its own.
    pub sets: Vec<Vec<u32>>,
    /// Survivors whose SCC has a surviving edge to or from another SCC:
    /// their piece of the survivors spans several SCCs, so its
    /// coordination structure is not unique (§3.1.2).
    pub non_ucs: Vec<u32>,
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
/// [`MatchGraph::components`] or taken from the engine's dirty set) —
/// edges to non-members are ignored.
///
/// State is keyed by member slot (not dense over `slot_bound`), so the
/// cost of matching a component depends on the component's size alone —
/// the property that makes dirty-component-only flushes O(dirty), not
/// O(pending).
pub fn match_component(graph: &MatchGraph, members: &[u32]) -> ComponentMatch {
    let mut stats = MatchStats::default();
    let (live, mut removed) = seed_phase(graph, members, &mut stats);

    // Step 3 over the condensation. Tarjan ids are assigned at SCC
    // completion, so every successor SCC has a smaller id than its
    // predecessors — descending id order is a topological order.
    let scc_of = crate::ucs::scc_ids_members(graph, &live);
    let nscc = scc_of.values().copied().max().map_or(0, |m| m as usize + 1);
    let mut members_of: Vec<Vec<u32>> = vec![Vec::new(); nscc];
    for &m in &live {
        members_of[scc_of[&m] as usize].push(m);
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nscc];
    for &m in &live {
        let from = scc_of[&m] as usize;
        for eid in graph.out_edges(m) {
            let Some(&to) = scc_of.get(&graph.edge(eid).to) else {
                continue; // edge out of the live set
            };
            if from != to as usize {
                preds[to as usize].push(from);
            }
        }
    }
    // The fixpoint unifier of every SCC visited so far; `None` once the
    // SCC died.
    let mut scc_unifier: Vec<Option<Unifier>> = Vec::with_capacity(nscc);
    scc_unifier.resize_with(nscc, || None);
    let mut global = Some(Unifier::new());
    for id in (0..nscc).rev() {
        preds[id].sort_unstable();
        preds[id].dedup();
        let Some(u) = scc_fixpoint(
            graph,
            &scc_of,
            &members_of[id],
            &preds[id],
            &scc_unifier,
            &mut stats,
        ) else {
            // CLEANUP: the SCC goes now, its descendants when the pass
            // reaches them (each has a dead predecessor).
            stats.cleanups += members_of[id].len() as u64;
            removed.extend_from_slice(&members_of[id]);
            continue;
        };
        // Step 4 as we go. The global absorbs each SCC's canonical class
        // list rather than taking over a table, so its forest — and
        // every representative the combined query resolves to — depends
        // on the class lists and this order alone.
        if let Some(g) = global.as_mut() {
            if fold(g, &u, &mut stats).is_err() {
                global = None;
            }
        }
        scc_unifier[id] = Some(u);
    }

    // §3.1.2 from the same ids. A surviving SCC's predecessors all
    // survived, so its cross edges in the condensation are exactly its
    // surviving ones.
    let mut crossed = vec![false; nscc];
    for id in 0..nscc {
        if scc_unifier[id].is_some() && !preds[id].is_empty() {
            crossed[id] = true;
            for &p in &preds[id] {
                crossed[p] = true;
            }
        }
    }
    let mut survivors = Vec::with_capacity(live.len());
    let mut sets: Vec<Vec<u32>> = Vec::new();
    let mut set_of: Vec<Option<usize>> = vec![None; nscc];
    let mut non_ucs = Vec::new();
    for &m in &live {
        let id = scc_of[&m] as usize;
        if scc_unifier[id].is_none() {
            continue;
        }
        survivors.push(m);
        if crossed[id] {
            non_ucs.push(m);
            continue;
        }
        let set = *set_of[id].get_or_insert_with(|| {
            sets.push(Vec::new());
            sets.len() - 1
        });
        sets[set].push(m);
    }
    if survivors.is_empty() {
        global = None;
    }
    ComponentMatch {
        survivors,
        removed,
        global,
        sets,
        non_ucs,
        stats,
    }
}

/// Steps 1+2: checks every member's seed — its in-component in-edge
/// MGUs — in one reused scratch unifier, then removes each member with
/// an unsatisfied postcondition or conflicting in-edges together with
/// its descendants (CLEANUP). No seed is kept: the condensation pass
/// unifies the survivors' in-edges again, straight into their SCC's
/// unifier. Returns the live members in member order, and the removed.
fn seed_phase(graph: &MatchGraph, members: &[u32], stats: &mut MatchStats) -> (Vec<u32>, Vec<u32>) {
    let mut alive: FastSet<u32> = members.iter().copied().collect();
    let mut scratch = Unifier::new();
    let mut satisfied: Vec<bool> = Vec::new();
    let mut removed = Vec::new();
    let mut doomed: Vec<u32> = Vec::new();
    for &m in members {
        if !seed_member(graph, &alive, m, &mut scratch, &mut satisfied, stats) {
            doomed.push(m);
        }
    }
    for d in doomed {
        cleanup(graph, d, &mut alive, &mut removed, stats);
    }
    let live = members
        .iter()
        .copied()
        .filter(|m| alive.contains(m))
        .collect();
    (live, removed)
}

/// Checks one member's seed in `scratch`: whether it can still be
/// answered — every postcondition has an in-component satisfier and the
/// in-edge MGUs agree.
fn seed_member(
    graph: &MatchGraph,
    in_component: &FastSet<u32>,
    m: u32,
    scratch: &mut Unifier,
    satisfied: &mut Vec<bool>,
    stats: &mut MatchStats,
) -> bool {
    scratch.clear();
    satisfied.clear();
    satisfied.resize(graph.query(m).pc_count(), false);
    for eid in graph.in_edges(m) {
        let e = graph.edge(eid);
        if !in_component.contains(&e.from) {
            continue;
        }
        satisfied[e.pc_idx as usize] = true;
        if unify_edge(graph, e, scratch, stats).is_err() {
            return false;
        }
    }
    satisfied.iter().all(|&s| s)
}

/// One counted MGU of an edge's head and postcondition atoms, unified
/// straight from the query slots into `into` with
/// [`Unifier::unify_atoms`], which makes the equates and binds
/// `merge_from(&mgu_atoms(h, p))` would, in its order.
fn unify_edge(
    graph: &MatchGraph,
    e: &Edge,
    into: &mut Unifier,
    stats: &mut MatchStats,
) -> Result<bool, Conflict> {
    let head = &graph.query(e.from).head[e.head_idx as usize];
    let pc = &graph.query(e.to).postconditions[e.pc_idx as usize];
    stats.mgu_calls += 1;
    #[cfg(test)]
    FOLD_STEPS.with(|steps| steps.set(steps.get() + (head.arity() + pc.arity()) as u64));
    into.unify_atoms(head, pc)
}

/// The fixpoint unifier of one SCC: every live in-edge of its members
/// unified into one fresh table — the merge of the members' seeds,
/// built without any seed existing on its own — with its predecessors'
/// unifiers folded in after. The partition and the class constants are
/// those of the seeds merged, so the class lists the global absorbs are
/// too. `None` when a predecessor died (it has no unifier) or a
/// unification conflicts — the SCC dies.
fn scc_fixpoint(
    graph: &MatchGraph,
    live: &FastMap<u32, u32>,
    members: &[u32],
    preds: &[usize],
    scc_unifier: &[Option<Unifier>],
    stats: &mut MatchStats,
) -> Option<Unifier> {
    if preds.iter().any(|&p| scc_unifier[p].is_none()) {
        return None;
    }
    let mut u = Unifier::new();
    for &m in members {
        stats.dequeues += 1;
        for eid in graph.in_edges(m) {
            let e = graph.edge(eid);
            // A live member's in-component in-edges all come from live
            // members: CLEANUP takes a removed member's descendants too.
            if live.contains_key(&e.from) {
                unify_edge(graph, e, &mut u, stats).ok()?;
            }
        }
    }
    for &p in preds {
        fold(&mut u, scc_unifier[p].as_ref()?, stats).ok()?;
    }
    Some(u)
}

/// One counted MGU merge, `into := MGU(into, from)`.
fn fold(into: &mut Unifier, from: &Unifier, stats: &mut MatchStats) -> Result<bool, Conflict> {
    stats.mgu_calls += 1;
    #[cfg(test)]
    FOLD_STEPS.with(|steps| steps.set(steps.get() + from.len() as u64));
    into.merge_from(from)
}

/// CLEANUP(n) from §4.1.3: removes `n` and all its descendants (via
/// out-edges) from the live set. Safety guarantees each postcondition has
/// at most one satisfier, so a descendant losing its parent is
/// unanswerable and must go too. Since `alive` is a subset of the
/// component's members, nodes outside the component are never touched.
fn cleanup(
    graph: &MatchGraph,
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
        for eid in graph.out_edges(v) {
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
    use crate::ucs;
    use eq_ir::{Atom, EntangledQuery, QueryId, Term, Value, Var, VarGen};
    use eq_sql::parse_ir_query;
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

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

    /// Algorithm 1's per-node worklist (`U(child) := MGU(U(parent),
    /// U(child))`, enqueue on growth, CLEANUP on conflict): the
    /// order-dependent formulation the one pass replaces, kept as its
    /// oracle. Returns the survivors in member order, the removed, and
    /// every survivor's fixpoint unifier.
    fn worklist_match(
        graph: &MatchGraph,
        members: &[u32],
    ) -> (Vec<u32>, Vec<u32>, FastMap<u32, Unifier>) {
        let mut stats = MatchStats::default();
        let (live, mut removed) = seed_phase(graph, members, &mut stats);
        let mut unifiers = seeds(graph, &live);
        let mut alive: FastSet<u32> = live.iter().copied().collect();
        let mut queue: VecDeque<u32> = live.iter().copied().collect();
        let mut queued: FastSet<u32> = alive.clone();
        while let Some(parent) = queue.pop_front() {
            queued.remove(&parent);
            if !alive.contains(&parent) {
                continue;
            }
            // Moved out for the fan-out: the graph has no self-edges, so
            // no child lookup hits the vacated entry.
            let parent_unifier = unifiers.remove(&parent).expect("live members are seeded");
            for eid in graph.out_edges(parent) {
                let child = graph.edge(eid).to;
                if !alive.contains(&child) {
                    continue;
                }
                let child_unifier = unifiers.get_mut(&child).expect("live members are seeded");
                match child_unifier.merge_from(&parent_unifier) {
                    Ok(true) => {
                        if queued.insert(child) {
                            queue.push_back(child);
                        }
                    }
                    Ok(false) => {}
                    Err(_) => cleanup(graph, child, &mut alive, &mut removed, &mut stats),
                }
            }
            unifiers.insert(parent, parent_unifier);
        }
        let survivors: Vec<u32> = live.into_iter().filter(|m| alive.contains(m)).collect();
        unifiers.retain(|m, _| alive.contains(m));
        (survivors, removed, unifiers)
    }

    /// Algorithm 1's seeds, a table per live member: its in-edge MGUs (a
    /// live member's in-component in-edges all come from live members).
    /// Per-member seeding survives only here, for the worklist oracle.
    fn seeds(graph: &MatchGraph, live: &[u32]) -> FastMap<u32, Unifier> {
        let alive: FastSet<u32> = live.iter().copied().collect();
        let mut stats = MatchStats::default();
        live.iter()
            .map(|&m| {
                let mut seed = Unifier::new();
                for eid in graph.in_edges(m) {
                    let e = graph.edge(eid);
                    if alive.contains(&e.from) {
                        unify_edge(graph, e, &mut seed, &mut stats)
                            .expect("a live member's seed unifies");
                    }
                }
                (m, seed)
            })
            .collect()
    }

    /// `unifiers[s]` for each `s` of `order` folded into a fresh table;
    /// `None` on conflict or an empty order.
    fn fold_in(order: &[u32], unifiers: &FastMap<u32, Unifier>) -> Option<Unifier> {
        let (&first, rest) = order.split_first()?;
        let mut global = Unifier::new();
        global.merge_from(&unifiers[&first]).ok()?;
        for s in rest {
            global.merge_from(&unifiers[s]).ok()?;
        }
        Some(global)
    }

    /// Every constrained variable with its representative.
    fn representatives(u: &Unifier) -> Vec<(Var, Var)> {
        u.classes()
            .into_iter()
            .flat_map(|(vars, _)| vars)
            .map(|v| (v, u.find(v)))
            .collect()
    }

    fn sorted(slots: &[u32]) -> Vec<u32> {
        let mut out = slots.to_vec();
        out.sort_unstable();
        out
    }

    /// Draw `t` of `0..8` as a term: one of two constants when
    /// `t >= 8 - consts`, else one of three variables. More constants,
    /// more conflicting merges.
    fn term(t: u8, consts: u8) -> Term {
        if t + consts >= 8 {
            Term::int(i64::from(t % 2) + 1)
        } else {
            Term::var(Var(u32::from(t % 3)))
        }
    }

    /// One random query: the draws of its head's two terms, and per
    /// postcondition the draws of its target and two terms.
    type QuerySpec = ((u8, u8), Vec<(usize, u8, u8)>);

    /// Query `i` heads `R(Ki, a, b)` and demands `R(Kj, c, d)` per
    /// postcondition, `j` drawn from `0..12`: 11 names the missing key
    /// `Kn`, anything else `Kj mod n`, moved off `i` itself. Random
    /// targets give cycles with DAG tails and chords; queries without
    /// postconditions are pure providers; a missing key or a clashing
    /// constant leaves a postcondition unsatisfied, and a doomed query
    /// that was the only link between two cycles leaves several
    /// coordinating sets in one component.
    fn random_graph(consts: u8, spec: &[QuerySpec]) -> MatchGraph {
        let n = spec.len();
        let key = |i: usize| Term::str(&format!("K{i}"));
        let gen = VarGen::new();
        let queries = spec
            .iter()
            .enumerate()
            .map(|(i, ((a, b), pcs))| {
                let target = |j: usize| match j {
                    11 => n,
                    _ if j % n == i => (i + 1) % n,
                    _ => j % n,
                };
                EntangledQuery::new(
                    vec![Atom::new(
                        "R",
                        vec![key(i), term(*a, consts), term(*b, consts)],
                    )],
                    pcs.iter()
                        .map(|&(j, c, d)| {
                            Atom::new("R", vec![key(target(j)), term(c, consts), term(d, consts)])
                        })
                        .collect(),
                    vec![Atom::new("F", vec![term(0, 0), term(1, 0), term(2, 0)])],
                )
                .rename_apart(&gen)
                .with_id(QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one pass against the worklist on random small components:
        /// same survivors and removals, same global classes; on
        /// conflict-free components, one visit per live member, one MGU
        /// per in-edge the seed check unified, per in-edge between live
        /// members, per SCC (its fold into the global) and per
        /// condensation edge, and the
        /// representatives of the worklist's unifiers folded in
        /// condensation order; and the UCS verdict of every piece of the
        /// survivors.
        #[test]
        fn one_pass_equals_the_worklist(
            consts in 1u8..4,
            spec in prop::collection::vec(
                ((0u8..8, 0u8..8), prop::collection::vec((0usize..12, 0u8..8, 0u8..8), 0..4)),
                1..12,
            ),
        ) {
            let g = random_graph(consts, &spec);
            for component in g.components() {
                let m = match_component(&g, &component);
                let (survivors, removed, unifiers) = worklist_match(&g, &component);
                prop_assert_eq!(&m.survivors, &survivors, "spec {:?}", spec);
                prop_assert_eq!(sorted(&m.removed), sorted(&removed), "spec {:?}", spec);
                prop_assert_eq!(m.stats.cleanups, m.removed.len() as u64);
                let global = fold_in(&survivors, &unifiers);
                prop_assert_eq!(
                    m.global.as_ref().map(Unifier::classes),
                    global.as_ref().map(Unifier::classes),
                    "spec {:?}", spec
                );

                let mut seed_stats = MatchStats::default();
                let (live, doomed) = seed_phase(&g, &component, &mut seed_stats);
                if m.global.is_some() && removed.len() == doomed.len() {
                    let scc = ucs::scc_ids_members(&g, &live);
                    let mut order: Vec<u32> = live.clone();
                    order.sort_by_key(|s| std::cmp::Reverse(scc[s]));
                    order.dedup_by_key(|s| scc[s]);
                    let mut cross: Vec<(u32, u32)> = (0..g.edge_count() as u32)
                        .map(|eid| g.edge(eid))
                        .filter_map(|e| Some((*scc.get(&e.from)?, *scc.get(&e.to)?)))
                        .filter(|(from, to)| from != to)
                        .collect();
                    cross.sort_unstable();
                    cross.dedup();
                    let live_edges = (0..g.edge_count() as u32)
                        .map(|eid| g.edge(eid))
                        .filter(|e| scc.contains_key(&e.from) && scc.contains_key(&e.to))
                        .count();
                    prop_assert_eq!(m.stats.dequeues, live.len() as u64);
                    prop_assert_eq!(
                        m.stats.mgu_calls,
                        seed_stats.mgu_calls + (live_edges + order.len() + cross.len()) as u64
                    );
                    let in_order = fold_in(&order, &unifiers);
                    prop_assert_eq!(
                        m.global.as_ref().map(representatives),
                        in_order.as_ref().map(representatives),
                        "spec {:?}", spec
                    );
                }

                let mut alive = vec![false; g.len()];
                for &s in &m.survivors {
                    alive[s as usize] = true;
                }
                for piece in g.components_live(&alive) {
                    let mut mask = vec![false; g.len()];
                    for &s in &piece {
                        mask[s as usize] = true;
                    }
                    let is_set = m.sets.contains(&piece);
                    prop_assert_eq!(
                        is_set,
                        ucs::violations(&g, &mask).is_empty(),
                        "spec {:?}", spec
                    );
                    prop_assert!(is_set || piece.iter().all(|s| m.non_ucs.contains(s)));
                }
                let in_sets: usize = m.sets.iter().map(Vec::len).sum();
                prop_assert_eq!(in_sets + m.non_ucs.len(), m.survivors.len());
            }
        }
    }

    /// A ring of `n` shared-variable queries anchored at 1 —
    /// `{R(Q<i-1>, x)} R(Qi, x) <- F(x)`, query 0 heading `R(Q0, 1)` —
    /// plus the sink `{R(Q<n/2>, 2)} S(y) <- F(y)`, whose seed conflicts
    /// with the ring's unifier.
    fn ring_with_conflicting_sink(n: usize) -> MatchGraph {
        let mut texts: Vec<String> = (0..n)
            .map(|i| {
                let head = if i == 0 { "1" } else { "x" };
                format!("{{R(Q{}, x)}} R(Q{i}, {head}) <- F(x)", (i + n - 1) % n)
            })
            .collect();
        texts.push(format!("{{R(Q{}, 2)}} S(y) <- F(y)", n / 2));
        let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
        build(&texts)
    }

    #[test]
    fn conflicting_sink_on_a_ring_costs_linear_folds() {
        // A count, not a timing: Algorithm 1's worklist regrows the
        // ring's chain of equalities at every node, so unifier entries
        // folded quadruple when the ring doubles; the pass folds each
        // seed and each SCC once.
        let steps = |n: usize| {
            let g = ring_with_conflicting_sink(n);
            let before = FOLD_STEPS.with(Cell::get);
            let m = run_all(&g);
            assert_eq!(m.removed, vec![n as u32], "the sink alone is removed");
            assert_eq!(m.survivors.len(), n);
            assert_eq!(m.sets.len(), 1);
            FOLD_STEPS.with(Cell::get) - before
        };
        let (small, large) = (steps(256), steps(512));
        assert!(
            2 * large <= 5 * small,
            "folded entries grew {small} -> {large} when the ring doubled"
        );
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
        // q0 → q1 crosses two SCCs: no coordinating set survives.
        assert!(m.sets.is_empty());
        assert_eq!(m.non_ucs, vec![0, 1]);
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
        // into q2's — the cross-SCC leg of the condensation pass.
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
