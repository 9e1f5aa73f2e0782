//! The safety condition of §3.1.1.
//!
//! A set of queries is *unsafe* if it contains a query with a
//! postcondition atom that unifies with two or more head atoms in the set
//! (heads of two different queries, or two head atoms of the same query).
//! Safety guarantees that the way queries can match is unique, which is
//! what makes matching tractable (Theorem 3.1).

use crate::graph::MatchGraph;
use eq_ir::{FastSet, QueryId};

/// A detected safety violation: the postcondition `pc_idx` of `query`
/// unifies with more than one head atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SafetyViolation {
    /// Slot of the offending query in the graph.
    pub slot: u32,
    /// Its stable query id.
    pub query: QueryId,
    /// Index of the ambiguous postcondition atom.
    pub pc_idx: u32,
    /// The `(slot, head_idx)` pairs of the unifiable heads (≥ 2).
    pub heads: Vec<(u32, u32)>,
}

/// What to do when a workload is unsafe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SafetyPolicy {
    /// Remove offending queries until the remainder is safe (the simple
    /// iteration suggested in §3.1.1; not Church-Rosser but efficient).
    /// Removed queries are reported as rejected.
    #[default]
    RemoveOffending,
    /// Reject the entire input if any violation exists (strict mode —
    /// "the problem would be pointed out to the users involved").
    RejectAll,
}

/// Member-scoped violation scan: reports every member whose
/// postcondition has two or more in-edges from member heads. The engine
/// runs it per component of its graph to answer "is the pending pool
/// safe right now?"; over all slots of a graph it is the whole-graph
/// scan.
pub fn violations_members(graph: &MatchGraph, members: &[u32]) -> Vec<SafetyViolation> {
    let member_set: FastSet<u32> = members.iter().copied().collect();
    let mut out = Vec::new();
    for &slot in members {
        let q = graph.query(slot);
        let pc_count = q.pc_count();
        if pc_count == 0 {
            continue;
        }
        let mut per_pc: Vec<Vec<(u32, u32)>> = vec![Vec::new(); pc_count];
        for &eid in graph.in_edges(slot) {
            let e = graph.edge(eid);
            if member_set.contains(&e.from) {
                per_pc[e.pc_idx as usize].push((e.from, e.head_idx));
            }
        }
        for (pc_idx, heads) in per_pc.into_iter().enumerate() {
            if heads.len() >= 2 {
                out.push(SafetyViolation {
                    slot,
                    query: q.id,
                    pc_idx: pc_idx as u32,
                    heads,
                });
            }
        }
    }
    out
}

/// Applies the removal strategy of §3.1.1: repeatedly removes queries
/// having a postcondition that unifies with more than one live head,
/// until the remaining set is safe. Returns the removed slots.
///
/// Removal is implemented on a liveness mask rather than by mutating the
/// graph; downstream phases (matching, UCS) accept the mask. For
/// component-scoped enforcement that does not allocate over the whole
/// slot space, use [`enforce_members`].
pub fn enforce(graph: &MatchGraph, alive: &mut [bool]) -> Vec<u32> {
    let members: Vec<u32> = (0..graph.len() as u32)
        .filter(|&s| alive[s as usize])
        .collect();
    let removed = enforce_members(graph, &members);
    for &slot in &removed {
        alive[slot as usize] = false;
    }
    removed
}

/// Member-scoped §3.1.1 enforcement: removes queries from `members`
/// whose postconditions unify with more than one live member head,
/// iterating until the remainder is safe. Returns the removed slots.
///
/// Safety is a per-component property (all of a postcondition's
/// satisfying heads are its in-edge sources, which lie in the same
/// unifiability component), so enforcing it component by component is
/// equivalent to a whole-pool pass — and costs O(|component|) instead of
/// O(|pool|).
pub fn enforce_members(graph: &MatchGraph, members: &[u32]) -> Vec<u32> {
    let mut live: FastSet<u32> = members.iter().copied().collect();
    let mut removed = Vec::new();
    loop {
        let mut changed = false;
        for &slot in members {
            if !live.contains(&slot) {
                continue;
            }
            let pc_count = graph.query(slot).pc_count();
            if pc_count == 0 {
                continue;
            }
            let mut per_pc = vec![0usize; pc_count];
            for &eid in graph.in_edges(slot) {
                let e = graph.edge(eid);
                if live.contains(&e.from) {
                    per_pc[e.pc_idx as usize] += 1;
                }
            }
            if per_pc.iter().any(|&c| c >= 2) {
                live.remove(&slot);
                removed.push(slot);
                changed = true;
            }
        }
        if !changed {
            return removed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{EntangledQuery, QueryId, VarGen};
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

    /// Every slot of `g`: the member set of a whole-graph scan.
    fn all(g: &MatchGraph) -> Vec<u32> {
        (0..g.len() as u32).collect()
    }

    #[test]
    fn paper_figure_3a_is_unsafe() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Jerry, y)} R(Elaine, y) <- F(y, Athens)",
            "{R(f, z)} R(Jerry, z) <- F(z, w), Friend(Jerry, f)",
        ]);
        let vs = violations_members(&g, &all(&g));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].slot, 2);
        assert_eq!(vs[0].heads.len(), 2);
    }

    #[test]
    fn kramer_jerry_is_safe() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        assert!(violations_members(&g, &all(&g)).is_empty());
    }

    #[test]
    fn two_heads_of_same_query_count() {
        // q0 contributes two heads both unifiable with q1's single pc.
        let g = build(&[
            "{} R(A, x) & R(B, x) <- T(x)",
            "{R(w, v)} S(v) <- T(v), T(w)",
        ]);
        let vs = violations_members(&g, &all(&g));
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].slot, 1);
        assert_eq!(vs[0].heads, vec![(0, 0), (0, 1)]);
    }

    #[test]
    fn member_scoped_violations_agree_with_graph_scan() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Jerry, y)} R(Elaine, y) <- F(y, Athens)",
            "{R(f, z)} R(Jerry, z) <- F(z, w), Friend(Jerry, f)",
            "{} X(a) <- T(a)",
            "{} X(b) <- T(b)",
            "{X(v)} Y(v) <- T(v)",
        ]);
        // The whole-graph scan is the per-component scans concatenated
        // (how the engine scans its resident pool).
        let per_component: Vec<SafetyViolation> = g
            .components()
            .iter()
            .flat_map(|c| violations_members(&g, c))
            .collect();
        assert_eq!(g.components().len(), 2);
        assert_eq!(per_component.len(), 2);
        assert_eq!(violations_members(&g, &all(&g)), per_component);
        // Restricted to the unambiguous pair, the set is safe.
        assert!(violations_members(&g, &[0, 1]).is_empty());
    }

    #[test]
    fn enforce_removes_offender_only() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Jerry, y)} R(Elaine, y) <- F(y, Athens)",
            "{R(f, z)} R(Jerry, z) <- F(z, w), Friend(Jerry, f)",
        ]);
        let mut alive = vec![true; 3];
        let removed = enforce(&g, &mut alive);
        assert_eq!(removed, vec![2]);
        assert_eq!(alive, vec![true, true, false]);
    }

    #[test]
    fn enforce_cascades_until_safe() {
        // Two providers of X(_) and one consumer whose single
        // postcondition unifies with both heads: the consumer goes.
        let g = build(&["{} X(a) <- T(a)", "{} X(b) <- T(b)", "{X(v)} Y(v) <- T(v)"]);
        let mut alive = vec![true; 3];
        let removed = enforce(&g, &mut alive);
        assert_eq!(removed, vec![2]);
        assert_eq!(violations_members(&g, &all(&g)).len(), 1);
        assert!(violations_members(&g, &[0, 1]).is_empty());
    }

    #[test]
    fn enforce_is_noop_on_safe_sets() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
        ]);
        let mut alive = vec![true; 2];
        assert!(enforce(&g, &mut alive).is_empty());
        assert_eq!(alive, vec![true, true]);
    }

    #[test]
    fn removal_can_restore_safety_for_others() {
        // q0, q1 both provide R(_, c); q2's pc R(x, c) is ambiguous. q3's
        // pc R(x, d) unifies only q4's head. Removing q2 leaves a safe
        // set; q3 unaffected.
        let g = build(&[
            "{} R(a, C) <- T(a)",
            "{} R(b, C) <- T(b)",
            "{R(x, C)} S(x) <- T(x)",
            "{R(y, D)} S2(y) <- T(y)",
            "{} R(e, D) <- T(e)",
        ]);
        let mut alive = vec![true; 5];
        let removed = enforce(&g, &mut alive);
        assert_eq!(removed, vec![2]);
    }
}
