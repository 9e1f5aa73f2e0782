//! The safety condition of §3.1.1.
//!
//! A set of queries is *unsafe* if it contains a query with a
//! postcondition atom that unifies with two or more head atoms in the set
//! (heads of two different queries, or two head atoms of the same query).
//! Safety guarantees that the way queries can match is unique, which is
//! what makes matching tractable (Theorem 3.1).
//!
//! Of the two responses §3.1.1 offers, the engine takes the removal
//! strategy: [`enforce_members`] sidelines, per component, the queries
//! whose postconditions are ambiguous, and the rest of the component is
//! matched. Rejecting the whole set is not offered: in a long-running
//! pool one ambiguous query would fail every query of its component.
//! With the admission check on (Figure 9), the query that would make
//! the pool unsafe is refused at submission instead.

use crate::graph::MatchGraph;
use eq_ir::FastSet;

/// Applies the removal strategy of §3.1.1: removes queries having a
/// postcondition that unifies with more than one live head, until the
/// remaining set is safe. Returns the removed slots.
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

/// Member-scoped §3.1.1 enforcement: visits `members` in order and
/// removes each whose postconditions unify with more than one
/// still-live member head. Returns the removed slots.
///
/// One pass reaches the fixpoint: a removal only lowers other members'
/// live-head counts, so a member kept when visited stays safe.
///
/// Safety is a per-component property (all of a postcondition's
/// satisfying heads are its in-edge sources, which lie in the same
/// unifiability component), so enforcing it component by component is
/// equivalent to a whole-pool pass — and costs O(|component|) instead of
/// O(|pool|).
pub fn enforce_members(graph: &MatchGraph, members: &[u32]) -> Vec<u32> {
    let mut live: FastSet<u32> = members.iter().copied().collect();
    let mut removed = Vec::new();
    // Live satisfiers per postcondition, one buffer for every member.
    let mut per_pc: Vec<usize> = Vec::new();
    for &slot in members {
        let pc_count = graph.query(slot).pc_count();
        if pc_count == 0 {
            continue;
        }
        per_pc.clear();
        per_pc.resize(pc_count, 0);
        for eid in graph.in_edges(slot) {
            let e = graph.edge(eid);
            if live.contains(&e.from) {
                per_pc[e.pc_idx as usize] += 1;
            }
        }
        if per_pc.iter().any(|&c| c >= 2) {
            live.remove(&slot);
            removed.push(slot);
        }
    }
    removed
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
        assert_eq!(enforce_members(&g, &all(&g)), vec![2]);
    }

    #[test]
    fn kramer_jerry_is_safe() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        assert!(enforce_members(&g, &all(&g)).is_empty());
    }

    #[test]
    fn two_heads_of_same_query_count() {
        // q0 contributes two heads both unifiable with q1's single pc.
        let g = build(&[
            "{} R(A, x) & R(B, x) <- T(x)",
            "{R(w, v)} S(v) <- T(v), T(w)",
        ]);
        assert_eq!(enforce_members(&g, &all(&g)), vec![1]);
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
        // The whole-graph pass is the per-component passes concatenated
        // (how the engine enforces over its resident pool).
        let per_component: Vec<u32> = g
            .components()
            .iter()
            .flat_map(|c| enforce_members(&g, c))
            .collect();
        assert_eq!(g.components().len(), 2);
        assert_eq!(per_component, vec![2, 5]);
        assert_eq!(enforce_members(&g, &all(&g)), per_component);
        // Restricted to the unambiguous pair, the set is safe.
        assert!(enforce_members(&g, &[0, 1]).is_empty());
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
        assert!(enforce_members(&g, &[0, 1]).is_empty());
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
