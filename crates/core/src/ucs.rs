//! The unique-coordination-structure (UCS) condition of §3.1.2.
//!
//! A set of queries has the UCS property when "every node in its
//! simplified unifiability graph belongs to a strongly connected
//! component of the same graph" — read as: within each (weakly)
//! connected component, all nodes lie in one SCC. Equivalently: no edge
//! crosses between different SCCs. This excludes configurations such as
//! the paper's Figure 3(b), where Frank's query depends on Jerry's head
//! but nothing depends on Frank — so a proper subset (Jerry, Kramer)
//! could coordinate "locally" and the structure is not unique.
//!
//! The check runs Tarjan's algorithm over the live subgraph, with state
//! sized by the member set, not the slot space. The engine does not call
//! [`violations`]: matching condenses each component with
//! [`scc_ids_members`] anyway and reads the verdict off the same ids
//! ([`crate::matching::ComponentMatch::sets`]), so an evaluated
//! component costs one Tarjan.

use crate::graph::{EdgeIds, MatchGraph};
use eq_ir::{FastMap, QueryId};

/// A UCS violation: an edge whose endpoints fall into different strongly
/// connected components, meaning the coordination structure is not
/// unique.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UcsViolation {
    /// Slot of the query whose head feeds across SCCs.
    pub from_slot: u32,
    /// Id of the source query.
    pub from: QueryId,
    /// Slot of the dependent query.
    pub to_slot: u32,
    /// Id of the dependent query.
    pub to: QueryId,
}

/// Computes SCC ids for the live slots of the graph (dead slots get
/// `None`). Ids are arbitrary but equal within an SCC.
pub fn scc_ids(graph: &MatchGraph, alive: &[bool]) -> Vec<Option<u32>> {
    let members: Vec<u32> = (0..graph.len() as u32)
        .filter(|&s| alive[s as usize])
        .collect();
    let by_member = scc_ids_members(graph, &members);
    let mut out = vec![None; graph.len()];
    for (slot, id) in by_member {
        out[slot as usize] = Some(id);
    }
    out
}

/// Checks the UCS property on the live subgraph; returns all violating
/// edges (empty means UCS holds).
pub fn violations(graph: &MatchGraph, alive: &[bool]) -> Vec<UcsViolation> {
    let members: Vec<u32> = (0..graph.len() as u32)
        .filter(|&s| alive[s as usize])
        .collect();
    let scc = scc_ids_members(graph, &members);
    let mut out = Vec::new();
    for &m in &members {
        for eid in graph.out_edges(m) {
            let e = graph.edge(eid);
            let (Some(from_scc), Some(to_scc)) = (scc.get(&e.from), scc.get(&e.to)) else {
                continue;
            };
            if from_scc != to_scc {
                out.push(UcsViolation {
                    from_slot: e.from,
                    from: graph.query(e.from).id,
                    to_slot: e.to,
                    to: graph.query(e.to).id,
                });
            }
        }
    }
    out.sort_by_key(|v| (v.from_slot, v.to_slot));
    out.dedup();
    out
}

/// Member-scoped SCC ids: a map from each member slot to its SCC id.
/// Edges to non-members are ignored.
///
/// **Contract** (relied on by `matching`'s condensation pass, and
/// covered by `scc_ids_are_reverse_topological` below): ids are
/// assigned in Tarjan completion order, so they are
/// **reverse-topological** — for every edge `u → v` with `u` and `v`
/// in different SCCs, `id(u) > id(v)`. Any reimplementation must
/// preserve this (or matching must compute its own topological order).
pub fn scc_ids_members(graph: &MatchGraph, members: &[u32]) -> FastMap<u32, u32> {
    let local: FastMap<u32, u32> = members
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let n = members.len();
    let mut state = Tarjan {
        graph,
        members,
        local: &local,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next_index: 0,
        scc: vec![None; n],
        next_scc: 0,
    };
    for v in 0..n {
        if state.index[v].is_none() {
            state.strongconnect(v);
        }
    }
    members
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, state.scc[i].expect("visited")))
        .collect()
}

struct Tarjan<'a> {
    graph: &'a MatchGraph,
    members: &'a [u32],
    local: &'a FastMap<u32, u32>,
    index: Vec<Option<u32>>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: u32,
    scc: Vec<Option<u32>>,
    next_scc: u32,
}

impl Tarjan<'_> {
    /// Iterative Tarjan (explicit stack) over *local* member indices, so
    /// giant-cluster workloads don't overflow the call stack and state
    /// stays proportional to the member set.
    fn strongconnect(&mut self, root: usize) {
        // Each frame: (local node, its out-edges still to visit).
        let graph = self.graph;
        let mut frames: Vec<(usize, EdgeIds<'_>)> =
            vec![(root, graph.out_edges(self.members[root]))];
        self.index[root] = Some(self.next_index);
        self.low[root] = self.next_index;
        self.next_index += 1;
        self.stack.push(root);
        self.on_stack[root] = true;

        while let Some((v, out)) = frames.last_mut() {
            let v = *v;
            if let Some(eid) = out.next() {
                let to_slot = graph.edge(eid).to;
                let Some(&w) = self.local.get(&to_slot) else {
                    continue; // edge leaves the member set
                };
                let w = w as usize;
                match self.index[w] {
                    None => {
                        self.index[w] = Some(self.next_index);
                        self.low[w] = self.next_index;
                        self.next_index += 1;
                        self.stack.push(w);
                        self.on_stack[w] = true;
                        frames.push((w, graph.out_edges(self.members[w])));
                    }
                    Some(widx) => {
                        if self.on_stack[w] {
                            self.low[v] = self.low[v].min(widx);
                        }
                    }
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    self.low[parent] = self.low[parent].min(self.low[v]);
                }
                if Some(self.low[v]) == self.index[v] {
                    let id = self.next_scc;
                    self.next_scc += 1;
                    loop {
                        let w = self.stack.pop().expect("scc stack underflow");
                        self.on_stack[w] = false;
                        self.scc[w] = Some(id);
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{EntangledQuery, VarGen};
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

    #[test]
    fn scc_ids_are_reverse_topological() {
        // The documented contract of `scc_ids_members`: cross-SCC edges
        // always point from a larger id to a smaller one. A mixed shape
        // — a 2-cycle feeding a chain that feeds a 3-cycle, plus a
        // stray source — exercises several completion orders.
        let g = build(&[
            "{R(B, x)} R(A, x) <- F(x)", // 2-cycle {0,1}
            "{R(A, y)} R(B, y) <- F(y)",
            "{R(D, z)} R(C, z) <- F(z)", // chain node, fed by A? no — standalone source
            "{R(E, u)} R(D, u) <- F(u)", // chain: 2 -> 3 -> cycle {4,5,6}
            "{R(G1, v)} R(E, v) <- F(v)",
            "{R(G2, w)} R(G1, w) <- F(w)",
            "{R(E, s)} R(G2, s) <- F(s)",
        ]);
        let members: Vec<u32> = (0..7).collect();
        let scc = scc_ids_members(&g, &members);
        // Same-cycle nodes share an id; the chain nodes do not.
        assert_eq!(scc[&0], scc[&1]);
        assert_eq!(scc[&4], scc[&5]);
        assert_eq!(scc[&5], scc[&6]);
        assert_ne!(scc[&2], scc[&3]);
        for e in (0..g.edge_count() as u32).map(|eid| g.edge(eid)) {
            let (from, to) = (scc[&e.from], scc[&e.to]);
            if from != to {
                assert!(
                    from > to,
                    "edge {} -> {} violates reverse-topological ids ({from} <= {to})",
                    e.from,
                    e.to
                );
            }
        }
    }

    #[test]
    fn paper_figure_3b_violates_ucs() {
        // Jerry↔Kramer cycle plus an edge Jerry→Frank: Frank is not in a
        // cycle, so the structure is not unique.
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
            "{R(Jerry, z)} R(Frank, z) <- F(z, Paris), A(z, United)",
        ]);
        let vs = violations(&g, &[true, true, true]);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].to_slot, 2); // Frank's query is the dependent one
    }

    #[test]
    fn paper_figure_3a_satisfies_ucs_despite_unsafety() {
        // §3.1.2: "a set of queries could satisfy the UCS property even
        // though a query in the set is unsafe".
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Jerry, y)} R(Elaine, y) <- F(y, Athens)",
            "{R(f, z)} R(Jerry, z) <- F(z, w), Friend(Jerry, f)",
        ]);
        assert!(violations(&g, &[true, true, true]).is_empty());
        let scc = scc_ids(&g, &[true, true, true]);
        assert_eq!(scc[0], scc[1]);
        assert_eq!(scc[0], scc[2]);
    }

    #[test]
    fn two_cycle_is_ucs() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
        ]);
        assert!(violations(&g, &[true, true]).is_empty());
    }

    #[test]
    fn isolated_nodes_are_fine() {
        // A query with no edges is trivially its own SCC; the condition
        // constrains edges, not isolated nodes.
        let g = build(&["{} R(Kramer, ITH) <- F(Kramer, Jerry)"]);
        assert!(violations(&g, &[true]).is_empty());
    }

    #[test]
    fn dead_slots_ignored() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
            "{R(Jerry, z)} R(Frank, z) <- F(z, Paris), A(z, United)",
        ]);
        // With Frank's query dead, the remaining pair is UCS.
        assert!(violations(&g, &[true, true, false]).is_empty());
        let scc = scc_ids(&g, &[true, true, false]);
        assert_eq!(scc[2], None);
    }

    #[test]
    fn three_cycle_is_ucs() {
        // Triangle workload of §5.3.2: q0→q1→q2→q0 (heads feed the next
        // query's pc).
        let g = build(&[
            "{R(Kramer, IAH)} R(Jerry, IAH) <- F(Jerry, Kramer)",
            "{R(Elaine, IAH)} R(Kramer, IAH) <- F(Kramer, Elaine)",
            "{R(Jerry, IAH)} R(Elaine, IAH) <- F(Elaine, Jerry)",
        ]);
        assert_eq!(g.edge_count(), 3);
        assert!(violations(&g, &[true, true, true]).is_empty());
    }

    #[test]
    fn chain_violates_ucs() {
        // q0's head feeds q1's pc, q1's head feeds q2's pc; no cycles.
        let g = build(&[
            "{} X0(C) <- T(C)",
            "{X0(a)} X1(a) <- T(a)",
            "{X1(b)} X2(b) <- T(b)",
        ]);
        let vs = violations(&g, &[true, true, true]);
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn member_scoped_check_ignores_edges_leaving_the_member_set() {
        // Restricted to the two-cycle, the Frank edge is invisible.
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
            "{R(Jerry, z)} R(Frank, z) <- F(z, Paris), A(z, United)",
        ]);
        let scc = scc_ids_members(&g, &[0, 1]);
        assert_eq!(scc.len(), 2);
        assert_eq!(scc[&0], scc[&1]);
    }
}
