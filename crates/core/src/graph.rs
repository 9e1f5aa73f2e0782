//! The unifiability graph of §4.1.1 and its partitioning (§4.1.2).

use crate::index::{AtomIndex, AtomRef};
use eq_ir::{EntangledQuery, FastMap};
use eq_unify::{mgu_atoms, Unifier};

/// One edge of the unifiability multigraph: the head atom `head_idx` of
/// query slot `from` unifies with the postcondition atom `pc_idx` of
/// query slot `to`, under the recorded most general unifier.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Source query slot (provider of the head atom).
    pub from: u32,
    /// Index of the head atom within the source query.
    pub head_idx: u32,
    /// Target query slot (owner of the postcondition).
    pub to: u32,
    /// Index of the postcondition atom within the target query.
    pub pc_idx: u32,
    /// `mgu(h, p)` — the valuation constraints this match imposes.
    pub mgu: Unifier,
}

/// Slot-addressed read access to a unifiability graph.
///
/// Matching (§4.1.3), safety (§3.1.1), UCS (§3.1.2), and combined-query
/// construction (§4.2) are all written against this trait, so they run
/// identically over a batch-built [`MatchGraph`] and over the engine's
/// persistent resident graph ([`crate::resident::ResidentGraph`]) without
/// cloning queries into a throwaway graph first.
///
/// Slot ids live in `0..slot_bound()` but need not be dense: a view may
/// have holes (retired engine slots). Callers only ever dereference
/// slots they were handed as component members, and edge ids they read
/// from `out_edges`/`in_edges` of live slots.
pub trait MatchView {
    /// Exclusive upper bound on slot ids (dense array sizing).
    fn slot_bound(&self) -> usize;
    /// The query at `slot`. Panics if the slot is not live.
    fn query(&self, slot: u32) -> &EntangledQuery;
    /// The edge with id `eid`. Panics if the edge was removed.
    fn edge(&self, eid: u32) -> &Edge;
    /// Edge ids leaving `slot` (its head atoms feeding other queries'
    /// postconditions).
    fn out_edges(&self, slot: u32) -> &[u32];
    /// Edge ids entering `slot` (other queries' heads feeding its
    /// postconditions).
    fn in_edges(&self, slot: u32) -> &[u32];
}

/// The unifiability graph over a fixed set of queries.
///
/// Queries must already be renamed apart (no shared variables); the
/// engine guarantees this at admission and [`crate::coordinate()`] does it
/// internally.
///
/// Self-edges are excluded: a query's own head never satisfies its own
/// postcondition. The paper's two-way workload (§5.3.1) — where Jerry's
/// postcondition `R(x, ITH)` would otherwise unify with Jerry's own head
/// `R(Jerry, ITH)` — is only safe under this reading, and coordination
/// is by definition *between* queries.
pub struct MatchGraph {
    queries: Vec<EntangledQuery>,
    edges: Vec<Edge>,
    out: Vec<Vec<u32>>,
    inc: Vec<Vec<u32>>,
    head_index: AtomIndex,
    pc_index: AtomIndex,
}

impl MatchGraph {
    /// Builds the graph: indexes every head and postcondition atom, then
    /// discovers edges through index candidate lookup plus a real MGU
    /// check (§4.1.4).
    pub fn build(queries: Vec<EntangledQuery>) -> Self {
        let n = queries.len();
        let mut head_index = AtomIndex::new();
        let mut pc_index = AtomIndex::new();
        for (qi, q) in queries.iter().enumerate() {
            for (ai, atom) in q.head.iter().enumerate() {
                head_index.insert(
                    AtomRef {
                        query: qi as u32,
                        atom: ai as u32,
                    },
                    atom,
                );
            }
            for (ai, atom) in q.postconditions.iter().enumerate() {
                pc_index.insert(
                    AtomRef {
                        query: qi as u32,
                        atom: ai as u32,
                    },
                    atom,
                );
            }
        }

        let mut graph = MatchGraph {
            queries,
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
            head_index,
            pc_index,
        };

        // Discover edges by probing the head index with each
        // postcondition.
        for to in 0..n as u32 {
            for pc_idx in 0..graph.queries[to as usize].postconditions.len() as u32 {
                graph.discover_edges_for_pc(to, pc_idx);
            }
        }
        graph
    }

    fn discover_edges_for_pc(&mut self, to: u32, pc_idx: u32) {
        let pc = &self.queries[to as usize].postconditions[pc_idx as usize];
        self.head_index.for_each_candidate(pc, |cand, head| {
            if cand.query == to {
                return; // no self-coordination
            }
            if let Some(mgu) = mgu_atoms(head, pc) {
                let id = self.edges.len() as u32;
                self.edges.push(Edge {
                    from: cand.query,
                    head_idx: cand.atom,
                    to,
                    pc_idx,
                    mgu,
                });
                self.out[cand.query as usize].push(id);
                self.inc[to as usize].push(id);
            }
        });
    }

    /// The queries, by slot.
    pub fn queries(&self) -> &[EntangledQuery] {
        &self.queries
    }

    /// Number of query slots.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the graph contains no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Edge ids leaving `slot` (its head atoms feeding other queries'
    /// postconditions).
    pub fn out_edges(&self, slot: u32) -> &[u32] {
        &self.out[slot as usize]
    }

    /// Edge ids entering `slot` (other queries' heads feeding its
    /// postconditions).
    pub fn in_edges(&self, slot: u32) -> &[u32] {
        &self.inc[slot as usize]
    }

    /// `INDEGREE(q)` from §4.1.1.
    pub fn indegree(&self, slot: u32) -> usize {
        self.inc[slot as usize].len()
    }

    /// The head index (exposed for the engine's incremental safety
    /// check).
    pub fn head_index(&self) -> &AtomIndex {
        &self.head_index
    }

    /// The postcondition index.
    pub fn pc_index(&self) -> &AtomIndex {
        &self.pc_index
    }

    /// Partitions the query slots into weakly connected components
    /// (§4.1.2). Components are returned with slots in ascending order,
    /// ordered by their smallest slot.
    pub fn components(&self) -> Vec<Vec<u32>> {
        self.components_masked(None)
    }

    /// Like [`MatchGraph::components`], but restricted to slots where
    /// `alive` is true: dead slots are excluded and edges incident to
    /// them do not connect (so groups bridged only by a removed query
    /// are processed independently).
    pub fn components_live(&self, alive: &[bool]) -> Vec<Vec<u32>> {
        self.components_masked(Some(alive))
    }

    fn components_masked(&self, alive: Option<&[bool]>) -> Vec<Vec<u32>> {
        let n = self.queries.len();
        let is_live = |slot: usize| alive.is_none_or(|a| a[slot]);
        let mut dsu = Dsu::new(n);
        for e in &self.edges {
            if is_live(e.from as usize) && is_live(e.to as usize) {
                dsu.union(e.from as usize, e.to as usize);
            }
        }
        let mut groups: FastMap<usize, Vec<u32>> = FastMap::default();
        for slot in 0..n {
            if is_live(slot) {
                groups.entry(dsu.find(slot)).or_default().push(slot as u32);
            }
        }
        let mut components: Vec<Vec<u32>> = groups.into_values().collect();
        components.sort_by_key(|c| c[0]);
        components
    }
}

impl MatchView for MatchGraph {
    fn slot_bound(&self) -> usize {
        self.queries.len()
    }

    fn query(&self, slot: u32) -> &EntangledQuery {
        &self.queries[slot as usize]
    }

    fn edge(&self, eid: u32) -> &Edge {
        &self.edges[eid as usize]
    }

    fn out_edges(&self, slot: u32) -> &[u32] {
        &self.out[slot as usize]
    }

    fn in_edges(&self, slot: u32) -> &[u32] {
        &self.inc[slot as usize]
    }
}

/// Plain union-find over dense indices, used for partitioning.
pub(crate) struct Dsu {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl Dsu {
    pub(crate) fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::VarGen;
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
                    .with_id(eq_ir::QueryId(i as u64))
            })
            .collect();
        MatchGraph::build(queries)
    }

    #[test]
    fn kramer_jerry_two_cycle() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        assert_eq!(g.edges().len(), 2);
        assert_eq!(g.indegree(0), 1);
        assert_eq!(g.indegree(1), 1);
        let e0 = &g.edges()[g.in_edges(0)[0] as usize];
        assert_eq!(e0.from, 1); // Jerry's head satisfies Kramer's pc
        assert_eq!(g.components(), vec![vec![0, 1]]);
    }

    #[test]
    fn running_example_figure_4a() {
        // q1: {R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)
        // q2: {T(1)} R(y1) <- D2(y1)
        // q3: {T(z1)} S(z2) <- D3(z1, z2)
        let g = build(&[
            "{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)",
            "{T(1)} R(y1) <- D2(y1)",
            "{T(z1)} S(z2) <- D3(z1, z2)",
        ]);
        // Edges: q1→q2 (T(x3) ~ T(1)), q1→q3 (T(x3) ~ T(z1)),
        //        q2→q1 (R(y1) ~ R(x1)), q3→q1 (S(z2) ~ S(x2)).
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.out_edges(0).len(), 2);
        assert_eq!(g.indegree(0), 2);
        assert_eq!(g.indegree(1), 1);
        assert_eq!(g.indegree(2), 1);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn self_edges_excluded() {
        // Jerry's own head R(Jerry, ITH) unifies his own pc R(x, ITH),
        // but self-coordination is excluded.
        let g = build(&["{R(x, ITH)} R(Jerry, ITH) <- F(Jerry, x)"]);
        assert!(g.edges().is_empty());
        assert_eq!(g.indegree(0), 0);
    }

    #[test]
    fn disconnected_pairs_partition() {
        let g = build(&[
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(Kramer, Jerry)",
            "{R(Kramer, ITH)} R(Jerry, ITH) <- F(Jerry, Kramer)",
            "{R(Elaine, SBN)} R(Frank, SBN) <- F(Frank, Elaine)",
            "{R(Frank, SBN)} R(Elaine, SBN) <- F(Elaine, Frank)",
        ]);
        assert_eq!(g.components(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn multi_edges_per_pc_when_unsafe() {
        // Fig 3(a): Jerry's pc R(f, z) unifies with both Kramer's and
        // Elaine's heads — two in-edges on one postcondition.
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Jerry, y)} R(Elaine, y) <- F(y, Athens)",
            "{R(f, z)} R(Jerry, z) <- F(z, w), Friend(Jerry, f)",
        ]);
        assert_eq!(g.indegree(2), 2);
        // Jerry's head feeds both other queries' postconditions.
        assert_eq!(g.out_edges(2).len(), 2);
    }

    #[test]
    fn constant_mismatch_blocks_edge() {
        let g = build(&[
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(Kramer, Jerry)",
            "{R(Kramer, JFK)} R(Jerry, JFK) <- F(Jerry, Kramer)",
        ]);
        // Destinations differ: no unification, two singleton components.
        assert!(g.edges().is_empty());
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn queries_without_postconditions_have_zero_indegree() {
        let g = build(&["{} R(Kramer, ITH) <- F(Kramer, Jerry)"]);
        assert_eq!(g.indegree(0), 0);
        assert_eq!(g.components(), vec![vec![0]]);
    }

    #[test]
    fn dsu_basics() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert_ne!(d.find(0), d.find(2));
        d.union(1, 2);
        assert_eq!(d.find(0), d.find(3));
    }
}
