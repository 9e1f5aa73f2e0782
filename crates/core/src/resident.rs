//! The resident match graph: one incremental match-state subsystem that
//! survives across flushes.
//!
//! The paper's evaluation loop (§4.1.2) partitions pending queries into
//! unifiability components and evaluates each component. The original
//! engine kept two disjoint copies of that state — an incremental
//! adjacency map maintained at submit/retire time, and a throwaway
//! [`crate::graph::MatchGraph`] rebuilt (cloning every pending query) on
//! every flush. `ResidentGraph` replaces both: a persistent unifiability
//! multigraph keyed by engine *slots*, updated in place as queries are
//! admitted and retired, with
//!
//! * an **edge slab** (ids are reused, MGUs computed once at admission
//!   and kept for matching),
//! * a **component registry** maintained eagerly on edge insertion
//!   (merge, small-into-large) and lazily on removal (a retirement marks
//!   its component *split-pending*; the next [`ResidentGraph::take_dirty`]
//!   resolves the split with a BFS over the surviving adjacency),
//! * a **dirty set** of component ids whose membership changed since
//!   they were last evaluated — flushing iterates dirty components only,
//!   dropping flush cost from O(pending) to O(changed).
//!
//! The graph stores topology only; the queries themselves stay in the
//! engine's slot table, which implements [`crate::graph::MatchView`]
//! over this structure so matching, safety, UCS, and combined-query
//! construction run directly against resident state without cloning.

use crate::graph::Edge;
use eq_ir::{FastMap, FastSet};

const NO_COMP: u32 = u32::MAX;

/// One weakly connected component of the resident graph.
#[derive(Default)]
struct Component {
    members: FastSet<u32>,
    /// True if a member retired since the last split resolution; the
    /// component may have fallen apart and needs a BFS before use.
    split_pending: bool,
}

/// The persistent, slot-addressed unifiability multigraph.
#[derive(Default)]
pub struct ResidentGraph {
    /// Edge slab; `None` entries are free (ids reused via `free_edges`).
    edges: Vec<Option<Edge>>,
    free_edges: Vec<u32>,
    /// Per-slot outgoing edge ids (this slot's heads feeding others).
    out: Vec<Vec<u32>>,
    /// Per-slot incoming edge ids (others' heads feeding this slot).
    inc: Vec<Vec<u32>>,
    /// Per-slot component id (`NO_COMP` when the slot is not resident).
    comp_of: Vec<u32>,
    /// Component slab (ids reused via `free_comps`).
    comps: Vec<Option<Component>>,
    free_comps: Vec<u32>,
    /// Components whose membership changed since last evaluation.
    dirty: FastSet<u32>,
    live_edges: usize,
}

impl ResidentGraph {
    /// An empty resident graph.
    pub fn new() -> Self {
        ResidentGraph::default()
    }

    /// Number of live (resident) edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of live components. O(1): every freed slab entry sits on
    /// `free_comps` exactly once (`check_invariants` recounts the slab).
    pub fn component_count(&self) -> usize {
        self.comps.len() - self.free_comps.len()
    }

    /// Number of currently dirty components.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The edge with id `eid`; panics if the id is free.
    pub fn edge(&self, eid: u32) -> &Edge {
        self.edges[eid as usize].as_ref().expect("live edge")
    }

    /// Outgoing edge ids of `slot`.
    pub fn out_edges(&self, slot: u32) -> &[u32] {
        &self.out[slot as usize]
    }

    /// Incoming edge ids of `slot`.
    pub fn in_edges(&self, slot: u32) -> &[u32] {
        &self.inc[slot as usize]
    }

    /// Exclusive upper bound on slot ids seen so far.
    pub fn slot_bound(&self) -> usize {
        self.out.len()
    }

    /// Sorted members of the component containing `slot`.
    pub fn component_members(&self, slot: u32) -> Vec<u32> {
        let c = self.comp_of[slot as usize];
        if c == NO_COMP {
            return Vec::new();
        }
        let mut m: Vec<u32> = self.comps[c as usize]
            .as_ref()
            .expect("live comp")
            .members
            .iter()
            .copied()
            .collect();
        m.sort_unstable();
        m
    }

    /// Admits `slot` with the edges discovered at submission (each edge
    /// must have `slot` as one endpoint and a live resident slot as the
    /// other). Creates a singleton component for the slot, merges it
    /// with every partner's component, and marks the result dirty.
    pub fn link(&mut self, slot: u32, edges: Vec<Edge>) {
        self.ensure_slot(slot);
        debug_assert_eq!(self.comp_of[slot as usize], NO_COMP, "slot already linked");
        let comp = self.alloc_comp();
        self.comps[comp as usize]
            .as_mut()
            .expect("fresh comp")
            .members
            .insert(slot);
        self.comp_of[slot as usize] = comp;

        let mut home = comp;
        for e in edges {
            debug_assert!(e.from == slot || e.to == slot);
            let partner = if e.from == slot { e.to } else { e.from };
            let (from, to) = (e.from, e.to);
            let eid = self.alloc_edge(e);
            self.out[from as usize].push(eid);
            self.inc[to as usize].push(eid);
            let pc = self.comp_of[partner as usize];
            debug_assert_ne!(pc, NO_COMP, "edge to a non-resident slot");
            home = self.merge_comps(home, pc);
        }
        self.dirty.insert(home);
    }

    /// Removes `slot` and every incident edge. The surviving component
    /// is marked dirty and split-pending (edge removal may disconnect
    /// it); empty components are freed.
    pub fn unlink(&mut self, slot: u32) {
        let comp = self.comp_of[slot as usize];
        if comp == NO_COMP {
            return;
        }
        // Drop incident edges from both endpoints' lists.
        let out_ids = std::mem::take(&mut self.out[slot as usize]);
        for eid in out_ids {
            let e = self.edges[eid as usize].take().expect("live edge");
            self.live_edges -= 1;
            self.inc[e.to as usize].retain(|&x| x != eid);
            self.free_edges.push(eid);
        }
        let in_ids = std::mem::take(&mut self.inc[slot as usize]);
        for eid in in_ids {
            let e = self.edges[eid as usize].take().expect("live edge");
            self.live_edges -= 1;
            self.out[e.from as usize].retain(|&x| x != eid);
            self.free_edges.push(eid);
        }

        self.comp_of[slot as usize] = NO_COMP;
        let c = self.comps[comp as usize].as_mut().expect("live comp");
        c.members.remove(&slot);
        if c.members.is_empty() {
            self.comps[comp as usize] = None;
            self.free_comps.push(comp);
            self.dirty.remove(&comp);
        } else {
            c.split_pending = true;
            self.dirty.insert(comp);
        }
    }

    /// Marks every live component dirty (used when the database changed:
    /// kept-pending components may now be answerable).
    pub fn mark_all_dirty(&mut self) {
        for (id, c) in self.comps.iter().enumerate() {
            if c.is_some() {
                self.dirty.insert(id as u32);
            }
        }
    }

    /// Takes the dirty components, resolving pending splits: every dirty
    /// component with retired members is re-partitioned with a BFS over
    /// the surviving adjacency, and each resulting piece becomes its own
    /// component. Returns the member lists (sorted within a group;
    /// groups ordered by smallest member), all marked clean — the caller
    /// is about to evaluate them.
    pub fn take_dirty(&mut self) -> Vec<Vec<u32>> {
        let mut dirty: Vec<u32> = self.dirty.iter().copied().collect();
        dirty.sort_unstable();
        self.dirty.clear();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for comp in dirty {
            let Some(c) = self.comps[comp as usize].as_ref() else {
                continue; // freed since it was marked
            };
            if !c.split_pending {
                let mut members: Vec<u32> = c.members.iter().copied().collect();
                members.sort_unstable();
                groups.push(members);
                continue;
            }
            groups.extend(self.resolve_split(comp));
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Partitions `members` into connected pieces over the live
    /// adjacency, treating slots in `dead` as absent (edges incident to
    /// them do not connect). Pieces are sorted internally and ordered by
    /// smallest member. This is the one BFS both the split resolution
    /// and the engine's post-safety re-partitioning use, so the two can
    /// never drift apart.
    pub fn connected_pieces(&self, members: &[u32], dead: &FastSet<u32>) -> Vec<Vec<u32>> {
        let mut remaining: FastSet<u32> = members
            .iter()
            .copied()
            .filter(|s| !dead.contains(s))
            .collect();
        let mut pieces: Vec<Vec<u32>> = Vec::new();
        // Deterministic seed order.
        let mut seeds: Vec<u32> = remaining.iter().copied().collect();
        seeds.sort_unstable();
        for seed in seeds {
            if !remaining.remove(&seed) {
                continue;
            }
            let mut piece = vec![seed];
            let mut i = 0;
            while i < piece.len() {
                let v = piece[i];
                i += 1;
                for &eid in self.out[v as usize].iter().chain(&self.inc[v as usize]) {
                    let e = self.edges[eid as usize].as_ref().expect("live edge");
                    let w = if e.from == v { e.to } else { e.from };
                    if remaining.remove(&w) {
                        piece.push(w);
                    }
                }
            }
            piece.sort_unstable();
            pieces.push(piece);
        }
        pieces.sort_by_key(|p| p[0]);
        pieces
    }

    /// Re-partitions a split-pending component into connected pieces.
    /// The original component id is freed; every piece gets a fresh
    /// component. All pieces are returned clean.
    fn resolve_split(&mut self, comp: u32) -> Vec<Vec<u32>> {
        let c = self.comps[comp as usize].take().expect("live comp");
        self.free_comps.push(comp);
        let members: Vec<u32> = c.members.into_iter().collect();
        let pieces = self.connected_pieces(&members, &FastSet::default());
        for piece in &pieces {
            let id = self.alloc_comp();
            let comp = self.comps[id as usize].as_mut().expect("fresh comp");
            for &s in piece {
                comp.members.insert(s);
                self.comp_of[s as usize] = id;
            }
        }
        pieces
    }

    fn ensure_slot(&mut self, slot: u32) {
        let needed = slot as usize + 1;
        if self.out.len() < needed {
            self.out.resize_with(needed, Vec::new);
            self.inc.resize_with(needed, Vec::new);
            self.comp_of.resize(needed, NO_COMP);
        }
    }

    fn alloc_edge(&mut self, e: Edge) -> u32 {
        self.live_edges += 1;
        if let Some(id) = self.free_edges.pop() {
            self.edges[id as usize] = Some(e);
            return id;
        }
        let id = self.edges.len() as u32;
        self.edges.push(Some(e));
        id
    }

    fn alloc_comp(&mut self) -> u32 {
        if let Some(id) = self.free_comps.pop() {
            self.comps[id as usize] = Some(Component::default());
            return id;
        }
        let id = self.comps.len() as u32;
        self.comps.push(Some(Component::default()));
        id
    }

    /// Merges two components (small into large), returning the survivor.
    /// The survivor inherits dirtiness and split-pending state of both.
    fn merge_comps(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let (keep, drop) = {
            let la = self.comps[a as usize]
                .as_ref()
                .expect("live comp")
                .members
                .len();
            let lb = self.comps[b as usize]
                .as_ref()
                .expect("live comp")
                .members
                .len();
            if la >= lb {
                (a, b)
            } else {
                (b, a)
            }
        };
        let dropped = self.comps[drop as usize].take().expect("live comp");
        self.free_comps.push(drop);
        let was_dirty = self.dirty.remove(&drop);
        let kc = self.comps[keep as usize].as_mut().expect("live comp");
        kc.split_pending |= dropped.split_pending;
        for s in dropped.members {
            self.comp_of[s as usize] = keep;
            kc.members.insert(s);
        }
        if was_dirty {
            self.dirty.insert(keep);
        }
        keep
    }

    /// Structural invariant check, for tests and debugging: every edge
    /// id appears in exactly the endpoint lists it should; component
    /// membership and `comp_of` agree; every linked slot is in a live
    /// component; edges connect slots of the same component.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen_edges = 0usize;
        for (eid, e) in self.edges.iter().enumerate() {
            let Some(e) = e else { continue };
            seen_edges += 1;
            if !self.out[e.from as usize].contains(&(eid as u32)) {
                return Err(format!("edge {eid} missing from out[{}]", e.from));
            }
            if !self.inc[e.to as usize].contains(&(eid as u32)) {
                return Err(format!("edge {eid} missing from inc[{}]", e.to));
            }
            let (cf, ct) = (self.comp_of[e.from as usize], self.comp_of[e.to as usize]);
            if cf == NO_COMP || ct == NO_COMP {
                return Err(format!("edge {eid} touches an unlinked slot"));
            }
            if cf != ct {
                return Err(format!(
                    "edge {eid} crosses components {cf} and {ct} (slots {} -> {})",
                    e.from, e.to
                ));
            }
        }
        if seen_edges != self.live_edges {
            return Err(format!(
                "live_edges {} != slab count {seen_edges}",
                self.live_edges
            ));
        }
        for (slot, lists) in self.out.iter().zip(&self.inc).enumerate() {
            for &eid in lists.0.iter().chain(lists.1) {
                if self.edges.get(eid as usize).is_none_or(|e| e.is_none()) {
                    return Err(format!("slot {slot} references freed edge {eid}"));
                }
            }
        }
        let mut seen_comps = 0usize;
        for (id, comp) in self.comps.iter().enumerate() {
            let Some(comp) = comp else { continue };
            seen_comps += 1;
            if comp.members.is_empty() {
                return Err(format!("component {id} is live but empty"));
            }
            for &s in &comp.members {
                if self.comp_of[s as usize] != id as u32 {
                    return Err(format!(
                        "slot {s} in component {id} but comp_of says {}",
                        self.comp_of[s as usize]
                    ));
                }
            }
        }
        if seen_comps != self.component_count() {
            return Err(format!(
                "component_count {} != slab count {seen_comps}",
                self.component_count()
            ));
        }
        for (slot, &c) in self.comp_of.iter().enumerate() {
            if c == NO_COMP {
                if !self.out[slot].is_empty() || !self.inc[slot].is_empty() {
                    return Err(format!("unlinked slot {slot} still has edges"));
                }
                continue;
            }
            let Some(comp) = self.comps[c as usize].as_ref() else {
                return Err(format!("slot {slot} points at freed component {c}"));
            };
            if !comp.members.contains(&(slot as u32)) {
                return Err(format!("slot {slot} not in its component {c}"));
            }
        }
        Ok(())
    }

    /// Map from live slot to sorted component members, for tests.
    pub fn components_snapshot(&self) -> FastMap<u32, Vec<u32>> {
        let mut out = FastMap::default();
        for (slot, &c) in self.comp_of.iter().enumerate() {
            if c != NO_COMP {
                out.insert(slot as u32, self.component_members(slot as u32));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_unify::Unifier;

    fn edge(from: u32, to: u32) -> Edge {
        Edge {
            from,
            head_idx: 0,
            to,
            pc_idx: 0,
            mgu: Unifier::new(),
        }
    }

    #[test]
    fn link_merges_components_and_marks_dirty() {
        let mut g = ResidentGraph::new();
        g.link(0, vec![]);
        g.link(1, vec![]);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.dirty_count(), 2);
        assert_eq!(g.take_dirty(), vec![vec![0], vec![1]]);
        assert_eq!(g.dirty_count(), 0);

        g.link(2, vec![edge(2, 0), edge(1, 2)]);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.component_members(0), vec![0, 1, 2]);
        assert_eq!(g.take_dirty(), vec![vec![0, 1, 2]]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_splits_component_lazily() {
        let mut g = ResidentGraph::new();
        g.link(0, vec![]);
        g.link(1, vec![edge(0, 1)]);
        g.link(2, vec![edge(1, 2)]);
        let _ = g.take_dirty();
        // Removing the middle slot disconnects 0 and 2.
        g.unlink(1);
        g.check_invariants().unwrap();
        let groups = g.take_dirty();
        assert_eq!(groups, vec![vec![0], vec![2]]);
        assert_eq!(g.component_count(), 2);
        assert_ne!(g.comp_of[0], g.comp_of[2]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_last_member_frees_component() {
        let mut g = ResidentGraph::new();
        g.link(0, vec![]);
        g.unlink(0);
        assert_eq!(g.component_count(), 0);
        assert_eq!(g.dirty_count(), 0);
        assert!(g.take_dirty().is_empty());
        // Slot and component ids are reused.
        g.link(5, vec![]);
        assert_eq!(g.component_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_ids_are_reused() {
        let mut g = ResidentGraph::new();
        g.link(0, vec![]);
        g.link(1, vec![edge(0, 1), edge(1, 0)]);
        assert_eq!(g.edge_count(), 2);
        g.unlink(1);
        assert_eq!(g.edge_count(), 0);
        g.link(2, vec![edge(0, 2)]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.edges.len() <= 2, "edge slab grew: {}", g.edges.len());
        g.check_invariants().unwrap();
    }

    #[test]
    fn clean_components_are_not_returned() {
        let mut g = ResidentGraph::new();
        g.link(0, vec![]);
        g.link(1, vec![edge(0, 1)]);
        let _ = g.take_dirty();
        g.link(7, vec![]);
        // Only the new singleton is dirty.
        assert_eq!(g.take_dirty(), vec![vec![7]]);
        g.mark_all_dirty();
        assert_eq!(g.take_dirty(), vec![vec![0, 1], vec![7]]);
    }
}
