//! The unifiability graph of §4.1.1, its partition into weakly connected
//! components (§4.1.2) and the atom indexes its edges are found through
//! (§4.1.4): one structure, [`MatchGraph`].
//!
//! The §5.1 service retires every query it admits, so it keeps one graph
//! current instead of building one per flush: the engine links each
//! admitted query into its `MatchGraph` and unlinks each retired one.
//! [`MatchGraph::build`] is the same graph over a fixed query list,
//! linked in order. The graph holds
//!
//! * the **queries**, addressed by slot (slots are reused; a vacant slot
//!   holds an empty query);
//! * the **head and postcondition indexes**, through which an arrival's
//!   edges are found without a pairwise scan; they name atoms by
//!   [`AtomRef`] and read them from the query slots, so each atom is
//!   stored once;
//! * an **edge slab** with per-slot out- and in-lists (ids are reused;
//!   an edge names its two atoms and carries no substitution — matching
//!   unifies them again from the query slots);
//! * a **component registry**, merged eagerly on link (small into large)
//!   and split lazily on unlink: a retirement marks its component
//!   *split-pending*, and the next `take_dirty` resolves
//!   the split with a BFS over the surviving adjacency;
//! * a **dirty set** of components whose membership changed since they
//!   were last evaluated, so an evaluation costs what changed, not the
//!   pool.
//!
//! An edge has one definition, `MatchGraph::discover`: the arrival's
//! postconditions probe the head index, its heads probe the
//! postcondition index, and every candidate is confirmed by checking
//! that its MGU exists ([`eq_unify::unifiable`], which builds none). The
//! arrival is not indexed while it is probed, so a query's own
//! head never satisfies its own postcondition: coordination is *between*
//! queries. The paper's two-way workload (§5.3.1), where Jerry's
//! postcondition `R(x, ITH)` would otherwise unify with Jerry's own head
//! `R(Jerry, ITH)`, is only safe under this reading.
//!
//! Queries must already be renamed apart (no shared variables); the
//! engine does this at admission, and [`crate::coordinate()`] through
//! the engine.

use crate::error::InvariantViolation;
use crate::index::{AtomIndex, AtomRef};
use eq_ir::{Atom, EntangledQuery, FastSet, Polarity};
use eq_unify::unifiable;
use std::ops::ControlFlow;

/// One edge of the unifiability multigraph: the head atom `head_idx` of
/// query slot `from` unifies with the postcondition atom `pc_idx` of
/// query slot `to`. The edge names the two atoms and keeps no
/// substitution: discovery only confirmed that `mgu(h, p)` exists, and
/// matching unifies the pair straight from the query slots
/// ([`eq_unify::Unifier::unify_atoms`]) when it seeds `to`.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Source query slot (provider of the head atom).
    pub from: u32,
    /// Index of the head atom within the source query.
    pub head_idx: u32,
    /// Target query slot (owner of the postcondition).
    pub to: u32,
    /// Index of the postcondition atom within the target query.
    pub pc_idx: u32,
}

/// One of a graph's atom indexes read together with the atoms it names,
/// which live in the graph's query slots: what
/// [`MatchGraph::head_index`] and [`MatchGraph::pc_index`] lend out.
#[derive(Clone, Copy)]
pub struct IndexedAtoms<'a> {
    index: &'a AtomIndex,
    queries: &'a [EntangledQuery],
    side: Polarity,
}

impl<'a> IndexedAtoms<'a> {
    /// Number of atoms indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The atom `r` names: a head or a postcondition of its query slot.
    pub fn atom(&self, r: AtomRef) -> &'a Atom {
        let query = &self.queries[r.query as usize];
        match self.side {
            Polarity::Head => &query.head[r.atom as usize],
            Polarity::Postcondition => &query.postconditions[r.atom as usize],
        }
    }

    /// [`AtomIndex::for_each_candidate`] over the graph's atoms.
    pub fn for_each_candidate(&self, probe: &Atom, f: impl FnMut(AtomRef, &'a Atom)) {
        self.index.for_each_candidate(probe, |r| self.atom(r), f);
    }

    fn try_for_each_candidate(
        &self,
        probe: &Atom,
        f: impl FnMut(AtomRef, &'a Atom) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.index
            .try_for_each_candidate(probe, |r| self.atom(r), f)
    }

    /// Position and relation lists the index holds.
    #[cfg(test)]
    pub(crate) fn list_count(&self) -> usize {
        self.index.list_count()
    }
}

/// Stand-in for the arrival's own slot on an [`Edge`] that
/// [`MatchGraph::discover`] found: the arrival has no slot until
/// [`MatchGraph::link`] gives it one.
pub(crate) const ARRIVAL: u32 = u32::MAX;

/// `comp_of` entry of a vacant slot.
const NO_COMP: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Member slots copied into component groups by
    /// [`MatchGraph::components`] on this thread: the step count the
    /// safety-scan regression test reads.
    pub(crate) static GROUP_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One weakly connected component of the graph.
#[derive(Default)]
struct Component {
    members: FastSet<u32>,
    /// True if a member was unlinked since the last split resolution;
    /// the component may have fallen apart and needs a BFS before use.
    split_pending: bool,
}

/// The slot-addressed unifiability multigraph, its component registry
/// and its atom indexes (see the module docs).
#[derive(Default)]
pub struct MatchGraph {
    /// Queries by slot; a vacant slot holds an empty query.
    queries: Vec<EntangledQuery>,
    /// Vacant slots, reused last-freed first.
    free_slots: Vec<u32>,
    head_index: AtomIndex,
    pc_index: AtomIndex,
    /// Edge slab; `None` entries are free (ids reused via `free_edges`).
    edges: Vec<Option<Edge>>,
    free_edges: Vec<u32>,
    live_edges: usize,
    /// Per-slot outgoing edge ids (this slot's heads feeding others).
    out: Vec<Vec<u32>>,
    /// Per-slot incoming edge ids (others' heads feeding this slot).
    inc: Vec<Vec<u32>>,
    /// Per-slot component id (`NO_COMP` for a vacant slot).
    comp_of: Vec<u32>,
    /// Component slab (ids reused via `free_comps`).
    comps: Vec<Option<Component>>,
    free_comps: Vec<u32>,
    /// Components whose membership changed since last evaluation.
    dirty: FastSet<u32>,
}

impl MatchGraph {
    /// Builds the graph over `queries`: query `i` is linked into slot
    /// `i` with the edges `MatchGraph::probe` finds to queries `0..i`
    /// — exactly what the engine's admission step links, so an engine
    /// batch admitted into an empty engine is this graph, edge id for
    /// edge id.
    pub fn build(queries: Vec<EntangledQuery>) -> Self {
        let mut graph = MatchGraph::default();
        for query in queries {
            let edges = graph
                .probe(&query, false)
                .expect("no verdict without the check");
            graph.link(query, edges);
        }
        graph
    }

    /// The admission probe: the arrival's edges in the order
    /// [`MatchGraph::link`] files them — edges from its heads first,
    /// then edges into its postconditions, each in discover order.
    ///
    /// With `check` set it applies the §3.1.1 / Figure-9 rule edge by
    /// edge and returns `Err` the moment linking the arrival would give
    /// a postcondition — its own or a linked query's — a second unifying
    /// head, with the edges found up to that verdict; the rest of the
    /// posting lists is never visited. Postconditions go first, so
    /// Figure 9's hub arrival (a wildcard postcondition over thousands of
    /// heads) is refused at its second head.
    pub(crate) fn probe(
        &self,
        arrival: &EntangledQuery,
        check: bool,
    ) -> Result<Vec<Edge>, Vec<Edge>> {
        let (mut edges, mut incoming) = (Vec::new(), Vec::new());
        // Heads found so far per postcondition of the arrival.
        let mut own_hits = vec![0u32; if check { arrival.pc_count() } else { 0 }];
        let walk = self.discover(arrival, |e| {
            let second = check
                && if e.to == ARRIVAL {
                    own_hits[e.pc_idx as usize] += 1;
                    own_hits[e.pc_idx as usize] >= 2
                } else {
                    // A linked query's postcondition already has a
                    // satisfier if one of its in-edges lands on it.
                    let in_edges = self.in_edges(e.to).iter();
                    in_edges
                        .map(|&eid| self.edge(eid))
                        .any(|i| i.pc_idx == e.pc_idx)
                };
            if e.to == ARRIVAL {
                incoming.push(e);
            } else {
                edges.push(e);
            }
            if second {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        edges.append(&mut incoming);
        if walk.is_break() {
            Err(edges)
        } else {
            Ok(edges)
        }
    }

    /// Edge discovery: hands `visit` every edge between `arrival` (not
    /// linked) and the linked queries, with [`ARRIVAL`] standing for the
    /// arrival's slot — first linked heads → the arrival's
    /// postconditions, postcondition by postcondition, then the
    /// arrival's heads → linked postconditions. Each index candidate is
    /// confirmed by [`unifiable`] (no unifier is built), and within one
    /// atom the candidates come in the index's insertion order. Stops at
    /// the first `Break`, which it returns.
    pub(crate) fn discover(
        &self,
        arrival: &EntangledQuery,
        mut visit: impl FnMut(Edge) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for (ai, pc) in arrival.postconditions.iter().enumerate() {
            self.head_index().try_for_each_candidate(pc, |cand, head| {
                if !unifiable(head, pc) {
                    return ControlFlow::Continue(());
                }
                visit(Edge {
                    from: cand.query,
                    head_idx: cand.atom,
                    to: ARRIVAL,
                    pc_idx: ai as u32,
                })
            })?;
        }
        for (ai, head) in arrival.head.iter().enumerate() {
            self.pc_index().try_for_each_candidate(head, |cand, pc| {
                if !unifiable(head, pc) {
                    return ControlFlow::Continue(());
                }
                visit(Edge {
                    from: ARRIVAL,
                    head_idx: ai as u32,
                    to: cand.query,
                    pc_idx: cand.atom,
                })
            })?;
        }
        ControlFlow::Continue(())
    }

    /// Makes room for `n` more linked queries at once: the per-slot
    /// vectors grow by what the free slots cannot hold, instead of
    /// doubling through a batch. Returns that number of new slots.
    pub(crate) fn reserve_slots(&mut self, n: usize) -> usize {
        let fresh = n.saturating_sub(self.free_slots.len());
        self.queries.reserve(fresh);
        self.out.reserve(fresh);
        self.inc.reserve(fresh);
        self.comp_of.reserve(fresh);
        fresh
    }

    /// Links `query` into a slot (the last one freed, else a new one)
    /// with the edges [`MatchGraph::probe`] found, [`ARRIVAL`] standing
    /// for that slot on each. Indexes the query's atoms, files the edges
    /// in the order given, merges every partner's component into its own
    /// and marks the result dirty. Returns the slot.
    pub(crate) fn link(&mut self, query: EntangledQuery, edges: Vec<Edge>) -> u32 {
        let slot = match self.free_slots.pop() {
            Some(slot) => slot,
            None => {
                self.queries.push(empty_query());
                self.out.push(Vec::new());
                self.inc.push(Vec::new());
                self.comp_of.push(NO_COMP);
                (self.queries.len() - 1) as u32
            }
        };
        for (ai, atom) in query.head.iter().enumerate() {
            self.head_index.insert(atom_ref(slot, ai), atom);
        }
        for (ai, atom) in query.postconditions.iter().enumerate() {
            self.pc_index.insert(atom_ref(slot, ai), atom);
        }
        self.queries[slot as usize] = query;

        let mut home = self.alloc_comp();
        let comp = self.comps[home as usize].as_mut().expect("fresh comp");
        comp.members.insert(slot);
        self.comp_of[slot as usize] = home;
        for mut e in edges {
            let partner = if e.from == ARRIVAL {
                e.from = slot;
                e.to
            } else {
                debug_assert_eq!(e.to, ARRIVAL, "edge without the arrival");
                e.to = slot;
                e.from
            };
            let (from, to) = (e.from, e.to);
            let eid = self.alloc_edge(e);
            self.out[from as usize].push(eid);
            self.inc[to as usize].push(eid);
            let theirs = self.comp_of[partner as usize];
            debug_assert_ne!(theirs, NO_COMP, "edge to a vacant slot");
            home = self.merge_comps(home, theirs);
        }
        self.dirty.insert(home);
        slot
    }

    /// Unlinks the query in `slot`, which must be linked: drops its
    /// atoms from the indexes and every incident edge, frees the slot
    /// and returns the query. The surviving component is marked dirty
    /// and split-pending (edge removal may disconnect it); an emptied
    /// one is freed.
    pub(crate) fn unlink(&mut self, slot: u32) -> EntangledQuery {
        let query = std::mem::replace(&mut self.queries[slot as usize], empty_query());
        for (ai, atom) in query.head.iter().enumerate() {
            self.head_index.remove(atom_ref(slot, ai), atom);
        }
        for (ai, atom) in query.postconditions.iter().enumerate() {
            self.pc_index.remove(atom_ref(slot, ai), atom);
        }
        for eid in std::mem::take(&mut self.out[slot as usize]) {
            let e = self.free_edge(eid);
            self.inc[e.to as usize].retain(|&x| x != eid);
        }
        for eid in std::mem::take(&mut self.inc[slot as usize]) {
            let e = self.free_edge(eid);
            self.out[e.from as usize].retain(|&x| x != eid);
        }

        let comp = std::mem::replace(&mut self.comp_of[slot as usize], NO_COMP);
        let c = self.comps[comp as usize].as_mut().expect("linked slot");
        c.members.remove(&slot);
        if c.members.is_empty() {
            self.comps[comp as usize] = None;
            self.free_comps.push(comp);
            self.dirty.remove(&comp);
        } else {
            c.split_pending = true;
            self.dirty.insert(comp);
        }
        self.free_slots.push(slot);
        query
    }

    /// The queries, by slot (a vacant slot holds an empty query).
    pub fn queries(&self) -> &[EntangledQuery] {
        &self.queries
    }

    /// The query in `slot`.
    pub fn query(&self, slot: u32) -> &EntangledQuery {
        &self.queries[slot as usize]
    }

    /// Number of slots, vacant ones included: the exclusive upper bound
    /// on slot ids.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True if the graph has no slots.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// True if `slot` holds a linked query.
    pub(crate) fn is_linked(&self, slot: u32) -> bool {
        self.comp_of
            .get(slot as usize)
            .is_some_and(|&c| c != NO_COMP)
    }

    /// The edge with id `eid`; panics if the id is free.
    pub fn edge(&self, eid: u32) -> &Edge {
        self.edges[eid as usize].as_ref().expect("live edge")
    }

    /// Number of live edges. A graph nothing was unlinked from numbers
    /// its edges `0..edge_count()`.
    pub fn edge_count(&self) -> usize {
        self.live_edges
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

    /// The head index, read with the head atoms it names.
    pub fn head_index(&self) -> IndexedAtoms<'_> {
        IndexedAtoms {
            index: &self.head_index,
            queries: &self.queries,
            side: Polarity::Head,
        }
    }

    /// The postcondition index, read with the postconditions it names.
    pub fn pc_index(&self) -> IndexedAtoms<'_> {
        IndexedAtoms {
            index: &self.pc_index,
            queries: &self.queries,
            side: Polarity::Postcondition,
        }
    }

    /// The components (§4.1.2) of the registry, one walk: every linked
    /// slot once, members ascending, components ordered by smallest
    /// member. While a split is pending (a member was unlinked and no
    /// evaluation has taken the dirty set since) one entry may hold
    /// several pieces, which every per-component analysis treats alike;
    /// [`MatchGraph::components_live`] always separates them.
    pub fn components(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = self
            .comps
            .iter()
            .flatten()
            .map(|c| {
                let mut members: Vec<u32> = c.members.iter().copied().collect();
                members.sort_unstable();
                #[cfg(test)]
                GROUP_STEPS.with(|steps| steps.set(steps.get() + members.len() as u64));
                members
            })
            .collect();
        groups.sort_unstable_by_key(|g| g[0]);
        groups
    }

    /// The connected pieces of the linked slots where `alive` is true:
    /// edges incident to the others do not connect (so groups bridged
    /// only by a removed query are processed independently).
    pub fn components_live(&self, alive: &[bool]) -> Vec<Vec<u32>> {
        let members: Vec<u32> = (0..self.len() as u32)
            .filter(|&s| alive[s as usize] && self.is_linked(s))
            .collect();
        self.connected_pieces(&members)
    }

    /// Partitions `members` into connected pieces; edges to slots
    /// outside `members` do not connect. Pieces are sorted internally
    /// and ordered by smallest member. The one BFS behind split
    /// resolution, the engine's post-safety re-partitioning and
    /// [`MatchGraph::components_live`].
    pub(crate) fn connected_pieces(&self, members: &[u32]) -> Vec<Vec<u32>> {
        let mut remaining: FastSet<u32> = members.iter().copied().collect();
        let mut seeds = members.to_vec();
        seeds.sort_unstable();
        let mut pieces: Vec<Vec<u32>> = Vec::new();
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
                    let e = self.edge(eid);
                    let w = if e.from == v { e.to } else { e.from };
                    if remaining.remove(&w) {
                        piece.push(w);
                    }
                }
            }
            piece.sort_unstable();
            pieces.push(piece);
        }
        pieces
    }

    /// Number of live components. O(1): every freed slab entry sits on
    /// `free_comps` exactly once (`check_invariants` recounts the slab).
    pub(crate) fn component_count(&self) -> usize {
        self.comps.len() - self.free_comps.len()
    }

    /// Number of currently dirty components.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Marks every live component dirty (used when the database changed:
    /// kept-pending components may now be answerable).
    pub(crate) fn mark_all_dirty(&mut self) {
        for (id, c) in self.comps.iter().enumerate() {
            if c.is_some() {
                self.dirty.insert(id as u32);
            }
        }
    }

    /// Takes the dirty components, resolving pending splits: every dirty
    /// component with unlinked members is re-partitioned with a BFS over
    /// the surviving adjacency, and each resulting piece becomes its own
    /// component. Returns the member lists (sorted within a group;
    /// groups ordered by smallest member), all marked clean — the caller
    /// is about to evaluate them.
    pub(crate) fn take_dirty(&mut self) -> Vec<Vec<u32>> {
        let mut dirty: Vec<u32> = self.dirty.drain().collect();
        dirty.sort_unstable();
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

    /// Re-partitions a split-pending component into connected pieces.
    /// The original component id is freed; every piece gets a fresh
    /// component. All pieces are returned clean.
    fn resolve_split(&mut self, comp: u32) -> Vec<Vec<u32>> {
        let c = self.comps[comp as usize].take().expect("live comp");
        self.free_comps.push(comp);
        let members: Vec<u32> = c.members.into_iter().collect();
        let pieces = self.connected_pieces(&members);
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

    fn alloc_edge(&mut self, e: Edge) -> u32 {
        self.live_edges += 1;
        if let Some(id) = self.free_edges.pop() {
            self.edges[id as usize] = Some(e);
            return id;
        }
        self.edges.push(Some(e));
        (self.edges.len() - 1) as u32
    }

    fn free_edge(&mut self, eid: u32) -> Edge {
        self.live_edges -= 1;
        self.free_edges.push(eid);
        self.edges[eid as usize].take().expect("live edge")
    }

    fn alloc_comp(&mut self) -> u32 {
        if let Some(id) = self.free_comps.pop() {
            self.comps[id as usize] = Some(Component::default());
            return id;
        }
        self.comps.push(Some(Component::default()));
        (self.comps.len() - 1) as u32
    }

    /// Merges two components (small into large), returning the survivor.
    /// The survivor inherits dirtiness and split-pending state of both.
    fn merge_comps(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let size = |id: u32| {
            self.comps[id as usize]
                .as_ref()
                .expect("live comp")
                .members
                .len()
        };
        let (keep, drop) = if size(a) >= size(b) { (a, b) } else { (b, a) };
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
    /// id appears in exactly the endpoint lists it should and connects
    /// two slots of one component; component membership and `comp_of`
    /// agree; the indexes hold exactly the linked queries' atoms (no
    /// dangling [`AtomRef`] after slot reuse); vacant slots have no
    /// edges and sit on the free list.
    pub(crate) fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let broken = |msg: String| Err(InvariantViolation::Resident(msg));
        let mut seen_edges = 0usize;
        for (eid, e) in self.edges.iter().enumerate() {
            let Some(e) = e else { continue };
            seen_edges += 1;
            if !self.out[e.from as usize].contains(&(eid as u32)) {
                return broken(format!("edge {eid} missing from out[{}]", e.from));
            }
            if !self.inc[e.to as usize].contains(&(eid as u32)) {
                return broken(format!("edge {eid} missing from inc[{}]", e.to));
            }
            let (cf, ct) = (self.comp_of[e.from as usize], self.comp_of[e.to as usize]);
            if cf == NO_COMP || ct == NO_COMP {
                return broken(format!("edge {eid} touches a vacant slot"));
            }
            if cf != ct {
                return broken(format!(
                    "edge {eid} crosses components {cf} and {ct} (slots {} -> {})",
                    e.from, e.to
                ));
            }
        }
        if seen_edges != self.live_edges {
            return broken(format!(
                "live_edges {} != slab count {seen_edges}",
                self.live_edges
            ));
        }
        for (slot, lists) in self.out.iter().zip(&self.inc).enumerate() {
            for &eid in lists.0.iter().chain(lists.1) {
                if self.edges.get(eid as usize).is_none_or(|e| e.is_none()) {
                    return broken(format!("slot {slot} references freed edge {eid}"));
                }
            }
        }
        let mut seen_comps = 0usize;
        for (id, comp) in self.comps.iter().enumerate() {
            let Some(comp) = comp else { continue };
            seen_comps += 1;
            if comp.members.is_empty() {
                return broken(format!("component {id} is live but empty"));
            }
            for &s in &comp.members {
                if self.comp_of[s as usize] != id as u32 {
                    return broken(format!(
                        "slot {s} in component {id} but comp_of says {}",
                        self.comp_of[s as usize]
                    ));
                }
            }
        }
        if seen_comps != self.component_count() {
            return broken(format!(
                "component_count {} != slab count {seen_comps}",
                self.component_count()
            ));
        }
        let (mut live_heads, mut live_pcs, mut vacant) = (0usize, 0usize, 0usize);
        for (slot, &c) in self.comp_of.iter().enumerate() {
            let slot = slot as u32;
            if c == NO_COMP {
                vacant += 1;
                if !self.out_edges(slot).is_empty() || !self.in_edges(slot).is_empty() {
                    return broken(format!("vacant slot {slot} still has edges"));
                }
                continue;
            }
            let Some(comp) = self.comps[c as usize].as_ref() else {
                return broken(format!("slot {slot} points at freed component {c}"));
            };
            if !comp.members.contains(&slot) {
                return broken(format!("slot {slot} not in its component {c}"));
            }
            let q = self.query(slot);
            live_heads += q.head.len();
            live_pcs += q.postconditions.len();
            for ai in 0..q.head.len() {
                if !self.head_index.contains(atom_ref(slot, ai)) {
                    let atom = ai as u32;
                    return Err(InvariantViolation::MissingHeadAtom { slot, atom });
                }
            }
            for ai in 0..q.postconditions.len() {
                if !self.pc_index.contains(atom_ref(slot, ai)) {
                    let atom = ai as u32;
                    return Err(InvariantViolation::MissingPcAtom { slot, atom });
                }
            }
        }
        if vacant != self.free_slots.len() {
            return broken(format!(
                "{vacant} vacant slots, {} on the free list",
                self.free_slots.len()
            ));
        }
        for (index, indexed, live) in [
            ("head", self.head_index.len(), live_heads),
            ("postcondition", self.pc_index.len(), live_pcs),
        ] {
            if indexed != live {
                return Err(InvariantViolation::IndexSizeMismatch {
                    index,
                    indexed,
                    live,
                });
            }
        }
        Ok(())
    }
}

fn atom_ref(slot: u32, atom: usize) -> AtomRef {
    AtomRef {
        query: slot,
        atom: atom as u32,
    }
}

fn empty_query() -> EntangledQuery {
    EntangledQuery::new(Vec::new(), Vec::new(), Vec::new())
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

    /// A query with no postcondition and one head `R(a)` that no other
    /// postcondition names: its edges are whatever a test hands `link`.
    fn lone() -> EntangledQuery {
        parse_ir_query("{} R(a) <- F(a)").unwrap()
    }

    /// A synthetic edge; [`ARRIVAL`] names the slot being linked.
    fn edge(from: u32, to: u32) -> Edge {
        Edge {
            from,
            head_idx: 0,
            to,
            pc_idx: 0,
        }
    }

    #[test]
    fn kramer_jerry_two_cycle() {
        let g = build(&[
            "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
            "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)",
        ]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.in_edges(0).len(), 1);
        assert_eq!(g.in_edges(1).len(), 1);
        let e0 = g.edge(g.in_edges(0)[0]);
        assert_eq!(e0.from, 1); // Jerry's head satisfies Kramer's pc
        assert_eq!(g.components(), vec![vec![0, 1]]);
        g.check_invariants().unwrap();
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
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_edges(0).len(), 2);
        assert_eq!(g.in_edges(0).len(), 2);
        assert_eq!(g.in_edges(1).len(), 1);
        assert_eq!(g.in_edges(2).len(), 1);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn self_edges_excluded() {
        // Jerry's own head R(Jerry, ITH) unifies his own pc R(x, ITH),
        // but self-coordination is excluded.
        let g = build(&["{R(x, ITH)} R(Jerry, ITH) <- F(Jerry, x)"]);
        assert_eq!(g.edge_count(), 0);
        assert!(g.in_edges(0).is_empty());
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
        assert_eq!(g.components_live(&[true; 4]), g.components());
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
        assert_eq!(g.in_edges(2).len(), 2);
        // Jerry's head feeds both other queries' postconditions.
        assert_eq!(g.out_edges(2).len(), 2);
        // Without Jerry, Kramer and Elaine fall apart.
        assert_eq!(
            g.components_live(&[true, true, false]),
            vec![vec![0], vec![1]]
        );
    }

    #[test]
    fn constant_mismatch_blocks_edge() {
        let g = build(&[
            "{R(Jerry, ITH)} R(Kramer, ITH) <- F(Kramer, Jerry)",
            "{R(Kramer, JFK)} R(Jerry, JFK) <- F(Jerry, Kramer)",
        ]);
        // Destinations differ: no unification, two singleton components.
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.components().len(), 2);
    }

    #[test]
    fn queries_without_postconditions_have_zero_indegree() {
        let g = build(&["{} R(Kramer, ITH) <- F(Kramer, Jerry)"]);
        assert!(g.in_edges(0).is_empty());
        assert_eq!(g.components(), vec![vec![0]]);
    }

    #[test]
    fn link_merges_components_and_marks_dirty() {
        let mut g = MatchGraph::default();
        assert_eq!(g.link(lone(), vec![]), 0);
        assert_eq!(g.link(lone(), vec![]), 1);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.dirty_count(), 2);
        assert_eq!(g.take_dirty(), vec![vec![0], vec![1]]);
        assert_eq!(g.dirty_count(), 0);

        let slot = g.link(lone(), vec![edge(ARRIVAL, 0), edge(1, ARRIVAL)]);
        assert_eq!(slot, 2);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.components(), vec![vec![0, 1, 2]]);
        assert_eq!(g.take_dirty(), vec![vec![0, 1, 2]]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_splits_component_lazily() {
        let mut g = MatchGraph::default();
        g.link(lone(), vec![]);
        g.link(lone(), vec![edge(0, ARRIVAL)]);
        g.link(lone(), vec![edge(1, ARRIVAL)]);
        let _ = g.take_dirty();
        // Removing the middle slot disconnects 0 and 2; until the split
        // resolves, the registry still holds them as one component.
        g.unlink(1);
        g.check_invariants().unwrap();
        assert_eq!(g.components(), vec![vec![0, 2]]);
        assert_eq!(g.take_dirty(), vec![vec![0], vec![2]]);
        assert_eq!(g.component_count(), 2);
        assert_ne!(g.comp_of[0], g.comp_of[2]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_last_member_frees_component() {
        let mut g = MatchGraph::default();
        g.link(lone(), vec![]);
        let query = g.unlink(0);
        assert_eq!(query.head.len(), 1);
        assert!(
            g.query(0).head.is_empty(),
            "a vacant slot holds an empty query"
        );
        assert_eq!(g.component_count(), 0);
        assert_eq!(g.dirty_count(), 0);
        assert!(g.take_dirty().is_empty());
        assert!(g.head_index().is_empty());
        g.check_invariants().unwrap();
        // Slot and component ids are reused.
        assert_eq!(g.link(lone(), vec![]), 0);
        assert_eq!(g.component_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_ids_are_reused() {
        let mut g = MatchGraph::default();
        g.link(lone(), vec![]);
        g.link(lone(), vec![edge(ARRIVAL, 0), edge(0, ARRIVAL)]);
        assert_eq!(g.edge_count(), 2);
        g.unlink(1);
        assert_eq!(g.edge_count(), 0);
        g.link(lone(), vec![edge(0, ARRIVAL)]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.edges.len() <= 2, "edge slab grew: {}", g.edges.len());
        g.check_invariants().unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The engine skips re-partitioning a group that safety left
        /// whole because every group `take_dirty` returns — split
        /// resolutions included — is a sorted connected component: the
        /// BFS would hand it back as its one piece.
        #[test]
        fn take_dirty_groups_are_their_own_connected_pieces(
            steps in proptest::collection::vec((0u8..4, 0usize..64, 0usize..64), 1..60),
        ) {
            let mut g = MatchGraph::default();
            let mut live: Vec<u32> = Vec::new();
            let check = |g: &mut MatchGraph| {
                for group in g.take_dirty() {
                    if g.connected_pieces(&group) != vec![group.clone()] {
                        return Err(group);
                    }
                }
                Ok(())
            };
            for (op, a, b) in steps {
                if op == 0 && !live.is_empty() {
                    g.unlink(live.swap_remove(a % live.len()));
                } else {
                    // Up to one edge in from a live slot and one out to
                    // another.
                    let mut edges = Vec::new();
                    if !live.is_empty() && op != 1 {
                        edges.push(edge(live[a % live.len()], ARRIVAL));
                    }
                    if !live.is_empty() && op == 3 {
                        edges.push(edge(ARRIVAL, live[b % live.len()]));
                    }
                    live.push(g.link(lone(), edges));
                }
                if b % 4 == 0 {
                    let checked = check(&mut g);
                    proptest::prop_assert!(checked.is_ok(), "{:?}", checked);
                }
            }
            let checked = check(&mut g);
            proptest::prop_assert!(checked.is_ok(), "{:?}", checked);
        }
    }

    #[test]
    fn clean_components_are_not_returned() {
        let mut g = MatchGraph::default();
        g.link(lone(), vec![]);
        g.link(lone(), vec![edge(0, ARRIVAL)]);
        let _ = g.take_dirty();
        g.link(lone(), vec![]);
        // Only the new singleton is dirty.
        assert_eq!(g.take_dirty(), vec![vec![2]]);
        g.mark_all_dirty();
        assert_eq!(g.take_dirty(), vec![vec![0, 1], vec![2]]);
    }
}
