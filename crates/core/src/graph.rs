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
//!   stored once, and each slot keeps the ids of its atoms' index cells;
//! * an **edge slab** (ids are reused; an edge names its two atoms and
//!   carries no substitution — matching unifies them again from the
//!   query slots). Every edge is threaded into two rings through the
//!   slab, its `from` slot's out-edges and its `to` slot's in-edges,
//!   each in link order, so a slot keeps two edge ids, not two vectors;
//! * a **component registry**, merged eagerly on link (small into large:
//!   the smaller component's members are relabelled and its member ring
//!   is spliced into the larger one's) and split lazily on unlink: a
//!   retirement marks its component *split-pending*, and the next
//!   `take_dirty` resolves the split with a BFS over the surviving
//!   adjacency;
//! * a **dirty flag** per component whose membership changed since it
//!   was last evaluated, with a queue of flagged components threaded
//!   through the registry, so an evaluation costs what changed, not the
//!   pool.
//!
//! Every per-slot structure is intrusive: member rings through the slot
//! table, edge rings through the edge slab, free slots, edges and
//! components on stacks threaded through their own vacant entries. So
//! `MatchGraph::link` hashes only the index keys its atoms sit under,
//! and `MatchGraph::unlink` follows the slot's own links: it hashes
//! nothing (except to drop an index list it empties), scans nothing and
//! allocates nothing.
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
use crate::index::{AtomIndex, AtomRef, NO_CELL};
use eq_ir::{Atom, EntangledQuery, Polarity};
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

    /// Position and relation lists the index holds: 0 once every atom
    /// has left.
    pub fn list_count(&self) -> usize {
        self.index.list_count()
    }
}

/// Stand-in for the arrival's own slot on an [`Edge`] that
/// [`MatchGraph::discover`] found: the arrival has no slot until
/// [`MatchGraph::link`] gives it one.
pub(crate) const ARRIVAL: u32 = u32::MAX;

/// "None" for a slot, edge or component id: the end of a chain, or the
/// `comp` of a vacant slot.
const NIL: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Member slots copied into component groups by
    /// [`MatchGraph::components`] on this thread: the step count the
    /// safety-scan regression test reads.
    pub(crate) static GROUP_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// What the graph keeps per slot beside its query: the slot's links into
/// its component's member ring, the first of its out- and in-edges
/// (each a ring through the edge slab, in link order), and the first
/// cell of its heads' and postconditions' chains in the two indexes.
#[derive(Clone, Copy)]
struct Slot {
    /// Its component; [`NIL`] while the slot is vacant.
    comp: u32,
    /// Ring of the component's members. A vacant slot's `next_member`
    /// is the next vacant slot.
    prev_member: u32,
    next_member: u32,
    /// The first of its out-edges ([`OUT`]) and in-edges ([`IN`]).
    first_edge: [u32; 2],
    heads: u32,
    pcs: u32,
}

impl Slot {
    const VACANT: Slot = Slot {
        comp: NIL,
        prev_member: NIL,
        next_member: NIL,
        first_edge: [NIL; 2],
        heads: NO_CELL,
        pcs: NO_CELL,
    };
}

/// The two rings an edge is threaded into: its `from` slot's out-edges
/// and its `to` slot's in-edges.
const OUT: usize = 0;
const IN: usize = 1;
const PREV: usize = 0;
const NEXT: usize = 1;

/// An edge in the slab, threaded into the out-ring of its `from` slot
/// and the in-ring of its `to` slot. A free entry's `edge.from` is
/// [`NIL`] and its `rings[OUT][NEXT]` is the next free entry.
#[derive(Clone, Copy)]
struct EdgeNode {
    edge: Edge,
    /// Per ring ([`OUT`], [`IN`]), the previous and next edge in it.
    rings: [[u32; 2]; 2],
}

impl EdgeNode {
    /// The slot whose `side` ring holds the edge.
    fn owner(&self, side: usize) -> u32 {
        if side == OUT {
            self.edge.from
        } else {
            self.edge.to
        }
    }
}

/// One weakly connected component of the graph. A free entry has no
/// members, and its `first` is the next free entry.
#[derive(Clone, Copy)]
struct Component {
    /// A member: the entry into the ring of members.
    first: u32,
    len: u32,
    /// Next entry of the dirty queue, while `queued`.
    next_dirty: u32,
    /// True if a member was unlinked since the last split resolution;
    /// the component may have fallen apart and needs a BFS before use.
    split_pending: bool,
    /// Its membership changed since it was last evaluated.
    dirty: bool,
    /// On the dirty queue. A component can stay queued after it is
    /// freed, or clean again; [`MatchGraph::take_dirty`] skips it then.
    queued: bool,
}

/// The edge ids of one of a slot's rings, in link order:
/// [`MatchGraph::out_edges`] and [`MatchGraph::in_edges`].
#[derive(Clone)]
pub struct EdgeIds<'a> {
    edges: &'a [EdgeNode],
    side: usize,
    first: u32,
    next: u32,
}

impl Iterator for EdgeIds<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let eid = self.next;
        if eid == NIL {
            return None;
        }
        let after = self.edges[eid as usize].rings[self.side][NEXT];
        self.next = if after == self.first { NIL } else { after };
        Some(eid)
    }
}

/// The slot-addressed unifiability multigraph, its component registry
/// and its atom indexes (see the module docs).
#[derive(Default)]
pub struct MatchGraph {
    /// Queries by slot; a vacant slot holds an empty query.
    queries: Vec<EntangledQuery>,
    /// Per-slot links, beside `queries`.
    slots: Vec<Slot>,
    /// Top of the vacant-slot stack (reused last-freed first), threaded
    /// through the vacant slots' `next_member`.
    free_slot: Option<u32>,
    vacant: usize,
    head_index: AtomIndex,
    pc_index: AtomIndex,
    /// Edge slab; ids are reused last-freed first.
    edges: Vec<EdgeNode>,
    free_edge: Option<u32>,
    live_edges: usize,
    /// Component slab; ids are reused last-freed first.
    comps: Vec<Component>,
    free_comp: Option<u32>,
    live_comps: usize,
    /// Head of the queue of components marked dirty since the last
    /// [`MatchGraph::take_dirty`], threaded through `next_dirty`.
    dirty_queue: Option<u32>,
    /// Components whose membership changed since last evaluation.
    dirty: usize,
    /// Scratch marks for [`MatchGraph::connected_pieces`], one per slot,
    /// all false between calls.
    inside: Vec<bool>,
}

impl MatchGraph {
    /// Builds the graph over `queries`: query `i` is linked into slot
    /// `i` with the edges `MatchGraph::probe` finds to queries `0..i`
    /// — exactly what the engine's admission step links, so an engine
    /// batch admitted into an empty engine is this graph, edge id for
    /// edge id.
    pub fn build(queries: Vec<EntangledQuery>) -> Self {
        let mut graph = MatchGraph::default();
        let mut edges = Vec::new();
        for query in queries {
            let walk = graph.probe(&query, false, &mut edges);
            debug_assert!(walk.is_continue(), "no verdict without the check");
            graph.link(query, &edges);
        }
        graph
    }

    /// The admission probe: fills `edges` (cleared first) with the
    /// arrival's edges in the order [`MatchGraph::link`] files them —
    /// edges from its heads first, then edges into its postconditions,
    /// each in discover order.
    ///
    /// With `check` set it applies the §3.1.1 / Figure-9 rule edge by
    /// edge and returns `Break` the moment linking the arrival would
    /// give a postcondition — its own or a linked query's — a second
    /// unifying head, with the edges found up to that verdict; the rest
    /// of the posting lists is never visited. Postconditions go first,
    /// so Figure 9's hub arrival (a wildcard postcondition over
    /// thousands of heads) is refused at its second head.
    pub(crate) fn probe(
        &self,
        arrival: &EntangledQuery,
        check: bool,
        edges: &mut Vec<Edge>,
    ) -> ControlFlow<()> {
        edges.clear();
        // Discovery finds the edges into the arrival first, one
        // postcondition after another: the heads found so far for the
        // postcondition being probed.
        let mut own = (0, 0u32);
        let walk = self.discover(arrival, |e| {
            let second = check
                && if e.to == ARRIVAL {
                    own = if own.0 == e.pc_idx {
                        (own.0, own.1 + 1)
                    } else {
                        (e.pc_idx, 1)
                    };
                    own.1 >= 2
                } else {
                    // A linked query's postcondition already has a
                    // satisfier if one of its in-edges lands on it.
                    self.in_edges(e.to)
                        .any(|eid| self.edge(eid).pc_idx == e.pc_idx)
                };
            edges.push(e);
            if second {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        // Edges from the arrival's heads go first.
        let incoming = edges.iter().take_while(|e| e.to == ARRIVAL).count();
        edges.rotate_left(incoming);
        walk
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
    /// vectors grow by what the vacant slots cannot hold, instead of
    /// doubling through a batch. Returns that number of new slots.
    pub(crate) fn reserve_slots(&mut self, n: usize) -> usize {
        let fresh = n.saturating_sub(self.vacant);
        self.queries.reserve(fresh);
        self.slots.reserve(fresh);
        fresh
    }

    /// Links `query` into a slot (the last one freed, else a new one)
    /// with the edges [`MatchGraph::probe`] found, [`ARRIVAL`] standing
    /// for that slot on each. Indexes the query's atoms, files the edges
    /// in the order given, merges every partner's component into its own
    /// and marks the result dirty. Returns the slot.
    pub(crate) fn link(&mut self, query: EntangledQuery, edges: &[Edge]) -> u32 {
        let slot = match self.free_slot {
            Some(slot) => {
                let next = self.slots[slot as usize].next_member;
                self.free_slot = (next != NIL).then_some(next);
                self.vacant -= 1;
                slot
            }
            None => {
                self.queries.push(empty_query());
                self.slots.push(Slot::VACANT);
                (self.queries.len() - 1) as u32
            }
        };
        let (mut heads, mut pcs) = (NO_CELL, NO_CELL);
        for (ai, atom) in query.head.iter().enumerate() {
            heads = self.head_index.insert(atom_ref(slot, ai), atom, heads);
        }
        for (ai, atom) in query.postconditions.iter().enumerate() {
            pcs = self.pc_index.insert(atom_ref(slot, ai), atom, pcs);
        }
        self.queries[slot as usize] = query;

        let mut home = self.alloc_comp();
        self.slots[slot as usize] = Slot {
            comp: home,
            prev_member: slot,
            next_member: slot,
            heads,
            pcs,
            ..Slot::VACANT
        };
        self.comps[home as usize].first = slot;
        self.comps[home as usize].len = 1;
        for &e in edges {
            let mut e = e;
            let partner = if e.from == ARRIVAL {
                e.from = slot;
                e.to
            } else {
                debug_assert_eq!(e.to, ARRIVAL, "edge without the arrival");
                e.to = slot;
                e.from
            };
            self.alloc_edge(e);
            let theirs = self.slots[partner as usize].comp;
            debug_assert_ne!(theirs, NIL, "edge to a vacant slot");
            home = self.merge_comps(home, theirs);
        }
        self.mark_dirty(home);
        slot
    }

    /// Unlinks the query in `slot`, which must be linked: drops its
    /// atoms from the indexes and every incident edge, frees the slot
    /// and returns the query. The surviving component is marked dirty
    /// and split-pending (edge removal may disconnect it); an emptied
    /// one is freed. Hashes nothing (unless a posting list empties) and
    /// allocates nothing: every step follows the slot's own links.
    pub(crate) fn unlink(&mut self, slot: u32) -> EntangledQuery {
        let query = std::mem::replace(&mut self.queries[slot as usize], empty_query());
        let links = self.slots[slot as usize];
        // Each chain runs from the last atom inserted to the first.
        let mut cell = links.heads;
        for atom in query.head.iter().rev() {
            cell = self.head_index.remove(cell, atom);
        }
        let mut cell = links.pcs;
        for atom in query.postconditions.iter().rev() {
            cell = self.pc_index.remove(cell, atom);
        }
        while let Some(eid) = self.out_edges(slot).next() {
            self.free_edge(eid);
        }
        while let Some(eid) = self.in_edges(slot).next() {
            self.free_edge(eid);
        }

        let comp = links.comp;
        let c = &mut self.comps[comp as usize];
        c.len -= 1;
        if c.len == 0 {
            self.free_comp(comp);
        } else {
            if c.first == slot {
                c.first = links.next_member;
            }
            c.split_pending = true;
            self.slots[links.prev_member as usize].next_member = links.next_member;
            self.slots[links.next_member as usize].prev_member = links.prev_member;
            self.mark_dirty(comp);
        }
        self.slots[slot as usize] = Slot {
            next_member: self.free_slot.unwrap_or(NIL),
            ..Slot::VACANT
        };
        self.free_slot = Some(slot);
        self.vacant += 1;
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

    /// Number of linked queries.
    pub(crate) fn linked_count(&self) -> usize {
        self.len() - self.vacant
    }

    /// True if `slot` holds a linked query.
    pub(crate) fn is_linked(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(|s| s.comp != NIL)
    }

    /// The edge with id `eid`; panics if the id is free.
    pub fn edge(&self, eid: u32) -> &Edge {
        let edge = &self.edges[eid as usize].edge;
        assert_ne!(edge.from, NIL, "edge {eid} is free");
        edge
    }

    /// Number of live edges. A graph nothing was unlinked from numbers
    /// its edges `0..edge_count()`.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Edge ids leaving `slot` (its head atoms feeding other queries'
    /// postconditions), in link order.
    pub fn out_edges(&self, slot: u32) -> EdgeIds<'_> {
        self.ring(slot, OUT)
    }

    /// Edge ids entering `slot` (other queries' heads feeding its
    /// postconditions), in link order.
    pub fn in_edges(&self, slot: u32) -> EdgeIds<'_> {
        self.ring(slot, IN)
    }

    fn ring(&self, slot: u32, side: usize) -> EdgeIds<'_> {
        let first = self.slots[slot as usize].first_edge[side];
        EdgeIds {
            edges: &self.edges,
            side,
            first,
            next: first,
        }
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

    /// The members of component `comp`, in ring order.
    fn members(&self, comp: u32) -> impl Iterator<Item = u32> + '_ {
        let c = &self.comps[comp as usize];
        std::iter::successors(Some(c.first), |&s| Some(self.slots[s as usize].next_member))
            .take(c.len as usize)
    }

    /// Component `comp`'s members, sorted.
    fn sorted_members(&self, comp: u32) -> Vec<u32> {
        let mut members: Vec<u32> = self.members(comp).collect();
        members.sort_unstable();
        members
    }

    /// The components (§4.1.2) of the registry, one walk: every linked
    /// slot once, members ascending, components ordered by smallest
    /// member. While a split is pending (a member was unlinked and no
    /// evaluation has taken the dirty set since) one entry may hold
    /// several pieces, which every per-component analysis treats alike;
    /// [`MatchGraph::components_live`] always separates them.
    pub fn components(&self) -> Vec<Vec<u32>> {
        let mut groups: Vec<Vec<u32>> = (0..self.comps.len() as u32)
            .filter(|&id| self.comps[id as usize].len > 0)
            .map(|id| {
                let members = self.sorted_members(id);
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
        let mut inside: Vec<bool> = (0..self.len() as u32)
            .map(|s| alive[s as usize] && self.is_linked(s))
            .collect();
        let members: Vec<u32> = (0..self.len() as u32)
            .filter(|&s| inside[s as usize])
            .collect();
        self.pieces(&members, &mut inside)
    }

    /// Partitions `members` into connected pieces; edges to slots
    /// outside `members` do not connect. Pieces are sorted internally
    /// and ordered by smallest member. The one BFS behind split
    /// resolution, the engine's post-safety re-partitioning and
    /// [`MatchGraph::components_live`]; it marks members in a per-slot
    /// scratch array instead of a hash set.
    pub(crate) fn connected_pieces(&mut self, members: &[u32]) -> Vec<Vec<u32>> {
        let mut inside = std::mem::take(&mut self.inside);
        inside.resize(self.len(), false);
        for &s in members {
            inside[s as usize] = true;
        }
        let pieces = self.pieces(members, &mut inside);
        self.inside = inside;
        pieces
    }

    /// The BFS of [`MatchGraph::connected_pieces`] over the slots marked
    /// in `inside`, which must be exactly `members`; it leaves every
    /// mark cleared.
    fn pieces(&self, members: &[u32], inside: &mut [bool]) -> Vec<Vec<u32>> {
        let mut seeds = members.to_vec();
        seeds.sort_unstable();
        let mut pieces: Vec<Vec<u32>> = Vec::new();
        for seed in seeds {
            if !std::mem::take(&mut inside[seed as usize]) {
                continue;
            }
            let mut piece = vec![seed];
            let mut i = 0;
            while i < piece.len() {
                let v = piece[i];
                i += 1;
                for eid in self.out_edges(v).chain(self.in_edges(v)) {
                    let e = self.edge(eid);
                    let w = if e.from == v { e.to } else { e.from };
                    if std::mem::take(&mut inside[w as usize]) {
                        piece.push(w);
                    }
                }
            }
            piece.sort_unstable();
            pieces.push(piece);
        }
        pieces
    }

    /// Number of live components. O(1).
    pub(crate) fn component_count(&self) -> usize {
        self.live_comps
    }

    /// Number of currently dirty components.
    pub(crate) fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// Marks every live component dirty (used when the database changed:
    /// kept-pending components may now be answerable).
    pub(crate) fn mark_all_dirty(&mut self) {
        for id in 0..self.comps.len() as u32 {
            if self.comps[id as usize].len > 0 {
                self.mark_dirty(id);
            }
        }
    }

    /// Marks a live component dirty, queueing it unless it is queued.
    fn mark_dirty(&mut self, comp: u32) {
        let c = &mut self.comps[comp as usize];
        if !c.dirty {
            c.dirty = true;
            self.dirty += 1;
        }
        if !c.queued {
            c.queued = true;
            c.next_dirty = self.dirty_queue.unwrap_or(NIL);
            self.dirty_queue = Some(comp);
        }
    }

    /// Takes the dirty components, resolving pending splits: every dirty
    /// component with unlinked members is re-partitioned with a BFS over
    /// the surviving adjacency, and each resulting piece becomes its own
    /// component. Returns the member lists (sorted within a group;
    /// groups ordered by smallest member), all marked clean — the caller
    /// is about to evaluate them.
    pub(crate) fn take_dirty(&mut self) -> Vec<Vec<u32>> {
        let mut dirty = Vec::with_capacity(self.dirty);
        let mut next = self.dirty_queue.take();
        while let Some(comp) = next {
            let c = &mut self.comps[comp as usize];
            next = (c.next_dirty != NIL).then_some(c.next_dirty);
            c.queued = false;
            if c.dirty {
                c.dirty = false;
                dirty.push(comp);
            }
        }
        self.dirty = 0;
        dirty.sort_unstable();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for comp in dirty {
            if self.comps[comp as usize].split_pending {
                groups.extend(self.resolve_split(comp));
            } else {
                groups.push(self.sorted_members(comp));
            }
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }

    /// Re-partitions a split-pending component into connected pieces.
    /// The original component id is freed; every piece gets a fresh
    /// component. All pieces are returned clean.
    fn resolve_split(&mut self, comp: u32) -> Vec<Vec<u32>> {
        let members: Vec<u32> = self.members(comp).collect();
        self.free_comp(comp);
        let pieces = self.connected_pieces(&members);
        for piece in &pieces {
            let id = self.alloc_comp();
            self.comps[id as usize].first = piece[0];
            self.comps[id as usize].len = piece.len() as u32;
            for (i, &s) in piece.iter().enumerate() {
                let slot = &mut self.slots[s as usize];
                slot.comp = id;
                slot.prev_member = piece[(i + piece.len() - 1) % piece.len()];
                slot.next_member = piece[(i + 1) % piece.len()];
            }
        }
        pieces
    }

    /// Files `e` in the slab and appends it to the out-ring of `e.from`
    /// and the in-ring of `e.to`.
    fn alloc_edge(&mut self, e: Edge) {
        self.live_edges += 1;
        let node = EdgeNode {
            edge: e,
            rings: [[NIL; 2]; 2],
        };
        let eid = match self.free_edge {
            Some(eid) => {
                let next = self.edges[eid as usize].rings[OUT][NEXT];
                self.free_edge = (next != NIL).then_some(next);
                self.edges[eid as usize] = node;
                eid
            }
            None => {
                self.edges.push(node);
                (self.edges.len() - 1) as u32
            }
        };
        for side in [OUT, IN] {
            let first = &mut self.slots[node.owner(side) as usize].first_edge[side];
            if *first == NIL {
                *first = eid;
                self.edges[eid as usize].rings[side] = [eid, eid];
                continue;
            }
            let first = *first;
            let last = self.edges[first as usize].rings[side][PREV];
            self.edges[last as usize].rings[side][NEXT] = eid;
            self.edges[first as usize].rings[side][PREV] = eid;
            self.edges[eid as usize].rings[side] = [last, first];
        }
    }

    /// Unthreads edge `eid` from both of its rings and frees its entry.
    fn free_edge(&mut self, eid: u32) {
        let node = self.edges[eid as usize];
        for side in [OUT, IN] {
            let [prev, next] = node.rings[side];
            let first = &mut self.slots[node.owner(side) as usize].first_edge[side];
            if next == eid {
                *first = NIL;
                continue;
            }
            if *first == eid {
                *first = next;
            }
            self.edges[prev as usize].rings[side][NEXT] = next;
            self.edges[next as usize].rings[side][PREV] = prev;
        }
        let node = &mut self.edges[eid as usize];
        node.edge.from = NIL;
        node.rings[OUT][NEXT] = self.free_edge.unwrap_or(NIL);
        self.free_edge = Some(eid);
        self.live_edges -= 1;
    }

    /// An empty, clean component: the last one freed, else a new one.
    /// A reused entry keeps its place on the dirty queue.
    fn alloc_comp(&mut self) -> u32 {
        self.live_comps += 1;
        match self.free_comp {
            Some(id) => {
                let c = &mut self.comps[id as usize];
                self.free_comp = (c.first != NIL).then_some(c.first);
                c.split_pending = false;
                id
            }
            None => {
                self.comps.push(Component {
                    first: NIL,
                    len: 0,
                    next_dirty: NIL,
                    split_pending: false,
                    dirty: false,
                    queued: false,
                });
                (self.comps.len() - 1) as u32
            }
        }
    }

    /// Frees a component whose members have left or moved.
    fn free_comp(&mut self, comp: u32) {
        let c = &mut self.comps[comp as usize];
        if std::mem::take(&mut c.dirty) {
            self.dirty -= 1;
        }
        c.len = 0;
        c.first = self.free_comp.unwrap_or(NIL);
        self.free_comp = Some(comp);
        self.live_comps -= 1;
    }

    /// Merges two components (small into large), returning the survivor:
    /// the smaller one's members are relabelled and its ring is spliced
    /// into the survivor's. The survivor inherits dirtiness and
    /// split-pending state of both.
    fn merge_comps(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let size = |id: u32| self.comps[id as usize].len;
        let (keep, drop) = if size(a) >= size(b) { (a, b) } else { (b, a) };
        let Component {
            first,
            len,
            split_pending,
            dirty,
            ..
        } = self.comps[drop as usize];
        let mut s = first;
        for _ in 0..len {
            self.slots[s as usize].comp = keep;
            s = self.slots[s as usize].next_member;
        }
        // Splice the two rings: keep's last member is followed by the
        // dropped ring, whose last member closes the ring.
        let keep_first = self.comps[keep as usize].first;
        let keep_last = self.slots[keep_first as usize].prev_member;
        let drop_last = self.slots[first as usize].prev_member;
        self.slots[keep_last as usize].next_member = first;
        self.slots[first as usize].prev_member = keep_last;
        self.slots[drop_last as usize].next_member = keep_first;
        self.slots[keep_first as usize].prev_member = drop_last;
        self.free_comp(drop);
        let kc = &mut self.comps[keep as usize];
        kc.len += len;
        kc.split_pending |= split_pending;
        if dirty {
            self.mark_dirty(keep);
        }
        keep
    }

    /// Structural invariant check, for tests and debugging: every slot's
    /// edge rings hold exactly its live edges, linked both ways, and
    /// every edge connects two slots of one component; each component's
    /// member ring and `comp` agree; the indexes hold exactly the linked
    /// queries' atoms (each slot's cell chains name its own atoms, so no
    /// [`AtomRef`] dangles after slot reuse); vacant slots have no edges
    /// and sit on the vacant stack.
    pub(crate) fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let broken = |msg: String| Err(InvariantViolation::Resident(msg));
        let mut ringed_edges = 0usize;
        for slot in 0..self.len() as u32 {
            for side in [OUT, IN] {
                for eid in self.ring(slot, side) {
                    ringed_edges += 1;
                    let node = &self.edges[eid as usize];
                    if node.edge.from == NIL || node.owner(side) != slot {
                        return broken(format!("edge {eid} in the wrong ring {side} of {slot}"));
                    }
                    let [prev, next] = node.rings[side];
                    let back = (
                        self.edges[next as usize].rings[side][PREV],
                        self.edges[prev as usize].rings[side][NEXT],
                    );
                    if back != (eid, eid) {
                        return broken(format!("ring {side} of {slot} broken at edge {eid}"));
                    }
                    let e = node.edge;
                    let (cf, ct) = (
                        self.slots[e.from as usize].comp,
                        self.slots[e.to as usize].comp,
                    );
                    if cf == NIL || ct == NIL {
                        return broken(format!("edge {eid} touches a vacant slot"));
                    }
                    if cf != ct {
                        return broken(format!(
                            "edge {eid} crosses components {cf} and {ct} (slots {} -> {})",
                            e.from, e.to
                        ));
                    }
                }
            }
        }
        let live = self.edges.iter().filter(|n| n.edge.from != NIL).count();
        if live != self.live_edges || ringed_edges != 2 * live {
            return broken(format!(
                "live_edges {}, {live} in the slab, {ringed_edges} ring entries",
                self.live_edges
            ));
        }
        let (mut seen_comps, mut members, mut dirty) = (0usize, 0usize, 0usize);
        for (id, comp) in self.comps.iter().enumerate() {
            if comp.len == 0 {
                continue;
            }
            seen_comps += 1;
            dirty += comp.dirty as usize;
            if comp.dirty && !comp.queued {
                return broken(format!("component {id} is dirty but not queued"));
            }
            for s in self.members(id as u32) {
                members += 1;
                let slot = &self.slots[s as usize];
                if slot.comp != id as u32 {
                    return broken(format!(
                        "slot {s} in component {id} but its comp says {}",
                        slot.comp
                    ));
                }
                if self.slots[slot.next_member as usize].prev_member != s {
                    return broken(format!("member ring of component {id} broken at {s}"));
                }
            }
            if self.slots[self.members(id as u32).last().expect("members") as usize].next_member
                != comp.first
            {
                return broken(format!("member ring of component {id} does not close"));
            }
        }
        if seen_comps != self.live_comps || dirty != self.dirty {
            return broken(format!(
                "live_comps {} / dirty {} != slab counts {seen_comps} / {dirty}",
                self.live_comps, self.dirty
            ));
        }
        let (mut live_heads, mut live_pcs, mut vacant) = (0usize, 0usize, 0usize);
        for slot in 0..self.len() as u32 {
            let links = &self.slots[slot as usize];
            if links.comp == NIL {
                vacant += 1;
                if links.first_edge != [NIL; 2] {
                    return broken(format!("vacant slot {slot} still has edges"));
                }
                continue;
            }
            if self.comps[links.comp as usize].len == 0 {
                return broken(format!(
                    "slot {slot} points at freed component {}",
                    links.comp
                ));
            }
            let q = self.query(slot);
            live_heads += q.head.len();
            live_pcs += q.postconditions.len();
            let chains = [
                (&self.head_index, links.heads, q.head.len(), true),
                (&self.pc_index, links.pcs, q.postconditions.len(), false),
            ];
            for (index, mut cell, atoms, head) in chains {
                for ai in (0..atoms).rev() {
                    let atom = ai as u32;
                    let named = (cell != NO_CELL).then(|| index.cell(cell));
                    let Some((r, next)) = named.filter(|(r, _)| *r == atom_ref(slot, ai)) else {
                        return Err(if head {
                            InvariantViolation::MissingHeadAtom { slot, atom }
                        } else {
                            InvariantViolation::MissingPcAtom { slot, atom }
                        });
                    };
                    debug_assert_eq!(r.query, slot);
                    cell = next;
                }
            }
        }
        if members + vacant != self.len() {
            return broken(format!(
                "{members} members and {vacant} vacant slots of {}",
                self.len()
            ));
        }
        let stacked = std::iter::successors(self.free_slot, |&s| {
            let next = self.slots[s as usize].next_member;
            (next != NIL).then_some(next)
        })
        .take(self.len() + 1)
        .count();
        if vacant != self.vacant || stacked != vacant {
            return broken(format!(
                "{vacant} vacant slots, {} counted, {stacked} on the stack",
                self.vacant
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
        assert_eq!(g.in_edges(0).count(), 1);
        assert_eq!(g.in_edges(1).count(), 1);
        let e0 = g.edge(g.in_edges(0).next().unwrap());
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
        assert_eq!(g.out_edges(0).count(), 2);
        assert_eq!(g.in_edges(0).count(), 2);
        assert_eq!(g.in_edges(1).count(), 1);
        assert_eq!(g.in_edges(2).count(), 1);
        assert_eq!(g.components().len(), 1);
    }

    #[test]
    fn self_edges_excluded() {
        // Jerry's own head R(Jerry, ITH) unifies his own pc R(x, ITH),
        // but self-coordination is excluded.
        let g = build(&["{R(x, ITH)} R(Jerry, ITH) <- F(Jerry, x)"]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.in_edges(0).next(), None);
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
        assert_eq!(g.in_edges(2).count(), 2);
        // Jerry's head feeds both other queries' postconditions.
        assert_eq!(g.out_edges(2).count(), 2);
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
        assert_eq!(g.in_edges(0).next(), None);
        assert_eq!(g.components(), vec![vec![0]]);
    }

    #[test]
    fn link_merges_components_and_marks_dirty() {
        let mut g = MatchGraph::default();
        assert_eq!(g.link(lone(), &[]), 0);
        assert_eq!(g.link(lone(), &[]), 1);
        assert_eq!(g.component_count(), 2);
        assert_eq!(g.dirty_count(), 2);
        assert_eq!(g.take_dirty(), vec![vec![0], vec![1]]);
        assert_eq!(g.dirty_count(), 0);

        let slot = g.link(lone(), &[edge(ARRIVAL, 0), edge(1, ARRIVAL)]);
        assert_eq!(slot, 2);
        assert_eq!(g.component_count(), 1);
        assert_eq!(g.components(), vec![vec![0, 1, 2]]);
        assert_eq!(g.take_dirty(), vec![vec![0, 1, 2]]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_splits_component_lazily() {
        let mut g = MatchGraph::default();
        g.link(lone(), &[]);
        g.link(lone(), &[edge(0, ARRIVAL)]);
        g.link(lone(), &[edge(1, ARRIVAL)]);
        let _ = g.take_dirty();
        // Removing the middle slot disconnects 0 and 2; until the split
        // resolves, the registry still holds them as one component.
        g.unlink(1);
        g.check_invariants().unwrap();
        assert_eq!(g.components(), vec![vec![0, 2]]);
        assert_eq!(g.take_dirty(), vec![vec![0], vec![2]]);
        assert_eq!(g.component_count(), 2);
        assert_ne!(g.slots[0].comp, g.slots[2].comp);
        g.check_invariants().unwrap();
    }

    #[test]
    fn unlink_last_member_frees_component() {
        let mut g = MatchGraph::default();
        g.link(lone(), &[]);
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
        assert_eq!(g.link(lone(), &[]), 0);
        assert_eq!(g.component_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edge_ids_are_reused() {
        let mut g = MatchGraph::default();
        g.link(lone(), &[]);
        g.link(lone(), &[edge(ARRIVAL, 0), edge(0, ARRIVAL)]);
        assert_eq!(g.edge_count(), 2);
        g.unlink(1);
        assert_eq!(g.edge_count(), 0);
        g.link(lone(), &[edge(0, ARRIVAL)]);
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
                    live.push(g.link(lone(), &edges));
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

    /// The graph's slots, components and edges as a model keeps them:
    /// the linked slots, and the live edges in link order.
    #[derive(Default)]
    struct Model {
        linked: Vec<u32>,
        edges: Vec<Edge>,
    }

    impl Model {
        fn unlink(&mut self, g: &mut MatchGraph, slot: u32) {
            g.unlink(slot);
            self.linked.retain(|&s| s != slot);
            self.edges.retain(|e| e.from != slot && e.to != slot);
        }
    }

    /// What the intrusive rings must agree with after every step:
    /// each component's member ring is a union of BFS pieces over the
    /// whole graph — exactly one piece unless a split is pending — and
    /// holds exactly the slots whose `comp` names it; each slot's out-
    /// and in-rings hold its edges in link order.
    fn agrees_with(g: &MatchGraph, model: &Model) -> Result<(), String> {
        g.check_invariants().map_err(|e| e.to_string())?;
        let mut linked = model.linked.clone();
        linked.sort_unstable();
        let mut members: Vec<u32> = Vec::new();
        for comp in 0..g.comps.len() as u32 {
            let c = g.comps[comp as usize];
            if c.len == 0 {
                continue;
            }
            let ring = g.sorted_members(comp);
            if let Some(&s) = ring.iter().find(|&&s| g.slots[s as usize].comp != comp) {
                return Err(format!(
                    "slot {s} on the ring of {comp} names {}",
                    g.slots[s as usize].comp
                ));
            }
            let alive: Vec<bool> = (0..g.len() as u32).map(|s| ring.contains(&s)).collect();
            let pieces = g.components_live(&vec![true; g.len()]);
            let inside: Vec<&Vec<u32>> = pieces.iter().filter(|p| alive[p[0] as usize]).collect();
            if inside.iter().any(|p| p.iter().any(|&s| !alive[s as usize])) {
                return Err(format!(
                    "component {comp} {ring:?} cuts a piece of {pieces:?}"
                ));
            }
            if !c.split_pending && inside.len() != 1 {
                return Err(format!(
                    "component {comp} {ring:?} is not one piece: {inside:?}"
                ));
            }
            members.extend(ring);
        }
        members.sort_unstable();
        if members != linked {
            return Err(format!("members {members:?}, linked {linked:?}"));
        }
        for &slot in &model.linked {
            let filed = |e: &Edge, mine: bool| mine.then_some((e.from, e.to, e.head_idx));
            let expected_out: Vec<_> = model
                .edges
                .iter()
                .filter_map(|e| filed(e, e.from == slot))
                .collect();
            let expected_in: Vec<_> = model
                .edges
                .iter()
                .filter_map(|e| filed(e, e.to == slot))
                .collect();
            let got = |ids: EdgeIds<'_>| -> Vec<_> {
                ids.map(|eid| g.edge(eid))
                    .map(|e| (e.from, e.to, e.head_idx))
                    .collect()
            };
            if got(g.out_edges(slot)) != expected_out || got(g.in_edges(slot)) != expected_in {
                return Err(format!("edge rings of slot {slot} out of link order"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random links (with up to three edges to live slots, each
        /// tagged with a link-order serial), unlinks, dirty takes and
        /// migration-style extractions (every linked slot a predicate
        /// picks, ascending, as `CoordinationEngine::extract_pending`
        /// unlinks them), checked against a model after every step.
        #[test]
        fn intrusive_lists_agree_with_bfs_and_link_order(
            steps in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..64), 1..80),
        ) {
            let mut g = MatchGraph::default();
            let mut model = Model::default();
            let mut serial = 0u32;
            for (op, a, b, c) in steps {
                let live = model.linked.clone();
                match op {
                    0 if !live.is_empty() => model.unlink(&mut g, live[a % live.len()]),
                    1 => {
                        let _ = g.take_dirty();
                    }
                    2 if !live.is_empty() => {
                        // Extract every slot whose id is a multiple of
                        // `b % 3 + 2`, ascending.
                        let step = (b % 3 + 2) as u32;
                        let mut victims: Vec<u32> = live.iter().copied().filter(|s| s % step == 0).collect();
                        victims.sort_unstable();
                        for slot in victims {
                            model.unlink(&mut g, slot);
                        }
                    }
                    _ => {
                        let mut edges = Vec::new();
                        for (k, pick) in [a, b, c].into_iter().enumerate().take(op as usize % 4) {
                            if live.is_empty() {
                                break;
                            }
                            let partner = live[pick % live.len()];
                            serial += 1;
                            let e = Edge { head_idx: serial, ..edge(ARRIVAL, ARRIVAL) };
                            edges.push(if k % 2 == 0 {
                                Edge { from: partner, ..e }
                            } else {
                                Edge { to: partner, ..e }
                            });
                        }
                        // `link` files the arrival's out-edges first, as
                        // the admission probe hands them over.
                        edges.sort_by_key(|e| e.from != ARRIVAL);
                        let slot = g.link(lone(), &edges);
                        model.linked.push(slot);
                        for e in edges {
                            let real = |x: u32| if x == ARRIVAL { slot } else { x };
                            model.edges.push(Edge { from: real(e.from), to: real(e.to), ..e });
                        }
                    }
                }
                let agreed = agrees_with(&g, &model);
                proptest::prop_assert!(agreed.is_ok(), "{:?}", agreed);
            }
        }
    }

    #[test]
    fn clean_components_are_not_returned() {
        let mut g = MatchGraph::default();
        g.link(lone(), &[]);
        g.link(lone(), &[edge(0, ARRIVAL)]);
        let _ = g.take_dirty();
        g.link(lone(), &[]);
        // Only the new singleton is dirty.
        assert_eq!(g.take_dirty(), vec![vec![2]]);
        g.mark_all_dirty();
        assert_eq!(g.take_dirty(), vec![vec![0, 1], vec![2]]);
    }
}
