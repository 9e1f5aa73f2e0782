//! The atom index of §4.1.4.
//!
//! To find which head atoms a postcondition can unify with (and vice
//! versa) without scanning all resident atoms, the paper indexes atoms
//! under `(Relation, Position, Value)` keys, with variables replaced by a
//! distinguished wildcard `Δ`. A lookup for an atom `R(v1..vn)`
//! intersects, over its *constant* positions `i`, the posting lists
//! `L(R, i, vi) ∪ L(R, i, Δ)`; an atom with no constants falls back to
//! the per-relation list.
//!
//! The index over-approximates: candidates are guaranteed to contain all
//! truly unifiable atoms, but repeated-variable patterns can slip
//! through (`R(z,z)` vs `R(2,3)`), so callers re-check with
//! [`eq_unify::unifiable`]. The paper makes the same observation and
//! notes the index gives no complexity guarantee but is "immensely
//! useful" in practice.
//!
//! # Layout and cost
//!
//! Every query the engine admits is retired exactly once (§5.1), so
//! removal is as hot as insertion, and neither may depend on how many
//! atoms are resident: the wildcard and per-relation lists hold *all* of
//! them. The index names atoms; it does not own them. The atoms stay
//! with their owner — the graph's query slots — which hands each one to
//! [`AtomIndex::insert`] and [`AtomIndex::remove`] and lends the index a
//! lookup for every candidate visit.
//!
//! An atom of arity `a` sits in `a + 1` posting lists (one per
//! position, plus its relation's). Its **cell** is a run of `a + 2`
//! nodes in one arena: a header naming the [`AtomRef`], then one posting
//! per list — the relation list's first, then position 0, 1, …. A
//! posting records its list and its two neighbours there: each list is a
//! circular, doubly linked chain of postings in insertion order, and the
//! map from a key to its list holds only the list's id. A list of one
//! posting therefore needs no heap block of its own. A walk of the list
//! of position `i` finds each candidate's header `i + 2` nodes before
//! the posting (`1` for a relation list), however long the atom.
//!
//! * [`AtomIndex::insert`] returns the new cell's id, which the owner
//!   keeps. It hashes the `a + 1` keys, each to find or open its list,
//!   and appends one posting to each.
//! * [`AtomIndex::remove`] takes that cell id and unlinks its `a + 1`
//!   postings in exactly `a + 1` steps. It hashes nothing, except to
//!   drop a list it empties from the map, so memory follows the live
//!   pool rather than every constant ever seen.
//! * Freed cells go on a free list per arity, threaded through their
//!   headers, and freed lists on one threaded through themselves, so a
//!   removal allocates nothing and an insertion only grows the arena and
//!   the map.
//! * A cell's header also links it to the owner's previous cell: the
//!   owner keeps one id per chain of cells (a query's heads, say) and
//!   hands it back to [`AtomIndex::remove`], which returns the next.
//!
//! **Ordering contract:** candidates are visited in the order their
//! atoms were inserted into the driving list — exact-constant list
//! first, then the wildcard list. A removal unlinks its postings where
//! they stand, and a re-insertion under a reused [`AtomRef`] (the
//! engine reuses query slots) is a new cell appended at the *end* of
//! each list. Admission and the Figure-9 safety check depend on that
//! order: it fixes the order of a slot's resident edges, and with it
//! where the early-exit probe stops.

use eq_ir::{Atom, FastMap, Symbol, Value};
use std::collections::hash_map::Entry;
use std::ops::ControlFlow;

/// Reference to one atom: which query (by caller-chosen slot) and which
/// atom position within that query's head or postcondition list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomRef {
    /// Caller-defined query slot (index into the graph's query vector).
    pub query: u32,
    /// Index of the atom within the query's head or postcondition list.
    pub atom: u32,
}

/// The end of a chain of cells, and "no cell" wherever a cell id goes.
pub const NO_CELL: u32 = u32::MAX;

/// A list's key, packed into 16 bytes so that a map entry takes 20: the
/// relation; the position, shifted left two bits past the kind of value
/// (`WILDCARD`, `INT` or `STR`); and the value's bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    relation: Symbol,
    position_kind: u32,
    value: [u32; 2],
}

const WILDCARD: u32 = 0;
const INT: u32 = 1;
const STR: u32 = 2;

impl Key {
    /// The key of position `position` holding `value`; `None` is the
    /// wildcard `Δ`.
    fn new(relation: Symbol, position: u32, value: Option<Value>) -> Key {
        debug_assert!(position < 1 << 30, "position {position} does not fit a key");
        let (kind, value) = match value {
            None => (WILDCARD, [0; 2]),
            Some(Value::Int(i)) => (INT, [i as u32, (i >> 32) as u32]),
            Some(Value::Str(s)) => (STR, [s.index(), 0]),
        };
        Key {
            relation,
            position_kind: position << 2 | kind,
            value,
        }
    }

    /// The list of all of a relation's atoms (the fallback for probes
    /// without constants), keyed under a position no atom has.
    fn whole_relation(relation: Symbol) -> Key {
        Key {
            relation,
            position_kind: u32::MAX,
            value: [0; 2],
        }
    }
}

/// The keys of every list `atom` sits in, in the order of its cell's
/// postings: its relation's, then one per position.
fn keys(atom: &Atom) -> impl Iterator<Item = Key> + '_ {
    let relation = atom.relation;
    let positions = (atom.terms.iter().enumerate())
        .map(move |(pos, term)| Key::new(relation, pos as u32, term.as_const()));
    std::iter::once(Key::whole_relation(relation)).chain(positions)
}

/// Offset from a cell's header to its posting in the list of a relation.
const RELATION_OFFSET: u32 = 1;

/// Offset from a cell's header to its posting in the list of `position`.
fn offset(position: u32) -> u32 {
    position + 2
}

/// One arena node, three words: a cell's header `[query, atom, chain]`
/// or one of its postings `[list, prev, next]`.
type Node = [u32; 3];
/// A header's link to the owner's previous cell; in a freed cell, to
/// the next free cell of the same arity.
const CHAIN: usize = 2;
const LIST: usize = 0;
const PREV: usize = 1;
const NEXT: usize = 2;

/// One posting list: the first of its postings, which form a circular
/// chain in insertion order (the last is the first's `PREV`). A freed
/// list's `first` is the next free list.
#[derive(Clone, Copy)]
struct List {
    first: u32,
    len: u32,
}

/// An index over a set of atoms supporting unifiability-candidate lookup
/// and removal (queries retire from the engine when answered or stale).
/// Insert costs O(arity) hash lookups and remove O(arity) steps, however
/// many atoms are resident; see the module docs for the layout.
#[derive(Default)]
pub struct AtomIndex {
    /// Position lists and per-relation lists, by key; a list exists only
    /// while it holds an atom.
    keys: FastMap<Key, u32>,
    lists: Vec<List>,
    /// Head of the freed lists' chain.
    free_list: Option<u32>,
    /// Cells: headers and postings.
    nodes: Vec<Node>,
    /// Per arity, the head of the freed cells' chain ([`NO_CELL`] when
    /// none).
    free_cells: Vec<u32>,
    /// Cells in use.
    live: usize,
    /// Postings unlinked by [`AtomIndex::remove`].
    #[cfg(test)]
    remove_steps: usize,
}

impl AtomIndex {
    /// An empty index.
    pub fn new() -> Self {
        AtomIndex::default()
    }

    /// Number of atoms currently indexed.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Posting lists currently held: one per key some indexed atom sits
    /// under. 0 once every atom is removed.
    pub fn list_count(&self) -> usize {
        self.keys.len()
    }

    /// Indexes `atom` under `r` and returns its cell, chained to `chain`
    /// (the owner's previous cell, or [`NO_CELL`]). The atom is read for
    /// its keys, not kept: its owner must hand the same atom, with the
    /// cell id, to [`AtomIndex::remove`], and answer for it in candidate
    /// visits. O(arity).
    pub fn insert(&mut self, r: AtomRef, atom: &Atom, chain: u32) -> u32 {
        let arity = atom.arity();
        let cell = self.alloc_cell(arity);
        self.nodes[cell as usize] = [r.query, r.atom, chain];
        for (k, key) in keys(atom).enumerate() {
            let (lists, free) = (&mut self.lists, &mut self.free_list);
            let list = *self
                .keys
                .entry(key)
                .or_insert_with(|| open_list(lists, free));
            self.append(list, cell + RELATION_OFFSET + k as u32);
        }
        self.live += 1;
        cell
    }

    /// Removes the atom in `cell`, which must be the `atom`
    /// [`AtomIndex::insert`] was given for it, and returns the cell it
    /// was chained to. Exactly `arity + 1` steps, one per posting,
    /// whatever the number of resident atoms: each posting is unlinked
    /// where it stands, so the relative order of the remaining atoms
    /// never changes. Only a list left empty is looked up, to drop it
    /// from the map.
    pub fn remove(&mut self, cell: u32, atom: &Atom) -> u32 {
        let chain = self.nodes[cell as usize][CHAIN];
        for (k, key) in keys(atom).enumerate() {
            let posting = cell + RELATION_OFFSET + k as u32;
            let list = self.nodes[posting as usize][LIST];
            #[cfg(test)]
            {
                self.remove_steps += 1;
            }
            if self.unlink(list, posting) {
                let Entry::Occupied(slot) = self.keys.entry(key) else {
                    unreachable!("a list outlived its key");
                };
                debug_assert_eq!(*slot.get(), list, "cell {cell} is not this atom's");
                slot.remove();
                self.lists[list as usize].first = self.free_list.unwrap_or(NO_CELL);
                self.free_list = Some(list);
            }
        }
        let arity = atom.arity();
        self.nodes[cell as usize][CHAIN] = self.free_cells[arity];
        self.free_cells[arity] = cell;
        self.live -= 1;
        chain
    }

    /// The reference a live cell names and the cell it is chained to.
    pub(crate) fn cell(&self, cell: u32) -> (AtomRef, u32) {
        let [query, atom, chain] = self.nodes[cell as usize];
        (AtomRef { query, atom }, chain)
    }

    /// A cell of `arity`: the last one freed, else `arity + 2` new
    /// nodes.
    fn alloc_cell(&mut self, arity: usize) -> u32 {
        if self.free_cells.len() <= arity {
            self.free_cells.resize(arity + 1, NO_CELL);
        }
        let cell = self.free_cells[arity];
        if cell != NO_CELL {
            self.free_cells[arity] = self.nodes[cell as usize][CHAIN];
            return cell;
        }
        let cell = self.nodes.len() as u32;
        self.nodes.resize(self.nodes.len() + arity + 2, [0; 3]);
        cell
    }

    /// Appends `posting` to the end of `list`.
    fn append(&mut self, list: u32, posting: u32) {
        let l = &mut self.lists[list as usize];
        l.len += 1;
        if l.len == 1 {
            l.first = posting;
            self.nodes[posting as usize] = [list, posting, posting];
            return;
        }
        let first = l.first;
        let last = self.nodes[first as usize][PREV];
        self.nodes[posting as usize] = [list, last, first];
        self.nodes[last as usize][NEXT] = posting;
        self.nodes[first as usize][PREV] = posting;
    }

    /// Unlinks `posting` from `list`; true if that emptied the list.
    fn unlink(&mut self, list: u32, posting: u32) -> bool {
        let l = &mut self.lists[list as usize];
        l.len -= 1;
        if l.len == 0 {
            return true;
        }
        let [_, prev, next] = self.nodes[posting as usize];
        self.nodes[prev as usize][NEXT] = next;
        self.nodes[next as usize][PREV] = prev;
        if l.first == posting {
            l.first = next;
        }
        false
    }

    /// The list under `key`, if any atom sits there.
    fn list(&self, key: Key) -> Option<List> {
        self.keys.get(&key).map(|&id| self.lists[id as usize])
    }

    /// Candidate atoms that may unify with `probe`:
    /// `A ∩ ⋂_{constant positions i} (L(R,i,vi) ∪ L(R,i,Δ))`, with
    /// `atoms` naming the atom each indexed reference stands for.
    ///
    /// Allocates a fresh `Vec` per probe; hot paths (engine admission,
    /// retirement) should prefer [`AtomIndex::for_each_candidate`],
    /// which visits the same candidates without materializing them.
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Results are deduplicated and in insertion order.
    pub fn candidates<'a>(
        &self,
        probe: &Atom,
        atoms: impl Fn(AtomRef) -> &'a Atom,
    ) -> Vec<AtomRef> {
        let mut out = Vec::new();
        self.for_each_candidate(probe, atoms, |r, _| out.push(r));
        out
    }

    /// Visits every candidate that may unify with `probe`, passing the
    /// reference and its atom, which `atoms` looks up. This is the
    /// allocation-free form of [`AtomIndex::candidates`]:
    ///
    /// The driving posting list is the most selective constant position
    /// (fewest atoms in `L(R,i,vi) ∪ L(R,i,Δ)`; the first such position
    /// on a tie); the remaining positions are enforced by filtering the
    /// candidates positionally, which costs `O(|smallest list| · arity)`
    /// instead of materializing every posting list — the difference
    /// between linear and quadratic total cost on hub-heavy workloads
    /// (every query sharing one destination constant). A probe without
    /// constants drives from its relation's list. Choosing the list
    /// looks up two keys per constant position; the walk then follows
    /// the chosen lists' postings and hashes nothing. Each candidate's
    /// reference is read from its cell's header, and its atom through
    /// `atoms`.
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Visit order is deterministic — the exact-constant
    /// list, then the wildcard list, each in the insertion order of its
    /// atoms, whatever was removed or re-inserted under a reused
    /// [`AtomRef`] in between — and free of duplicates: an atom appears
    /// in exactly one of the exact/wildcard lists for a given position.
    pub fn for_each_candidate<'a>(
        &self,
        probe: &Atom,
        atoms: impl Fn(AtomRef) -> &'a Atom,
        mut f: impl FnMut(AtomRef, &'a Atom),
    ) {
        let _ = self.try_for_each_candidate(probe, atoms, |r, atom| {
            f(r, atom);
            ControlFlow::Continue(())
        });
    }

    /// [`AtomIndex::for_each_candidate`] with an early exit: the visit
    /// stops at the first `Break`, which is returned — how a decided
    /// admission probe leaves a hub's posting list unwalked.
    pub(crate) fn try_for_each_candidate<'a>(
        &self,
        probe: &Atom,
        atoms: impl Fn(AtomRef) -> &'a Atom,
        mut f: impl FnMut(AtomRef, &'a Atom) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut visit = |list: Option<List>, offset: u32| {
            let Some(List { mut first, len }) = list else {
                return ControlFlow::Continue(());
            };
            for _ in 0..len {
                let [query, atom, _] = self.nodes[(first - offset) as usize];
                let r = AtomRef { query, atom };
                let atom = atoms(r);
                // Also filters by arity: lists are keyed by relation,
                // not by relation and arity.
                if atom.positionally_compatible(probe) {
                    f(r, atom)?;
                }
                first = self.nodes[first as usize][NEXT];
            }
            ControlFlow::Continue(())
        };

        // The most selective constant position, with its two lists.
        let mut best: Option<(u32, Option<List>, Option<List>)> = None;
        let mut best_len = usize::MAX;
        for (i, term) in probe.terms.iter().enumerate() {
            let Some(val) = term.as_const() else { continue };
            let exact = self.list(Key::new(probe.relation, i as u32, Some(val)));
            let wild = self.list(Key::new(probe.relation, i as u32, None));
            let len = [exact, wild].iter().flatten().map(|l| l.len as usize).sum();
            if len < best_len {
                best_len = len;
                best = Some((i as u32, exact, wild));
            }
        }
        let Some((position, exact, wild)) = best else {
            let relation = Key::whole_relation(probe.relation);
            return visit(self.list(relation), RELATION_OFFSET);
        };
        visit(exact, offset(position))?;
        visit(wild, offset(position))
    }
}

/// A list id for a new, empty list: the last one freed, else a new one.
fn open_list(lists: &mut Vec<List>, free: &mut Option<u32>) -> u32 {
    let empty = List {
        first: NO_CELL,
        len: 0,
    };
    match free.take() {
        Some(id) => {
            let next = lists[id as usize].first;
            *free = (next != NO_CELL).then_some(next);
            lists[id as usize] = empty;
            id
        }
        None => {
            lists.push(empty);
            (lists.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{atom, FastSet, Term, Var};

    /// An index together with the atoms it names and their cells, kept
    /// the way the graph keeps them: the harness of these tests and of
    /// `differential`.
    #[derive(Default)]
    pub(super) struct Owned {
        pub(super) idx: AtomIndex,
        atoms: FastMap<AtomRef, (Atom, u32)>,
    }

    impl Owned {
        pub(super) fn insert(&mut self, r: AtomRef, atom: &Atom) {
            let cell = self.idx.insert(r, atom, NO_CELL);
            self.atoms.insert(r, (atom.clone(), cell));
        }

        pub(super) fn remove(&mut self, r: AtomRef) {
            if let Some((atom, cell)) = self.atoms.remove(&r) {
                assert_eq!(self.idx.remove(cell, &atom), NO_CELL);
            }
        }

        /// The atom indexed under `r`, if the index holds one: its cell
        /// must still name `r`.
        pub(super) fn get(&self, r: AtomRef) -> Option<&Atom> {
            let (atom, cell) = self.atoms.get(&r)?;
            assert_eq!(self.idx.cell(*cell).0, r);
            Some(atom)
        }

        pub(super) fn len(&self) -> usize {
            assert_eq!(self.idx.len(), self.atoms.len());
            self.idx.len()
        }

        pub(super) fn is_empty(&self) -> bool {
            self.idx.is_empty()
        }

        fn atom(&self, r: AtomRef) -> &Atom {
            &self.atoms[&r].0
        }

        pub(super) fn candidates(&self, probe: &Atom) -> Vec<AtomRef> {
            self.idx.candidates(probe, |r| self.atom(r))
        }

        pub(super) fn for_each_candidate(&self, probe: &Atom, f: impl FnMut(AtomRef, &Atom)) {
            self.idx.for_each_candidate(probe, |r| self.atom(r), f);
        }

        pub(super) fn try_for_each_candidate(
            &self,
            probe: &Atom,
            f: impl FnMut(AtomRef, &Atom) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            self.idx.try_for_each_candidate(probe, |r| self.atom(r), f)
        }
    }

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    fn r(q: u32, a: u32) -> AtomRef {
        AtomRef { query: q, atom: a }
    }

    #[test]
    fn paper_example_lookup() {
        // Index Reserve(Kramer, x) and Reserve(Jerry, y); probing with
        // Reserve(Jerry, z) must return only Jerry's atom.
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("Reserve", [Term::str("Kramer"), v(0)]));
        idx.insert(r(1, 0), &atom!("Reserve", [Term::str("Jerry"), v(1)]));
        let probe = atom!("Reserve", [Term::str("Jerry"), v(2)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0)]);
    }

    #[test]
    fn wildcard_probe_returns_relation() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("b"), v(1)]));
        idx.insert(r(2, 0), &atom!("S", [Term::str("a"), v(2)]));
        let probe = atom!("R", [v(3), v(4)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0), r(1, 0)]);
    }

    #[test]
    fn indexed_wildcards_match_constant_probe() {
        // Head R(x, ITH) must be a candidate for probe R(Jerry, ITH).
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [v(0), Term::str("ITH")]));
        let probe = atom!("R", [Term::str("Jerry"), Term::str("ITH")]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
    }

    #[test]
    fn multi_constant_intersection() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), Term::str("x")]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), Term::str("y")]));
        idx.insert(r(2, 0), &atom!("R", [v(0), Term::str("y")]));
        // Probe R(a, y): candidates are atoms compatible in both columns.
        let probe = atom!("R", [Term::str("a"), Term::str("y")]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0), r(2, 0)]);
        // An early exit stops the visit where it breaks, before the
        // wildcard list is reached.
        let mut seen = Vec::new();
        let walk = idx.try_for_each_candidate(&probe, |cand, _| {
            seen.push(cand);
            ControlFlow::Break(())
        });
        assert!(walk.is_break());
        assert_eq!(seen, vec![r(1, 0)]);
    }

    #[test]
    fn arity_filtered() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a")]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), v(0)]));
        let probe = atom!("R", [Term::str("a")]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        let wild_probe = atom!("R", [v(1)]);
        assert_eq!(idx.candidates(&wild_probe), vec![r(0, 0)]);
    }

    #[test]
    fn over_approximation_documented() {
        // R(z, z) indexed; probe R(2, 3) — index returns it as a
        // candidate even though true unification fails.
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [v(0), v(0)]));
        let probe = atom!("R", [Term::int(2), Term::int(3)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        assert!(eq_unify::mgu_atoms(idx.get(r(0, 0)).unwrap(), &probe).is_none());
    }

    #[test]
    fn removal() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), v(1)]));
        assert_eq!(idx.len(), 2);
        idx.remove(r(0, 0));
        assert_eq!(idx.len(), 1);
        let probe = atom!("R", [Term::str("a"), v(2)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0)]);
        // Removing again is a no-op.
        idx.remove(r(0, 0));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn reinsert_under_reused_ref_goes_to_the_back() {
        // The engine reuses query slots: a ref that left and came back
        // is a new atom and must be visited after the ones that stayed.
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("a"), v(1)]));
        idx.insert(r(2, 0), &atom!("R", [Term::str("a"), v(2)]));
        idx.remove(r(0, 0));
        idx.insert(r(0, 0), &atom!("R", [v(3), Term::str("b")]));
        let probe = atom!("R", [v(4), v(5)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0), r(2, 0), r(0, 0)]);
        let probe = atom!("R", [Term::str("a"), Term::str("b")]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0), r(2, 0), r(0, 0)]);
        assert_eq!(idx.get(r(0, 0)), Some(&atom!("R", [v(3), Term::str("b")])));
    }

    #[test]
    fn removal_cost_does_not_grow_with_the_pool() {
        // A count, not a timing: retiring an atom unlinks its own
        // postings and touches nothing else, whichever end of the
        // shared wildcard, hub and relation lists it sits at and however
        // many atoms share them.
        for n in [500u32, 2000] {
            for newest_first in [false, true] {
                let mut idx = Owned::default();
                for i in 0..n {
                    let atom = atom!("R", [v(i), Term::str("hub"), Term::int(i as i64)]);
                    idx.insert(r(i, 0), &atom);
                }
                for i in 0..n {
                    let before = idx.idx.remove_steps;
                    idx.remove(r(if newest_first { n - 1 - i } else { i }, 0));
                    assert_eq!(idx.idx.remove_steps - before, 3 + 1);
                }
                assert!(idx.is_empty());
                assert_eq!(idx.idx.list_count(), 0);
            }
        }
    }

    #[test]
    fn a_chain_of_cells_is_removed_newest_first() {
        // The graph keeps one cell id per query side: each insert chains
        // the new cell to the previous one, and each remove hands back
        // the next to remove.
        let mut idx = AtomIndex::new();
        let atoms = [
            atom!("R", [Term::str("a"), v(0)]),
            atom!("S", [v(1)]),
            atom!("R", [v(2), v(3)]),
        ];
        let mut chain = NO_CELL;
        for (i, atom) in atoms.iter().enumerate() {
            chain = idx.insert(r(7, i as u32), atom, chain);
        }
        for (i, atom) in atoms.iter().enumerate().rev() {
            assert_eq!(idx.cell(chain).0, r(7, i as u32));
            chain = idx.remove(chain, atom);
        }
        assert_eq!(chain, NO_CELL);
        assert!(idx.is_empty());
        assert_eq!(idx.list_count(), 0);
        // Freed cells are reused per arity, and the arena does not grow.
        let nodes = idx.nodes.len();
        for (i, atom) in atoms.iter().enumerate() {
            idx.insert(r(8, i as u32), atom, NO_CELL);
        }
        assert_eq!(idx.nodes.len(), nodes);
    }

    #[test]
    fn visitor_matches_materialized_candidates() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [v(1), Term::str("b")]));
        idx.insert(r(2, 0), &atom!("R", [Term::str("a"), Term::str("b")]));
        for probe in [
            atom!("R", [Term::str("a"), v(2)]),
            atom!("R", [v(3), v(4)]),
            atom!("R", [Term::str("a"), Term::str("b")]),
        ] {
            let mut visited = Vec::new();
            idx.for_each_candidate(&probe, |r, atom| {
                assert_eq!(idx.get(r), Some(atom));
                visited.push(r);
            });
            assert_eq!(visited, idx.candidates(&probe));
        }
    }

    #[test]
    fn index_separates_relations_and_arities() {
        let mut idx = Owned::default();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("S", [Term::str("a")]));
        idx.insert(r(2, 0), &atom!("R", [Term::str("a")]));
        assert_eq!(idx.len(), 3);
        let probe = atom!("R", [Term::str("a"), v(1)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        assert_eq!(idx.candidates(&atom!("R", [v(2)])), vec![r(2, 0)]);
        idx.remove(r(0, 0));
        assert!(idx.candidates(&probe).is_empty());
        assert_eq!(idx.len(), 2);
        assert!(idx.get(r(1, 0)).is_some());
    }

    #[test]
    fn no_false_negatives_vs_pairwise() {
        // Exhaustive cross-check on a small universe: every truly
        // unifiable pair must appear in the candidate list.
        use eq_unify::mgu_atoms;
        let consts = ["a", "b"];
        let mut atoms = Vec::new();
        let mut next_var = 0u32;
        for t1 in 0..3 {
            for t2 in 0..3 {
                let mut mk = |sel: usize| -> Term {
                    match sel {
                        0 => Term::str(consts[0]),
                        1 => Term::str(consts[1]),
                        _ => {
                            let t = Term::var(Var(next_var));
                            next_var += 1;
                            t
                        }
                    }
                };
                atoms.push(Atom::new("R", vec![mk(t1), mk(t2)]));
            }
        }
        let mut idx = Owned::default();
        for (i, a) in atoms.iter().enumerate() {
            idx.insert(r(i as u32, 0), a);
        }
        for probe in &atoms {
            let cands: FastSet<AtomRef> = idx.candidates(probe).into_iter().collect();
            for (i, a) in atoms.iter().enumerate() {
                if mgu_atoms(a, probe).is_some() {
                    assert!(
                        cands.contains(&r(i as u32, 0)),
                        "index missed unifiable pair {a} / {probe}"
                    );
                }
            }
        }
    }
}

/// Differential test of [`AtomIndex`] against a scan of a `Vec`.
#[cfg(test)]
mod differential {
    use super::tests::Owned;
    use super::*;
    use eq_ir::{Term, Var};
    use proptest::prelude::*;

    /// The live atoms in insertion order.
    #[derive(Default)]
    struct Oracle {
        atoms: Vec<(AtomRef, Atom)>,
    }

    impl Oracle {
        fn remove(&mut self, r: AtomRef) {
            if let Some(i) = self.atoms.iter().position(|(x, _)| *x == r) {
                self.atoms.remove(i);
            }
        }

        fn get(&self, r: AtomRef) -> Option<&Atom> {
            self.atoms.iter().find(|(x, _)| *x == r).map(|(_, a)| a)
        }

        /// The ordering contract of `for_each_candidate`, by scanning:
        /// drive from the constant position the fewest atoms of the
        /// relation agree with (the first on a tie), atoms holding that
        /// constant first, then atoms holding a variable there; without
        /// a constant, every compatible atom in insertion order.
        fn candidates(&self, probe: &Atom) -> Vec<AtomRef> {
            // Atoms of the relation, of any arity, that hold `c` or a
            // variable at `pos`.
            let agreeing = |pos: usize, c: Value| {
                let agrees = |a: &Atom| {
                    a.relation == probe.relation
                        && match a.terms.get(pos) {
                            Some(Term::Const(x)) => *x == c,
                            Some(Term::Var(_)) => true,
                            None => false,
                        }
                };
                self.atoms.iter().filter(|(_, a)| agrees(a)).count()
            };
            let best = probe
                .terms
                .iter()
                .enumerate()
                .filter_map(|(pos, t)| t.as_const().map(|c| (pos, c)))
                .min_by_key(|&(pos, c)| agreeing(pos, c));
            let mut compatible: Vec<&(AtomRef, Atom)> = self
                .atoms
                .iter()
                .filter(|(_, a)| a.positionally_compatible(probe))
                .collect();
            // Stable: insertion order survives within each half.
            compatible.sort_by_key(|(_, a)| best.is_some_and(|(pos, _)| a.terms[pos].is_var()));
            compatible.into_iter().map(|(r, _)| *r).collect()
        }
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0u32..3).prop_map(|i| Term::var(Var(i))),
            (0usize..3).prop_map(|i| Term::str(["a", "b", "hub"][i])),
            (0i64..2).prop_map(Term::int),
        ]
    }

    /// `R` and `S` atoms of arity 2 and 3 over few constants and few
    /// (hence repeated) variables.
    fn arb_atom() -> impl Strategy<Value = Atom> {
        (0usize..2, proptest::collection::vec(arb_term(), 2..4))
            .prop_map(|(rel, terms)| Atom::new(["R", "S"][rel], terms))
    }

    /// `(ref, Some(atom))` inserts — replacing whatever the ref held, as
    /// the engine does when it reuses a slot — and `(ref, None)` removes.
    fn arb_ops() -> impl Strategy<Value = Vec<(AtomRef, Option<Atom>)>> {
        let r = (0u32..6, 0u32..2).prop_map(|(query, atom)| AtomRef { query, atom });
        let action = prop_oneof![
            arb_atom().prop_map(Some),
            arb_atom().prop_map(Some),
            Just(None)
        ];
        proptest::collection::vec((r, action), 1..120)
    }

    fn all_refs() -> impl Iterator<Item = AtomRef> {
        (0..6).flat_map(|query| (0..2).map(move |atom| AtomRef { query, atom }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn index_agrees_with_a_scan(
            ops in arb_ops(),
            probes in proptest::collection::vec(arb_atom(), 1..8),
        ) {
            let mut idx = Owned::default();
            let mut oracle = Oracle::default();
            for (r, action) in ops {
                idx.remove(r);
                oracle.remove(r);
                if let Some(atom) = action {
                    idx.insert(r, &atom);
                    oracle.atoms.push((r, atom));
                }

                prop_assert_eq!(idx.len(), oracle.atoms.len());
                for r in all_refs() {
                    prop_assert_eq!(idx.get(r), oracle.get(r));
                }
                for probe in &probes {
                    let expected = oracle.candidates(probe);
                    prop_assert_eq!(idx.candidates(probe), expected.clone(), "probe {}", probe);
                    let mut visited = Vec::new();
                    idx.for_each_candidate(probe, |r, atom| {
                        assert_eq!(oracle.get(r), Some(atom));
                        visited.push(r);
                    });
                    prop_assert_eq!(visited, expected, "probe {}", probe);
                }
            }

            // Drained, the index holds nothing: no list and no live cell.
            for r in all_refs() {
                idx.remove(r);
            }
            prop_assert!(idx.is_empty());
            prop_assert_eq!(idx.idx.list_count(), 0);
        }
    }
}
