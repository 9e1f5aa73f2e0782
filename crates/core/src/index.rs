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
//! [`eq_unify::mgu_atoms`]. The paper makes the same observation and
//! notes the index gives no complexity guarantee but is "immensely
//! useful" in practice.
//!
//! # Layout and cost
//!
//! Every query the engine admits is retired exactly once (§5.1), so
//! removal is as hot as insertion and must not depend on how many atoms
//! are resident — the wildcard and per-relation lists hold *all* of
//! them. Each atom lives once, in a cell of a slab; a posting list is a
//! `Vec` of cell ids in insertion order. An atom of arity `a` sits in
//! `a + 1` lists (one per position, plus its relation's).
//!
//! * [`AtomIndex::insert`]: `a + 2` hash operations and `a + 1` pushes.
//! * [`AtomIndex::remove`]: `a + 2` hash operations; the cell is
//!   emptied and its postings stay behind as tombstones. A list is
//!   compacted in place (order kept) once more than half of it is dead,
//!   and dropped from the map when its last live atom leaves, so a list
//!   never holds more dead postings than live ones, removal is
//!   **O(arity) amortized**, and memory follows the live pool rather
//!   than every constant ever seen.
//! * A cell returns to the free list only when the last posting naming
//!   it has been discarded. A posting therefore can never come to name
//!   a later occupant of its cell: re-inserting under a reused
//!   [`AtomRef`] (the engine reuses query slots) takes a new cell and
//!   new postings at the *end* of each list.
//! * A probe reads each candidate's atom by slab index (no hash lookup
//!   per candidate) and skips tombstones, at most one per live posting.
//!
//! **Ordering contract:** candidates are visited in the order their
//! atoms were inserted into the driving list — exact-constant list
//! first, then the wildcard list — exactly as if every removal had
//! deleted its postings on the spot. Admission and the Figure-9 safety
//! check depend on that order: it fixes the order of a slot's resident
//! edges, and with it where the early-exit probe stops.

use eq_ir::{Atom, FastMap, Symbol, Term, Value};
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

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum KeyValue {
    Wildcard,
    Exact(Value),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    relation: Symbol,
    position: u32,
    value: KeyValue,
}

impl Key {
    /// The list of all of a relation's atoms (the fallback for probes
    /// without constants), keyed under a position no atom has.
    fn whole_relation(relation: Symbol) -> Key {
        Key {
            relation,
            position: u32::MAX,
            value: KeyValue::Wildcard,
        }
    }
}

/// The keys of every list `atom` sits in: one per position, then its
/// relation's.
fn keys(atom: &Atom) -> impl Iterator<Item = Key> + '_ {
    let relation = atom.relation;
    let positions = atom.terms.iter().enumerate().map(move |(pos, term)| Key {
        relation,
        position: pos as u32,
        value: match term {
            Term::Const(c) => KeyValue::Exact(*c),
            Term::Var(_) => KeyValue::Wildcard,
        },
    });
    positions.chain(std::iter::once(Key::whole_relation(relation)))
}

/// One slab cell. `atom` is `None` once the atom was removed; the cell
/// stays allocated while `postings` lists still name it.
struct Cell {
    r: AtomRef,
    atom: Option<Atom>,
    /// Postings naming this cell, live or tombstoned.
    postings: u32,
}

/// The atoms, each stored once and addressed by a dense cell id.
#[derive(Default)]
struct Slab {
    cells: Vec<Cell>,
    free: Vec<u32>,
}

impl Slab {
    fn alloc(&mut self, cell: Cell) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.cells[id as usize] = cell;
                id
            }
            None => {
                self.cells.push(cell);
                (self.cells.len() - 1) as u32
            }
        }
    }

    /// The reference and atom in cell `id`, unless it is a tombstone.
    fn live(&self, id: u32) -> Option<(AtomRef, &Atom)> {
        let cell = &self.cells[id as usize];
        cell.atom.as_ref().map(|atom| (cell.r, atom))
    }

    /// Records that one tombstoned posting of cell `id` was discarded;
    /// the last one frees the cell for reuse.
    fn release(&mut self, id: u32) {
        let cell = &mut self.cells[id as usize];
        cell.postings -= 1;
        if cell.postings == 0 {
            self.free.push(id);
        }
    }
}

/// Cell ids in insertion order, tombstones included.
#[derive(Default)]
struct PostingList {
    ids: Vec<u32>,
    live: usize,
}

impl PostingList {
    /// Discards the tombstones, keeping the live postings in order.
    fn compact(&mut self, slab: &mut Slab) {
        let mut kept = 0;
        for i in 0..self.ids.len() {
            let id = self.ids[i];
            if slab.live(id).is_some() {
                self.ids[kept] = id;
                kept += 1;
            } else {
                slab.release(id);
            }
        }
        self.ids.truncate(kept);
    }
}

/// An index over a set of atoms supporting unifiability-candidate lookup
/// and removal (queries retire from the engine when answered or stale).
/// Insert and remove cost O(arity) amortized however many atoms are
/// resident; see the module docs for the layout.
#[derive(Default)]
pub struct AtomIndex {
    /// Position lists and per-relation lists under one map; a list
    /// exists only while it holds a live atom.
    lists: FastMap<Key, PostingList>,
    slab: Slab,
    /// The cell of every resident reference.
    by_ref: FastMap<AtomRef, u32>,
    /// Postings touched by [`AtomIndex::remove`], compaction included.
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
        self.by_ref.len()
    }

    /// True if no atoms are indexed.
    pub fn is_empty(&self) -> bool {
        self.by_ref.is_empty()
    }

    /// Inserts an atom under `r`, which must not be resident (remove it
    /// first to replace its atom). O(arity).
    pub fn insert(&mut self, r: AtomRef, atom: &Atom) {
        let id = self.slab.alloc(Cell {
            r,
            atom: Some(atom.clone()),
            postings: atom.arity() as u32 + 1,
        });
        let previous = self.by_ref.insert(r, id);
        debug_assert!(previous.is_none(), "{r:?} inserted twice");
        for key in keys(atom) {
            let list = self.lists.entry(key).or_default();
            list.ids.push(id);
            list.live += 1;
        }
    }

    /// Removes an atom by reference. No-op if absent.
    ///
    /// O(arity) amortized, independent of the number of resident atoms:
    /// the atom's postings become tombstones, a list is compacted only
    /// once tombstones outnumber its live postings (so the scan is paid
    /// for by the removals, more than half the list, since the previous
    /// one), and a list whose last live atom leaves is dropped from the
    /// map. The relative order of the remaining atoms never changes.
    pub fn remove(&mut self, r: AtomRef) {
        let Some(id) = self.by_ref.remove(&r) else {
            return;
        };
        let atom = self.slab.cells[id as usize]
            .atom
            .take()
            .expect("by_ref names only live cells");
        for key in keys(&atom) {
            let Entry::Occupied(mut slot) = self.lists.entry(key) else {
                continue;
            };
            let list = slot.get_mut();
            list.live -= 1;
            // More than half dead (always so when the last live atom
            // left): sweep the tombstones out.
            let sweep = list.ids.len() > 2 * list.live;
            #[cfg(test)]
            {
                self.remove_steps += 1 + if sweep { list.ids.len() } else { 0 };
            }
            if sweep {
                list.compact(&mut self.slab);
                if list.ids.is_empty() {
                    slot.remove();
                }
            }
        }
    }

    /// The stored atom for a reference, if present.
    pub fn get(&self, r: AtomRef) -> Option<&Atom> {
        let &id = self.by_ref.get(&r)?;
        self.slab.cells[id as usize].atom.as_ref()
    }

    /// Candidate atoms that may unify with `probe`:
    /// `A ∩ ⋂_{constant positions i} (L(R,i,vi) ∪ L(R,i,Δ))`.
    ///
    /// Allocates a fresh `Vec` per probe; hot paths (engine admission,
    /// retirement) should prefer [`AtomIndex::for_each_candidate`],
    /// which visits the same candidates without materializing them.
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Results are deduplicated and in insertion order.
    pub fn candidates(&self, probe: &Atom) -> Vec<AtomRef> {
        let mut out = Vec::new();
        self.for_each_candidate(probe, |r, _| out.push(r));
        out
    }

    /// Visits every candidate that may unify with `probe`, passing the
    /// reference and the stored atom. This is the allocation-free form
    /// of [`AtomIndex::candidates`]:
    ///
    /// The driving posting list is the most selective constant position
    /// (fewest live atoms in `L(R,i,vi) ∪ L(R,i,Δ)`; the first such
    /// position on a tie); the remaining positions are enforced by
    /// filtering the candidates positionally, which costs
    /// `O(|smallest list| · arity)` instead of materializing every
    /// posting list — the difference between linear and quadratic total
    /// cost on hub-heavy workloads (every query sharing one destination
    /// constant). A probe without constants drives from its relation's
    /// list. Each candidate's atom is read by slab index; tombstones in
    /// the driving list (never more than its live postings) are
    /// skipped.
    ///
    /// Candidates are superset-correct; callers must confirm with a real
    /// MGU check. Visit order is deterministic — the exact-constant
    /// list, then the wildcard list, each in the insertion order of its
    /// live atoms, whatever was removed or re-inserted under a reused
    /// [`AtomRef`] in between — and free of duplicates: an atom appears
    /// in exactly one of the exact/wildcard lists for a given position.
    pub fn for_each_candidate(&self, probe: &Atom, mut f: impl FnMut(AtomRef, &Atom)) {
        let _ = self.try_for_each_candidate(probe, |r, atom| {
            f(r, atom);
            ControlFlow::Continue(())
        });
    }

    /// [`AtomIndex::for_each_candidate`] with an early exit: the visit
    /// stops at the first `Break`, which is returned — how a decided
    /// admission probe leaves a hub's posting list unwalked.
    pub(crate) fn try_for_each_candidate(
        &self,
        probe: &Atom,
        mut f: impl FnMut(AtomRef, &Atom) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut visit = |key: Key| {
            let Some(list) = self.lists.get(&key) else {
                return ControlFlow::Continue(());
            };
            for &id in &list.ids {
                if let Some((r, atom)) = self.slab.live(id) {
                    // Also filters by arity: lists are keyed by
                    // relation, not by relation and arity.
                    if atom.positionally_compatible(probe) {
                        f(r, atom)?;
                    }
                }
            }
            ControlFlow::Continue(())
        };

        let best = probe
            .terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_const().map(|c| (i as u32, c)))
            .min_by_key(|&(pos, val)| self.union_len(probe.relation, pos, val));
        let Some((position, val)) = best else {
            return visit(Key::whole_relation(probe.relation));
        };
        for value in [KeyValue::Exact(val), KeyValue::Wildcard] {
            visit(Key {
                relation: probe.relation,
                position,
                value,
            })?;
        }
        ControlFlow::Continue(())
    }

    /// Live atoms in `L(R, position, value) ∪ L(R, position, Δ)`.
    fn union_len(&self, relation: Symbol, position: u32, value: Value) -> usize {
        [KeyValue::Exact(value), KeyValue::Wildcard]
            .into_iter()
            .filter_map(|value| {
                self.lists.get(&Key {
                    relation,
                    position,
                    value,
                })
            })
            .map(|list| list.live)
            .sum()
    }

    /// Position and relation lists currently held.
    #[cfg(test)]
    pub(crate) fn list_count(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::{atom, FastSet, Var};

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
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("Reserve", [Term::str("Kramer"), v(0)]));
        idx.insert(r(1, 0), &atom!("Reserve", [Term::str("Jerry"), v(1)]));
        let probe = atom!("Reserve", [Term::str("Jerry"), v(2)]);
        assert_eq!(idx.candidates(&probe), vec![r(1, 0)]);
    }

    #[test]
    fn wildcard_probe_returns_relation() {
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [Term::str("a"), v(0)]));
        idx.insert(r(1, 0), &atom!("R", [Term::str("b"), v(1)]));
        idx.insert(r(2, 0), &atom!("S", [Term::str("a"), v(2)]));
        let probe = atom!("R", [v(3), v(4)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0), r(1, 0)]);
    }

    #[test]
    fn indexed_wildcards_match_constant_probe() {
        // Head R(x, ITH) must be a candidate for probe R(Jerry, ITH).
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [v(0), Term::str("ITH")]));
        let probe = atom!("R", [Term::str("Jerry"), Term::str("ITH")]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
    }

    #[test]
    fn multi_constant_intersection() {
        let mut idx = AtomIndex::new();
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
        let mut idx = AtomIndex::new();
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
        let mut idx = AtomIndex::new();
        idx.insert(r(0, 0), &atom!("R", [v(0), v(0)]));
        let probe = atom!("R", [Term::int(2), Term::int(3)]);
        assert_eq!(idx.candidates(&probe), vec![r(0, 0)]);
        assert!(eq_unify::mgu_atoms(idx.get(r(0, 0)).unwrap(), &probe).is_none());
    }

    #[test]
    fn removal() {
        let mut idx = AtomIndex::new();
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
        let mut idx = AtomIndex::new();
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

    /// Postings touched while retiring `n` atoms that share a wildcard
    /// column, a hub constant and a relation, oldest or newest first.
    fn retire_steps(n: u32, newest_first: bool) -> usize {
        let mut idx = AtomIndex::new();
        for i in 0..n {
            let atom = atom!("R", [v(i), Term::str("hub"), Term::int(i as i64)]);
            idx.insert(r(i, 0), &atom);
        }
        for i in 0..n {
            idx.remove(r(if newest_first { n - 1 - i } else { i }, 0));
        }
        assert!(idx.is_empty());
        assert_eq!(idx.list_count(), 0);
        idx.remove_steps
    }

    #[test]
    fn removal_cost_does_not_grow_with_the_pool() {
        // A count, not a timing: retiring four times the atoms may touch
        // about four times the postings (a scan of the shared lists per
        // removal would touch sixteen times as many).
        for newest_first in [false, true] {
            let small = retire_steps(500, newest_first);
            let large = retire_steps(2000, newest_first);
            assert!(
                large <= 5 * small,
                "newest_first={newest_first}: {small} steps for 500 atoms, {large} for 2000"
            );
        }
    }

    #[test]
    fn visitor_matches_materialized_candidates() {
        let mut idx = AtomIndex::new();
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
        let mut idx = AtomIndex::new();
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
        let mut idx = AtomIndex::new();
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
    use super::*;
    use eq_ir::Var;
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
            let mut idx = AtomIndex::new();
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

            // Drained, the index holds nothing: no list, no pinned cell.
            for r in all_refs() {
                idx.remove(r);
            }
            prop_assert!(idx.is_empty());
            prop_assert_eq!(idx.list_count(), 0);
            prop_assert_eq!(idx.slab.free.len(), idx.slab.cells.len());
        }
    }
}
