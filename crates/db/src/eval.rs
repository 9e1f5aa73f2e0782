//! Conjunctive-query evaluation: a conjunction is **prepared once**,
//! then searched by greedy atom ordering + indexed backtracking over an
//! **iterative, explicit-frame search**.
//!
//! # Prepare once, run many
//!
//! [`Prepared`] resolves everything about a conjunction that does not
//! depend on bindings: relation names to table handles (this is also
//! the validation — unknown relation, wrong arity), variables to dense
//! [`Slot`]s, constants to their borrowed posting lists, and every
//! atom's *structural tie-break rank* (its position in `(relation,
//! terms)` order). [`Prepared::run`] can then be called any number of
//! times — `eq_core::intra` runs each region once bottom-up and once
//! pinned top-down — and the search itself touches no hash map for
//! constants, variables or tables. Bindings live in a slot vector with
//! one undo trail; frames hold positions in posting lists the backend
//! lends out ([`RowStore::postings`]), never copies of them.
//!
//! # The search
//!
//! One heap-allocated [`Frame`] per joined atom, so depth is bounded by
//! memory, not thread stack: a 100k-atom body evaluates on a default
//! 8 MiB stack. Each frame opens on the greedy [`Prepared::choose_atom`]
//! pick (fewest unbound terms, then smallest cardinality, then
//! structural rank — see its docs; the engine's partitioned
//! intra-component evaluation depends on it). Its candidates are the
//! row ids common to the posting lists of **every** term whose value is
//! known, in ascending id order:
//!
//! * an atom whose terms are all known is a **filter** — index-only
//!   membership. The intersection alone decides it, one visit per
//!   matching row id, and no row is read (on a paged backend: no page
//!   is touched);
//! * an atom with unknown terms reads exactly the rows in the
//!   intersection, to bind them;
//! * an atom with no known term scans the table.
//!
//! Those are the rows, in the order, that probing any one list and
//! comparing the other columns row by row would keep — so valuations
//! and their **order** are bit-for-bit those of the recursive evaluator
//! this search descends from, which survives as the `#[cfg(test)]`
//! oracle `recursive_reference`. What is *not* the oracle's any more is
//! [`EvalStats::rows_considered`]: it counts rows actually read, and
//! rows the index rules out are never read. `index_probes` and
//! `full_scans` count opened frames and still agree with the oracle.
//! The property tests below pin exactly that down.
//!
//! # Visitor, projection, pins
//!
//! Each full valuation is handed to a visitor as a borrowed
//! [`Solution`]; nothing is materialized. Its verdict ([`Visit`]) is
//! continue, stop, or **"done with this value of variable `v`"**
//! ([`Visit::SkipValue`]): the search *backjumps* to the frame that
//! bound `v` and moves it to its next candidate, skipping every
//! solution that shares the bindings up to and including `v`'s. A
//! consumer that keeps only a projection of the solutions — the
//! articulation witness sets of `eq_core::intra` — thereby pays for the
//! values it keeps, not for the joins hanging off them.
//!
//! A run may **pin** slots to values. A pin is an equality filter, not
//! a binding: `choose_atom` does not see it, so the pinned run walks
//! the unpinned run's join orders and emits exactly the subsequence of
//! its solutions that carry the pinned values, in the same order — but
//! the pinned value does count as known when a frame intersects posting
//! lists, so the filter costs an index lookup, not a scan of rejects.

use crate::database::{Database, DbError};
use crate::table::{next_common, PostingCursor, RowStore, Tuple};
use eq_ir::{Atom, Constraint, FastMap, Term, Value, Var};
use std::ops::{AddAssign, Range};

/// A valuation: an assignment of database values to query variables
/// (§2.3's "assignment of a value from D to each variable of q").
pub type Valuation = FastMap<Var, Value>;

/// Evaluator statistics for one query, reported by
/// [`Database::evaluate_with_stats`] and [`Prepared::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rows read from the backend to bind an atom's unknown terms.
    /// Filter atoms (every term known) read none.
    pub rows_considered: u64,
    /// Frames opened over posting lists (at least one known term).
    pub index_probes: u64,
    /// Frames opened as full-table scans (no known term).
    pub full_scans: u64,
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, other: EvalStats) {
        self.rows_considered += other.rows_considered;
        self.index_probes += other.index_probes;
        self.full_scans += other.full_scans;
    }
}

/// Position of one variable in a [`Prepared`] conjunction's binding
/// vector. Only meaningful for the conjunction that issued it
/// ([`Prepared::slot`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot(u32);

/// A visitor's verdict on one solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Visit {
    /// Go on to the next solution.
    Continue,
    /// Done with the current value of this variable: skip every
    /// remaining solution that shares the bindings up to and including
    /// the frame that bound it (all of them carry this value). A no-op
    /// when that is the deepest frame. A slot no frame bound — a pinned
    /// one — ends the search: every remaining solution shares it.
    SkipValue(Slot),
    /// Stop the search.
    Break,
}

/// One full valuation, borrowed from the running search. Copy out what
/// must outlive the visitor call.
pub struct Solution<'s> {
    vars: &'s [Var],
    values: &'s [Option<Value>],
}

impl Solution<'_> {
    /// The value bound to a slot.
    pub fn at(&self, slot: Slot) -> Option<Value> {
        self.values.get(slot.0 as usize).copied().flatten()
    }

    /// Every bound `(variable, value)` pair.
    pub fn bindings(&self) -> impl Iterator<Item = (Var, Value)> + '_ {
        self.vars
            .iter()
            .zip(self.values)
            .filter_map(|(&var, value)| value.map(|value| (var, value)))
    }

    /// An owned copy of the valuation.
    pub fn to_valuation(&self) -> Valuation {
        self.bindings().collect()
    }
}

/// One term of a prepared atom. A constant needs only its posting list:
/// the intersection a frame iterates guarantees every candidate row
/// carries it.
#[derive(Clone, Copy)]
enum PreparedTerm<'a> {
    Const(&'a [u32]),
    Var(u32),
}

struct PreparedAtom<'a> {
    table: &'a dyn RowStore,
    /// This atom's terms in [`Prepared::terms`].
    terms: Range<u32>,
    /// Position in `(relation, terms)` order among the conjunction's
    /// atoms; identical atoms share a rank.
    rank: u32,
}

/// A conjunction resolved against a database (see the module docs):
/// built by [`Database::prepare`], searched by [`Prepared::run`].
pub struct Prepared<'a> {
    atoms: Vec<PreparedAtom<'a>>,
    terms: Vec<PreparedTerm<'a>>,
    /// The constraints with every variable renamed to its slot number.
    constraints: Vec<Constraint>,
    /// Slot → variable, ascending.
    vars: Vec<Var>,
}

impl<'a> Prepared<'a> {
    /// Resolves `atoms` and `constraints` against `db`. Fails on the
    /// first atom that names an unknown relation or has the wrong arity
    /// — programming errors in query generation, not coordination
    /// failures.
    pub(crate) fn resolve(
        db: &'a Database,
        atoms: &[&Atom],
        constraints: &[&Constraint],
    ) -> Result<Self, DbError> {
        // Slots are the variables' ranks in sorted order: assignment and
        // [`Prepared::slot`] are binary searches, no map is kept. A
        // constraint over a variable no atom binds gets a slot that
        // stays empty: undecidable, so it passes — as it always has.
        let mut vars: Vec<Var> = atoms
            .iter()
            .flat_map(|atom| atom.vars())
            .chain(constraints.iter().flat_map(|c| c.vars()))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        // Every variable looked up below is in `vars`; the insertion
        // point of a missing one is only there to keep this total.
        let slot = |v: Var| vars.binary_search(&v).unwrap_or_else(|at| at) as u32;
        let mut prepared = Vec::with_capacity(atoms.len());
        let mut terms = Vec::with_capacity(atoms.iter().map(|atom| atom.arity()).sum());
        for atom in atoms {
            let table = db.table_for(atom)?;
            let start = terms.len() as u32;
            for (col, term) in atom.terms.iter().enumerate() {
                terms.push(match *term {
                    Term::Const(value) => PreparedTerm::Const(table.postings(col, value)),
                    Term::Var(v) => PreparedTerm::Var(slot(v)),
                });
            }
            prepared.push(PreparedAtom {
                table,
                terms: start..terms.len() as u32,
                rank: 0,
            });
        }
        let mut order: Vec<usize> = (0..atoms.len()).collect();
        order.sort_by(|&a, &b| atoms[a].cmp(atoms[b]));
        let mut rank = 0;
        for (i, &a) in order.iter().enumerate() {
            if i > 0 && atoms[order[i - 1]] != atoms[a] {
                rank += 1;
            }
            prepared[a].rank = rank;
        }
        let constraints = constraints
            .iter()
            .map(|c| c.apply(&|v| Some(Term::Var(Var(slot(v))))))
            .collect();
        Ok(Prepared {
            atoms: prepared,
            terms,
            constraints,
            vars,
        })
    }

    /// The slot of a variable, `None` if the conjunction does not
    /// mention it.
    pub fn slot(&self, var: Var) -> Option<Slot> {
        let at = self.vars.binary_search(&var).ok()?;
        Some(Slot(at as u32))
    }

    fn terms_of(&self, atom: &PreparedAtom<'a>) -> &[PreparedTerm<'a>] {
        &self.terms[atom.terms.start as usize..atom.terms.end as usize]
    }

    /// Checks every constraint decidable under `values`; undecidable
    /// constraints pass provisionally and are re-checked at deeper
    /// levels (all variables are bound at the leaf, by range
    /// restriction).
    fn constraints_hold(&self, values: &[Option<Value>]) -> bool {
        self.constraints
            .iter()
            .all(|c| c.check(&|v| values[v.0 as usize]))
    }

    /// Greedy join ordering: pick the atom with the most bound
    /// positions; break ties toward the smaller estimated cardinality
    /// (shortest posting list of a bound column, or table size when
    /// nothing is bound).
    ///
    /// Remaining ties are broken *structurally* — by `(relation, terms)`
    /// rank — never by position in the worklist. An atom's full key
    /// therefore depends only on the atom itself and the bindings of
    /// its own variables, which makes the chosen join order invariant
    /// under re-grouping of variable-disjoint sub-conjunctions:
    /// evaluating a sub-conjunction alone picks its atoms in exactly
    /// the order the whole query would. The engine's partitioned
    /// intra-component evaluation (`eq_core::intra`) relies on this to
    /// reproduce the sequential answer choice from independently
    /// evaluated work units. Pins are not bindings: the key ignores
    /// them (see the module docs).
    fn choose_atom(&self, remaining: &[u32], values: &[Option<Value>]) -> usize {
        if remaining.len() == 1 {
            return 0;
        }
        let mut best_idx = 0;
        let mut best_key = (usize::MAX, usize::MAX, u32::MAX); // (unbound, cardinality, rank)
        for (i, &a) in remaining.iter().enumerate() {
            let atom = &self.atoms[a as usize];
            let mut unbound = 0usize;
            let mut card = atom.table.len();
            for (col, term) in self.terms_of(atom).iter().enumerate() {
                match *term {
                    PreparedTerm::Const(ids) => card = card.min(ids.len()),
                    PreparedTerm::Var(s) => match values[s as usize] {
                        Some(value) => card = card.min(atom.table.postings(col, value).len()),
                        None => unbound += 1,
                    },
                }
            }
            let key = (unbound, card, atom.rank);
            if key < best_key {
                best_key = key;
                best_idx = i;
            }
        }
        best_idx
    }

    /// The first `limit` valuations, in enumeration order: a thin
    /// collecting wrapper over [`Prepared::run`].
    pub fn collect(&self, limit: usize) -> (Vec<Valuation>, EvalStats) {
        let mut results = Vec::new();
        if limit == 0 {
            return (results, EvalStats::default());
        }
        let stats = self.run(&[], |solution| {
            results.push(solution.to_valuation());
            if results.len() >= limit {
                Visit::Break
            } else {
                Visit::Continue
            }
        });
        (results, stats)
    }

    /// Streams the conjunction's valuations to `visit`, in the
    /// evaluator's one enumeration order, restricted to those that give
    /// every pinned slot its pinned value. The verdict steers the
    /// search ([`Visit`]); the returned stats cover the work done up to
    /// the point it stopped.
    pub fn run(
        &self,
        pins: &[(Slot, Value)],
        mut visit: impl FnMut(&Solution<'_>) -> Visit,
    ) -> EvalStats {
        let mut stats = EvalStats::default();
        let mut search = Search {
            values: vec![None; self.vars.len()],
            pinned: Vec::new(),
            binder: vec![0; self.vars.len()],
            trail: Vec::new(),
            remaining: (0..self.atoms.len() as u32).collect(),
            lists: Vec::new(),
        };
        if !pins.is_empty() {
            search.pinned = vec![None; self.vars.len()];
            for &(slot, value) in pins {
                if let Some(pin) = search.pinned.get_mut(slot.0 as usize) {
                    if pin.is_some_and(|other| other != value) {
                        return stats; // two values for one slot: nothing qualifies
                    }
                    *pin = Some(value);
                }
            }
        }
        if self.atoms.is_empty() {
            // The empty conjunction is true under the empty valuation —
            // provided no fully-ground constraint refutes it.
            if self.constraints_hold(&search.values) {
                let _ = visit(&Solution {
                    vars: &self.vars,
                    values: &search.values,
                });
            }
            return stats;
        }
        let mut stack: Vec<Frame> = Vec::with_capacity(self.atoms.len());
        // One scratch tuple receives each row a frame reads.
        let mut row: Tuple = Tuple::new();
        stack.push(search.open(self, &mut stats));

        'search: while let Some(depth) = stack.len().checked_sub(1) {
            let frame = &mut stack[depth];
            let atom = &self.atoms[frame.atom as usize];
            // Undo whatever the frame's previous candidate bound (a
            // no-op on a freshly opened frame), then advance to its
            // next matching candidate.
            search.unbind(frame.trail_start);
            let mut descend = false;
            while let Some(id) = frame.next_candidate(&mut search.lists) {
                if frame.reads_rows {
                    if !atom.table.read_row(id, &mut row) {
                        // Tombstone (scans only: posting lists hold
                        // live ids).
                        continue;
                    }
                    stats.rows_considered += 1;
                }
                if search.bind(self.terms_of(atom), frame, depth, &row)
                    && self.constraints_hold(&search.values)
                {
                    if !search.remaining.is_empty() {
                        descend = true;
                        break;
                    }
                    // A full valuation: emit it, then keep enumerating
                    // at this deepest frame unless the visitor says
                    // otherwise.
                    let verdict = visit(&Solution {
                        vars: &self.vars,
                        values: &search.values,
                    });
                    match verdict {
                        Visit::Continue => {}
                        Visit::Break => return stats,
                        Visit::SkipValue(slot) => {
                            if !matches!(search.values.get(slot.0 as usize), Some(Some(_))) {
                                return stats;
                            }
                            let target = search.binder[slot.0 as usize] as usize;
                            if target < depth {
                                // Backjump: drop the frames above the
                                // one that bound the slot; the loop top
                                // unbinds its candidate and advances it.
                                while stack.len() > target + 1 {
                                    search.close(&mut stack);
                                }
                                continue 'search;
                            }
                        }
                    }
                }
                // Rejected row (or emitted leaf): unbind and try the
                // next candidate of this same frame.
                search.unbind(frame.trail_start);
            }
            if descend {
                stack.push(search.open(self, &mut stats));
            } else {
                // Candidates exhausted: backtrack into the frame below.
                search.close(&mut stack);
            }
        }
        stats
    }
}

/// The mutable state of one [`Prepared::run`].
struct Search<'a> {
    /// Slot → value bound by a frame.
    values: Vec<Option<Value>>,
    /// Slot → pinned value; empty when the run has no pins.
    pinned: Vec<Option<Value>>,
    /// Slot → depth of the frame that bound it (valid while bound).
    binder: Vec<u32>,
    /// Slots bound so far, in binding order; a frame undoes its own
    /// suffix.
    trail: Vec<u32>,
    /// Atoms not yet joined.
    remaining: Vec<u32>,
    /// The posting-list cursors of every open frame, stacked; a frame
    /// owns the suffix from its `lists_start` to the next frame's.
    lists: Vec<PostingCursor<'a>>,
}

/// One level of the explicit-frame backtracking join: the atom chosen
/// at this depth, where it sat in the worklist (for restoration on
/// unwind), and where its bindings and cursors start in the search's
/// shared stacks.
struct Frame {
    atom: u32,
    pick: u32,
    trail_start: u32,
    lists_start: u32,
    /// Row ids left to scan; empty for a frame that has posting lists.
    scan: Range<u32>,
    /// False for a filter frame: every term known, nothing to read.
    reads_rows: bool,
}

impl Frame {
    fn next_candidate(&mut self, lists: &mut [PostingCursor<'_>]) -> Option<u32> {
        let own = &mut lists[self.lists_start as usize..];
        if own.is_empty() {
            self.scan.next()
        } else {
            next_common(own)
        }
    }
}

impl<'a> Search<'a> {
    /// A slot's value as far as candidate selection is concerned: bound
    /// by a frame, or pinned for this run.
    fn known(&self, slot: u32) -> Option<Value> {
        self.values[slot as usize].or_else(|| self.pinned.get(slot as usize).copied().flatten())
    }

    /// Picks the next atom greedily ([`Prepared::choose_atom`]), removes
    /// it from the worklist, and stacks the posting lists of its known
    /// terms, shortest first (it drives the intersection).
    fn open(&mut self, query: &Prepared<'a>, stats: &mut EvalStats) -> Frame {
        let pick = query.choose_atom(&self.remaining, &self.values);
        let index = self.remaining.swap_remove(pick);
        let atom = &query.atoms[index as usize];
        let lists_start = self.lists.len();
        let mut unknown = false;
        for (col, term) in query.terms_of(atom).iter().enumerate() {
            let ids = match *term {
                PreparedTerm::Const(ids) => ids,
                PreparedTerm::Var(s) => match self.known(s) {
                    Some(value) => atom.table.postings(col, value),
                    None => {
                        unknown = true;
                        continue;
                    }
                },
            };
            self.lists.push(PostingCursor::new(ids));
        }
        let own = &mut self.lists[lists_start..];
        let scan = match (0..own.len()).min_by_key(|&i| own[i].remaining()) {
            Some(shortest) => {
                own.swap(0, shortest);
                stats.index_probes += 1;
                0..0
            }
            None => {
                stats.full_scans += 1;
                0..atom.table.row_id_bound()
            }
        };
        Frame {
            atom: index,
            pick: pick as u32,
            trail_start: self.trail.len() as u32,
            lists_start: lists_start as u32,
            reads_rows: unknown || own.is_empty(),
            scan,
        }
    }

    /// Pops the top frame: its cursors go, and its atom returns to the
    /// worklist at its original position.
    fn close(&mut self, stack: &mut Vec<Frame>) {
        let Some(frame) = stack.pop() else { return };
        self.lists.truncate(frame.lists_start as usize);
        self.remaining.push(frame.atom);
        let last = self.remaining.len() - 1;
        self.remaining.swap(frame.pick as usize, last);
    }

    /// Binds the frame atom's unbound variables from the candidate row
    /// (`row` when the frame reads rows, the pins when it is a filter).
    /// False if the row contradicts itself on a repeated variable —
    /// every other known term is already guaranteed by the
    /// intersection.
    fn bind(
        &mut self,
        terms: &[PreparedTerm<'a>],
        frame: &Frame,
        depth: usize,
        row: &[Value],
    ) -> bool {
        for (col, term) in terms.iter().enumerate() {
            let PreparedTerm::Var(s) = *term else {
                continue;
            };
            let slot = s as usize;
            match self.values[slot] {
                Some(bound) => {
                    if frame.reads_rows && row[col] != bound {
                        return false;
                    }
                }
                None => {
                    let value = if frame.reads_rows {
                        row[col]
                    } else {
                        match self.known(s) {
                            Some(pin) => pin,
                            None => return false,
                        }
                    };
                    self.values[slot] = Some(value);
                    self.binder[slot] = depth as u32;
                    self.trail.push(s);
                }
            }
        }
        true
    }

    /// Undoes every binding made since the trail was `start` long.
    fn unbind(&mut self, start: u32) {
        for s in self.trail.drain(start as usize..) {
            self.values[s as usize] = None;
        }
    }
}

/// The original recursive backtracking join — probe the shortest
/// bound column, read every row on its posting list, compare term by
/// term — kept **test-only** as the oracle for [`Prepared::run`]:
/// property tests assert the two produce the same valuations in the
/// same order and open the same frames. Its recursion depth equals the
/// atom count, which is exactly the stack bound the iterative search
/// removes — never call it on production-sized bodies.
#[cfg(test)]
pub(crate) mod recursive_reference {
    use super::*;

    /// Recursive-evaluator entry with the same contract as
    /// [`Prepared::collect`] (relations pre-checked by the caller).
    pub(crate) fn evaluate(
        db: &Database,
        atoms: &[Atom],
        constraints: &[Constraint],
        limit: usize,
    ) -> (Vec<Valuation>, EvalStats) {
        let mut stats = EvalStats::default();
        let mut results = Vec::new();
        if limit == 0 {
            return (results, stats);
        }
        if atoms.is_empty() {
            let empty = Valuation::default();
            if constraints_hold(constraints, &empty) {
                results.push(empty);
            }
            return (results, stats);
        }
        let mut bindings = Valuation::default();
        let mut remaining: Vec<&Atom> = atoms.iter().collect();
        search(
            db,
            &mut remaining,
            constraints,
            &mut bindings,
            limit,
            &mut results,
            &mut stats,
        );
        (results, stats)
    }

    fn constraints_hold(constraints: &[Constraint], bindings: &Valuation) -> bool {
        constraints
            .iter()
            .all(|c| c.check(&|v| bindings.get(&v).copied()))
    }

    /// The greedy pick, with the tie-break spelled out as an atom
    /// comparison instead of a precomputed rank.
    fn choose_atom(db: &Database, remaining: &[&Atom], bindings: &Valuation) -> usize {
        let mut best_idx = 0;
        let mut best_key = (usize::MAX, usize::MAX); // (unbound count, cardinality)
        for (i, atom) in remaining.iter().enumerate() {
            let table = db.table(atom.relation).expect("pre-checked relation");
            let mut unbound = 0usize;
            let mut card = table.len();
            for (col, term) in atom.terms.iter().enumerate() {
                let value = match term {
                    Term::Const(c) => Some(*c),
                    Term::Var(v) => bindings.get(v).copied(),
                };
                match value {
                    Some(value) => card = card.min(table.postings(col, value).len()),
                    None => unbound += 1,
                }
            }
            let key = (unbound, card);
            if key < best_key || (key == best_key && **atom < *remaining[best_idx]) {
                best_key = key;
                best_idx = i;
            }
        }
        best_idx
    }

    /// Recursive backtracking join. `remaining` holds the atoms not yet
    /// joined; each level picks the most-bound atom (greedy ordering),
    /// probes or scans its table, and recurses with extended bindings.
    fn search(
        db: &Database,
        remaining: &mut Vec<&Atom>,
        constraints: &[Constraint],
        bindings: &mut Valuation,
        limit: usize,
        results: &mut Vec<Valuation>,
        stats: &mut EvalStats,
    ) {
        if results.len() >= limit {
            return;
        }
        if remaining.is_empty() {
            results.push(bindings.clone());
            return;
        }
        let pick = choose_atom(db, remaining, bindings);
        let atom = remaining.swap_remove(pick);
        let table = db.table(atom.relation).expect("pre-checked relation");

        // Find the best bound position to drive an index probe.
        let mut best: Option<&[u32]> = None;
        for (col, term) in atom.terms.iter().enumerate() {
            let value = match term {
                Term::Const(c) => Some(*c),
                Term::Var(v) => bindings.get(v).copied(),
            };
            if let Some(value) = value {
                let ids = table.postings(col, value);
                if best.is_none_or(|b| ids.len() < b.len()) {
                    best = Some(ids);
                }
            }
        }

        let candidates: Vec<u32> = match best {
            Some(ids) => {
                stats.index_probes += 1;
                ids.to_vec()
            }
            None => {
                stats.full_scans += 1;
                (0..table.row_id_bound()).collect()
            }
        };
        for id in candidates {
            if results.len() >= limit {
                break;
            }
            let mut row = Tuple::new();
            if !table.read_row(id, &mut row) {
                continue;
            }
            stats.rows_considered += 1;
            let mut newly_bound: Vec<Var> = Vec::new();
            let mut ok = true;
            for (term, &value) in atom.terms.iter().zip(row.iter()) {
                match term {
                    Term::Const(c) => {
                        if *c != value {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match bindings.get(v) {
                        Some(&bound) => {
                            if bound != value {
                                ok = false;
                                break;
                            }
                        }
                        None => {
                            bindings.insert(*v, value);
                            newly_bound.push(*v);
                        }
                    },
                }
            }
            if ok && constraints_hold(constraints, bindings) {
                search(db, remaining, constraints, bindings, limit, results, stats);
            }
            for v in newly_bound {
                bindings.remove(&v);
            }
        }
        remaining.push(atom);
        let last = remaining.len() - 1;
        remaining.swap(pick, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::atom;

    fn flight_db() -> Database {
        let mut db = Database::new();
        db.create_table("Flights", &["fno", "dest"]).unwrap();
        db.create_table("Airlines", &["fno", "airline"]).unwrap();
        for (fno, dest) in [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ] {
            db.insert("Flights", vec![Value::int(fno), Value::str(dest)])
                .unwrap();
        }
        for (fno, al) in [
            (122, "United"),
            (123, "United"),
            (134, "Lufthansa"),
            (136, "Alitalia"),
        ] {
            db.insert("Airlines", vec![Value::int(fno), Value::str(al)])
                .unwrap();
        }
        db
    }

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    #[test]
    fn single_atom_selection() {
        let db = flight_db();
        // F(x, Paris): Kramer's body. Three valuations (paper §2.3).
        let rows = db
            .evaluate(&[atom!("Flights", [v(0), Term::str("Paris")])], usize::MAX)
            .unwrap();
        assert_eq!(rows.len(), 3);
        let mut fnos: Vec<i64> = rows.iter().map(|r| r[&Var(0)].as_int().unwrap()).collect();
        fnos.sort_unstable();
        assert_eq!(fnos, vec![122, 123, 134]);
    }

    #[test]
    fn join_across_tables() {
        let db = flight_db();
        // Jerry's body: F(y, Paris) ∧ A(y, United) → flights 122, 123.
        let rows = db
            .evaluate(
                &[
                    atom!("Flights", [v(0), Term::str("Paris")]),
                    atom!("Airlines", [v(0), Term::str("United")]),
                ],
                usize::MAX,
            )
            .unwrap();
        let mut fnos: Vec<i64> = rows.iter().map(|r| r[&Var(0)].as_int().unwrap()).collect();
        fnos.sort_unstable();
        assert_eq!(fnos, vec![122, 123]);
    }

    #[test]
    fn combined_query_of_section_42_shape() {
        let db = flight_db();
        // The Kramer+Jerry combined body with variables already merged:
        // F(x, Paris) ∧ F(x, Paris) ∧ A(x, United).
        let rows = db
            .evaluate(
                &[
                    atom!("Flights", [v(0), Term::str("Paris")]),
                    atom!("Flights", [v(0), Term::str("Paris")]),
                    atom!("Airlines", [v(0), Term::str("United")]),
                ],
                1,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let fno = rows[0][&Var(0)].as_int().unwrap();
        assert!(fno == 122 || fno == 123);
    }

    #[test]
    fn limit_respected() {
        let db = flight_db();
        let rows = db.evaluate(&[atom!("Flights", [v(0), v(1)])], 2).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn limit_zero_returns_nothing() {
        let db = flight_db();
        let rows = db.evaluate(&[atom!("Flights", [v(0), v(1)])], 0).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn empty_conjunction_is_true() {
        let db = flight_db();
        let rows = db.evaluate(&[], usize::MAX).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].is_empty());
    }

    #[test]
    fn unsatisfiable_constant() {
        let db = flight_db();
        let rows = db
            .evaluate(&[atom!("Flights", [v(0), Term::str("Athens")])], usize::MAX)
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn repeated_variable_within_atom() {
        let mut db = Database::new();
        db.create_table("E", &["a", "b"]).unwrap();
        db.insert("E", vec![Value::int(1), Value::int(1)]).unwrap();
        db.insert("E", vec![Value::int(1), Value::int(2)]).unwrap();
        // E(x, x) matches only the reflexive row.
        let rows = db
            .evaluate(&[atom!("E", [v(0), v(0)])], usize::MAX)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][&Var(0)], Value::int(1));
    }

    #[test]
    fn ground_atom_membership() {
        let db = flight_db();
        let hit = db
            .evaluate(
                &[atom!("Flights", [Term::int(122), Term::str("Paris")])],
                usize::MAX,
            )
            .unwrap();
        assert_eq!(hit.len(), 1);
        let miss = db
            .evaluate(
                &[atom!("Flights", [Term::int(122), Term::str("Rome")])],
                usize::MAX,
            )
            .unwrap();
        assert!(miss.is_empty());
    }

    #[test]
    fn cross_product_when_no_shared_vars() {
        let db = flight_db();
        let rows = db
            .evaluate(
                &[
                    atom!("Flights", [v(0), Term::str("Rome")]),
                    atom!("Airlines", [v(1), Term::str("United")]),
                ],
                usize::MAX,
            )
            .unwrap();
        // 1 Rome flight × 2 United rows.
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn stats_reflect_index_use() {
        let db = flight_db();
        let (_, stats) = db
            .evaluate_with_stats(&[atom!("Flights", [v(0), Term::str("Paris")])], usize::MAX)
            .unwrap();
        assert!(stats.index_probes >= 1);
        assert_eq!(stats.full_scans, 0);
        assert_eq!(stats.rows_considered, 3);

        // An all-variable pattern requires a scan.
        let (_, stats) = db
            .evaluate_with_stats(&[atom!("Flights", [v(0), v(1)])], usize::MAX)
            .unwrap();
        assert_eq!(stats.full_scans, 1);
    }

    #[test]
    fn join_order_prefers_selective_atom() {
        // A large table joined with a highly selective one: the evaluator
        // should drive from the selective side. We verify via stats that
        // rows_considered stays near the selective cardinality.
        let mut db = Database::new();
        db.create_table("Big", &["a", "b"]).unwrap();
        db.create_table("Small", &["a"]).unwrap();
        for i in 0..1000 {
            db.insert("Big", vec![Value::int(i), Value::int(i % 7)])
                .unwrap();
        }
        db.insert("Small", vec![Value::int(500)]).unwrap();
        let (rows, stats) = db
            .evaluate_with_stats(
                &[atom!("Big", [v(0), v(1)]), atom!("Small", [v(0)])],
                usize::MAX,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert!(
            stats.rows_considered < 10,
            "expected selective-first ordering, considered {}",
            stats.rows_considered
        );
    }

    #[test]
    fn fully_bound_atom_is_decided_by_the_index_alone() {
        let db = flight_db();
        // Airlines(y, United) drives (2 rows read); Flights(y, Paris) is
        // then fully bound: a filter, no row read.
        let (rows, stats) = db
            .evaluate_with_stats(
                &[
                    atom!("Flights", [v(0), Term::str("Paris")]),
                    atom!("Airlines", [v(0), Term::str("United")]),
                ],
                usize::MAX,
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(stats.rows_considered, 2);
        assert_eq!(stats.index_probes, 3);
    }

    #[test]
    fn filter_atoms_keep_row_multiplicity() {
        let mut db = Database::new();
        db.create_table("D", &["a"]).unwrap();
        for _ in 0..3 {
            db.insert("D", vec![Value::int(7)]).unwrap();
        }
        db.delete("D", &[Value::int(7)]).unwrap();
        let (rows, stats) = db
            .evaluate_with_stats(&[atom!("D", [Term::int(7)])], usize::MAX)
            .unwrap();
        assert_eq!(rows.len(), 2, "one visit per live matching row");
        assert_eq!(stats.rows_considered, 0);
    }

    #[test]
    fn skip_value_backjumps_to_the_binding_frame() {
        // Small(x) binds x first, Big(x, y) then offers 10 rows per x:
        // answering "done with this x" on every solution must leave one
        // solution per x, and read one Big row per x instead of ten.
        let mut db = Database::new();
        db.create_table("Small", &["x"]).unwrap();
        db.create_table("Big", &["x", "y"]).unwrap();
        for x in 0..4 {
            db.insert("Small", vec![Value::int(x)]).unwrap();
            for y in 0..10 {
                db.insert("Big", vec![Value::int(x), Value::int(y)])
                    .unwrap();
            }
        }
        let query = db
            .prepare(&[atom!("Big", [v(0), v(1)]), atom!("Small", [v(0)])], &[])
            .unwrap();
        let x = query.slot(Var(0)).unwrap();
        let mut seen = Vec::new();
        let stats = query.run(&[], |solution| {
            seen.push(solution.at(x).unwrap());
            Visit::SkipValue(x)
        });
        assert_eq!(seen, (0..4).map(Value::int).collect::<Vec<_>>());
        assert_eq!(stats.rows_considered, 4 + 4);
        // Skipping on the variable the leaf binds changes nothing.
        let y = query.slot(Var(1)).unwrap();
        let mut count = 0;
        query.run(&[], |_| {
            count += 1;
            Visit::SkipValue(y)
        });
        assert_eq!(count, 40);
    }
}

/// Property tests for the search core against the recursive oracle, on
/// random databases **with duplicate rows and tombstones**, random
/// conjunctions, constraints and limits.
///
/// What is compared: the valuations and their **order** are bit-for-bit
/// the oracle's (the engine's "intra ≡ sequential" guarantee rests on
/// this), and so are `index_probes` and `full_scans` — the two searches
/// open the same frames. `rows_considered` is *not* the oracle's by
/// design: the oracle reads every row on the posting list it probes,
/// the core reads only rows every known term's list agrees on (none for
/// a filter atom), so it may only be lower. Under projection and pins
/// the solutions are a subsequence of the full enumeration, stated
/// below. The paged backend is held to the in-memory one, order
/// included, by `eq_store`'s backend-equivalence proptest; by
/// transitivity it is held to this oracle.
#[cfg(test)]
mod oracle_proptests {
    use super::recursive_reference;
    use super::*;
    use eq_ir::CmpOp;
    use proptest::prelude::*;

    const RELS: [&str; 3] = ["P", "Q", "S"];
    const NUM_VARS: u32 = 4;
    const DOMAIN: i64 = 4;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0..NUM_VARS).prop_map(|i| Term::var(Var(i))),
            (0..DOMAIN).prop_map(Term::int),
        ]
    }

    fn arb_atom() -> impl Strategy<Value = Atom> {
        (0..RELS.len(), proptest::collection::vec(arb_term(), 2))
            .prop_map(|(r, terms)| Atom::new(RELS[r], terms))
    }

    fn arb_constraint() -> impl Strategy<Value = Constraint> {
        (arb_term(), 0..5usize, arb_term()).prop_map(|(lhs, op, rhs)| {
            let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne][op];
            Constraint::new(lhs, op, rhs)
        })
    }

    #[derive(Clone, Debug)]
    struct Instance {
        /// 32 rows over a 3 × 4 × 4 space: duplicates are the rule.
        rows: Vec<(usize, i64, i64)>,
        /// Indexes into `rows` (modulo its length) to delete again.
        deletes: Vec<usize>,
        atoms: Vec<Atom>,
        constraints: Vec<Constraint>,
        limit: usize,
    }

    fn arb_instance() -> impl Strategy<Value = Instance> {
        (
            proptest::collection::vec((0..RELS.len(), 0..DOMAIN, 0..DOMAIN), 0..32),
            proptest::collection::vec(0..32usize, 0..8),
            proptest::collection::vec(arb_atom(), 0..5),
            proptest::collection::vec(arb_constraint(), 0..3),
            0..6usize,
        )
            .prop_map(|(rows, deletes, atoms, constraints, limit)| Instance {
                rows,
                deletes,
                atoms,
                constraints,
                // Exercise both bounded and exhaustive enumeration.
                limit: if limit == 5 { usize::MAX } else { limit },
            })
    }

    fn build_db(inst: &Instance) -> Database {
        let mut db = Database::new();
        for rel in RELS {
            db.create_table(rel, &["a", "b"]).unwrap();
        }
        for &(r, a, b) in &inst.rows {
            db.insert(RELS[r], vec![Value::int(a), Value::int(b)])
                .unwrap();
        }
        for &d in &inst.deletes {
            if let Some(&(r, a, b)) = inst.rows.get(d % inst.rows.len().max(1)) {
                db.delete(RELS[r], &[Value::int(a), Value::int(b)]).unwrap();
            }
        }
        db
    }

    /// Every solution of the instance, in enumeration order.
    fn full(db: &Database, inst: &Instance) -> Vec<Valuation> {
        let query = db.prepare(&inst.atoms, &inst.constraints).unwrap();
        query.collect(usize::MAX).0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn same_valuations_same_order_same_frames_as_the_oracle(inst in arb_instance()) {
            let db = build_db(&inst);
            let (fast, fast_stats) = db
                .prepare(&inst.atoms, &inst.constraints)
                .unwrap()
                .collect(inst.limit);
            let (slow, slow_stats) = recursive_reference::evaluate(
                &db, &inst.atoms, &inst.constraints, inst.limit);
            prop_assert_eq!(&fast, &slow, "valuations (or their order) diverge");
            prop_assert_eq!(fast_stats.index_probes, slow_stats.index_probes);
            prop_assert_eq!(fast_stats.full_scans, slow_stats.full_scans);
            prop_assert!(
                fast_stats.rows_considered <= slow_stats.rows_considered,
                "read {} rows, the oracle {}",
                fast_stats.rows_considered,
                slow_stats.rows_considered
            );
        }

        #[test]
        fn projection_keeps_every_value_and_its_first_solution(
            inst in arb_instance(),
            var in 0..NUM_VARS,
        ) {
            let db = build_db(&inst);
            let query = db.prepare(&inst.atoms, &inst.constraints).unwrap();
            let Some(slot) = query.slot(Var(var)) else { return Ok(()) };
            if !inst.atoms.iter().any(|a| a.vars().any(|v| v == Var(var))) {
                return Ok(()); // a constraint-only variable never binds
            }
            // "Done with this value" on every solution: what is reported
            // is, per distinct value in first-appearance order, the
            // first solution of the full enumeration carrying it. (A
            // value may be reported again when a later candidate of the
            // binding frame carries it; a projecting consumer ignores
            // the repeat, and so does this check.)
            let mut reported: Vec<Valuation> = Vec::new();
            query.run(&[], |solution| {
                reported.push(solution.to_valuation());
                Visit::SkipValue(slot)
            });
            let mut seen = Vec::new();
            reported.retain(|s| !seen.contains(&s[&Var(var)]) && { seen.push(s[&Var(var)]); true });
            let mut firsts: Vec<Valuation> = Vec::new();
            for s in full(&db, &inst) {
                if !firsts.iter().any(|f| f[&Var(var)] == s[&Var(var)]) {
                    firsts.push(s);
                }
            }
            prop_assert_eq!(reported, firsts);
        }

        #[test]
        fn pinned_run_is_the_matching_subsequence(
            inst in arb_instance(),
            var in 0..NUM_VARS,
            value in 0..DOMAIN,
        ) {
            let db = build_db(&inst);
            let query = db.prepare(&inst.atoms, &inst.constraints).unwrap();
            let Some(slot) = query.slot(Var(var)) else { return Ok(()) };
            if !inst.atoms.iter().any(|a| a.vars().any(|v| v == Var(var))) {
                return Ok(());
            }
            let mut pinned: Vec<Valuation> = Vec::new();
            query.run(&[(slot, Value::int(value))], |solution| {
                pinned.push(solution.to_valuation());
                Visit::Continue
            });
            let mut expect = full(&db, &inst);
            expect.retain(|s| s[&Var(var)] == Value::int(value));
            prop_assert_eq!(pinned, expect);
        }
    }
}
