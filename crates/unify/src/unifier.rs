//! The [`Unifier`] type: a partition of variables with class constants,
//! backed by an undo-logged union-find that supports in-place
//! speculation via [`Unifier::snapshot`] / [`Unifier::rollback_to`] /
//! [`Unifier::commit`].

use crate::ops;
use eq_ir::{FastMap, Term, Value, Var};
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A failed unification: two classes that must merge carry different
/// constants (e.g. `{{x, 3}}` versus `{{x, 4}}` in the paper's example).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict {
    /// Constant carried by the first class.
    pub left: Value,
    /// Constant carried by the second class.
    pub right: Value,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unification conflict: cannot equate constants {} and {}",
            self.left, self.right
        )
    }
}

impl std::error::Error for Conflict {}

/// A misuse of the snapshot discipline, reported by
/// [`Unifier::rollback_to`] and [`Unifier::commit`].
///
/// Snapshots nest strictly LIFO: the token passed to `rollback_to` /
/// `commit` must be the innermost open snapshot of the same table. The
/// token is move-only (neither `Clone` nor `Copy`), so the only ways to
/// break the discipline are closing an outer snapshot while an inner one
/// is open, or forging a token from a different table — both detected
/// by the serial/identity check and reported here rather than silently
/// corrupting the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot is still open but is not the innermost one: an
    /// inner snapshot must be closed first (LIFO order).
    NotInnermost,
    /// The snapshot was already closed (committed or rolled back) —
    /// its serial is no longer on the open stack.
    Stale,
    /// The snapshot was issued by a different `Unifier` table.
    ForeignTable,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotInnermost => {
                write!(
                    f,
                    "snapshot is not the innermost open snapshot (LIFO order)"
                )
            }
            SnapshotError::Stale => write!(f, "snapshot was already committed or rolled back"),
            SnapshotError::ForeignTable => write!(f, "snapshot belongs to a different unifier"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A point-in-time marker over a [`Unifier`], closed exactly once by
/// [`Unifier::rollback_to`] (revert to the marked state) or
/// [`Unifier::commit`] (keep the writes). Deliberately neither `Clone`
/// nor `Copy`: the move-only token plus the `#[must_use]` lint make the
/// LIFO discipline hard to violate by accident.
#[must_use = "a snapshot must be closed with `rollback_to` or `commit`"]
#[derive(Debug)]
pub struct Snapshot {
    /// Identity of the issuing table (process-unique).
    table: u64,
    /// Per-table monotone serial; matched against the open stack.
    serial: u64,
}

#[derive(Debug)]
struct Node {
    /// Parent pointer (a root points at itself), stored atomically so
    /// that `find` can path-compress through a shared reference while
    /// unifiers are shared across component-evaluation threads. The
    /// compression write is benign: it only ever re-points a node at a
    /// higher ancestor.
    parent: AtomicU32,
    /// Union-by-rank rank; meaningful at roots only.
    rank: u8,
    /// Class constant; meaningful at roots only.
    constant: Option<Value>,
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Node {
            parent: AtomicU32::new(self.parent.load(Ordering::Relaxed)),
            rank: self.rank,
            constant: self.constant,
        }
    }
}

/// One logged forest write. Entries are appended only while at least one
/// snapshot is open and are replayed in reverse by
/// [`Unifier::rollback_to`]; with no snapshot open the log stays empty
/// and mutation costs exactly what the pre-undo-log engine paid.
#[derive(Debug)]
enum UndoEntry {
    /// `ensure` inserted a fresh node for this variable.
    Inserted(Var),
    /// A union overwrote this node's parent pointer.
    Parent { v: Var, prev: u32 },
    /// A rank-tied union bumped this root's rank.
    Rank { v: Var, prev: u8 },
    /// A union or bind changed this root's class constant.
    Constant { v: Var, prev: Option<Value> },
}

/// One open snapshot: its serial plus the undo-log length at open time.
#[derive(Debug)]
struct SnapMark {
    serial: u64,
    undo_len: usize,
}

/// Source of process-unique table identities (see [`Snapshot::table`]).
static NEXT_TABLE: AtomicU64 = AtomicU64::new(0);

fn fresh_table_id() -> u64 {
    NEXT_TABLE.fetch_add(1, Ordering::Relaxed)
}

/// A constraint on valuations: a partition of a subset of the variables,
/// where each class may carry at most one constant (§4.1.3).
///
/// * [`Unifier::equate`] merges the classes of two variables;
/// * [`Unifier::bind`] attaches a constant to a variable's class;
/// * [`Unifier::merge_from`] computes the most general unifier of two
///   unifiers in place (`U(child) := MGU(U(parent), U(child))` from
///   Algorithm 1), reporting whether the constraints strictly grew;
/// * [`Unifier::resolve`] maps a term to its canonical form under the
///   constraints (used when simplifying the combined query, §4.2).
///
/// All operations are expected `O(α)` amortized per touched variable.
///
/// # Speculation
///
/// Backtracking callers open a [`Unifier::snapshot`], mutate freely,
/// and either [`Unifier::commit`] the writes or [`Unifier::rollback_to`]
/// the marked state — an undo log of parent/rank/constant writes makes
/// the revert exact (forest shape included), so a rejected speculation
/// costs the writes it made, not a table copy. Snapshots nest LIFO; see
/// [`SnapshotError`] for the misuse taxonomy. While any snapshot is
/// open, `find` does **not** path-compress: compression writes go
/// through `&self` and cannot be logged, so they are simply skipped in
/// the (short-lived) speculation window rather than logged.
pub struct Unifier {
    nodes: FastMap<Var, Node>,
    /// Undo log; non-empty only while a snapshot is open.
    undo: Vec<UndoEntry>,
    /// Open snapshots, innermost last.
    open: Vec<SnapMark>,
    /// Serial source for snapshot marks (monotone per table).
    next_serial: u64,
    /// Process-unique identity embedded in issued [`Snapshot`]s so a
    /// token cannot close a snapshot on a different table.
    table: u64,
}

impl Default for Unifier {
    fn default() -> Self {
        Unifier {
            nodes: FastMap::default(),
            undo: Vec::new(),
            open: Vec::new(),
            next_serial: 0,
            table: fresh_table_id(),
        }
    }
}

impl Clone for Unifier {
    /// Cloning is counted (see [`ops`]): the engine's hot paths are
    /// required to speculate via snapshots, and ci asserts the clone
    /// counter stays at 0 across a benchmark flush — the
    /// differential-oracle tests are the sanctioned cloners. The clone
    /// is an independent fork of the *current* state: it starts with no
    /// open snapshots and an empty undo log, and snapshots issued by
    /// the original do not apply to it (`ForeignTable`).
    fn clone(&self) -> Self {
        ops::count_clone();
        Unifier {
            nodes: self.nodes.clone(),
            undo: Vec::new(),
            open: Vec::new(),
            next_serial: 0,
            table: fresh_table_id(),
        }
    }
}

impl Unifier {
    /// The empty unifier: no constraints; every variable is an implicit
    /// singleton class.
    pub fn new() -> Self {
        Unifier::default()
    }

    /// True if no constraints have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of variables explicitly mentioned (not the number of
    /// classes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of currently open snapshots (innermost depth).
    pub fn open_snapshots(&self) -> usize {
        self.open.len()
    }

    /// Current undo-log length. Zero whenever no snapshot is open — the
    /// invariant the differential tests pin down.
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    fn ensure(&mut self, v: Var) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.nodes.entry(v) {
            slot.insert(Node {
                parent: AtomicU32::new(v.0),
                rank: 0,
                constant: None,
            });
            if !self.open.is_empty() {
                self.undo.push(UndoEntry::Inserted(v));
            }
        }
    }

    /// Representative of `v`'s class. Variables never mentioned are their
    /// own representative.
    pub fn find(&self, v: Var) -> Var {
        let Some(node) = self.nodes.get(&v) else {
            return v;
        };
        let parent = Var(node.parent.load(Ordering::Relaxed));
        if parent == v {
            return v;
        }
        let root = self.find(parent);
        // Path compression; the map structure itself is unchanged.
        // Skipped while a snapshot is open: the write goes through
        // `&self` and cannot be logged, and rollback must be exact.
        if self.open.is_empty() {
            node.parent.store(root.0, Ordering::Relaxed);
        }
        root
    }

    /// The constant pinned to `v`'s class, if any.
    pub fn constant_of(&self, v: Var) -> Option<Value> {
        let root = self.find(v);
        self.nodes.get(&root).and_then(|n| n.constant)
    }

    /// True if `a` and `b` are constrained to take the same value.
    pub fn same_class(&self, a: Var, b: Var) -> bool {
        a == b || self.find(a) == self.find(b)
    }

    /// Opens a snapshot: subsequent forest writes are logged until the
    /// matching [`Unifier::rollback_to`] or [`Unifier::commit`].
    /// Snapshots nest; they must be closed innermost-first.
    pub fn snapshot(&mut self) -> Snapshot {
        let serial = self.next_serial;
        self.next_serial += 1;
        self.open.push(SnapMark {
            serial,
            undo_len: self.undo.len(),
        });
        ops::count_snapshot();
        Snapshot {
            table: self.table,
            serial,
        }
    }

    /// Checks that `s` names this table's innermost open snapshot and
    /// classifies the misuse otherwise.
    fn check_innermost(&self, s: &Snapshot) -> Result<(), SnapshotError> {
        if s.table != self.table {
            return Err(SnapshotError::ForeignTable);
        }
        match self.open.last() {
            Some(mark) if mark.serial == s.serial => Ok(()),
            _ if self.open.iter().any(|m| m.serial == s.serial) => Err(SnapshotError::NotInnermost),
            _ => Err(SnapshotError::Stale),
        }
    }

    /// Reverts every write made since `s` was opened — forest shape
    /// included — and closes it. `s` must be the innermost open
    /// snapshot of this table.
    pub fn rollback_to(&mut self, s: Snapshot) -> Result<(), SnapshotError> {
        self.check_innermost(&s)?;
        ops::note_undo_high_water(self.undo.len());
        let Some(mark) = self.open.pop() else {
            // Unreachable: `check_innermost` matched the stack top.
            return Err(SnapshotError::Stale);
        };
        while self.undo.len() > mark.undo_len {
            let Some(entry) = self.undo.pop() else {
                break; // unreachable: the loop condition bounds the pops
            };
            match entry {
                UndoEntry::Inserted(v) => {
                    self.nodes.remove(&v);
                }
                UndoEntry::Parent { v, prev } => {
                    if let Some(node) = self.nodes.get_mut(&v) {
                        node.parent.store(prev, Ordering::Relaxed);
                    }
                }
                UndoEntry::Rank { v, prev } => {
                    if let Some(node) = self.nodes.get_mut(&v) {
                        node.rank = prev;
                    }
                }
                UndoEntry::Constant { v, prev } => {
                    if let Some(node) = self.nodes.get_mut(&v) {
                        node.constant = prev;
                    }
                }
            }
        }
        ops::count_rollback();
        Ok(())
    }

    /// Keeps every write made since `s` was opened and closes it. `s`
    /// must be the innermost open snapshot of this table. Closing the
    /// outermost snapshot discards the undo log (nothing can roll back
    /// past it any more).
    pub fn commit(&mut self, s: Snapshot) -> Result<(), SnapshotError> {
        self.check_innermost(&s)?;
        self.open.pop();
        if self.open.is_empty() {
            ops::note_undo_high_water(self.undo.len());
            self.undo.clear();
        }
        Ok(())
    }

    /// Merges the classes of `a` and `b`. Returns `Ok(true)` if the
    /// constraint set strictly grew, `Ok(false)` if the variables were
    /// already equated, and a [`Conflict`] if the classes carry different
    /// constants.
    pub fn equate(&mut self, a: Var, b: Var) -> Result<bool, Conflict> {
        self.ensure(a);
        self.ensure(b);
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return Ok(false);
        }
        let ca = self.nodes[&ra].constant;
        let cb = self.nodes[&rb].constant;
        let merged_const = match (ca, cb) {
            (Some(x), Some(y)) if x != y => return Err(Conflict { left: x, right: y }),
            (Some(x), _) => Some(x),
            (_, y) => y,
        };
        // Union by rank. `ensure` put both roots in the map, so the
        // lookups cannot miss; stating them with `if let` keeps the
        // merge panic-free (eq_check's `no-unwrap` rule) and saves the
        // re-lookups the old unwrap chain did.
        let (root, child, ranks_tied) = {
            let rank_a = self.nodes[&ra].rank;
            let rank_b = self.nodes[&rb].rank;
            if rank_a < rank_b {
                (rb, ra, false)
            } else {
                (ra, rb, rank_a == rank_b)
            }
        };
        let logging = !self.open.is_empty();
        if let Some(child_node) = self.nodes.get_mut(&child) {
            if logging {
                self.undo.push(UndoEntry::Parent {
                    v: child,
                    prev: child_node.parent.load(Ordering::Relaxed),
                });
            }
            child_node.parent.store(root.0, Ordering::Relaxed);
        }
        if let Some(root_node) = self.nodes.get_mut(&root) {
            if root_node.constant != merged_const {
                if logging {
                    self.undo.push(UndoEntry::Constant {
                        v: root,
                        prev: root_node.constant,
                    });
                }
                root_node.constant = merged_const;
            }
            if ranks_tied {
                if logging {
                    self.undo.push(UndoEntry::Rank {
                        v: root,
                        prev: root_node.rank,
                    });
                }
                root_node.rank += 1;
            }
        }
        Ok(true)
    }

    /// Pins `v`'s class to the constant `value`. Returns `Ok(true)` if the
    /// constraint is new, `Ok(false)` if the class already carried this
    /// constant, and a [`Conflict`] if it carried a different one.
    pub fn bind(&mut self, v: Var, value: Value) -> Result<bool, Conflict> {
        self.ensure(v);
        let root = self.find(v);
        let logging = !self.open.is_empty();
        let Some(node) = self.nodes.get_mut(&root) else {
            // Unreachable: `ensure` inserted `v`, and `find` only
            // returns vars already in the map.
            return Ok(false);
        };
        match node.constant {
            Some(existing) if existing == value => Ok(false),
            Some(existing) => Err(Conflict {
                left: existing,
                right: value,
            }),
            None => {
                if logging {
                    self.undo.push(UndoEntry::Constant {
                        v: root,
                        prev: None,
                    });
                }
                node.constant = Some(value);
                Ok(true)
            }
        }
    }

    /// Unifies two terms under the current constraints; the positional
    /// step of atom unification.
    pub fn unify_terms(&mut self, a: Term, b: Term) -> Result<bool, Conflict> {
        match (a, b) {
            (Term::Const(x), Term::Const(y)) => {
                if x == y {
                    Ok(false)
                } else {
                    Err(Conflict { left: x, right: y })
                }
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => self.bind(v, c),
            (Term::Var(v), Term::Var(w)) => self.equate(v, w),
        }
    }

    /// In-place most general unifier: folds all of `other`'s constraints
    /// into `self` (`self := MGU(self, other)`).
    ///
    /// Returns `Ok(true)` iff `self` strictly gained constraints — the
    /// "was changed" test on line 6 of Algorithm 1. On conflict `self` is
    /// left in an unspecified (but safe to drop) state; Algorithm 1
    /// responds to conflict by removing the node, so the partially merged
    /// value is never reused. Callers that must survive a conflict wrap
    /// the fold in a snapshot ([`Unifier::try_merge_from`]) or ride one
    /// already opened.
    pub fn merge_from(&mut self, other: &Unifier) -> Result<bool, Conflict> {
        ops::count_merge();
        let mut changed = false;
        for (vars, constant) in other.classes() {
            let first = vars[0];
            for &v in &vars[1..] {
                changed |= self.equate(first, v)?;
            }
            if let Some(c) = constant {
                changed |= self.bind(first, c)?;
            }
        }
        Ok(changed)
    }

    /// [`Unifier::merge_from`] under a snapshot: on conflict `self` is
    /// rolled back to its pre-call state (zero residue — the regression
    /// the differential suite pins), on success the writes commit. The
    /// speculative sibling of the destructive `merge_from`.
    pub fn try_merge_from(&mut self, other: &Unifier) -> Result<bool, Conflict> {
        let snap = self.snapshot();
        match self.merge_from(other) {
            Ok(changed) => {
                let closed = self.commit(snap);
                debug_assert!(
                    closed.is_ok(),
                    "snapshot discipline violated in try_merge_from"
                );
                Ok(changed)
            }
            Err(conflict) => {
                let closed = self.rollback_to(snap);
                debug_assert!(
                    closed.is_ok(),
                    "snapshot discipline violated in try_merge_from"
                );
                Err(conflict)
            }
        }
    }

    /// The most general unifier of two unifiers as a new value, or `None`
    /// if it does not exist. Free-standing form of [`Unifier::merge_from`].
    pub fn mgu(a: &Unifier, b: &Unifier) -> Option<Unifier> {
        // Fold both operands into a fresh table — no operand clone. The
        // larger operand goes first (its fold cannot conflict: a single
        // unifier is internally consistent); the smaller is the
        // speculative leg, merged under a snapshot so a conflict leaves
        // a well-defined table behind rather than a half-merged one.
        let (big, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Unifier::new();
        out.merge_from(big).ok()?;
        match out.try_merge_from(small) {
            Ok(_) => Some(out),
            Err(_) => None,
        }
    }

    /// Canonical form of a term under the constraints: the class constant
    /// if pinned, otherwise the class representative variable. Used to
    /// simplify the combined query (§4.2).
    pub fn resolve(&self, t: Term) -> Term {
        match t {
            Term::Const(_) => t,
            Term::Var(v) => match self.constant_of(v) {
                Some(c) => Term::Const(c),
                None => Term::Var(self.find(v)),
            },
        }
    }

    /// The explicit partition classes: each entry is the (sorted) list of
    /// member variables plus the class constant, sorted by first member
    /// for determinism. Singleton classes without constants are included
    /// only if the variable was explicitly mentioned.
    pub fn classes(&self) -> Vec<(Vec<Var>, Option<Value>)> {
        let mut groups: FastMap<Var, Vec<Var>> = FastMap::default();
        for &v in self.nodes.keys() {
            groups.entry(self.find(v)).or_default().push(v);
        }
        let mut out: Vec<(Vec<Var>, Option<Value>)> = groups
            .into_iter()
            .map(|(root, mut vars)| {
                vars.sort_unstable();
                (vars, self.nodes[&root].constant)
            })
            .collect();
        out.sort_unstable_by_key(|(vars, _)| vars[0]);
        out
    }

    /// Structural equality of the *constraints* (ignores internal forest
    /// shape). Two unifiers are equivalent iff they induce the same
    /// partition with the same class constants, treating unconstrained
    /// singletons as absent.
    pub fn equivalent(&self, other: &Unifier) -> bool {
        self.normalized_classes() == other.normalized_classes()
    }

    fn normalized_classes(&self) -> Vec<(Vec<Var>, Option<Value>)> {
        self.classes()
            .into_iter()
            .filter(|(vars, c)| vars.len() > 1 || c.is_some())
            .collect()
    }
}

impl fmt::Debug for Unifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (vars, constant)) in self.normalized_classes().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, v) in vars.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v}")?;
            }
            if let Some(c) = constant {
                write!(f, ", {c}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn empty_unifier_has_no_constraints() {
        let u = Unifier::new();
        assert!(u.is_empty());
        assert!(!u.same_class(v(0), v(1)));
        assert_eq!(u.constant_of(v(0)), None);
        assert_eq!(u.find(v(7)), v(7));
    }

    #[test]
    fn equate_links_classes() {
        let mut u = Unifier::new();
        assert_eq!(u.equate(v(0), v(1)), Ok(true));
        assert!(u.same_class(v(0), v(1)));
        // Re-equating is a no-op.
        assert_eq!(u.equate(v(1), v(0)), Ok(false));
    }

    #[test]
    fn transitive_equate() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.equate(v(1), v(2)).unwrap();
        assert!(u.same_class(v(0), v(2)));
    }

    #[test]
    fn bind_pins_whole_class() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        assert_eq!(u.bind(v(0), Value::int(3)), Ok(true));
        assert_eq!(u.constant_of(v(1)), Some(Value::int(3)));
        // Binding the same constant again is a no-op.
        assert_eq!(u.bind(v(1), Value::int(3)), Ok(false));
    }

    #[test]
    fn conflicting_constants_fail() {
        // Paper example: no MGU for {{x, 3}} and {{x, 4}}.
        let mut u = Unifier::new();
        u.bind(v(0), Value::int(3)).unwrap();
        let err = u.bind(v(0), Value::int(4)).unwrap_err();
        assert_eq!(err.left, Value::int(3));
        assert_eq!(err.right, Value::int(4));
    }

    #[test]
    fn equate_propagates_constant_conflict() {
        let mut u = Unifier::new();
        u.bind(v(0), Value::int(1)).unwrap();
        u.bind(v(1), Value::int(2)).unwrap();
        assert!(u.equate(v(0), v(1)).is_err());
    }

    #[test]
    fn equate_merges_constant_from_either_side() {
        let mut u = Unifier::new();
        u.bind(v(0), Value::str("ITH")).unwrap();
        u.equate(v(1), v(0)).unwrap();
        assert_eq!(u.constant_of(v(1)), Some(Value::str("ITH")));

        let mut u2 = Unifier::new();
        u2.bind(v(1), Value::str("JFK")).unwrap();
        u2.equate(v(1), v(0)).unwrap();
        assert_eq!(u2.constant_of(v(0)), Some(Value::str("JFK")));
    }

    #[test]
    fn unify_terms_all_cases() {
        let mut u = Unifier::new();
        // const/const equal and unequal
        assert_eq!(u.unify_terms(Term::int(1), Term::int(1)), Ok(false));
        assert!(u.unify_terms(Term::int(1), Term::int(2)).is_err());
        // var/const both directions
        assert_eq!(u.unify_terms(Term::var(v(0)), Term::int(9)), Ok(true));
        assert_eq!(u.unify_terms(Term::int(9), Term::var(v(0))), Ok(false));
        // var/var
        assert_eq!(u.unify_terms(Term::var(v(1)), Term::var(v(2))), Ok(true));
    }

    #[test]
    fn merge_from_reports_change() {
        // Paper running example unifier: {{x, 3}, {y, z}}.
        let mut a = Unifier::new();
        a.bind(v(0), Value::int(3)).unwrap();
        a.equate(v(1), v(2)).unwrap();

        let mut b = Unifier::new();
        b.equate(v(1), v(2)).unwrap();
        // b's constraints are implied by a's: no change.
        assert_eq!(a.merge_from(&b), Ok(false));

        let mut c = Unifier::new();
        c.equate(v(2), v(3)).unwrap();
        assert_eq!(a.merge_from(&c), Ok(true));
        assert!(a.same_class(v(1), v(3)));
    }

    #[test]
    fn merge_conflict_detected() {
        let mut a = Unifier::new();
        a.bind(v(0), Value::int(1)).unwrap();
        let mut b = Unifier::new();
        b.bind(v(1), Value::int(2)).unwrap();
        b.equate(v(0), v(1)).unwrap();
        assert!(a.merge_from(&b).is_err());
    }

    #[test]
    fn mgu_free_function() {
        let mut a = Unifier::new();
        a.equate(v(0), v(1)).unwrap();
        let mut b = Unifier::new();
        b.bind(v(1), Value::int(5)).unwrap();
        let m = Unifier::mgu(&a, &b).unwrap();
        assert_eq!(m.constant_of(v(0)), Some(Value::int(5)));

        let mut c = Unifier::new();
        c.bind(v(0), Value::int(6)).unwrap();
        assert!(Unifier::mgu(&m, &c).is_none());
    }

    #[test]
    fn resolve_canonicalizes() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.bind(v(2), Value::str("Paris")).unwrap();
        assert_eq!(u.resolve(Term::var(v(2))), Term::str("Paris"));
        assert_eq!(u.resolve(Term::int(4)), Term::int(4));
        // v0 and v1 resolve to the same representative.
        assert_eq!(u.resolve(Term::var(v(0))), u.resolve(Term::var(v(1))));
        // Unmentioned variables resolve to themselves.
        assert_eq!(u.resolve(Term::var(v(9))), Term::var(v(9)));
    }

    #[test]
    fn classes_are_deterministic() {
        let mut u = Unifier::new();
        u.equate(v(3), v(1)).unwrap();
        u.bind(v(5), Value::int(7)).unwrap();
        let classes = u.classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], (vec![v(1), v(3)], None));
        assert_eq!(classes[1], (vec![v(5)], Some(Value::int(7))));
    }

    #[test]
    fn equivalence_ignores_forest_shape() {
        let mut a = Unifier::new();
        a.equate(v(0), v(1)).unwrap();
        a.equate(v(1), v(2)).unwrap();
        let mut b = Unifier::new();
        b.equate(v(2), v(0)).unwrap();
        b.equate(v(0), v(1)).unwrap();
        assert!(a.equivalent(&b));

        let mut c = b.clone();
        c.bind(v(0), Value::int(1)).unwrap();
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn debug_render() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.bind(v(0), Value::int(3)).unwrap();
        assert_eq!(format!("{u:?}"), "{{?0, ?1, 3}}");
    }

    #[test]
    fn paper_running_example_global_unifier() {
        // §4.2: U = {{x1, y1}, {x2, z2}, {x3, z1, 1}} with variables
        // renamed x1=0 x2=1 x3=2, y1=3, z1=4 z2=5.
        let mut u = Unifier::new();
        u.equate(v(0), v(3)).unwrap();
        u.equate(v(1), v(5)).unwrap();
        u.equate(v(2), v(4)).unwrap();
        u.bind(v(2), Value::int(1)).unwrap();
        let classes = u.classes();
        assert_eq!(classes.len(), 3);
        assert_eq!(u.constant_of(v(4)), Some(Value::int(1)));
        assert!(u.same_class(v(1), v(5)));
    }

    // ---- snapshot / rollback / commit ----

    #[test]
    fn rollback_reverts_everything_exactly() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.bind(v(2), Value::int(9)).unwrap();
        let before_classes = u.classes();
        let before_len = u.len();

        let snap = u.snapshot();
        u.equate(v(0), v(3)).unwrap();
        u.bind(v(4), Value::int(5)).unwrap();
        u.equate(v(5), v(6)).unwrap();
        assert!(u.len() > before_len);
        u.rollback_to(snap).unwrap();

        assert_eq!(u.classes(), before_classes);
        assert_eq!(u.len(), before_len);
        assert_eq!(u.undo_len(), 0);
        assert_eq!(u.open_snapshots(), 0);
    }

    #[test]
    fn commit_keeps_writes_and_clears_log() {
        let mut u = Unifier::new();
        let snap = u.snapshot();
        u.equate(v(0), v(1)).unwrap();
        u.bind(v(0), Value::int(7)).unwrap();
        u.commit(snap).unwrap();
        assert_eq!(u.constant_of(v(1)), Some(Value::int(7)));
        assert_eq!(u.undo_len(), 0);
        assert_eq!(u.open_snapshots(), 0);
    }

    #[test]
    fn nested_snapshots_roll_back_independently() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        let outer = u.snapshot();
        u.bind(v(0), Value::int(1)).unwrap();
        let inner = u.snapshot();
        u.equate(v(2), v(3)).unwrap();
        u.rollback_to(inner).unwrap();
        // Inner writes are gone, outer writes remain.
        assert!(!u.same_class(v(2), v(3)));
        assert_eq!(u.constant_of(v(1)), Some(Value::int(1)));
        u.rollback_to(outer).unwrap();
        assert_eq!(u.constant_of(v(1)), None);
        assert!(u.same_class(v(0), v(1)));
    }

    #[test]
    fn inner_commit_can_still_be_undone_by_outer_rollback() {
        let mut u = Unifier::new();
        let outer = u.snapshot();
        let inner = u.snapshot();
        u.bind(v(0), Value::int(3)).unwrap();
        u.commit(inner).unwrap();
        assert_eq!(u.constant_of(v(0)), Some(Value::int(3)));
        u.rollback_to(outer).unwrap();
        assert_eq!(u.constant_of(v(0)), None);
        assert!(u.is_empty());
    }

    // ---- snapshot misuse shapes (typed errors) ----

    #[test]
    fn stale_snapshot_is_rejected() {
        let mut u = Unifier::new();
        let snap = u.snapshot();
        // Close it once...
        let reopened = u.snapshot();
        u.commit(reopened).unwrap();
        u.commit(snap).unwrap();
        // ...then forge an identical token the only way tests can:
        // another snapshot gets a *newer* serial, so replaying the old
        // serial is stale.
        let newer = u.snapshot();
        u.commit(newer).unwrap();
        let mut other_path = u.snapshot();
        // Swap in an already-closed serial.
        other_path.serial = 0;
        assert_eq!(u.rollback_to(other_path), Err(SnapshotError::Stale));
        // The real innermost snapshot is still open and closable.
        assert_eq!(u.open_snapshots(), 1);
    }

    #[test]
    fn out_of_order_rollback_is_rejected() {
        let mut u = Unifier::new();
        let outer = u.snapshot();
        let inner = u.snapshot();
        // Rolling back the outer snapshot while the inner is open
        // violates LIFO.
        assert_eq!(u.rollback_to(outer), Err(SnapshotError::NotInnermost));
        // Both snapshots are still open; closing them in order works.
        assert_eq!(u.open_snapshots(), 2);
        u.rollback_to(inner).unwrap();
        // `outer` was consumed by the failed call; the remaining mark
        // is closed via a fresh token path in practice — here we just
        // observe the stack depth.
        assert_eq!(u.open_snapshots(), 1);
    }

    #[test]
    fn out_of_order_commit_is_rejected() {
        let mut u = Unifier::new();
        let outer = u.snapshot();
        let _inner = u.snapshot();
        assert_eq!(u.commit(outer), Err(SnapshotError::NotInnermost));
        assert_eq!(u.open_snapshots(), 2);
    }

    #[test]
    fn foreign_snapshot_is_rejected() {
        let mut a = Unifier::new();
        let mut b = Unifier::new();
        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        assert_eq!(b.rollback_to(snap_a), Err(SnapshotError::ForeignTable));
        assert_eq!(a.commit(snap_b), Err(SnapshotError::ForeignTable));
    }

    #[test]
    fn clone_does_not_inherit_snapshots() {
        let mut u = Unifier::new();
        let snap = u.snapshot();
        u.bind(v(0), Value::int(2)).unwrap();
        let fork = u.clone();
        // The fork sees the speculative state but has no open snapshot.
        assert_eq!(fork.constant_of(v(0)), Some(Value::int(2)));
        assert_eq!(fork.open_snapshots(), 0);
        assert_eq!(fork.undo_len(), 0);
        u.rollback_to(snap).unwrap();
        // Rolling back the original does not disturb the fork.
        assert_eq!(fork.constant_of(v(0)), Some(Value::int(2)));
        assert_eq!(u.constant_of(v(0)), None);
    }

    // ---- satellite 1: failed merges leave zero residue ----

    #[test]
    fn failed_merge_after_rollback_leaves_zero_residue() {
        let mut a = Unifier::new();
        a.equate(v(0), v(1)).unwrap();
        a.bind(v(0), Value::int(1)).unwrap();
        let before = a.clone();
        let before_len = a.len();

        // `b` both adds fresh variables and conflicts with `a`.
        let mut b = Unifier::new();
        b.equate(v(5), v(6)).unwrap();
        b.bind(v(1), Value::int(2)).unwrap();

        let snap = a.snapshot();
        assert!(a.merge_from(&b).is_err());
        a.rollback_to(snap).unwrap();

        assert!(a.equivalent(&before));
        assert_eq!(a.classes(), before.classes());
        assert_eq!(a.len(), before_len);
        assert_eq!(a.undo_len(), 0);
    }

    #[test]
    fn try_merge_from_rolls_back_on_conflict() {
        let mut a = Unifier::new();
        a.bind(v(0), Value::int(1)).unwrap();
        let before = a.clone();

        let mut b = Unifier::new();
        b.equate(v(0), v(7)).unwrap();
        b.bind(v(7), Value::int(2)).unwrap();
        assert!(a.try_merge_from(&b).is_err());
        assert!(a.equivalent(&before));
        assert_eq!(a.len(), before.len());
        assert_eq!(a.open_snapshots(), 0);
        assert_eq!(a.undo_len(), 0);

        // And the success path commits.
        let mut c = Unifier::new();
        c.equate(v(0), v(3)).unwrap();
        assert_eq!(a.try_merge_from(&c), Ok(true));
        assert!(a.same_class(v(0), v(3)));
        assert_eq!(a.constant_of(v(3)), Some(Value::int(1)));
    }

    #[test]
    fn mgu_leaves_operands_untouched_and_allocates_no_clone() {
        let mut a = Unifier::new();
        a.equate(v(0), v(1)).unwrap();
        a.equate(v(1), v(2)).unwrap();
        let mut b = Unifier::new();
        b.bind(v(2), Value::int(4)).unwrap();
        let clones_before = ops::clones_on_this_thread();
        let m = Unifier::mgu(&a, &b).unwrap();
        assert_eq!(ops::clones_on_this_thread(), clones_before);
        assert_eq!(m.constant_of(v(0)), Some(Value::int(4)));
        // Operands are untouched.
        assert_eq!(a.constant_of(v(0)), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn find_skips_compression_while_snapshot_open() {
        // Build a chain 0 -> 1 -> 2 so find(0) has a path to compress.
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.equate(v(1), v(2)).unwrap();
        let snap = u.snapshot();
        let root = u.find(v(0));
        // Whatever the root, rollback must still restore exactly; the
        // compression skip means the log has nothing to miss.
        u.equate(v(3), v(4)).unwrap();
        u.rollback_to(snap).unwrap();
        assert_eq!(u.find(v(0)), root);
        assert_eq!(u.len(), 3);
        assert!(!u.same_class(v(3), v(4)));
    }
}
