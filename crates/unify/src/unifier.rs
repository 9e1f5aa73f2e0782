//! The [`Unifier`] type: a partition of variables with class constants,
//! backed by a union-find that merges in place.

use crate::ops;
use eq_ir::{FastMap, Term, Value, Var};
use std::cell::Cell;
use std::fmt;

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

#[derive(Clone, Debug)]
struct Node {
    /// Parent pointer (a root points at itself), in a `Cell` so that
    /// `find` can path-compress through a shared reference. The
    /// compression write is benign: it only ever re-points a node at a
    /// higher ancestor.
    parent: Cell<u32>,
    /// Union-by-rank rank; meaningful at roots only.
    rank: u8,
    /// Class constant; meaningful at roots only.
    constant: Option<Value>,
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
/// All operations are expected `O(α)` amortized per touched variable:
/// union by rank, and `find` compresses every path it walks. Writes are
/// in place and nothing is ever undone: a conflicting merge leaves the
/// table unspecified, and Algorithm 1 drops it, as it removes the node.
#[derive(Default)]
pub struct Unifier {
    nodes: FastMap<Var, Node>,
}

impl Clone for Unifier {
    /// Cloning is counted (see [`ops`]): matching, admission and combine
    /// move tables or merge into them in place, and ci asserts the clone
    /// counter stays at 0 across a benchmark flush.
    fn clone(&self) -> Self {
        ops::count_clone();
        Unifier {
            nodes: self.nodes.clone(),
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

    fn ensure(&mut self, v: Var) {
        self.nodes.entry(v).or_insert_with(|| Node {
            parent: Cell::new(v.0),
            rank: 0,
            constant: None,
        });
    }

    /// Representative of `v`'s class. Variables never mentioned are their
    /// own representative.
    pub fn find(&self, v: Var) -> Var {
        let Some(node) = self.nodes.get(&v) else {
            return v;
        };
        let parent = Var(node.parent.get());
        if parent == v {
            return v;
        }
        let root = self.find(parent);
        // Path compression; the map structure itself is unchanged.
        node.parent.set(root.0);
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
        // merge panic-free (eq_check's `no-unwrap` rule).
        let (root, child, ranks_tied) = {
            let rank_a = self.nodes[&ra].rank;
            let rank_b = self.nodes[&rb].rank;
            if rank_a < rank_b {
                (rb, ra, false)
            } else {
                (ra, rb, rank_a == rank_b)
            }
        };
        if let Some(child_node) = self.nodes.get_mut(&child) {
            child_node.parent.set(root.0);
        }
        if let Some(root_node) = self.nodes.get_mut(&root) {
            root_node.constant = merged_const;
            if ranks_tied {
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
    /// value is never reused.
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

    #[test]
    fn find_compresses_the_path_it_walks() {
        let mut u = Unifier::new();
        u.equate(v(0), v(1)).unwrap();
        u.equate(v(2), v(3)).unwrap();
        u.equate(v(0), v(2)).unwrap();
        let parent = |u: &Unifier, x: u32| Var(u.nodes[&v(x)].parent.get());
        // Rank ties make 0 the root of {0, 1}, 2 the root of {2, 3}, and
        // then 0 the root of both: 3 is two hops from it.
        assert_eq!(parent(&u, 3), v(2));
        assert_eq!(parent(&u, 2), v(0));
        assert_eq!(u.find(v(3)), v(0));
        assert_eq!(parent(&u, 3), v(0));
    }
}
