//! Relational atoms.

use crate::{Symbol, Term, Terms, Value, Var};
use std::fmt;

/// Whether an atom occurs as a query *head* (the query's contribution to an
/// ANSWER relation) or as a *postcondition* (a requirement on the ANSWER
/// relation). The unifiability graph draws edges from heads to
/// postconditions, and the atom index keeps the two sides separate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Polarity {
    /// A head atom (`SELECT ... INTO ANSWER R`).
    Head,
    /// A postcondition atom (`(...) IN ANSWER R`).
    Postcondition,
}

/// A relational atom `R(t1, ..., tn)` over constants and variables.
///
/// Atoms are used for all three parts of an entangled query: head and
/// postcondition atoms range over ANSWER relations, body atoms over
/// database relations. The distinction is contextual, not structural.
///
/// An atom is 48 bytes and keeps up to two terms inline ([`Terms`]), so
/// a binary atom — every atom of the paper's schemas — owns no heap
/// allocation. Equality, ordering and hashing are as if `terms` were a
/// `Vec<Term>`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom {
    /// The relation name.
    pub relation: Symbol,
    /// The argument terms, in schema order.
    pub terms: Terms,
}

impl Atom {
    /// Builds an atom from a relation name and a vector of terms (which
    /// is freed at arity ≤ 2); `iter.collect()` can be passed as is.
    pub fn new(relation: impl Into<Symbol>, terms: Vec<Term>) -> Self {
        Atom::with_terms(relation, terms)
    }

    /// Builds an atom from a relation name and anything that converts
    /// into [`Terms`]: an array `[Term; N]` costs no allocation at
    /// `N` ≤ 2.
    pub fn with_terms(relation: impl Into<Symbol>, terms: impl Into<Terms>) -> Self {
        Atom {
            relation: relation.into(),
            terms: terms.into(),
        }
    }

    /// Number of argument positions.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over the variables of the atom (with repetitions).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.terms.iter().filter_map(|t| t.as_var())
    }

    /// Iterates over the constants of the atom (with repetitions).
    pub fn constants(&self) -> impl Iterator<Item = Value> + '_ {
        self.terms.iter().filter_map(|t| t.as_const())
    }

    /// True if the atom contains no variables.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| t.is_const())
    }

    /// The *positional* compatibility check of §3.1.1: two atoms are
    /// positionally compatible unless they name different relations, have
    /// different arities, or "contain different constants for the same
    /// attribute value".
    ///
    /// This is necessary but not sufficient for full unifiability when
    /// variables repeat (`R(z, z)` is positionally compatible with
    /// `R(2, 3)` yet not unifiable); the unification engine's
    /// `mgu_atoms` performs the complete check. The positional check is
    /// what the paper's safety definition and atom index use.
    pub fn positionally_compatible(&self, other: &Atom) -> bool {
        self.relation == other.relation
            && self.terms.len() == other.terms.len()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|(a, b)| match (a, b) {
                    (Term::Const(x), Term::Const(y)) => x == y,
                    _ => true,
                })
    }

    /// Applies a variable substitution, leaving unmapped variables intact.
    pub fn apply(&self, subst: &impl Fn(Var) -> Option<Term>) -> Atom {
        Atom {
            relation: self.relation,
            terms: self
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => subst(*v).unwrap_or(*t),
                    Term::Const(_) => *t,
                })
                .collect(),
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// Shorthand for building atoms in tests and examples:
/// `atom!("R", [Term::str("Jerry"), Term::var(x)])`.
#[macro_export]
macro_rules! atom {
    ($rel:expr, [$($t:expr),* $(,)?]) => {
        $crate::Atom::with_terms($rel, [$($t),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    #[test]
    fn positional_compatibility_paper_examples() {
        // R(x, y) ~ R(z, z): compatible.
        let a = Atom::new("R", vec![v(0), v(1)]);
        let b = Atom::new("R", vec![v(2), v(2)]);
        assert!(a.positionally_compatible(&b));

        // R(2, y) !~ R(3, z): different constants, same position.
        let a = Atom::new("R", vec![Term::int(2), v(1)]);
        let b = Atom::new("R", vec![Term::int(3), v(2)]);
        assert!(!a.positionally_compatible(&b));
    }

    #[test]
    fn compatibility_requires_same_relation_and_arity() {
        let a = Atom::new("R", vec![v(0)]);
        let b = Atom::new("S", vec![v(1)]);
        assert!(!a.positionally_compatible(&b));
        let c = Atom::new("R", vec![v(0), v(1)]);
        assert!(!a.positionally_compatible(&c));
    }

    #[test]
    fn repeated_vars_pass_positional_check_only() {
        // Positionally compatible but NOT unifiable — documents why the
        // full MGU check exists.
        let a = Atom::new("R", vec![v(0), v(0)]);
        let b = Atom::new("R", vec![Term::int(2), Term::int(3)]);
        assert!(a.positionally_compatible(&b));
    }

    #[test]
    fn ground_and_vars() {
        let a = Atom::new("Reserve", vec![Term::str("Kramer"), Term::int(122)]);
        assert!(a.is_ground());
        assert_eq!(a.vars().count(), 0);
        assert_eq!(a.constants().count(), 2);

        let b = Atom::new("Reserve", vec![Term::str("Jerry"), v(5)]);
        assert!(!b.is_ground());
        assert_eq!(b.vars().collect::<Vec<_>>(), vec![Var(5)]);
    }

    #[test]
    fn apply_substitution() {
        let a = Atom::new("R", vec![v(0), v(1), Term::int(9)]);
        let out = a.apply(&|var: Var| {
            if var == Var(0) {
                Some(Term::str("Jerry"))
            } else {
                None
            }
        });
        assert_eq!(out.terms[0], Term::str("Jerry"));
        assert_eq!(out.terms[1], v(1).into_term());
        assert_eq!(out.terms[2], Term::int(9));
    }

    trait IntoTerm {
        fn into_term(self) -> Term;
    }
    impl IntoTerm for Term {
        fn into_term(self) -> Term {
            self
        }
    }

    #[test]
    fn display_form() {
        let a = Atom::new("F", vec![v(3), Term::str("Paris")]);
        assert_eq!(a.to_string(), "F(?3, Paris)");
    }

    #[test]
    fn atom_macro() {
        let a = atom!("R", [Term::str("Jerry"), v(1)]);
        assert_eq!(a.relation, Symbol::new("R"));
        assert_eq!(a.arity(), 2);
    }
}
