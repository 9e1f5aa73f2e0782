//! The intermediate representation of an entangled query: `{C} H ⊣ B`.

use crate::{Atom, Constraint, FastMap, FastSet, Term, Var, VarGen};
use std::collections::HashSet;
use std::fmt;

/// Identity of an entangled query within an engine or a matching run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl fmt::Debug for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// An entangled query in the paper's intermediate representation (§2.2):
///
/// ```text
/// {C} H ⊣ B
/// ```
///
/// * `C` (*postconditions*) — conjunction of atoms over ANSWER relations
///   that must be satisfied by *other* queries' contributions;
/// * `H` (*head*) — conjunction of atoms over ANSWER relations contributed
///   by this query;
/// * `B` (*body*) — conjunction of atoms over database relations binding
///   the variables used in `H` and `C`.
///
/// Range restriction: every variable in `H` or `C` must appear in `B`.
/// Use [`EntangledQuery::validate`] to check this; the engine refuses
/// non-range-restricted queries at admission.
#[derive(Clone, PartialEq, Eq)]
pub struct EntangledQuery {
    /// Query identity; assigned by the engine at admission.
    pub id: QueryId,
    /// Head atoms `H` (over ANSWER relations). Must be non-empty.
    pub head: Vec<Atom>,
    /// Postcondition atoms `C` (over ANSWER relations). May be empty for a
    /// query that contributes unconditionally.
    pub postconditions: Vec<Atom>,
    /// Body atoms `B` (over database relations).
    pub body: Vec<Atom>,
    /// Comparison constraints over body valuations (e.g. `x >= 5`);
    /// purely a body filter, invisible to matching.
    pub constraints: Vec<Constraint>,
    /// `CHOOSE k`: number of coordinated solutions requested. The paper's
    /// core language fixes `k = 1`, and [`EntangledQuery::validate`]
    /// refuses any other `k`: the engine answers one solution (§4.2).
    pub choose: u32,
}

/// Why a query failed validation at admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// The head is empty — the query would contribute nothing.
    EmptyHead,
    /// A head or postcondition variable does not occur in the body
    /// (violates range restriction, §2.2).
    NotRangeRestricted {
        /// The offending variable.
        var: Var,
        /// Whether it occurred in a head or a postcondition atom.
        polarity: crate::Polarity,
    },
    /// `CHOOSE k` with `k ≠ 1`: the engine answers each coordinating
    /// set with one solution (§4.2), so only `CHOOSE 1` is accepted.
    ChooseUnsupported {
        /// The requested choice count.
        k: u32,
    },
    /// A comparison constraint mentions a variable the body does not
    /// bind.
    UnboundConstraintVar {
        /// The offending variable.
        var: Var,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyHead => write!(f, "query has no head atoms"),
            ValidationError::NotRangeRestricted { var, polarity } => write!(
                f,
                "variable {var} appears in a {polarity:?} atom but not in the body \
                 (range restriction, paper §2.2)"
            ),
            ValidationError::ChooseUnsupported { k } => {
                write!(f, "CHOOSE {k} is not supported: only CHOOSE 1")
            }
            ValidationError::UnboundConstraintVar { var } => write!(
                f,
                "variable {var} appears in a comparison constraint but not in the body"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl EntangledQuery {
    /// Builds a `CHOOSE 1` query. The id is a placeholder until admission.
    pub fn new(head: Vec<Atom>, postconditions: Vec<Atom>, body: Vec<Atom>) -> Self {
        EntangledQuery {
            id: QueryId(0),
            head,
            postconditions,
            body,
            constraints: Vec::new(),
            choose: 1,
        }
    }

    /// Adds body comparison constraints, returning `self` (builder
    /// style).
    pub fn with_constraints(mut self, constraints: Vec<Constraint>) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the query id, returning `self` (builder style).
    pub fn with_id(mut self, id: QueryId) -> Self {
        self.id = id;
        self
    }

    /// Sets the `CHOOSE k` count, returning `self` (builder style).
    pub fn with_choose(mut self, k: u32) -> Self {
        self.choose = k;
        self
    }

    /// Checks structural well-formedness: non-empty head, range
    /// restriction, a choose count of one. Allocates nothing when the
    /// body has at most eight distinct variables.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.head.is_empty() {
            return Err(ValidationError::EmptyHead);
        }
        if self.choose != 1 {
            return Err(ValidationError::ChooseUnsupported { k: self.choose });
        }
        let mut body_vars = VarSet::default();
        for v in self.body.iter().flat_map(|a| a.vars()) {
            body_vars.insert(v);
        }
        for atom in &self.head {
            if let Some(var) = atom.vars().find(|&v| !body_vars.contains(v)) {
                return Err(ValidationError::NotRangeRestricted {
                    var,
                    polarity: crate::Polarity::Head,
                });
            }
        }
        for atom in &self.postconditions {
            if let Some(var) = atom.vars().find(|&v| !body_vars.contains(v)) {
                return Err(ValidationError::NotRangeRestricted {
                    var,
                    polarity: crate::Polarity::Postcondition,
                });
            }
        }
        for c in &self.constraints {
            if let Some(var) = c.vars().find(|&v| !body_vars.contains(v)) {
                return Err(ValidationError::UnboundConstraintVar { var });
            }
        }
        Ok(())
    }

    /// All distinct variables of the query, in first-occurrence order
    /// (head, then postconditions, then body).
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for atom in self
            .head
            .iter()
            .chain(&self.postconditions)
            .chain(&self.body)
        {
            for v in atom.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Total number of postcondition atoms (`PCCOUNT` in §4.1.1).
    pub fn pc_count(&self) -> usize {
        self.postconditions.len()
    }

    /// Renames all variables apart using fresh variables from `gen`,
    /// establishing the matching precondition that no variable is shared
    /// between queries (§4.1.3). A clone plus
    /// [`EntangledQuery::rename_apart_in_place`].
    pub fn rename_apart(&self, gen: &VarGen) -> EntangledQuery {
        let mut renamed = self.clone();
        renamed.rename_apart_in_place(gen);
        renamed
    }

    /// Renames all variables apart in place: fresh variables from `gen`
    /// are handed out in first-occurrence order over head,
    /// postconditions, body and constraints. Reuses the query's vectors;
    /// allocates nothing when the query has at most eight distinct
    /// variables.
    pub fn rename_apart_in_place(&mut self, gen: &VarGen) {
        let mut renames = Renames::default();
        let atoms = self
            .head
            .iter_mut()
            .chain(&mut self.postconditions)
            .chain(&mut self.body);
        for term in atoms.flat_map(|atom| &mut atom.terms) {
            renames.apply(term, gen);
        }
        for c in &mut self.constraints {
            renames.apply(&mut c.lhs, gen);
            renames.apply(&mut c.rhs, gen);
        }
    }
}

/// How many variables [`Renames`] and [`VarSet`] keep inline before
/// they need a hash table.
const SMALL_VARS: usize = 8;

/// A set of variables: the first [`SMALL_VARS`] in an array searched
/// linearly, any more in a hash set.
struct VarSet {
    small: [Var; SMALL_VARS],
    len: usize,
    spill: FastSet<Var>,
}

impl Default for VarSet {
    fn default() -> Self {
        VarSet {
            small: [Var(0); SMALL_VARS],
            len: 0,
            spill: FastSet::default(),
        }
    }
}

impl VarSet {
    fn insert(&mut self, v: Var) {
        if self.contains(v) {
            return;
        }
        if self.len < SMALL_VARS {
            self.small[self.len] = v;
            self.len += 1;
        } else {
            self.spill.insert(v);
        }
    }

    fn contains(&self, v: Var) -> bool {
        self.small[..self.len].contains(&v) || (self.len == SMALL_VARS && self.spill.contains(&v))
    }
}

/// A variable renaming: the first [`SMALL_VARS`] pairs in an array
/// searched linearly, any more in a map.
struct Renames {
    small: [(Var, Var); SMALL_VARS],
    len: usize,
    spill: FastMap<Var, Var>,
}

impl Default for Renames {
    fn default() -> Self {
        Renames {
            small: [(Var(0), Var(0)); SMALL_VARS],
            len: 0,
            spill: FastMap::default(),
        }
    }
}

impl Renames {
    /// Replaces a variable term by its rename, drawing a fresh variable
    /// from `gen` on its first occurrence.
    fn apply(&mut self, term: &mut Term, gen: &VarGen) {
        let Term::Var(v) = term else { return };
        let old = *v;
        *v = if let Some(&(_, new)) = self.small[..self.len].iter().find(|(o, _)| *o == old) {
            new
        } else if self.len < SMALL_VARS {
            let new = gen.fresh();
            self.small[self.len] = (old, new);
            self.len += 1;
            new
        } else {
            *self.spill.entry(old).or_insert_with(|| gen.fresh())
        };
    }
}

impl fmt::Debug for EntangledQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for EntangledQuery {
    /// Paper-style rendering: `{C} H <- B`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.postconditions.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}} ")?;
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " <- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, " & ")?;
            }
            write!(f, "{a}")?;
        }
        for c in &self.constraints {
            write!(f, " & {c}")?;
        }
        if self.choose != 1 {
            write!(f, " choose {}", self.choose)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, Polarity, Term};

    fn v(i: u32) -> Term {
        Term::var(Var(i))
    }

    /// Kramer's query from the paper's introduction:
    /// `{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)`.
    fn kramer() -> EntangledQuery {
        EntangledQuery::new(
            vec![atom!("R", [Term::str("Kramer"), v(0)])],
            vec![atom!("R", [Term::str("Jerry"), v(0)])],
            vec![atom!("F", [v(0), Term::str("Paris")])],
        )
    }

    #[test]
    fn kramer_query_is_valid() {
        assert_eq!(kramer().validate(), Ok(()));
    }

    /// Range restriction is decided the same whether the body's
    /// variables fit inline or spill: twelve body variables, a head on
    /// the last of them, then a head on one the body lacks.
    #[test]
    fn range_restriction_sees_variables_past_the_inline_ones() {
        let body = vec![Atom::new("F", (0..12).map(v).collect())];
        let q = EntangledQuery::new(vec![atom!("R", [v(11), v(0)])], vec![], body.clone());
        assert_eq!(q.validate(), Ok(()));
        let q = EntangledQuery::new(vec![atom!("R", [v(11), v(12)])], vec![], body);
        assert_eq!(
            q.validate(),
            Err(ValidationError::NotRangeRestricted {
                var: Var(12),
                polarity: Polarity::Head,
            })
        );
    }

    #[test]
    fn empty_head_rejected() {
        let q = EntangledQuery::new(vec![], vec![], vec![atom!("F", [v(0)])]);
        assert_eq!(q.validate(), Err(ValidationError::EmptyHead));
    }

    #[test]
    fn choose_zero_rejected() {
        for k in [0, 2, 3] {
            let q = kramer().with_choose(k);
            assert_eq!(q.validate(), Err(ValidationError::ChooseUnsupported { k }));
        }
        assert_eq!(kramer().with_choose(1).validate(), Ok(()));
    }

    #[test]
    fn range_restriction_head() {
        // Head uses ?1 which is not bound in the body.
        let q = EntangledQuery::new(vec![atom!("R", [v(1)])], vec![], vec![atom!("F", [v(0)])]);
        assert_eq!(
            q.validate(),
            Err(ValidationError::NotRangeRestricted {
                var: Var(1),
                polarity: Polarity::Head
            })
        );
    }

    #[test]
    fn range_restriction_postcondition() {
        let q = EntangledQuery::new(
            vec![atom!("R", [v(0)])],
            vec![atom!("R", [v(2)])],
            vec![atom!("F", [v(0)])],
        );
        assert_eq!(
            q.validate(),
            Err(ValidationError::NotRangeRestricted {
                var: Var(2),
                polarity: Polarity::Postcondition
            })
        );
    }

    #[test]
    fn ground_query_needs_no_body_bindings() {
        // Fully specified query (best-case workload of §5.3.1): no
        // variables in head/postconditions at all.
        let q = EntangledQuery::new(
            vec![atom!("R", [Term::str("Jerry"), Term::str("ITH")])],
            vec![atom!("R", [Term::str("Kramer"), Term::str("ITH")])],
            vec![atom!("F", [Term::str("Jerry"), Term::str("Kramer")])],
        );
        assert_eq!(q.validate(), Ok(()));
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let q = EntangledQuery::new(
            vec![atom!("R", [v(5), v(2)])],
            vec![atom!("R", [v(2), v(7)])],
            vec![atom!("F", [v(5), v(2), v(7), v(9)])],
        );
        assert_eq!(q.variables(), vec![Var(5), Var(2), Var(7), Var(9)]);
    }

    #[test]
    fn rename_apart_preserves_structure() {
        let gen = VarGen::starting_at(100);
        let q = kramer();
        let r = q.rename_apart(&gen);
        // Shape preserved.
        assert_eq!(r.head.len(), 1);
        assert_eq!(r.postconditions.len(), 1);
        assert_eq!(r.body.len(), 1);
        // Shared variable x stays shared after renaming.
        let hv = r.head[0].vars().next().unwrap();
        let pv = r.postconditions[0].vars().next().unwrap();
        let bv = r.body[0].vars().next().unwrap();
        assert_eq!(hv, pv);
        assert_eq!(hv, bv);
        assert!(hv.index() >= 100);
        // Constants untouched.
        assert_eq!(r.head[0].terms[0], Term::str("Kramer"));
    }

    #[test]
    fn rename_apart_twice_gives_disjoint_vars() {
        let gen = VarGen::new();
        let a = kramer().rename_apart(&gen);
        let b = kramer().rename_apart(&gen);
        let av: HashSet<Var> = a.variables().into_iter().collect();
        let bv: HashSet<Var> = b.variables().into_iter().collect();
        assert!(av.is_disjoint(&bv));
    }

    #[test]
    fn display_round_shape() {
        let q = kramer();
        let s = q.to_string();
        assert!(s.contains("{R(Jerry, ?0)}"), "{s}");
        assert!(s.contains("R(Kramer, ?0) <- F(?0, Paris)"), "{s}");
    }

    #[test]
    fn pc_count() {
        assert_eq!(kramer().pc_count(), 1);
    }
}
