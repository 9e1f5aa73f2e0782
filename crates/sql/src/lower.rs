//! Lowering entangled-SQL to the intermediate representation (§2.2):
//! SELECT-INTO becomes the head `H`, `IN ANSWER` conjuncts become the
//! postcondition `C`, and `IN (SELECT ...)` subqueries plus direct
//! database atoms become the body `B`.

use crate::ast::*;
use crate::catalog::Catalog;
use crate::error::ParseError;
use eq_ir::{Atom, EntangledQuery, FastMap, Symbol, Term, Terms, Var, VarGen};

/// Lowers a parsed statement, resolving column names through `catalog`.
///
/// Scalar *names* (e.g. `fno`) become variables scoped to the whole
/// statement. Each subquery's `(alias, column)` pairs get their own fresh
/// variables, constrained by the subquery's WHERE conditions and tied to
/// the outer name by the `IN` binding. Equalities are applied as
/// substitutions, so the output query contains no explicit equality atoms
/// — mirroring the simplification step of §4.2.
pub fn lower_select(
    stmt: &EntangledSelect,
    catalog: &Catalog,
) -> Result<EntangledQuery, ParseError> {
    let mut cx = Lowering::default();

    // Head atoms: one per ANSWER target, sharing the SELECT tuple.
    let head_terms: Terms = stmt.items.iter().map(|e| cx.scalar(e)).collect();
    let mut head: Vec<Atom> = stmt
        .into
        .iter()
        .map(|r| Atom::with_terms(r.as_str(), head_terms.clone()))
        .collect();

    let mut postconditions = Vec::new();
    let mut body = Vec::new();

    for cond in &stmt.conditions {
        match cond {
            Condition::InAnswer(m) => {
                let terms: Terms = m.tuple.iter().map(|e| cx.scalar(e)).collect();
                postconditions.push(Atom::with_terms(m.answer.as_str(), terms));
            }
            Condition::DbAtom { relation, tuple } => {
                let rel = Symbol::new(relation);
                let arity = catalog
                    .arity(rel)
                    .ok_or_else(|| ParseError::general(format!("unknown relation {relation}")))?;
                if arity != tuple.len() {
                    return Err(ParseError::general(format!(
                        "relation {relation} has {arity} columns, got {}",
                        tuple.len()
                    )));
                }
                let terms: Terms = tuple.iter().map(|e| cx.scalar(e)).collect();
                body.push(Atom::with_terms(rel, terms));
            }
            Condition::Equality(a, b) => {
                let ta = cx.scalar(a);
                let tb = cx.scalar(b);
                cx.equate(ta, tb)?;
            }
            Condition::InSubquery { name, sub } => {
                cx.lower_subquery(name, sub, catalog, &mut body)?;
            }
        }
    }

    // Apply the accumulated substitution, then renumber densely in
    // first-occurrence order (head, postconditions, body) so lowering
    // output is deterministic.
    for atom in head.iter_mut().chain(&mut postconditions).chain(&mut body) {
        for t in &mut atom.terms {
            *t = cx.resolve(*t);
        }
    }
    let mut q = EntangledQuery::new(head, postconditions, body).with_choose(stmt.choose);
    q.rename_apart_in_place(&VarGen::new());
    q.validate()
        .map_err(|e| ParseError::general(e.to_string()))?;
    Ok(q)
}

#[derive(Default)]
struct Lowering {
    names: FastMap<String, Var>,
    subst: FastMap<Var, Term>,
    next_var: u32,
}

impl Lowering {
    fn fresh(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    fn name_var(&mut self, name: &str) -> Var {
        if let Some(&v) = self.names.get(name) {
            return v;
        }
        let v = self.fresh();
        self.names.insert(name.to_owned(), v);
        v
    }

    fn scalar(&mut self, e: &ScalarExpr) -> Term {
        match e {
            ScalarExpr::Lit(l) => Term::Const(l.to_value()),
            ScalarExpr::Name(n) => Term::Var(self.name_var(n)),
        }
    }

    /// Follows the substitution chain to a fixpoint.
    fn resolve(&self, t: Term) -> Term {
        let mut cur = t;
        loop {
            match cur {
                Term::Var(v) => match self.subst.get(&v) {
                    Some(&next) if next != cur => cur = next,
                    _ => return cur,
                },
                Term::Const(_) => return cur,
            }
        }
    }

    /// Records `a = b`, substituting one side by the other.
    fn equate(&mut self, a: Term, b: Term) -> Result<(), ParseError> {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        match (ra, rb) {
            (Term::Const(x), Term::Const(y)) => {
                if x == y {
                    Ok(())
                } else {
                    Err(ParseError::general(format!(
                        "contradictory equality: {x} = {y}"
                    )))
                }
            }
            (Term::Var(v), other) | (other, Term::Var(v)) => {
                if Term::Var(v) != other {
                    self.subst.insert(v, other);
                }
                Ok(())
            }
        }
    }

    fn lower_subquery(
        &mut self,
        outer_name: &str,
        sub: &SubSelect,
        catalog: &Catalog,
        body: &mut Vec<Atom>,
    ) -> Result<(), ParseError> {
        // Fresh variables for each (alias, column).
        let mut cols: FastMap<(String, String), Var> = FastMap::default();
        for tref in &sub.tables {
            let rel = Symbol::new(&tref.table);
            let columns = catalog
                .columns(rel)
                .ok_or_else(|| ParseError::general(format!("unknown relation {}", tref.table)))?;
            let mut terms = Terms::new();
            for &col in columns {
                let v = self.fresh();
                cols.insert((tref.alias.clone(), col.as_str().to_owned()), v);
                terms.push(Term::Var(v));
            }
            body.push(Atom::with_terms(rel, terms));
        }

        let lookup = |cols: &FastMap<(String, String), Var>,
                      (alias, column): &(String, String)|
         -> Result<Var, ParseError> {
            if alias.is_empty() {
                // Unqualified column: resolve if unambiguous.
                let matches: Vec<Var> = cols
                    .iter()
                    .filter(|((_, c), _)| c == column)
                    .map(|(_, &v)| v)
                    .collect();
                match matches.len() {
                    1 => Ok(matches[0]),
                    0 => Err(ParseError::general(format!("unknown column {column}"))),
                    _ => Err(ParseError::general(format!(
                        "ambiguous column {column}; qualify with an alias"
                    ))),
                }
            } else {
                cols.get(&(alias.clone(), column.clone()))
                    .copied()
                    .ok_or_else(|| ParseError::general(format!("unknown column {alias}.{column}")))
            }
        };

        for cond in &sub.conditions {
            match cond {
                SimpleCondition::ColEqLit { col, lit } => {
                    let v = lookup(&cols, col)?;
                    self.equate(Term::Var(v), Term::Const(lit.to_value()))?;
                }
                SimpleCondition::ColEqCol { left, right } => {
                    let lv = lookup(&cols, left)?;
                    let rv = lookup(&cols, right)?;
                    self.equate(Term::Var(lv), Term::Var(rv))?;
                }
                SimpleCondition::ColEqName { col, name } => {
                    let v = lookup(&cols, col)?;
                    let n = self.name_var(name);
                    self.equate(Term::Var(v), Term::Var(n))?;
                }
            }
        }

        // Tie the projected column to the outer name.
        let proj = lookup(&cols, &sub.column)?;
        let outer = self.name_var(outer_name);
        self.equate(Term::Var(outer), Term::Var(proj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table("Flights", &["fno", "dest"]);
        c.add_table("Airlines", &["fno", "airline"]);
        c.add_table("Friends", &["name1", "name2"]);
        c.add_table("User", &["name", "home"]);
        c
    }

    fn lower(sql: &str) -> EntangledQuery {
        lower_select(&parse_select(sql).unwrap(), &catalog()).unwrap()
    }

    #[test]
    fn kramer_lowers_to_paper_ir() {
        // Expect: {Reservation(Jerry, x)} Reservation(Kramer, x)
        //         <- Flights(x, Paris)
        let q = lower(
            "SELECT 'Kramer', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
             AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        );
        assert_eq!(q.head.len(), 1);
        assert_eq!(q.head[0].relation, Symbol::new("Reservation"));
        assert_eq!(q.head[0].terms[0], Term::str("Kramer"));
        let x = q.head[0].terms[1].as_var().expect("head var");
        assert_eq!(q.postconditions.len(), 1);
        assert_eq!(q.postconditions[0].terms[0], Term::str("Jerry"));
        assert_eq!(q.postconditions[0].terms[1], Term::Var(x));
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.body[0].relation, Symbol::new("Flights"));
        assert_eq!(q.body[0].terms[0], Term::Var(x));
        assert_eq!(q.body[0].terms[1], Term::str("Paris"));
        assert!(q.validate().is_ok());
    }

    #[test]
    fn jerry_lowers_with_join() {
        // Expect body: Flights(y, Paris) & Airlines(y, United).
        let q = lower(
            "SELECT 'Jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT F.fno FROM Flights F, Airlines A \
                           WHERE F.dest='Paris' AND F.fno=A.fno AND A.airline='United') \
             AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        );
        assert_eq!(q.body.len(), 2);
        let y = q.head[0].terms[1].as_var().unwrap();
        // Both body atoms constrain the same variable y in column fno.
        assert_eq!(q.body[0].terms[0], Term::Var(y));
        assert_eq!(q.body[1].terms[0], Term::Var(y));
        assert_eq!(q.body[0].terms[1], Term::str("Paris"));
        assert_eq!(q.body[1].terms[1], Term::str("United"));
    }

    #[test]
    fn direct_db_atom_and_equality() {
        // The two-way workload query of §5.3.1, written with direct atoms:
        // {R(x, ITH)} R(Jerry, ITH) <- Friends(Jerry, x), User(Jerry, c), User(x, c)
        let q = lower(
            "SELECT x, 'ITH' INTO ANSWER R \
             WHERE Friends('Jerry', x) AND User('Jerry', c) AND User(x, c) \
             AND (Jerry1, 'ITH') IN ANSWER R AND Jerry1 = 'Jerry'",
        );
        assert_eq!(q.body.len(), 3);
        assert_eq!(q.postconditions[0].terms[0], Term::str("Jerry"));
        assert_eq!(q.head[0].terms[1], Term::str("ITH"));
    }

    #[test]
    fn multiple_answer_targets_share_tuple() {
        let q = lower("SELECT x INTO ANSWER R, ANSWER S WHERE Friends('a', x)");
        assert_eq!(q.head.len(), 2);
        assert_eq!(q.head[0].terms, q.head[1].terms);
        assert_ne!(q.head[0].relation, q.head[1].relation);
    }

    #[test]
    fn unknown_relation_rejected() {
        let err = lower_select(
            &parse_select("SELECT x INTO ANSWER R WHERE Bogus(x)").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("unknown relation"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = lower_select(
            &parse_select("SELECT x INTO ANSWER R WHERE Friends(x)").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("columns"));
    }

    #[test]
    fn contradictory_equality_rejected() {
        let err = lower_select(
            &parse_select("SELECT 'a' INTO ANSWER R WHERE 'x' = 'y'").unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("contradictory"));
    }

    #[test]
    fn range_restriction_enforced_after_lowering() {
        // `x` appears in the head but nothing binds it.
        let err =
            lower_select(&parse_select("SELECT x INTO ANSWER R").unwrap(), &catalog()).unwrap_err();
        assert!(err.message.contains("range restriction"), "{err}");
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let err = lower_select(
            &parse_select(
                "SELECT x INTO ANSWER R \
                 WHERE x IN (SELECT fno FROM Flights, Airlines WHERE dest='Paris')",
            )
            .unwrap(),
            &catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn variables_renumbered_densely() {
        let q = lower(
            "SELECT x, 'ITH' INTO ANSWER R \
             WHERE Friends('Jerry', x) AND ('Jerry', 'ITH') IN ANSWER R",
        );
        let vars = q.variables();
        assert_eq!(vars, vec![Var(0)]);
    }
}
