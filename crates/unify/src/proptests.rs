//! Property-based tests for the unification engine.
//!
//! The key invariants:
//! 1. the MGU of two unifiers (both folded into a fresh table) is
//!    commutative and associative *as a constraint set*;
//! 2. `mgu(u, u)` is `u` (idempotence) and merging reports no change;
//! 3. `mgu_atoms(a, b)` exists iff some valuation makes `a` and `b` equal
//!    (checked against brute-force enumeration on small domains);
//! 4. applying a successful atom MGU to both atoms yields the same atom.

use crate::{mgu_atoms, Unifier};
use eq_ir::{Atom, FastMap, Term, Value, Var};
use proptest::prelude::*;

const NUM_VARS: u32 = 4;
const NUM_VALUES: i64 = 3;

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NUM_VARS).prop_map(|i| Term::var(Var(i))),
        (0..NUM_VALUES).prop_map(Term::int),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    proptest::collection::vec(arb_term(), 1..4).prop_map(|terms| Atom::new("R", terms))
}

/// A script of equates and binds over the shared variables and values.
fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..NUM_VARS), (0..NUM_VARS)).prop_map(|(a, b)| Op::Equate(Var(a), Var(b))),
            ((0..NUM_VARS), (0..NUM_VALUES)).prop_map(|(v, c)| Op::Bind(Var(v), Value::int(c))),
        ],
        0..8,
    )
}

/// The unifier a script builds, discarding failing steps so the result
/// is always consistent.
fn build(ops: &[Op]) -> Unifier {
    let mut u = Unifier::new();
    for op in ops {
        match *op {
            Op::Equate(a, b) => {
                let _ = u.equate(a, b);
            }
            Op::Bind(v, c) => {
                let _ = u.bind(v, c);
            }
        }
    }
    u
}

/// The most general unifier of `a` and `b`: both folded into a fresh
/// table, or `None` if they conflict.
fn mgu(a: &Unifier, b: &Unifier) -> Option<Unifier> {
    let mut out = Unifier::new();
    out.merge_from(a).ok()?;
    out.merge_from(b).ok()?;
    Some(out)
}

/// A random unifier built from a script of equates and binds.
fn arb_unifier() -> impl Strategy<Value = Unifier> {
    arb_script().prop_map(|ops| build(&ops))
}

/// A head and a postcondition of one relation and arity: repeated
/// variables, constants, and constants that clash within the pair or
/// with a prior.
fn arb_pair() -> impl Strategy<Value = (Atom, Atom)> {
    (1usize..5)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec(arb_term(), n),
                proptest::collection::vec(arb_term(), n),
            )
        })
        .prop_map(|(h, p)| (Atom::new("R", h), Atom::new("R", p)))
}

#[derive(Clone, Debug)]
enum Op {
    Equate(Var, Var),
    Bind(Var, Value),
}

/// Brute-force: does any valuation over `0..NUM_VALUES` (plus all constants
/// occurring in the atoms) make the two atoms equal?
fn unifiable_by_enumeration(a: &Atom, b: &Atom) -> bool {
    if a.relation != b.relation || a.terms.len() != b.terms.len() {
        return false;
    }
    let mut vars: Vec<Var> = a.vars().chain(b.vars()).collect();
    vars.sort_unstable();
    vars.dedup();
    let mut domain: Vec<Value> = (0..NUM_VALUES).map(Value::int).collect();
    domain.extend(a.constants().chain(b.constants()));
    domain.sort_unstable();
    domain.dedup();

    let k = vars.len();
    let n = domain.len();
    let mut counters = vec![0usize; k];
    loop {
        let assignment: FastMap<Var, Value> = vars
            .iter()
            .zip(&counters)
            .map(|(&v, &i)| (v, domain[i]))
            .collect();
        let ground = |atom: &Atom| -> Vec<Value> {
            atom.terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => assignment[v],
                })
                .collect()
        };
        if ground(a) == ground(b) {
            return true;
        }
        // Next assignment (odometer).
        let mut i = 0;
        loop {
            if i == k {
                return false;
            }
            counters[i] += 1;
            if counters[i] < n {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
        if k == 0 {
            return false;
        }
    }
}

proptest! {
    #[test]
    fn mgu_commutative(a in arb_unifier(), b in arb_unifier()) {
        let ab = mgu(&a, &b);
        let ba = mgu(&b, &a);
        match (ab, ba) {
            (Some(x), Some(y)) => prop_assert!(x.equivalent(&y)),
            (None, None) => {}
            _ => prop_assert!(false, "mgu existence differed by order"),
        }
    }

    #[test]
    fn mgu_associative(a in arb_unifier(), b in arb_unifier(), c in arb_unifier()) {
        let left = mgu(&a, &b).and_then(|ab| mgu(&ab, &c));
        let right = mgu(&b, &c).and_then(|bc| mgu(&a, &bc));
        match (left, right) {
            (Some(x), Some(y)) => prop_assert!(x.equivalent(&y)),
            (None, None) => {}
            _ => prop_assert!(false, "mgu existence differed by association"),
        }
    }

    #[test]
    fn mgu_idempotent(a in arb_unifier()) {
        let m = mgu(&a, &a).expect("self-mgu always exists");
        prop_assert!(m.equivalent(&a));
        let mut b = a.clone();
        prop_assert_eq!(b.merge_from(&a), Ok(false), "self-merge must report no change");
    }

    #[test]
    fn merge_reports_change_iff_constraints_grew(a in arb_unifier(), b in arb_unifier()) {
        let mut merged = a.clone();
        if let Ok(changed) = merged.merge_from(&b) {
            prop_assert_eq!(changed, !merged.equivalent(&a));
        }
    }

    #[test]
    fn atom_mgu_matches_enumeration(a in arb_atom(), b in arb_atom()) {
        let fast = mgu_atoms(&a, &b).is_some();
        let slow = unifiable_by_enumeration(&a, &b);
        prop_assert_eq!(fast, slow, "atoms {} vs {}", a, b);
    }

    #[test]
    fn atom_mgu_application_equalizes(a in arb_atom(), b in arb_atom()) {
        if let Some(u) = mgu_atoms(&a, &b) {
            let ra = a.apply(&|v| Some(u.resolve(Term::var(v))));
            let rb = b.apply(&|v| Some(u.resolve(Term::var(v))));
            prop_assert_eq!(ra, rb);
        }
    }

    #[test]
    fn unifiable_is_mgu_existence(a in arb_atom(), b in arb_atom()) {
        prop_assert_eq!(crate::unifiable(&a, &b), mgu_atoms(&a, &b).is_some(), "atoms {} vs {}", a, b);
    }

    /// The edge fold replays the stored-MGU fold: folding a pair into a
    /// prior directly conflicts exactly when `merge_from(&mgu_atoms(h,
    /// p))` does (or when the pair has no MGU), and on success reports
    /// the same change and leaves every variable with the same
    /// representative and constant — the same forest, not only an
    /// equivalent partition.
    #[test]
    fn edge_fold_equals_the_stored_mgu_fold(prior in arb_script(), pair in arb_pair()) {
        let (h, p) = pair;
        let mut direct = build(&prior);
        let mut stored = build(&prior);
        let folded = direct.unify_atoms(&h, &p);
        let reference = match mgu_atoms(&h, &p) {
            Some(mgu) => stored.merge_from(&mgu).map_err(|_| ()),
            None => Err(()),
        };
        prop_assert_eq!(folded.map_err(|_| ()), reference, "{} / {} into {:?}", h, p, prior);
        if reference.is_ok() {
            for i in 0..NUM_VARS {
                prop_assert_eq!(direct.find(Var(i)), stored.find(Var(i)), "{} / {} into {:?}", h, p, prior);
                prop_assert_eq!(direct.constant_of(Var(i)), stored.constant_of(Var(i)));
            }
            prop_assert_eq!(direct.classes(), stored.classes());
        }
    }

    #[test]
    fn find_is_stable_under_queries(u in arb_unifier()) {
        // Querying must not change the constraint structure.
        let before = u.classes();
        for i in 0..NUM_VARS {
            let _ = u.find(Var(i));
            let _ = u.constant_of(Var(i));
        }
        prop_assert_eq!(before, u.classes());
    }
}
