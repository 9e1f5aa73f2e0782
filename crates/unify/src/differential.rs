//! Differential-oracle harness for the `Unifier`.
//!
//! A script interpreter drives the production table and the frozen
//! reference [`crate::oracle::OracleUnifier`] through the same random
//! sequence of `equate` / `bind` / `unify_terms` / `merge_from` —
//! conflicting merges included — and asserts **observational
//! equivalence after every single step**: identical `classes()`,
//! identical lengths, identical success/conflict results.
//!
//! The internal forests are allowed to differ (the production `find`
//! compresses paths, the oracle's does not; `classes()` is canonical),
//! so a union, constant or compression bug shows up as a
//! partition/constant divergence on the next comparison.

use crate::oracle::OracleUnifier;
use crate::{Conflict, Unifier};
use eq_ir::{Term, Value, Var};
use proptest::prelude::*;

const NUM_VARS: u32 = 6;
const NUM_VALUES: i64 = 3;
const POOL: usize = 3;

/// One step of a differential script.
#[derive(Clone, Debug)]
enum ScriptOp {
    Equate(Var, Var),
    Bind(Var, Value),
    UnifyTerms(Term, Term),
    /// Merge one of the prebuilt operand tables (by pool index).
    MergeFrom(usize),
}

/// A pool operand described as a build script (equates/binds, failures
/// discarded) so the production and oracle copies are built identically.
#[derive(Clone, Debug)]
enum BuildOp {
    Equate(Var, Var),
    Bind(Var, Value),
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NUM_VARS).prop_map(|i| Term::var(Var(i))),
        (0..NUM_VALUES).prop_map(Term::int),
    ]
}

fn arb_build_ops() -> impl Strategy<Value = Vec<BuildOp>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..NUM_VARS), (0..NUM_VARS)).prop_map(|(a, b)| BuildOp::Equate(Var(a), Var(b))),
            ((0..NUM_VARS), (0..NUM_VALUES))
                .prop_map(|(v, c)| BuildOp::Bind(Var(v), Value::int(c))),
        ],
        0..6,
    )
}

fn arb_script() -> impl Strategy<Value = Vec<ScriptOp>> {
    proptest::collection::vec(
        prop_oneof![
            ((0..NUM_VARS), (0..NUM_VARS)).prop_map(|(a, b)| ScriptOp::Equate(Var(a), Var(b))),
            ((0..NUM_VARS), (0..NUM_VALUES))
                .prop_map(|(v, c)| ScriptOp::Bind(Var(v), Value::int(c))),
            (arb_term(), arb_term()).prop_map(|(a, b)| ScriptOp::UnifyTerms(a, b)),
            (0..POOL).prop_map(ScriptOp::MergeFrom),
        ],
        0..40,
    )
}

/// Builds the production and oracle copies of one pool operand from the
/// same script, discarding failing steps identically.
fn build_operand(ops: &[BuildOp]) -> (Unifier, OracleUnifier) {
    let mut u = Unifier::new();
    let mut o = OracleUnifier::new();
    for op in ops {
        match *op {
            BuildOp::Equate(a, b) => {
                let ru = u.equate(a, b);
                let ro = o.equate(a, b);
                assert!(results_agree(&ru, &ro), "operand build diverged");
            }
            BuildOp::Bind(v, c) => {
                let ru = u.bind(v, c);
                let ro = o.bind(v, c);
                assert!(results_agree(&ru, &ro), "operand build diverged");
            }
        }
    }
    (u, o)
}

/// True iff a production result and an oracle result are the same
/// outcome (same change flag, or same conflict pair).
fn results_agree(prod: &Result<bool, Conflict>, oracle: &Result<bool, (Value, Value)>) -> bool {
    match (prod, oracle) {
        (Ok(a), Ok(b)) => a == b,
        (Err(c), Err((l, r))) => c.left == *l && c.right == *r,
        _ => false,
    }
}

/// The per-step observational-equivalence assertion.
fn assert_same_observables(subject: &Unifier, oracle: &OracleUnifier, step: usize) {
    assert_eq!(
        subject.classes(),
        oracle.classes(),
        "partition diverged after step {step}"
    );
    // The `equivalent()`-level view (unconstrained singletons dropped)
    // must agree too — this is what the engine's callers observe.
    let normalized: Vec<_> = subject
        .classes()
        .into_iter()
        .filter(|(vars, c)| vars.len() > 1 || c.is_some())
        .collect();
    assert_eq!(
        normalized,
        oracle.normalized_classes(),
        "normalized classes diverged after step {step}"
    );
    assert_eq!(
        subject.len(),
        oracle.len(),
        "len diverged after step {step}"
    );
}

/// Applies one op to both sides, asserting the outcomes agree and the
/// two tables observe identically afterwards.
fn step(
    subject: &mut Unifier,
    oracle: &mut OracleUnifier,
    op: &ScriptOp,
    pool: &[(Unifier, OracleUnifier)],
    at: usize,
) {
    let (ru, ro) = match op {
        ScriptOp::Equate(a, b) => (subject.equate(*a, *b), oracle.equate(*a, *b)),
        ScriptOp::Bind(v, c) => (subject.bind(*v, *c), oracle.bind(*v, *c)),
        ScriptOp::UnifyTerms(a, b) => (subject.unify_terms(*a, *b), oracle.unify_terms(*a, *b)),
        // Conflicting merges are the interesting case: both sides stop
        // at the same class, so even the partially merged states must
        // observe identically.
        ScriptOp::MergeFrom(i) => (
            subject.merge_from(&pool[*i].0),
            oracle.merge_from(&pool[*i].1),
        ),
    };
    assert!(results_agree(&ru, &ro), "{op:?} diverged at step {at}");
    assert_same_observables(subject, oracle, at);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The production table and the reference oracle observe
    /// identically after every step of a random script.
    #[test]
    fn unifier_equals_reference_oracle(
        script in arb_script(),
        pool_scripts in proptest::collection::vec(arb_build_ops(), POOL..=POOL),
    ) {
        let pool: Vec<(Unifier, OracleUnifier)> =
            pool_scripts.iter().map(|s| build_operand(s)).collect();
        let mut subject = Unifier::new();
        let mut oracle = OracleUnifier::new();
        for (i, op) in script.iter().enumerate() {
            step(&mut subject, &mut oracle, op, &pool, i);
        }
    }
}
