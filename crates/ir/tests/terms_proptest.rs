//! `Terms` against a `Vec<Term>` model at arities 0–5: every way of
//! building one (push, collect, `From<Vec>`, `From<[Term; N]>`), reads
//! through deref and `&Terms` iteration, writes through mutable deref,
//! and — what keeps every `FastMap` order, tie-break and answer hash of
//! the engine unchanged — equality, ordering and the `FastMap` hasher's
//! output, which must all be the `Vec`'s.

use eq_ir::hash::FxHasher;
use eq_ir::{Atom, FastMap, Symbol, Term, Terms, Var, INLINE_TERMS};
use proptest::prelude::*;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};

const STRS: [&str; 3] = ["Paris", "ITH", "Jerry"];

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..4u32).prop_map(|i| Term::var(Var(i))),
        (-3i64..3).prop_map(Term::int),
        (0..STRS.len()).prop_map(|i| Term::str(STRS[i])),
    ]
}

/// Up to five terms: both sides of the inline/heap boundary.
fn arb_terms() -> impl Strategy<Value = Vec<Term>> {
    proptest::collection::vec(arb_term(), 0..6)
}

fn fx_hash(x: &impl Hash) -> u64 {
    BuildHasherDefault::<FxHasher>::default().hash_one(x)
}

/// The model built every way a `Terms` can be: pushed, collected from
/// an exact and from an inexact iterator, moved from a `Vec`, and — at
/// arity 2 — converted from an array.
fn every_build(model: &[Term]) -> Vec<Terms> {
    let mut pushed = Terms::new();
    for &t in model {
        pushed.push(t);
    }
    let mut built = vec![
        pushed,
        model.iter().copied().collect(),
        model.iter().copied().filter(|_| true).collect(),
        Terms::from(model.to_vec()),
    ];
    if let Ok(pair) = <[Term; 2]>::try_from(model) {
        built.push(Terms::from(pair));
    }
    built
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_build_reads_as_the_model(model in arb_terms()) {
        for terms in every_build(&model) {
            prop_assert_eq!(&terms[..], &model[..]);
            prop_assert_eq!(terms.len(), model.len());
            prop_assert_eq!(terms.spilled(), model.len() > INLINE_TERMS);
            prop_assert_eq!((&terms).into_iter().copied().collect::<Vec<_>>(), model.clone());
            prop_assert_eq!(terms.iter().zip(&model).filter(|(a, b)| a == b).count(), model.len());
            prop_assert_eq!(format!("{terms:?}"), format!("{model:?}"));
            prop_assert_eq!(terms.clone(), terms);
        }
    }

    #[test]
    fn writes_through_mutable_deref_match_the_model(
        model in arb_terms(),
        writes in proptest::collection::vec((0..5usize, arb_term()), 0..6),
        extra in proptest::collection::vec(arb_term(), 0..4),
    ) {
        for mut terms in every_build(&model) {
            let mut model = model.clone();
            for &(i, t) in &writes {
                if i < model.len() {
                    terms[i] = t;
                    model[i] = t;
                }
            }
            for (t, m) in (&mut terms).into_iter().zip(&mut model) {
                if let (Term::Var(v), Term::Var(w)) = (t, m) {
                    v.0 += 10;
                    w.0 += 10;
                }
            }
            terms.sort();
            model.sort();
            for &t in &extra {
                terms.push(t);
                model.push(t);
            }
            terms.reverse();
            model.reverse();
            prop_assert_eq!(&terms[..], &model[..]);
            if model.len() > INLINE_TERMS {
                prop_assert!(terms.spilled());
            }
        }
    }

    #[test]
    fn eq_cmp_and_hash_are_the_vecs(a in arb_terms(), b in arb_terms()) {
        let (ta, tb) = (Terms::from(a.clone()), Terms::from(b.clone()));
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(ta.partial_cmp(&tb), a.partial_cmp(&b));
        prop_assert_eq!(fx_hash(&ta), fx_hash(&a));
        let std_hasher = RandomState::new();
        prop_assert_eq!(std_hasher.hash_one(&ta), std_hasher.hash_one(&a));

        // An atom hashes as its relation followed by a `Vec<Term>`.
        let atom = Atom::new("R", a.clone());
        prop_assert_eq!(fx_hash(&atom), fx_hash(&(Symbol::new("R"), a.clone())));
    }

    #[test]
    fn fast_maps_iterate_in_the_vecs_order(keys in proptest::collection::vec(arb_terms(), 0..24)) {
        let mut by_vec: FastMap<Vec<Term>, usize> = FastMap::default();
        let mut by_terms: FastMap<Terms, usize> = FastMap::default();
        for (i, key) in keys.iter().enumerate() {
            by_vec.entry(key.clone()).or_insert(i);
            by_terms.entry(Terms::from(key.clone())).or_insert(i);
        }
        let vec_order: Vec<usize> = by_vec.values().copied().collect();
        let terms_order: Vec<usize> = by_terms.values().copied().collect();
        prop_assert_eq!(vec_order, terms_order);
    }
}
