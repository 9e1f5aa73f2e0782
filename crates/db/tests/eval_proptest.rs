//! Property test: the indexed backtracking evaluator agrees with a naive
//! reference evaluator (full cross product + filter) on random databases
//! and random conjunctive queries.

use eq_db::{Database, Valuation, Visit};
use eq_ir::{Atom, Term, Value, Var};
use proptest::prelude::*;

const RELS: [&str; 2] = ["P", "Q"];
const ARITY: usize = 2;
const NUM_VARS: u32 = 3;
const DOMAIN: i64 = 4;

#[derive(Clone, Debug)]
struct Instance {
    rows_p: Vec<(i64, i64)>,
    rows_q: Vec<(i64, i64)>,
    atoms: Vec<Atom>,
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NUM_VARS).prop_map(|i| Term::var(Var(i))),
        (0..DOMAIN).prop_map(Term::int),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0..RELS.len(), proptest::collection::vec(arb_term(), ARITY))
        .prop_map(|(r, terms)| Atom::new(RELS[r], terms))
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((0..DOMAIN, 0..DOMAIN), 0..12),
        proptest::collection::vec((0..DOMAIN, 0..DOMAIN), 0..12),
        proptest::collection::vec(arb_atom(), 1..4),
    )
        .prop_map(|(rows_p, rows_q, atoms)| Instance {
            rows_p,
            rows_q,
            atoms,
        })
}

fn build_db(inst: &Instance) -> Database {
    let mut db = Database::new();
    db.create_table("P", &["a", "b"]).unwrap();
    db.create_table("Q", &["a", "b"]).unwrap();
    for &(a, b) in &inst.rows_p {
        db.insert("P", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    for &(a, b) in &inst.rows_q {
        db.insert("Q", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    db
}

/// Reference evaluator: enumerate every assignment of the atoms' variables
/// over the value domain and keep those under which every atom is a
/// database fact.
fn reference_eval(db: &Database, atoms: &[Atom]) -> Vec<Vec<(Var, Value)>> {
    let mut vars: Vec<Var> = atoms.iter().flat_map(|a| a.vars()).collect();
    vars.sort_unstable();
    vars.dedup();
    let k = vars.len();
    let mut out = Vec::new();
    let mut counters = vec![0i64; k];
    'outer: loop {
        let lookup = |v: Var| -> Value {
            let idx = vars.iter().position(|&x| x == v).unwrap();
            Value::int(counters[idx])
        };
        let holds = atoms.iter().all(|atom| {
            let row: Vec<Value> = atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => *c,
                    Term::Var(v) => lookup(*v),
                })
                .collect();
            db.contains(atom.relation.as_str(), &row)
        });
        if holds {
            out.push(vars.iter().map(|&v| (v, lookup(v))).collect());
        }
        // Odometer.
        let mut i = 0;
        loop {
            if i == k {
                break 'outer;
            }
            counters[i] += 1;
            if counters[i] < DOMAIN {
                break;
            }
            counters[i] = 0;
            i += 1;
        }
        if k == 0 {
            break;
        }
    }
    out
}

fn normalize(mut vals: Vec<Vec<(Var, Value)>>) -> Vec<Vec<(Var, Value)>> {
    for v in &mut vals {
        v.sort_unstable_by_key(|(var, _)| *var);
    }
    vals.sort();
    vals.dedup();
    vals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_eval_matches_reference(inst in arb_instance()) {
        let db = build_db(&inst);
        let fast: Vec<Valuation> = db.evaluate(&inst.atoms, usize::MAX).unwrap();
        let fast_norm = normalize(
            fast.into_iter()
                .map(|m| m.into_iter().collect::<Vec<_>>())
                .collect(),
        );
        let slow_norm = normalize(reference_eval(&db, &inst.atoms));
        prop_assert_eq!(fast_norm, slow_norm);
    }

    #[test]
    fn limit_is_prefix_of_full(inst in arb_instance(), limit in 0usize..5) {
        let db = build_db(&inst);
        let full = db.evaluate(&inst.atoms, usize::MAX).unwrap();
        let limited = db.evaluate(&inst.atoms, limit).unwrap();
        prop_assert_eq!(limited.len(), full.len().min(limit));
        // Every limited valuation is a valid full valuation.
        for lv in &limited {
            prop_assert!(full.contains(lv));
        }
    }

    /// A run that opens on an atom binding `lead` enumerates the same
    /// valuations, as a multiset, and a projection onto `lead` that
    /// skips each value it is handed sees every value, at most once per
    /// row of the first frame's relation: the skip backjumps to the
    /// first frame.
    #[test]
    fn binding_first_enumerates_the_same_valuations(
        inst in arb_instance(),
        lead in 0..NUM_VARS,
    ) {
        let db = build_db(&inst);
        let query = db.prepare(&inst.atoms, None).unwrap();
        let Some(slot) = query.slot(Var(lead)) else {
            return Ok(());
        };
        let all = |first: bool| {
            let mut out: Vec<Vec<(Var, Value)>> = Vec::new();
            let visit = |sol: &eq_db::Solution<'_>| {
                out.push(sol.bindings().collect());
                Visit::Continue
            };
            if first {
                query.run_binding_first(slot, &[], visit);
            } else {
                query.run(&[], visit);
            }
            out.sort();
            out
        };
        prop_assert_eq!(all(true), all(false));

        let mut projected = Vec::new();
        query.run_binding_first(slot, &[], |sol| {
            projected.push(sol.at(slot));
            Visit::SkipValue(slot)
        });
        prop_assert!(projected.len() <= inst.rows_p.len().max(inst.rows_q.len()));
        let mut distinct = projected;
        distinct.sort();
        distinct.dedup();
        let mut expected: Vec<_> = all(false).iter().map(|v| {
            v.iter().find(|(var, _)| *var == Var(lead)).map(|&(_, value)| value)
        }).collect();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(distinct, expected);
    }
}
