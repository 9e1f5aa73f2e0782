//! Property test: `parse_ir_query ∘ render_ir_query` is the identity up
//! to dense variable renumbering, for arbitrary well-formed queries
//! (`choose 1`; other counts are refused).

use eq_ir::{Atom, EntangledQuery, Term, Var};
use eq_sql::{parse_ir_query, render_ir_query};
use proptest::prelude::*;

const RELS: [&str; 3] = ["R", "S", "LongRelationName"];
const STRS: [&str; 4] = ["Paris", "ITH", "United Air", "x-y"];

fn arb_term(num_vars: u32) -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..num_vars).prop_map(|i| Term::var(Var(i))),
        (0..STRS.len()).prop_map(|i| Term::str(STRS[i])),
        (-5i64..100).prop_map(Term::int),
    ]
}

fn arb_atom(num_vars: u32) -> impl Strategy<Value = Atom> {
    (
        0..RELS.len(),
        proptest::collection::vec(arb_term(num_vars), 0..4),
    )
        .prop_map(|(r, terms)| Atom::new(RELS[r], terms))
}

/// A well-formed query: range restriction is established by appending a
/// body atom containing every variable used anywhere.
fn arb_query() -> impl Strategy<Value = EntangledQuery> {
    (
        proptest::collection::vec(arb_atom(3), 1..3), // head
        proptest::collection::vec(arb_atom(3), 0..3), // postconditions
        proptest::collection::vec(arb_atom(3), 0..2), // body extras
        1u32..4,                                      // choose
    )
        .prop_map(|(head, pcs, mut body, choose)| {
            let mut vars: Vec<Var> = head
                .iter()
                .chain(&pcs)
                .chain(&body)
                .flat_map(|a| a.vars())
                .collect();
            vars.sort_unstable();
            vars.dedup();
            if !vars.is_empty() {
                body.push(Atom::new("Bind", vars.into_iter().map(Term::var).collect()));
            }
            EntangledQuery::new(head, pcs, body).with_choose(choose)
        })
}

/// Dense renumbering in first-occurrence order, for comparison.
fn canonical(q: &EntangledQuery) -> EntangledQuery {
    let gen = eq_ir::VarGen::new();
    q.rename_apart(&gen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `choose 1` round-trips; any other count renders but is refused.
    #[test]
    fn render_parse_roundtrip(q in arb_query()) {
        let text = render_ir_query(&q);
        let parsed = parse_ir_query(&text);
        if q.choose != 1 {
            let err = parsed.expect_err(&text);
            prop_assert!(err.to_string().contains(&format!("CHOOSE {}", q.choose)), "{}", text);
        } else {
            let parsed = parsed
                .unwrap_or_else(|e| panic!("rendered text failed to parse: {e}\n{text}"));
            let a = canonical(&q);
            let b = canonical(&parsed);
            prop_assert_eq!(a.head, b.head, "{}", text);
            prop_assert_eq!(a.postconditions, b.postconditions, "{}", text);
            prop_assert_eq!(a.body, b.body, "{}", text);
            prop_assert_eq!(a.choose, b.choose, "{}", text);
        }
    }
}
