//! End-to-end tests of body comparison constraints: surface syntax,
//! validation, coordination, and interaction with the global unifier.

use entangled_queries::core::coordinate;
use entangled_queries::prelude::*;
use entangled_queries::sql::render_ir_query;
use eq_ir::{CmpOp, Constraint};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    for (fno, dest) in [(122, "Paris"), (123, "Paris"), (134, "Paris")] {
        db.insert("F", vec![Value::int(fno), Value::str(dest)])
            .unwrap();
    }
    db
}

#[test]
fn ir_text_parses_constraints() {
    let q = parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris) & x >= 123").unwrap();
    assert_eq!(q.constraints.len(), 1);
    assert_eq!(q.constraints[0].op, CmpOp::Ge);
    // All operators parse.
    for op in ["<", "<=", ">", ">=", "!="] {
        let q = parse_ir_query(&format!("{{}} R(x) <- F(x, Paris) & x {op} 5")).unwrap();
        assert_eq!(q.constraints.len(), 1);
    }
}

#[test]
fn constraints_render_and_roundtrip() {
    let q =
        parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris) & x < 130 & x != 122").unwrap();
    let text = render_ir_query(&q);
    let q2 = parse_ir_query(&text).unwrap();
    assert_eq!(q.constraints, q2.constraints);
    assert_eq!(q.body, q2.body);
}

#[test]
fn unbound_constraint_variable_rejected() {
    let err = parse_ir_query("{} R(x) <- F(x, Paris) & y < 5").unwrap_err();
    assert!(err.message.contains("comparison constraint"), "{err}");
}

#[test]
fn coordination_respects_constraints() {
    // Kramer insists on a flight number below 123; Jerry above 121. Only
    // flight 122 satisfies both (the constraints travel into the
    // combined query and conjoin).
    let db = db();
    let outcome = coordinate(
        &[
            parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris) & x < 123").unwrap(),
            parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris) & y > 121").unwrap(),
        ],
        &db,
    );
    let answers = outcome.all_answers();
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[0].tuples[0][1], Value::int(122));
    assert_eq!(answers[1].tuples[0][1], Value::int(122));
}

#[test]
fn contradictory_constraints_yield_no_solution() {
    let db = db();
    let outcome = coordinate(
        &[
            parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris) & x < 123").unwrap(),
            parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris) & y > 130").unwrap(),
        ],
        &db,
    );
    // The constraints meet on the same unified variable: x < 123 ∧ x > 130.
    assert!(outcome.answers.is_empty());
    assert_eq!(outcome.rejected.len(), 2);
}

#[test]
fn constraints_via_builder_api() {
    let db = db();
    let q1 = parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")
        .unwrap()
        .with_constraints(vec![Constraint::new(
            Term::var(Var(0)),
            CmpOp::Ne,
            Term::int(122),
        )]);
    assert!(q1.validate().is_ok());
    let q2 = parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)").unwrap();
    let outcome = coordinate(&[q1, q2], &db);
    let answers = outcome.all_answers();
    assert_eq!(answers.len(), 2);
    assert_ne!(answers[0].tuples[0][1], Value::int(122));
}

#[test]
fn variable_to_variable_constraints() {
    // Characters may party up only if the tank's level is at least the
    // dps's level.
    let mut db = Database::new();
    db.create_table("Char", &["name", "level"]).unwrap();
    for (n, l) in [("tanky", 60), ("stabby", 55), ("overlord", 70)] {
        db.insert("Char", vec![Value::str(n), Value::int(l)])
            .unwrap();
    }
    let q =
        parse_ir_query("{} Pair(t, s) <- Char(t, tl) & Char(s, sl) & tl >= sl & t != s").unwrap();
    let outcome = coordinate(&[q], &db);
    let answers = outcome.all_answers();
    assert_eq!(answers.len(), 1);
    // Whatever pair was chosen, the level order must hold.
    let t = answers[0].tuples[0][0].as_str().unwrap();
    let s = answers[0].tuples[0][1].as_str().unwrap();
    let level = |name: &str| match name {
        "tanky" => 60,
        "stabby" => 55,
        _ => 70,
    };
    assert!(level(t) >= level(s));
    assert_ne!(t, s);
}
