//! Cross-crate integration tests: SQL surface syntax → IR → matching →
//! combined query → database, exercising the paper's worked examples
//! end to end.

use entangled_queries::core::coordinate;
use entangled_queries::prelude::*;
use entangled_queries::sql::Catalog;

fn flight_db() -> Database {
    let mut db = Database::new();
    db.create_table("Flights", &["fno", "dest"]).unwrap();
    db.create_table("Airlines", &["fno", "airline"]).unwrap();
    for (fno, dest) in [
        (122, "Paris"),
        (123, "Paris"),
        (134, "Paris"),
        (136, "Rome"),
    ] {
        db.insert("Flights", vec![Value::int(fno), Value::str(dest)])
            .unwrap();
    }
    for (fno, airline) in [
        (122, "United"),
        (123, "United"),
        (134, "Lufthansa"),
        (136, "Alitalia"),
    ] {
        db.insert("Airlines", vec![Value::int(fno), Value::str(airline)])
            .unwrap();
    }
    db
}

fn flight_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table("Flights", &["fno", "dest"]);
    c.add_table("Airlines", &["fno", "airline"]);
    c
}

#[test]
fn paper_introduction_sql_to_answers() {
    let db = flight_db();
    let catalog = flight_catalog();
    let kramer = parse_entangled_sql(
        "SELECT 'Kramer', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
        &catalog,
    )
    .unwrap();
    let jerry = parse_entangled_sql(
        "SELECT 'Jerry', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT F.fno FROM Flights F, Airlines A \
                       WHERE F.dest='Paris' AND F.fno=A.fno AND A.airline='United') \
         AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
        &catalog,
    )
    .unwrap();

    let outcome = coordinate(&[kramer, jerry], &db);
    let answers = outcome.all_answers();
    assert_eq!(answers.len(), 2);
    // Figure 1(b): mutual constraint satisfaction on a United Paris
    // flight (122 or 123 — never 134/Lufthansa or 136/Rome).
    let fno = answers[0].tuples[0][1].as_int().unwrap();
    assert!(fno == 122 || fno == 123);
    assert_eq!(answers[0].tuples[0][1], answers[1].tuples[0][1]);
    assert_eq!(answers[0].tuples[0][0], Value::str("Kramer"));
    assert_eq!(answers[1].tuples[0][0], Value::str("Jerry"));
}

#[test]
fn sql_and_ir_text_forms_agree() {
    let db = flight_db();
    let catalog = flight_catalog();
    let from_sql = parse_entangled_sql(
        "SELECT 'Kramer', fno INTO ANSWER R \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
         AND ('Jerry', fno) IN ANSWER R CHOOSE 1",
        &catalog,
    )
    .unwrap();
    let from_text = parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)").unwrap();
    assert_eq!(from_sql.head, from_text.head);
    assert_eq!(from_sql.postconditions, from_text.postconditions);
    assert_eq!(from_sql.body, from_text.body);

    // And both coordinate identically against the same partner.
    let partner = parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- Flights(y, Paris)").unwrap();
    let o1 = coordinate(&[from_sql, partner.clone()], &db);
    let o2 = coordinate(&[from_text, partner], &db);
    assert_eq!(o1.answers.len(), o2.answers.len());
}

#[test]
fn figure_3a_unsafe_set_is_handled() {
    // The unsafe set of Figure 3(a): Jerry's ambiguous query is removed
    // per §3.1.1; the others then lack partners.
    let db = flight_db();
    let queries = vec![
        parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)").unwrap(),
        parse_ir_query("{R(Jerry, y)} R(Elaine, y) <- Flights(y, Rome)").unwrap(),
        parse_ir_query("{R(f, z)} R(Jerry, z) <- Flights(z, w), Airlines(z, f)").unwrap(),
    ];
    let outcome = coordinate(&queries, &db);
    assert!(outcome.answers.is_empty());
    assert_eq!(outcome.rejected.len(), 3);
}

#[test]
fn figure_3b_non_ucs_detected() {
    let db = flight_db();
    let queries = vec![
        parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris)").unwrap(),
        parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- Flights(y, Paris)").unwrap(),
        parse_ir_query("{R(Jerry, z)} R(Frank, z) <- Flights(z, Paris), Airlines(z, United)")
            .unwrap(),
    ];
    let outcome = coordinate(&queries, &db);
    assert!(outcome.answers.is_empty());
    assert!(outcome
        .rejected
        .iter()
        .all(|(_, r)| format!("{r}").contains("not unique")));
}

#[test]
fn section_42_running_example_combined_query() {
    // q1..q3 of §4.1.1 against a database where D1/D2/D3 have exactly
    // the right tuples; combined query must bind x3 = 1.
    let mut db = Database::new();
    db.create_table("D1", &["a", "b", "c"]).unwrap();
    db.create_table("D2", &["a"]).unwrap();
    db.create_table("D3", &["a", "b"]).unwrap();
    db.insert("D1", vec![Value::int(7), Value::int(8), Value::int(1)])
        .unwrap();
    db.insert("D2", vec![Value::int(7)]).unwrap();
    db.insert("D3", vec![Value::int(1), Value::int(8)]).unwrap();

    let queries = vec![
        parse_ir_query("{R(x1) & S(x2)} T(x3) <- D1(x1, x2, x3)").unwrap(),
        parse_ir_query("{T(1)} R(y1) <- D2(y1)").unwrap(),
        parse_ir_query("{T(z1)} S(z2) <- D3(z1, z2)").unwrap(),
    ];
    let outcome = coordinate(&queries, &db);
    assert_eq!(outcome.answers.len(), 3);
    let answers = outcome.all_answers();
    // q1's head T(x3) grounds to T(1).
    assert_eq!(answers[0].tuples[0], vec![Value::int(1)]);
    // q2's head R(y1) grounds to R(7); q3's S(z2) to S(8).
    assert_eq!(answers[1].tuples[0], vec![Value::int(7)]);
    assert_eq!(answers[2].tuples[0], vec![Value::int(8)]);
}

#[test]
fn multi_answer_relations_in_one_query() {
    // A query contributing to two ANSWER relations (§2.1 allows
    // `INTO ANSWER a, ANSWER b`).
    let mut db = Database::new();
    db.create_table("T", &["v"]).unwrap();
    db.insert("T", vec![Value::int(5)]).unwrap();

    let catalog = {
        let mut c = Catalog::new();
        c.add_table("T", &["v"]);
        c
    };
    let q1 = parse_entangled_sql(
        "SELECT x INTO ANSWER A, ANSWER B \
         WHERE x IN (SELECT v FROM T) AND (x) IN ANSWER D",
        &catalog,
    )
    .unwrap();
    let q2 = parse_ir_query("{A(w)} C(w) <- T(w)").unwrap();
    let q3 = parse_ir_query("{B(u) & C(u)} D(u) <- T(u)").unwrap();

    let outcome = coordinate(&[q1, q2, q3], &db);
    assert_eq!(outcome.answers.len(), 3);
    let a = outcome.all_answers();
    // q1 contributed the same tuple to both A and B.
    assert_eq!(a[0].relations.len(), 2);
    assert_eq!(a[0].tuples[0], a[0].tuples[1]);
}

#[test]
fn facade_reexports_are_usable() {
    // The prelude surface compiles and covers the README snippets.
    let gen = VarGen::new();
    let v = gen.fresh();
    let atom = Atom::new("R", vec![Term::var(v), Term::str("x")]);
    assert_eq!(atom.arity(), 2);
    let sym: Symbol = "hello".into();
    assert_eq!(sym.as_str(), "hello");
    let _id = QueryId(7);
}
