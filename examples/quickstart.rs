//! Quickstart: the paper's introductory example (§1.1).
//!
//! Kramer wants to fly to Paris on the same flight as Jerry; Jerry wants
//! to fly with Kramer but only on United. Both express this as entangled
//! SQL; the engine matches the queries, builds one combined query, and
//! returns a coordinated flight choice.
//!
//! Run with: `cargo run --example quickstart`

use entangled_queries::prelude::*;
use entangled_queries::sql::Catalog;

fn main() {
    // -- The flight database of paper Figure 1(a), bulk-loaded. --------
    let mut db = Database::new();
    db.create_table("Flights", &["fno", "dest"]).unwrap();
    db.create_table("Airlines", &["fno", "airline"]).unwrap();
    db.insert_many(
        "Flights",
        [
            (122, "Paris"),
            (123, "Paris"),
            (134, "Paris"),
            (136, "Rome"),
        ]
        .into_iter()
        .map(|(fno, dest)| vec![Value::int(fno), Value::str(dest)])
        .collect(),
    )
    .unwrap();
    db.insert_many(
        "Airlines",
        [
            (122, "United"),
            (123, "United"),
            (134, "Lufthansa"),
            (136, "Alitalia"),
        ]
        .into_iter()
        .map(|(fno, airline)| vec![Value::int(fno), Value::str(airline)])
        .collect(),
    )
    .unwrap();

    // -- The entangled queries, in the paper's SQL dialect. -----------
    let mut catalog = Catalog::new();
    catalog.add_table("Flights", &["fno", "dest"]);
    catalog.add_table("Airlines", &["fno", "airline"]);

    let kramer = parse_entangled_sql(
        "SELECT 'Kramer', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') \
         AND ('Jerry', fno) IN ANSWER Reservation \
         CHOOSE 1",
        &catalog,
    )
    .expect("Kramer's query parses");

    let jerry = parse_entangled_sql(
        "SELECT 'Jerry', fno INTO ANSWER Reservation \
         WHERE fno IN (SELECT F.fno FROM Flights F, Airlines A \
                       WHERE F.dest = 'Paris' AND F.fno = A.fno \
                       AND A.airline = 'United') \
         AND ('Kramer', fno) IN ANSWER Reservation \
         CHOOSE 1",
        &catalog,
    )
    .expect("Jerry's query parses");

    println!("Kramer's query (IR): {kramer}");
    println!("Jerry's query  (IR): {jerry}");

    // -- Coordinated answering (§4): one round of a bare engine. For a
    //    long-running service, see the travel_agency example.
    let outcome = coordinate(&[kramer, jerry], &db);
    for answer in outcome.all_answers() {
        let who = &answer.tuples[0][0];
        let fno = &answer.tuples[0][1];
        println!("{who} is booked on flight {fno}");
    }

    let answers = outcome.all_answers();
    assert_eq!(answers.len(), 2, "both queries must be answered");
    assert_eq!(
        answers[0].tuples[0][1], answers[1].tuples[0][1],
        "both travel on the same flight"
    );
    let fno = answers[0].tuples[0][1].as_int().unwrap();
    assert!(fno == 122 || fno == 123, "must be a United flight to Paris");
    println!("coordinated on a United flight to Paris ✈");
}
