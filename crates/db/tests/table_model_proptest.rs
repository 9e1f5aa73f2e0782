//! Model-based property test: the slab-backed in-memory table against a
//! `Vec<Option<Tuple>>` reference — slot `id` is row `id`, `None` a
//! tombstone — over random `insert` / `insert_many` / `delete` /
//! `snapshot` sequences at arity 0–3. Values come from a three-value
//! domain, so duplicate rows are common, and deletes pick from the rows
//! inserted so far, so they hit live rows, duplicates and tombstones.
//!
//! A snapshot keeps its source alive: every op names the database it
//! goes to, a source or any snapshot of one, and each database has a
//! model of its own, which a snapshot copies as-is (ids and tombstones
//! kept). After every step each database's table must answer
//! `read_row` (one id past the end included), `postings`, the
//! `for_each_row` order, `contains`, `len`, `tombstone_count` and
//! `row_id_bound` exactly as its model does — so a write to one side of
//! a shared table never shows on the other — and two databases' tables
//! must be one allocation exactly while neither has written since the
//! snapshot that joined them, and a table no other database holds must
//! be written in place.

use eq_db::{Database, RowStore, Tuple};
use eq_ir::{Symbol, Value};
use proptest::prelude::*;
use std::collections::HashMap;

const COLUMNS: [&str; 3] = ["a", "b", "c"];

fn domain() -> [Value; 3] {
    [Value::int(0), Value::int(1), Value::str("s")]
}

/// Each op's first field picks its database: `n % databases`.
#[derive(Clone, Debug)]
enum Op {
    Insert(usize, Tuple),
    InsertMany(usize, Vec<Tuple>),
    /// Deletes the `n % len`-th row inserted so far, on any database.
    Delete(usize, usize),
    /// Adds a snapshot of the picked database to the set.
    Snapshot(usize),
}

fn arb_row(arity: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec((0..3usize).prop_map(|i| domain()[i]), arity)
}

fn arb_op(arity: usize) -> impl Strategy<Value = Op> {
    let db = 0..8usize;
    prop_oneof![
        (db.clone(), arb_row(arity)).prop_map(|(db, row)| Op::Insert(db, row)),
        (db.clone(), proptest::collection::vec(arb_row(arity), 0..6))
            .prop_map(|(db, rows)| Op::InsertMany(db, rows)),
        (db.clone(), 0..64usize).prop_map(|(db, n)| Op::Delete(db, n)),
        (db.clone(), 0..64usize).prop_map(|(db, n)| Op::Delete(db, n)),
        db.prop_map(Op::Snapshot),
    ]
}

fn arb_case() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (0..=COLUMNS.len())
        .prop_flat_map(|arity| (Just(arity), proptest::collection::vec(arb_op(arity), 1..40)))
}

/// One database under test, its reference, and which table allocation
/// it should hold: two databases share one exactly when their `table`
/// numbers are equal.
struct Side {
    db: Database,
    model: Vec<Option<Tuple>>,
    table: usize,
}

/// Every observable of table `T` equals the model's.
fn check(side: &Side, inserted: &[Tuple], arity: usize) -> Result<(), TestCaseError> {
    let (db, model) = (&side.db, &side.model);
    let table = db.table(Symbol::new("T")).unwrap();
    let live: Vec<Tuple> = model.iter().flatten().cloned().collect();
    prop_assert_eq!(table.row_id_bound() as usize, model.len());
    prop_assert_eq!(table.len(), live.len());
    prop_assert_eq!(table.tombstone_count(), model.len() - live.len());

    let mut buf = Tuple::new();
    for id in 0..=model.len() {
        let got = table.read_row(id as u32, &mut buf).then(|| buf.clone());
        prop_assert_eq!(got, model.get(id).cloned().flatten(), "row {}", id);
    }

    let mut visited = Vec::new();
    table.for_each_row(&mut |row| visited.push(row.to_vec()));
    prop_assert_eq!(&visited, &live);

    for col in 0..arity {
        for value in domain() {
            let expected: Vec<u32> = model
                .iter()
                .enumerate()
                .filter(|(_, row)| row.as_ref().is_some_and(|row| row[col] == value))
                .map(|(id, _)| id as u32)
                .collect();
            prop_assert_eq!(table.postings(col, value), &expected[..]);
        }
    }

    for row in inserted {
        prop_assert_eq!(table.contains(row), live.contains(row));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_table_matches_the_reference(case in arb_case()) {
        let (arity, ops) = case;
        let mut db = Database::new();
        db.create_table("T", &COLUMNS[..arity]).unwrap();
        let mut sides = vec![Side { db, model: Vec::new(), table: 0 }];
        let mut tables = 1;
        let mut addrs: HashMap<usize, *const ()> = HashMap::new();
        let mut inserted: Vec<Tuple> = Vec::new();
        for op in ops {
            let pick = match op {
                Op::Insert(n, _) | Op::InsertMany(n, _) | Op::Delete(n, _) | Op::Snapshot(n) => {
                    n % sides.len()
                }
            };
            let side = &mut sides[pick];
            let wrote = match op {
                Op::Insert(_, row) => {
                    side.db.insert("T", row.clone()).unwrap();
                    side.model.push(Some(row.clone()));
                    inserted.push(row);
                    true
                }
                Op::InsertMany(_, rows) => {
                    prop_assert_eq!(side.db.insert_many("T", rows.clone()).unwrap(), rows.len());
                    side.model.extend(rows.iter().cloned().map(Some));
                    let wrote = !rows.is_empty();
                    inserted.extend(rows);
                    wrote
                }
                Op::Delete(_, n) => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let row = &inserted[n % inserted.len()];
                    let first = side.model.iter().position(|r| r.as_ref() == Some(row));
                    prop_assert_eq!(side.db.delete("T", row).unwrap(), first.is_some());
                    if let Some(id) = first {
                        side.model[id] = None;
                    }
                    first.is_some()
                }
                Op::Snapshot(_) => {
                    let copy = Side {
                        db: side.db.snapshot(),
                        model: side.model.clone(),
                        table: side.table,
                    };
                    sides.push(copy);
                    false
                }
            };
            // A write to a table another database still holds copies it
            // for the writer; one held alone is written in place.
            let table = sides[pick].table;
            if wrote && sides.iter().filter(|s| s.table == table).count() > 1 {
                sides[pick].table = tables;
                tables += 1;
            }
            let t = Symbol::new("T");
            let addr = |side: &Side| (side.db.table(t).unwrap() as *const dyn RowStore).cast::<()>();
            for (i, a) in sides.iter().enumerate() {
                check(a, &inserted, arity)?;
                // A table keeps its allocation: a write to a table no
                // other database holds is made in place.
                let at = *addrs.entry(a.table).or_insert(addr(a));
                prop_assert_eq!(addr(a), at, "table {} moved", a.table);
                for b in &sides[i + 1..] {
                    prop_assert_eq!(
                        std::ptr::addr_eq(a.db.table(t).unwrap(), b.db.table(t).unwrap()),
                        a.table == b.table
                    );
                }
            }
        }
    }
}
