//! Model-based property test: the slab-backed in-memory table against a
//! `Vec<Option<Tuple>>` reference — slot `id` is row `id`, `None` a
//! tombstone — over random `insert` / `insert_many` / `delete` /
//! `snapshot` sequences at arity 0–3. Values come from a three-value
//! domain, so duplicate rows are common, and deletes pick from the rows
//! inserted so far, so they hit live rows, duplicates and tombstones.
//! After every step the table must answer `read_row` (one id past the
//! end included), `postings`, the `for_each_row` order, `contains`,
//! `len`, `tombstone_count` and `row_id_bound` exactly as the model
//! does.

use eq_db::{Database, Tuple};
use eq_ir::{Symbol, Value};
use proptest::prelude::*;

const COLUMNS: [&str; 3] = ["a", "b", "c"];

fn domain() -> [Value; 3] {
    [Value::int(0), Value::int(1), Value::str("s")]
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Tuple),
    InsertMany(Vec<Tuple>),
    /// Deletes the `n % len`-th row inserted so far.
    Delete(usize),
    Snapshot,
}

fn arb_row(arity: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec((0..3usize).prop_map(|i| domain()[i]), arity)
}

fn arb_op(arity: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_row(arity).prop_map(Op::Insert),
        proptest::collection::vec(arb_row(arity), 0..6).prop_map(Op::InsertMany),
        (0..64usize).prop_map(Op::Delete),
        (0..64usize).prop_map(Op::Delete),
        Just(Op::Snapshot),
    ]
}

fn arb_case() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (0..=COLUMNS.len())
        .prop_flat_map(|arity| (Just(arity), proptest::collection::vec(arb_op(arity), 1..40)))
}

/// Every observable of table `T` equals the model's.
fn check(
    db: &Database,
    model: &[Option<Tuple>],
    inserted: &[Tuple],
    arity: usize,
) -> Result<(), TestCaseError> {
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
        let mut model: Vec<Option<Tuple>> = Vec::new();
        let mut inserted: Vec<Tuple> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(row) => {
                    db.insert("T", row.clone()).unwrap();
                    model.push(Some(row.clone()));
                    inserted.push(row);
                }
                Op::InsertMany(rows) => {
                    prop_assert_eq!(db.insert_many("T", rows.clone()).unwrap(), rows.len());
                    model.extend(rows.iter().cloned().map(Some));
                    inserted.extend(rows);
                }
                Op::Delete(n) => {
                    if inserted.is_empty() {
                        continue;
                    }
                    let row = &inserted[n % inserted.len()];
                    let first = model.iter().position(|r| r.as_ref() == Some(row));
                    prop_assert_eq!(db.delete("T", row).unwrap(), first.is_some());
                    if let Some(id) = first {
                        model[id] = None;
                    }
                }
                Op::Snapshot => {
                    db = db.snapshot();
                    model = model.into_iter().flatten().map(Some).collect();
                }
            }
            check(&db, &model, &inserted, arity)?;
        }
    }
}
