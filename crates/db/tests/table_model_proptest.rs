//! Model-based property test: both table backends — the in-memory
//! table and `eq_store`'s paged table — against a `Vec<Option<Tuple>>`
//! reference — slot `id` is row `id`, `None` a tombstone — over random
//! `insert` / `insert_many` / `delete` / `snapshot` sequences at arity
//! 0–3. Sequences run to 160 ops. Half the cases draw their values from
//! a three-value domain, so duplicate rows are common at every arity
//! and a delete must pick the first of several equal rows; the other
//! half from a 24-value domain, so posting spans fill up and move and
//! arenas pack. Deletes pick from the rows inserted so far, so they hit
//! live rows, duplicates and tombstones, and a delete-heavy half of the
//! cases deletes values out of the table altogether, so their
//! dictionary codes are freed and handed to later values.
//!
//! A snapshot keeps its source alive: every op names the database it
//! goes to, a source or any snapshot of one, and each database has a
//! model of its own, which a snapshot copies as-is (ids and tombstones
//! kept). After every step the database it went to — and at the end
//! every database — must answer `read_row` (one id past the end
//! included), `postings` (ascending), the `for_each_row` order,
//! `contains`, `len`, `tombstone_count` and `row_id_bound` exactly as
//! its model does, and every other database its model's `len` and
//! `row_id_bound` — so a write to one side of a shared table never
//! shows on the other. Two databases' tables must be one allocation
//! exactly while neither has written since the snapshot that joined
//! them, and a table no other database holds must be written in place.
//! A paged table is never shared: its snapshot is an in-memory copy of
//! its own.

use eq_db::{Database, RowStore, TableSchema, Tuple};
use eq_ir::{Symbol, Value};
use eq_store::{PageCacheConfig, PagedTable};
use proptest::prelude::*;
use proptest::strategy::{BoxedStrategy, Union};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

const COLUMNS: [&str; 3] = ["a", "b", "c"];

/// Value `i` of a domain: half integers, half strings.
fn value(i: usize) -> Value {
    if i.is_multiple_of(2) {
        Value::int(i as i64)
    } else {
        Value::str(&format!("s{i}"))
    }
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

fn arb_row(arity: usize, domain: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec((0..domain).prop_map(value), arity)
}

/// One insert or bulk load, one snapshot, and one delete arm — or, in a
/// delete-heavy run, five.
fn arb_op(arity: usize, domain: usize, deletes: usize) -> impl Strategy<Value = Op> {
    let db = 0..64usize;
    let mut arms: Vec<BoxedStrategy<Op>> = vec![
        (db.clone(), arb_row(arity, domain))
            .prop_map(|(db, row)| Op::Insert(db, row))
            .boxed(),
        (
            db.clone(),
            proptest::collection::vec(arb_row(arity, domain), 0..12),
        )
            .prop_map(|(db, rows)| Op::InsertMany(db, rows))
            .boxed(),
        db.clone().prop_map(Op::Snapshot).boxed(),
    ];
    for _ in 0..deletes {
        arms.push(
            (db.clone(), 0..256usize)
                .prop_map(|(db, n)| Op::Delete(db, n))
                .boxed(),
        );
    }
    Union::new(arms)
}

/// An arity, a domain size and the ops.
fn arb_case() -> impl Strategy<Value = (usize, usize, Vec<Op>)> {
    (
        0..=COLUMNS.len(),
        prop_oneof![Just(3usize), Just(24usize)],
        prop_oneof![Just(1usize), Just(5usize)],
    )
        .prop_flat_map(|(arity, domain, deletes)| {
            (
                Just(arity),
                Just(domain),
                proptest::collection::vec(arb_op(arity, domain, deletes), 1..160),
            )
        })
}

/// One database under test, its reference, and which table allocation
/// it should hold: two databases share one exactly when their `table`
/// numbers are equal.
struct Side {
    db: Database,
    model: Vec<Option<Tuple>>,
    table: usize,
    paged: bool,
}

/// The page directory of one paged case, purged when the case ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        eq_store::purge_dir(&self.0);
    }
}

/// Every observable of table `T` equals the model's.
fn check(
    side: &Side,
    domain: &[Value],
    inserted: &[Tuple],
    arity: usize,
) -> Result<(), TestCaseError> {
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

    let mut lists: HashMap<(usize, Value), Vec<u32>> = HashMap::new();
    for (id, row) in model.iter().enumerate() {
        for (col, &value) in row.iter().flatten().enumerate() {
            lists.entry((col, value)).or_default().push(id as u32);
        }
    }
    for col in 0..arity {
        for &value in domain {
            let expected = lists.get(&(col, value)).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(table.postings(col, value), expected);
        }
    }

    let live: HashSet<&Tuple> = live.iter().collect();
    for row in inserted {
        prop_assert_eq!(table.contains(row), live.contains(row));
    }
    Ok(())
}

/// A database holding an empty table `T`: in memory, or paged through a
/// two-page cache of 64-byte pages under `dir`.
fn fresh(arity: usize, paged: Option<&Scratch>) -> Database {
    let mut db = Database::new();
    match paged {
        None => db.create_table("T", &COLUMNS[..arity]).unwrap(),
        Some(dir) => {
            let config = PageCacheConfig {
                page_bytes: 64,
                budget_bytes: 128,
            };
            let schema = TableSchema::new("T", &COLUMNS[..arity]);
            let table = PagedTable::create(&dir.0, schema, config).unwrap();
            db.attach_table(Box::new(table)).unwrap();
        }
    }
    db
}

fn run(arity: usize, domain: usize, ops: &[Op], paged: bool) -> Result<(), TestCaseError> {
    let scratch = paged.then(|| Scratch(eq_store::scratch_dir("table-model")));
    let db = fresh(arity, scratch.as_ref());
    let mut sides = vec![Side {
        db,
        model: Vec::new(),
        table: 0,
        paged,
    }];
    let domain: Vec<Value> = (0..domain).map(value).collect();
    let mut tables = 1;
    let mut addrs: HashMap<usize, *const ()> = HashMap::new();
    let mut inserted: Vec<Tuple> = Vec::new();
    // The distinct rows of `inserted`, for `contains`.
    let mut distinct: Vec<Tuple> = Vec::new();
    let mut distinct_seen = 0;
    for op in ops.iter().cloned() {
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
                // A paged table's snapshot is an in-memory copy with the
                // tombstones compacted away.
                let copy = if side.paged {
                    tables += 1;
                    Side {
                        db: side.db.snapshot(),
                        model: side.model.iter().flatten().cloned().map(Some).collect(),
                        table: tables - 1,
                        paged: false,
                    }
                } else {
                    Side {
                        db: side.db.snapshot(),
                        model: side.model.clone(),
                        table: side.table,
                        paged: false,
                    }
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
        for row in &inserted[distinct_seen..] {
            if !distinct.contains(row) {
                distinct.push(row.clone());
            }
        }
        distinct_seen = inserted.len();
        for (i, a) in sides.iter().enumerate() {
            // The database written (or snapshotted) is checked in full,
            // the others by their counts, which a write leaking across
            // would move; every database is checked in full at the end.
            if i == pick || i + 1 == sides.len() {
                check(a, &domain, &distinct, arity)?;
            } else {
                let table = a.db.table(Symbol::new("T")).unwrap();
                let live = a.model.iter().flatten().count();
                prop_assert_eq!(table.row_id_bound() as usize, a.model.len());
                prop_assert_eq!(table.len(), live);
            }
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
    for side in &sides {
        check(side, &domain, &distinct, arity)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slab_table_matches_the_reference(case in arb_case()) {
        let (arity, domain, ops) = case;
        run(arity, domain, &ops, false)?;
        run(arity, domain, &ops, true)?;
    }
}
