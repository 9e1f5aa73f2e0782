//! A loaded table costs its rows and its distinct values, not an
//! allocation per (column, value): each table backend keeps one value
//! dictionary and one packed posting arena per column, and an in-memory
//! table keeps its rows as 4-byte codes. A counting global allocator,
//! switched on for the test thread alone, measures what a bulk load of
//! 200,000 two-column rows leaves allocated on either backend, over
//! 2,000 and over 20,000 distinct values; a reopen from a checkpoint
//! must then scan the rows back unchanged. Many small loads into that
//! table then cost their own rows, not the table's.

use eq_core::{Coordinator, EngineConfig};
use eq_db::{Database, DbError, TableSchema, Tuple};
use eq_ir::Value;
use eq_store::{PageCacheConfig, PagedTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of whichever thread has
/// switched counting on, the bytes they ask for, and the bytes they
/// leave live.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Notes `grown` more live bytes (negative when freed) and, if the call
/// asked for memory, an allocation of `requested` bytes.
fn note(grown: isize, requested: Option<usize>) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        if let Some(bytes) = requested {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            REQUESTED.with(|n| n.set(n.get() + bytes));
        }
        LIVE.with(|live| live.set(live.get() + grown));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each meets `System`'s contract exactly when its caller meets
// `GlobalAlloc`'s. `note` neither allocates nor unwinds: it touches
// const-initialized `Cell`s that have no destructor to register.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, Some(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize, Some(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize, Some(new_size));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize), None);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted: its result, the
/// number of allocations and the bytes left live.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    ALLOCATIONS.with(|n| n.set(0));
    REQUESTED.with(|n| n.set(0));
    LIVE.with(|live| live.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get), LIVE.with(Cell::get))
}

const ROWS: usize = 200_000;
const ARITY: usize = 2;
/// Bytes a loaded row may cost: a 4-byte code and a 4-byte posting id
/// per cell.
const PER_ROW: usize = ARITY * 8;
/// Bytes a distinct value may cost: its dictionary entry and its spans.
const PER_VALUE: usize = 64;
/// Everything else: the catalog, the liveness bitmap, a paged table's
/// page file handle and its cache, whose budget is `PAGE_BUDGET`.
const SLACK: usize = 160 << 10;
const PAGE_BUDGET: usize = 64 << 10;

/// `distinct` values, half integers and half strings, interned before
/// any counting starts.
fn values(distinct: usize) -> Vec<Value> {
    (0..distinct)
        .map(|i| match i % 2 {
            0 => Value::int(i as i64),
            _ => Value::str(&format!("v{i}")),
        })
        .collect()
}

/// Row `i`: every value appears in both columns, ROWS / distinct times.
fn row(values: &[Value], i: usize, out: &mut Tuple) {
    let n = values.len();
    out.clear();
    out.extend([values[i % n], values[(i * 7 + 3) % n]]);
}

/// A database holding table `T(a, b)` loaded with `ROWS` rows — in
/// memory, or paged under `dir` — built with counting on: the database,
/// its allocations and the bytes it holds.
fn load(values: &[Value], paged: Option<&std::path::Path>) -> (Database, usize, isize) {
    counted(|| {
        let mut db = Database::new();
        match paged {
            None => db.create_table("T", &["a", "b"]).unwrap(),
            Some(dir) => {
                let config = PageCacheConfig {
                    page_bytes: 4096,
                    budget_bytes: PAGE_BUDGET,
                };
                let schema = TableSchema::new("T", &["a", "b"]);
                let table = PagedTable::create(dir, schema, config).unwrap();
                db.attach_table(Box::new(table)).unwrap();
            }
        }
        let mut i = 0;
        db.bulk_load("T", ROWS, |out| {
            row(values, i, out);
            i += 1;
            Ok::<_, DbError>(())
        })
        .unwrap();
        db
    })
}

#[test]
fn a_loaded_table_costs_its_rows_and_its_values() {
    for paged in [false, true] {
        let mut allocations = Vec::new();
        for distinct in [2_000, 20_000] {
            let values = values(distinct);
            let dir = eq_store::scratch_dir("table-footprint");
            let (db, made, live) = load(&values, paged.then_some(dir.as_path()));
            let bound = ROWS * PER_ROW + distinct * PER_VALUE + SLACK;
            assert!(
                live <= bound as isize,
                "paged: {paged}, {distinct} values: {live} bytes live, bound {bound}"
            );
            allocations.push(made);

            let mut expected = Tuple::new();
            let scanned = db.scan("T").unwrap();
            assert_eq!(scanned.len(), ROWS);
            for (i, got) in scanned.iter().enumerate() {
                row(&values, i, &mut expected);
                assert_eq!(got, &expected, "paged: {paged}, row {i}");
            }
            drop(db);
            eq_store::purge_dir(&dir);
        }
        // Ten times the distinct values may cost a few more doublings of
        // the dictionary's vectors, not an allocation per value.
        assert!(
            allocations[1] <= allocations[0] + 32,
            "paged: {paged}: {allocations:?} allocations for 2,000 and 20,000 values"
        );
    }
}

#[test]
fn a_reopened_checkpoint_scans_the_source_row_for_row() {
    let values = values(20_000);
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            let mut out = Tuple::new();
            row(&values, i, &mut out);
            out
        })
        .collect();
    let dir = eq_store::scratch_dir("table-footprint-reopen");
    {
        let dc = Coordinator::open(&dir, EngineConfig::default()).unwrap();
        dc.create_table("T", &["a", "b"]).unwrap();
        dc.load("T", rows.clone()).unwrap();
        dc.checkpoint().unwrap();
    }
    let dc = Coordinator::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(dc.db().read().scan("T").unwrap(), rows);
    drop(dc);
    eq_store::purge_dir(&dir);
}

/// A thousand one-row loads into a loaded table file their rows one by
/// one: between them they may grow the slab and each arena by a
/// doubling — 2 × `ROWS × PER_ROW` bytes, about 6.5 MB measured on the
/// in-memory table — not lay the table's index out afresh once a load,
/// which asks for 1.6 GB.
#[test]
fn small_loads_cost_their_rows_not_the_table() {
    const LOADS: usize = 1_000;
    let values = values(20_000);
    for paged in [false, true] {
        let dir = eq_store::scratch_dir("table-footprint-small-loads");
        let (mut db, _, _) = load(&values, paged.then_some(dir.as_path()));
        let ((), _, _) = counted(|| {
            for i in ROWS..ROWS + LOADS {
                let mut out = Tuple::new();
                row(&values, i, &mut out);
                db.insert_many("T", vec![out]).unwrap();
            }
        });
        let requested = REQUESTED.with(Cell::get);
        let bound = 3 * ROWS * PER_ROW;
        assert!(
            requested <= bound,
            "paged: {paged}: {LOADS} one-row loads asked for {requested} bytes, bound {bound}"
        );

        let mut expected = Tuple::new();
        for i in [0, ROWS - 1, ROWS, ROWS + LOADS - 1] {
            row(&values, i, &mut expected);
            let ids = db
                .table(eq_ir::Symbol::new("T"))
                .unwrap()
                .postings(1, expected[1]);
            assert!(ids.contains(&(i as u32)), "paged: {paged}, row {i}");
        }
        assert_eq!(db.scan("T").unwrap().len(), ROWS + LOADS);
        drop(db);
        eq_store::purge_dir(&dir);
    }
}
