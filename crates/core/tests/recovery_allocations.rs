//! Recovery allocates per table and per distinct value, not per row:
//! `Coordinator::open` maps every checkpointed row's codes through one
//! remap per table straight into the table's slab, and decodes every
//! logged row into one reused buffer. Replayed outcomes are validated
//! without being built. A counting global allocator, switched on for
//! the test thread alone, measures what `open` asks for; a corrupt row
//! count, a code past its table's dictionary or a wrong-arity row is
//! refused before it can size the slab or reach the table.

use eq_core::durable::{CHECKPOINT_FILE, WAL_FILE};
use eq_core::{CoordinationError, Coordinator, DurableError, EngineConfig, SubmitRequest};
use eq_db::{DbError, Tuple};
use eq_ir::Value;
use eq_sql::parse_ir_query;
use eq_store::{write_checkpoint, StoreError, WriteAheadLog};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

/// Counts the allocations (and reallocations) of whichever thread has
/// switched counting on, and remembers the largest one.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        LARGEST.with(|m| m.set(m.get().max(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each meets `System`'s contract exactly when its caller meets
// `GlobalAlloc`'s. `note` neither allocates nor unwinds: it touches
// const-initialized `Cell`s that have no destructor to register.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted: its result, the
/// number of allocations and the largest single one in bytes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    LARGEST.with(|m| m.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get), LARGEST.with(Cell::get))
}

fn open(dir: &Path) -> Result<Coordinator, DurableError> {
    Coordinator::open(dir, EngineConfig::default())
}

fn put_uv(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// A string-table block: the count, then each text behind its length.
fn put_defs(out: &mut Vec<u8>, texts: &[&str]) {
    put_uv(out, texts.len() as u64);
    for text in texts {
        put_uv(out, text.len() as u64);
        out.extend_from_slice(text.as_bytes());
    }
}

/// The image header: version 4, query-id and WAL watermarks, strings.
fn image_header(texts: &[&str]) -> Vec<u8> {
    let mut image = Vec::new();
    put_uv(&mut image, 4);
    put_uv(&mut image, 1);
    put_uv(&mut image, 0);
    put_defs(&mut image, texts);
    image
}

/// A row count of 1 and one row of three integer cells for `T(a, b)`:
/// long enough for its count to pass the size bound, one cell too many
/// for its schema.
fn wrong_arity_rows(out: &mut Vec<u8>) {
    put_uv(out, 1);
    put_uv(out, 3);
    for x in [1, 2, 3] {
        out.push(1);
        put_uv(out, x << 1);
    }
}

fn is_arity_error(opened: Result<Coordinator, DurableError>) -> bool {
    matches!(
        opened,
        Err(DurableError::Coordination(CoordinationError::Db(
            DbError::ArityMismatch {
                expected: 2,
                got: 3,
                ..
            }
        )))
    )
}

#[test]
fn open_allocates_per_table_and_per_value_not_per_row() {
    const ROWS: i64 = 100_000;
    let names: Vec<String> = (0..64).map(|i| format!("city{i}")).collect();
    let rows: Vec<Tuple> = (0..ROWS)
        .map(|i| {
            let city = names[(i * 7 % 64) as usize].as_str();
            vec![Value::int(i % 64), Value::str(city)]
        })
        .collect();

    for checkpointed in [true, false] {
        let dir = eq_store::scratch_dir("recovery-allocations");
        {
            let dc = open(&dir).unwrap();
            dc.create_table("F", &["fno", "dest"]).unwrap();
            dc.load("F", rows.clone()).unwrap();
            if checkpointed {
                dc.checkpoint().unwrap();
            }
        }
        let (dc, allocations, _) = counted(|| open(&dir).unwrap());
        assert!(
            allocations < 10_000,
            "reopening {ROWS} rows (checkpointed: {checkpointed}) made {allocations} allocations"
        );
        assert_eq!(dc.db().read().scan("F").unwrap(), rows);
        drop(dc);
        eq_store::purge_dir(&dir);
    }
}

#[test]
fn a_row_count_the_image_cannot_hold_reserves_nothing() {
    let columns: Vec<String> = (0..32).map(|i| format!("c{i}")).collect();
    let mut texts = vec!["T"];
    texts.extend(columns.iter().map(String::as_str));
    let mut image = image_header(&texts);
    put_uv(&mut image, 1);
    put_uv(&mut image, 0);
    put_uv(&mut image, 32);
    for id in 1..=32 {
        put_uv(&mut image, id);
    }
    // A row count equal to the bytes after it: within the one byte per
    // element every count is held to, far beyond what rows of 32 codes
    // fit. The section's dictionary (count 0) and codes follow.
    const LEFT: usize = 1 << 16;
    put_uv(&mut image, LEFT as u64);
    image.resize(image.len() + LEFT, 0);

    let dir = eq_store::scratch_dir("recovery-allocations-count");
    write_checkpoint(&dir.join(CHECKPOINT_FILE), &image).unwrap();
    let (opened, _, largest) = counted(|| open(&dir));
    assert!(opened.is_err());
    assert!(
        largest <= 8 * image.len(),
        "largest allocation {largest} bytes for a {}-byte image",
        image.len()
    );
    eq_store::purge_dir(&dir);
}

/// A table section's codes index its own dictionary: a code at or past
/// the dictionary's length is a corrupt image, refused before it
/// reaches the table, and never an index out of bounds.
#[test]
fn a_code_past_the_dictionary_is_corrupt_not_a_panic() {
    for (values, code) in [(1, 1), (0, 0), (1, u64::MAX), (2, 1 << 32)] {
        let mut image = image_header(&["T", "a", "b"]);
        put_uv(&mut image, 1);
        put_uv(&mut image, 0);
        put_uv(&mut image, 2);
        put_uv(&mut image, 1);
        put_uv(&mut image, 2);
        put_uv(&mut image, 1);
        put_uv(&mut image, values);
        for x in 0..values {
            image.push(1);
            put_uv(&mut image, x << 1);
        }
        put_uv(&mut image, 0);
        put_uv(&mut image, code);
        put_uv(&mut image, 0);
        put_uv(&mut image, 0);

        let dir = eq_store::scratch_dir("recovery-allocations-code");
        write_checkpoint(&dir.join(CHECKPOINT_FILE), &image).unwrap();
        assert!(
            matches!(
                open(&dir),
                Err(DurableError::Store(StoreError::Corrupt("table code")))
            ),
            "{values} values, code {code}"
        );
        eq_store::purge_dir(&dir);
    }
}

/// A logged load carries each row's cell count, and a row of the wrong
/// arity is an error, not a panic. (An image's rows carry none: a table
/// section holds exactly arity codes per row.)
#[test]
fn a_wrong_arity_row_is_an_error_not_a_panic() {
    // A frame: first sequence number, dictionary base, definitions,
    // then a create-table record (tag 1) and a load record (tag 2).
    let dir = eq_store::scratch_dir("recovery-allocations-wal-arity");
    let mut frame = Vec::new();
    put_uv(&mut frame, 0);
    put_uv(&mut frame, 0);
    put_defs(&mut frame, &["T", "a", "b"]);
    frame.extend([1, 0, 2, 1, 2]);
    frame.extend([2, 0]);
    wrong_arity_rows(&mut frame);
    let (mut wal, _) = WriteAheadLog::open(&dir.join(WAL_FILE)).unwrap();
    wal.commit(&frame, 2).unwrap();
    drop(wal);
    assert!(is_arity_error(open(&dir)));
    eq_store::purge_dir(&dir);
}

/// Replay validates every recorded outcome before the ledger keeps it,
/// and builds none: an answered outcome's relations, tuples and cells
/// are walked, not allocated. Reopening a directory of `PAIRS` answered
/// pairs makes one allocation per ledger entry (its kept bytes) and, on
/// the log, per pending-mirror entry, plus the maps' growth and a fixed
/// rest: no allocation per replayed outcome beyond the entry it is kept
/// as. Building each outcome would add three per outcome.
#[test]
fn replayed_outcomes_allocate_only_their_ledger_entries() {
    const PAIRS: usize = 600;
    for checkpointed in [true, false] {
        let dir = eq_store::scratch_dir("recovery-allocations-outcomes");
        {
            let dc = open(&dir).unwrap();
            dc.create_table("F", &["fno", "dest"]).unwrap();
            dc.load("F", vec![vec![Value::int(122), Value::str("Paris")]])
                .unwrap();
            let requests = (0..PAIRS)
                .flat_map(|i| {
                    [(i, i + PAIRS), (i + PAIRS, i)].map(|(me, you)| {
                        let text = format!("{{R(P{you}, x)}} R(P{me}, x) <- F(x, Paris)");
                        SubmitRequest::new(parse_ir_query(&text).unwrap())
                    })
                })
                .collect();
            assert!(dc.submit_batch(requests).iter().all(Result::is_ok));
            assert_eq!(dc.flush().answered, 2 * PAIRS);
            if checkpointed {
                dc.checkpoint().unwrap();
            }
        }
        let (dc, allocations, _) = counted(|| open(&dir).unwrap());
        let outcomes = dc.accounting().unwrap();
        assert_eq!(outcomes.len(), 2 * PAIRS);
        // Each outcome's bytes enter the ledger, and replayed from the
        // log its submission's enter the pending mirror first; the maps
        // grow by doubling. (Measured: 64 and 77 allocations besides.)
        let entries = outcomes.len() * if checkpointed { 1 } else { 2 };
        assert!(
            allocations <= entries + 150,
            "reopening {} outcomes (checkpointed: {checkpointed}) made {allocations} \
             allocations for {entries} mirror and ledger entries",
            outcomes.len()
        );
        drop(dc);
        eq_store::purge_dir(&dir);
    }
}
