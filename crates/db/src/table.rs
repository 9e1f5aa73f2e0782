//! Tables: schema, slab row storage, the [`Liveness`] bitmap both
//! backends tombstone through, and the [`RowStore`] backend trait the
//! catalog and evaluator run over. Both backends index their rows with
//! one [`PostingIndex`]: a value dictionary and a packed posting arena
//! per column.

use crate::index::PostingIndex;
use eq_ir::{Symbol, Value};
use std::fmt;

/// A database tuple.
pub type Tuple = Vec<Value>;

/// Always-on I/O counters reported by a [`RowStore`] backend.
///
/// The in-memory [`Table`] reports all zeros; paged backends (the
/// `eq_store` crate) count page traffic through their cache. Counters
/// are cumulative over the store's lifetime. [`StoreIoStats::merge`]
/// sums per-table stats into a database-wide view; since each paged
/// table owns its own cache, the summed `resident_bytes_peak` is an
/// upper bound on simultaneous residency (exact when one table pages).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreIoStats {
    /// Pages faulted in from the backing file (cache misses that hit disk).
    pub page_reads: u64,
    /// Pages written back to the backing file (dirty evictions + flushes).
    pub page_writes: u64,
    /// Page requests satisfied by the cache without touching the file.
    pub cache_hits: u64,
    /// Frames evicted to stay under the cache's byte budget.
    pub evictions: u64,
    /// High-water mark of bytes resident in the page cache.
    pub resident_bytes_peak: u64,
}

impl StoreIoStats {
    /// Element-wise saturating sum of two counter sets.
    pub fn merge(self, other: StoreIoStats) -> StoreIoStats {
        StoreIoStats {
            page_reads: self.page_reads.saturating_add(other.page_reads),
            page_writes: self.page_writes.saturating_add(other.page_writes),
            cache_hits: self.cache_hits.saturating_add(other.cache_hits),
            evictions: self.evictions.saturating_add(other.evictions),
            resident_bytes_peak: self
                .resident_bytes_peak
                .saturating_add(other.resident_bytes_peak),
        }
    }
}

/// Storage backend for one relation: row storage plus a per-column
/// value index. Extracted from the in-memory [`Table`] so the catalog
/// ([`Database`](crate::Database)), the evaluator's candidate cursors,
/// and bulk loading work unchanged over either the in-memory backend or
/// `eq_store`'s paged on-disk backend.
///
/// Contract shared by every backend (what the backend-equivalence
/// property tests pin down):
///
/// * Row ids are assigned densely in insertion order and never reused.
/// * Deletion tombstones a row in place: ids stay stable, and
///   [`RowStore::read_row`] returns `false` for dead ids. Every backend
///   keeps which ids are live in one [`Liveness`] bitmap, and the row
///   counts ([`RowStore::len`], [`RowStore::row_id_bound`],
///   [`RowStore::tombstone_count`]) are read from it.
/// * The index is **memory-resident** on every backend — one
///   [`PostingIndex`] each — and lent out as slices:
///   [`RowStore::postings`] yields the live ids holding a value in
///   ascending (= insertion) order — the evaluator's answer-order
///   guarantee rests on this, and so does its index-only membership
///   test, which intersects posting lists without reading a row.
/// * A bulk load is [`RowStore::begin_load`], pushes, then
///   [`RowStore::finish_load`]: the pushes in between file nothing in
///   the index, and the end-of-load step files them all — per column,
///   packing the index to its exact size, when the load outgrows the
///   table it joins. Only the database's bulk paths open a load, and
///   they hold the store until it ends: the index is not read while a
///   load is open.
/// * Arity is validated by the database layer before `push`/`delete`
///   reach the backend.
/// * Rows are stored at a fixed stride of dictionary codes (arity codes
///   in a slab, or arity encoded cells on a page): no row is a heap
///   object of its own, and no value is stored once per cell. The
///   dictionary and the codes are also what a checkpoint writes and a
///   coded load pushes back ([`RowStore::for_each_row_codes`],
///   [`RowStore::push_codes`]), through the same trait on either
///   backend.
pub trait RowStore: fmt::Debug + Send + Sync {
    /// The relation's schema.
    fn schema(&self) -> &TableSchema;

    /// Which row ids are live.
    fn liveness(&self) -> &Liveness;

    /// Appends a copy of `row` at the next row id: its cells go into the
    /// backend's row storage at a fixed stride — no allocation of its
    /// own — and its id onto one posting list per column. The caller
    /// has already validated arity.
    fn push(&mut self, row: &[Value]);

    /// Opens a bulk load of `rows` more rows: row storage grows once to
    /// the size it needs instead of doubling its way there, and the
    /// rows pushed until [`RowStore::finish_load`] are filed in the
    /// index only then. Every load opened must be finished.
    fn begin_load(&mut self, rows: usize);

    /// Ends the open bulk load: files every row pushed since
    /// [`RowStore::begin_load`] in the index. A load of more rows than
    /// the table held is filed column by column and packs the index so
    /// it holds exactly its live ids; a smaller one is filed row by
    /// row, so it costs its own rows, not the table's.
    fn finish_load(&mut self);

    /// Reads the row with a given id into `out` (clearing it first).
    /// Returns `false` — leaving `out` in an unspecified state — when
    /// the id is a tombstone or out of bounds.
    fn read_row(&self, id: u32, out: &mut Tuple) -> bool;

    /// The live row ids whose column `col` equals `value`, ascending;
    /// empty if none. Its length is the evaluator's cardinality
    /// estimate, the slice itself its candidate cursor.
    fn postings(&self, col: usize, value: Value) -> &[u32];

    /// Deletes the first occurrence of an exact tuple (tombstoning it).
    /// Returns true if a row was removed.
    fn delete(&mut self, row: &[Value]) -> bool;

    /// Number of live rows (tombstones excluded).
    fn len(&self) -> usize {
        self.liveness().live_count()
    }

    /// Upper bound (exclusive) on row ids; ids below it may be
    /// tombstones.
    fn row_id_bound(&self) -> u32 {
        self.liveness().bound()
    }

    /// Number of tombstoned (deleted) rows still occupying ids.
    fn tombstone_count(&self) -> usize {
        self.liveness().tombstones()
    }

    /// True if the store has no live rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of the first live row equal to `row`, decided from the index
    /// alone: the smallest id common to every column's posting list.
    /// A zero-column relation has no column to look up, and all its
    /// rows are equal: the first live id. `None` for a wrong-arity
    /// tuple.
    fn find_row(&self, row: &[Value]) -> Option<u32> {
        if row.len() != self.schema().arity() {
            return None;
        }
        if row.is_empty() {
            return self.liveness().first_live();
        }
        let mut lists: Vec<PostingCursor<'_>> = row
            .iter()
            .enumerate()
            .map(|(col, &value)| PostingCursor::new(self.postings(col, value)))
            .collect();
        next_common(&mut lists)
    }

    /// True if an exact tuple is present.
    fn contains(&self, row: &[Value]) -> bool {
        self.find_row(row).is_some()
    }

    /// Visits every live row in id order.
    fn for_each_row(&self, f: &mut dyn FnMut(&[Value])) {
        let mut buf = Tuple::new();
        for id in 0..self.row_id_bound() {
            if self.read_row(id, &mut buf) {
                f(&buf);
            }
        }
    }

    /// The relation's index: its value dictionary and posting lists.
    fn index(&self) -> &PostingIndex;

    /// The index, writable: a coded load
    /// ([`Database::bulk_load_coded`](crate::Database::bulk_load_coded))
    /// holds and releases its values' codes through it.
    fn index_mut(&mut self) -> &mut PostingIndex;

    /// Visits the codes of every live row in id order, one code of the
    /// index's dictionary per cell: the view a checkpoint writes a
    /// table's rows from. This default reads each row and looks every
    /// cell's value up; a backend that stores codes lends them out.
    fn for_each_row_codes(&self, f: &mut dyn FnMut(&[u32])) {
        let index = self.index();
        let mut codes = Vec::new();
        self.for_each_row(&mut |row| {
            codes.clear();
            codes.extend(
                row.iter()
                    .map(|&value| index.code(value).expect("a live cell's value has a code")),
            );
            f(&codes);
        });
    }

    /// Appends a row given as codes of the index's dictionary, each held
    /// by a live cell or by the open coded load, and counts one more
    /// live cell for each: [`RowStore::push`] without a value lookup
    /// per cell. The caller has already validated arity. This default
    /// decodes the codes and pushes the values; a backend that stores
    /// codes writes them as they are.
    fn push_codes(&mut self, codes: &[u32]) {
        let row: Tuple = codes.iter().map(|&code| self.index().value(code)).collect();
        self.push(&row);
    }

    /// The backend's cumulative I/O counters. Purely in-memory backends
    /// report all zeros.
    fn io_stats(&self) -> StoreIoStats {
        StoreIoStats::default()
    }

    /// Cells the backend's in-memory row slab has room for; `0` for a
    /// backend without one. Lets tests pin the slab's size.
    #[cfg(test)]
    fn slab_capacity(&self) -> usize {
        0
    }

    /// Row ids the backend's posting arenas have room for, across every
    /// column; `0` for a backend without them. Lets tests pin the
    /// index's size.
    #[cfg(test)]
    fn posting_capacity(&self) -> usize {
        0
    }
}

/// Which row ids of one relation are live: one bit per id ever
/// assigned, plus the number of cleared bits, so the live count is O(1)
/// and a tombstone costs one bit instead of a row-sized marker. Both
/// [`RowStore`] backends keep their tombstones here.
#[derive(Clone, Debug, Default)]
pub struct Liveness {
    /// Bit `id % 64` of word `id / 64` is set while row `id` is live.
    words: Vec<u64>,
    /// Ids assigned so far: the next id to hand out.
    bound: u32,
    tombstones: usize,
}

impl Liveness {
    /// Assigns the next row id, live. Panics once `u32` ids run out.
    pub fn push(&mut self) -> u32 {
        let id = self.bound;
        self.bound = id.checked_add(1).expect("table too large");
        if id.is_multiple_of(64) {
            self.words.push(0);
        }
        self.words[(id / 64) as usize] |= 1 << (id % 64);
        id
    }

    /// Makes room for `rows` more ids.
    pub fn reserve(&mut self, rows: usize) {
        let words = (self.bound as usize).saturating_add(rows).div_ceil(64);
        self.words.reserve(words.saturating_sub(self.words.len()));
    }

    /// True if `id` was assigned and not tombstoned; `false` for an id
    /// out of range.
    pub fn is_live(&self, id: u32) -> bool {
        id < self.bound && self.words[(id / 64) as usize] & (1 << (id % 64)) != 0
    }

    /// Tombstones a live id. Returns `false` (changing nothing) if it
    /// was not live.
    pub fn kill(&mut self, id: u32) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.words[(id / 64) as usize] &= !(1 << (id % 64));
        self.tombstones += 1;
        true
    }

    /// The smallest live id, if any.
    pub fn first_live(&self) -> Option<u32> {
        let (word, bits) = self.words.iter().enumerate().find(|(_, &w)| w != 0)?;
        Some(word as u32 * 64 + bits.trailing_zeros())
    }

    /// Upper bound (exclusive) on assigned ids.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Number of live ids.
    pub fn live_count(&self) -> usize {
        self.bound as usize - self.tombstones
    }

    /// Number of tombstoned ids.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }
}

/// A read position in one borrowed posting list — the unit the
/// evaluator's frames and [`RowStore::find_row`] intersect.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PostingCursor<'a> {
    ids: &'a [u32],
    pos: usize,
}

impl<'a> PostingCursor<'a> {
    pub(crate) fn new(ids: &'a [u32]) -> Self {
        PostingCursor { ids, pos: 0 }
    }

    /// Entries not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.ids.len() - self.pos
    }

    /// Skips entries below `id`; returns the entry now under the cursor.
    fn seek(&mut self, id: u32) -> Option<u32> {
        self.pos += self.ids[self.pos..].partition_point(|&x| x < id);
        self.ids.get(self.pos).copied()
    }
}

/// Next id present in **every** list, consuming it from the first
/// (`lists[0]` drives; callers put the shortest list there). Posting
/// lists are ascending, so the ids come out ascending: exactly the rows
/// a probe of any one list followed by a row-by-row comparison of the
/// other columns would keep, in the same order, once per matching row.
/// `None` when `lists` is empty or any list is exhausted.
pub(crate) fn next_common(lists: &mut [PostingCursor<'_>]) -> Option<u32> {
    let (driver, rest) = lists.split_first_mut()?;
    let mut id = *driver.ids.get(driver.pos)?;
    loop {
        // The smallest entry ≥ id across the other lists that is not id
        // itself, if any, is the next id that can still be common.
        let mut beyond = None;
        for list in rest.iter_mut() {
            let at = list.seek(id)?;
            if at != id {
                beyond = Some(at);
                break;
            }
        }
        match beyond {
            None => {
                driver.pos += 1;
                return Some(id);
            }
            Some(at) => id = driver.seek(at)?,
        }
    }
}

/// Schema of one relation: a name and ordered column names.
#[derive(Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Relation name.
    pub name: Symbol,
    /// Column names, in position order.
    pub columns: Vec<Symbol>,
}

impl TableSchema {
    /// Builds a schema.
    pub fn new(name: impl Into<Symbol>, columns: &[&str]) -> Self {
        TableSchema {
            name: name.into(),
            columns: columns.iter().map(|c| Symbol::new(c)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a named column.
    pub fn column_index(&self, name: Symbol) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }
}

impl fmt::Debug for TableSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// One relation, in memory: a slab of value codes, a [`Liveness`]
/// bitmap and a [`PostingIndex`].
///
/// **The slab.** Every row's cells sit in one `Vec<u32>` of dictionary
/// codes, row-major at a stride of the relation's arity: row `id` is
/// `cells[id * arity..(id + 1) * arity]`, decoded through the index's
/// dictionary on read. A row is never a heap object of its own, and a
/// value is stored once per table however many cells hold it, so a
/// loaded table of n rows holds n × arity codes and n × arity posting
/// ids — plus the bitmap's n bits and a few words per distinct value.
/// A zero-arity relation's rows are empty: the slab stays empty and the
/// bitmap alone counts them.
///
/// **Tombstones.** Deleting a row clears its bit and takes its id off
/// the posting lists; its codes stay in the slab, so ids stay stable
/// for the table's lifetime, and a clone keeps them too. A dead row's
/// codes are never decoded, so a code freed by the delete may be reused.
///
/// **Sharing.** The catalog holds a table behind an `Arc`:
/// [`Database::snapshot`](crate::Database::snapshot) shares it, and the
/// first write on either side clones it, the slab and every index
/// vector at its exact length.
///
/// A single insert files its row in the index at once; a bulk load
/// ([`RowStore::begin_load`] … [`RowStore::finish_load`]) files its
/// rows at its end, straight from the slab. A coded row
/// ([`RowStore::push_codes`]) is copied into the slab as it is, and the
/// slab is lent out row by row as the checkpoint's code view. The evaluator probes
/// the index of whichever bound column has the shortest posting list.
#[derive(Clone)]
pub struct Table {
    schema: TableSchema,
    /// Cells per row: the slab's stride.
    arity: usize,
    /// Row-major codes of every row ever pushed, tombstones included.
    cells: Vec<u32>,
    live: Liveness,
    index: PostingIndex,
    /// The first row of an open bulk load: rows from it on are in the
    /// slab but not yet in the index.
    loading: Option<u32>,
}

impl Table {
    /// Creates an empty table with an index per column.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            arity,
            cells: Vec::new(),
            live: Liveness::default(),
            index: PostingIndex::new(arity),
            loading: None,
        }
    }

    /// True if the row id refers to a live (non-tombstoned) row;
    /// `false` for an id out of range.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.is_live(id)
    }

    /// The codes of row `id`, live or not.
    fn codes(&self, id: u32) -> &[u32] {
        let start = id as usize * self.arity;
        &self.cells[start..start + self.arity]
    }

    /// Files row `id`, just pushed, in the index, unless a bulk load is
    /// open: that files its rows at its end.
    fn file_pushed(&mut self, id: u32) {
        if self.loading.is_none() {
            let start = id as usize * self.arity;
            self.index.insert(&self.cells[start..], id);
        }
    }
}

impl RowStore for Table {
    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn liveness(&self) -> &Liveness {
        &self.live
    }

    fn push(&mut self, row: &[Value]) {
        // The stride of every later row depends on it.
        assert_eq!(row.len(), self.arity, "row arity");
        let id = self.live.push();
        for &value in row {
            let code = self.index.encode(value);
            self.cells.push(code);
        }
        self.file_pushed(id);
    }

    fn push_codes(&mut self, codes: &[u32]) {
        assert_eq!(codes.len(), self.arity, "row arity");
        let id = self.live.push();
        for &code in codes {
            self.index.hold(code);
        }
        self.cells.extend_from_slice(codes);
        self.file_pushed(id);
    }

    fn index(&self) -> &PostingIndex {
        &self.index
    }

    fn index_mut(&mut self) -> &mut PostingIndex {
        &mut self.index
    }

    fn for_each_row_codes(&self, f: &mut dyn FnMut(&[u32])) {
        for id in 0..self.live.bound() {
            if self.is_live(id) {
                f(self.codes(id));
            }
        }
    }

    fn begin_load(&mut self, rows: usize) {
        assert!(self.loading.is_none(), "a load is already open");
        self.cells.reserve(rows.saturating_mul(self.arity));
        self.live.reserve(rows);
        self.loading = Some(self.live.bound());
    }

    fn finish_load(&mut self) {
        let first = self.loading.take().expect("no load is open");
        self.index
            .finish_load(&self.cells[first as usize * self.arity..], first);
    }

    fn read_row(&self, id: u32, out: &mut Tuple) -> bool {
        if !self.is_live(id) {
            return false;
        }
        out.clear();
        out.extend(self.codes(id).iter().map(|&code| self.index.value(code)));
        true
    }

    fn postings(&self, col: usize, value: Value) -> &[u32] {
        debug_assert!(self.loading.is_none(), "index read during a load");
        self.index.postings(col, value)
    }

    fn delete(&mut self, row: &[Value]) -> bool {
        debug_assert!(self.loading.is_none(), "delete during a load");
        let Some(id) = self.find_row(row) else {
            return false;
        };
        self.index.remove(row, id);
        self.live.kill(id)
    }

    #[cfg(test)]
    fn slab_capacity(&self) -> usize {
        self.cells.capacity()
    }

    #[cfg(test)]
    fn posting_capacity(&self) -> usize {
        self.index.id_capacity()
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table({:?}, {} rows)", self.schema, self.live.bound())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights() -> Table {
        let mut t = Table::new(TableSchema::new("Flights", &["fno", "dest"]));
        for (fno, dest) in [(122, "Paris"), (123, "Paris"), (136, "Rome")] {
            t.push(&[Value::int(fno), Value::str(dest)]);
        }
        t
    }

    #[test]
    fn schema_lookup() {
        let s = TableSchema::new("Flights", &["fno", "dest"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.column_index(Symbol::new("dest")), Some(1));
        assert_eq!(s.column_index(Symbol::new("nope")), None);
        assert_eq!(format!("{s:?}"), "Flights(fno, dest)");
    }

    #[test]
    fn insert_and_scan() {
        let t = flights();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        let mut rows = Vec::new();
        t.for_each_row(&mut |row| rows.push(row.to_vec()));
        assert_eq!(rows[0][0], Value::int(122));
        assert_eq!(rows[2], [Value::int(136), Value::str("Rome")]);
    }

    #[test]
    fn index_probe() {
        let t = flights();
        let paris = t.postings(1, Value::str("Paris"));
        assert_eq!(paris.len(), 2);
        assert_eq!(t.postings(1, Value::str("Athens")), &[] as &[u32]);
        assert_eq!(t.postings(0, Value::int(136)), &[2]);
    }

    #[test]
    fn contains_exact_tuple() {
        let t = flights();
        assert!(t.contains(&[Value::int(122), Value::str("Paris")]));
        assert!(!t.contains(&[Value::int(122), Value::str("Rome")]));
        assert!(!t.contains(&[Value::int(122)]));
    }

    #[test]
    fn duplicate_rows_both_indexed() {
        let mut t = Table::new(TableSchema::new("D", &["a"]));
        t.push(&[Value::int(1)]);
        t.push(&[Value::int(1)]);
        assert_eq!(t.postings(0, Value::int(1)).len(), 2);
    }

    #[test]
    fn liveness_is_false_out_of_range() {
        let t = flights();
        assert!(t.is_live(2));
        assert!(!t.is_live(3));
        assert!(!t.read_row(3, &mut Tuple::new()));
        let nullary = Table::new(TableSchema::new("Flag", &[]));
        assert!(!nullary.is_live(0));
        assert!(!nullary.contains(&[]));
    }

    /// The slab is one allocation of exactly n × arity codes after a
    /// bulk load, and the posting arenas hold exactly n × arity ids; a
    /// snapshot shares it rather than copying it, and the
    /// first write to a shared table copies it once at exactly its
    /// row-id bound × arity cells — so the layout cannot quietly regress
    /// to per-row objects, doubling slack or a copy per snapshot. A
    /// zero-arity relation's slab stays empty: its bitmap counts it.
    #[test]
    fn bulk_paths_size_the_slab_exactly() {
        use crate::Database;
        const N: usize = 1000;
        for columns in [&["a", "b", "c"][..], &[]] {
            let arity = columns.len();
            let row =
                |i: i64| [Value::int(i), Value::int(i % 7), Value::str("x")][..arity].to_vec();
            let mut db = Database::new();
            db.create_table("T", columns).unwrap();
            db.insert_many("T", (0..N as i64).map(row).collect())
                .unwrap();
            let table = db.table(Symbol::new("T")).unwrap();
            assert_eq!(table.slab_capacity(), N * arity);
            assert_eq!(table.posting_capacity(), N * arity);

            // Five rows pushed past the loaded capacity, five deleted:
            // the snapshot is the same table, slack and tombstones
            // included.
            for i in 0..5 {
                db.insert("T", row(-1 - i)).unwrap();
            }
            for i in 0..5 {
                assert!(db.delete("T", &row(i)).unwrap());
            }
            let mut copy = db.snapshot();
            let source = db.table(Symbol::new("T")).unwrap();
            assert_eq!((source.len(), source.tombstone_count()), (N, 5));
            let grown = source.slab_capacity();
            assert!(grown > (N + 5) * arity || arity == 0);
            let table = copy.table(Symbol::new("T")).unwrap();
            assert!(std::ptr::addr_eq(table, source));

            // The copy's first write copies the slab once, at exactly
            // the n + 5 rows it holds; the source keeps its own.
            assert!(copy.delete("T", &row(5)).unwrap());
            let table = copy.table(Symbol::new("T")).unwrap();
            assert_eq!((table.len(), table.tombstone_count()), (N - 1, 6));
            assert_eq!(table.slab_capacity(), (N + 5) * arity);
            let source = db.table(Symbol::new("T")).unwrap();
            assert_eq!((source.len(), source.tombstone_count()), (N, 5));
            assert_eq!(source.slab_capacity(), grown);
        }
    }

    /// The dictionary tracks live values, not history: a value whose
    /// last cell is deleted gives its code to the next new value, so
    /// 10,000 rounds of insert-then-delete over fresh values never hold
    /// more codes than live distinct values, and the reused spans keep
    /// the arenas from growing.
    #[test]
    fn freed_codes_are_reused() {
        let mut t = Table::new(TableSchema::new("T", &["a", "b"]));
        let kept = [Value::int(-1), Value::str("kept")];
        t.push(&kept);
        for i in 0..10_000 {
            let row = [Value::int(i), Value::str(&format!("fresh{i}"))];
            t.push(&row);
            assert!(t.index.code_space() <= 4, "round {i}");
            assert_eq!(t.postings(1, row[1]), &[i as u32 + 1]);
            assert!(t.delete(&row));
            assert_eq!(t.postings(0, row[0]), &[] as &[u32]);
        }
        assert!(t.index.code_space() <= 4);
        assert!(t.posting_capacity() <= 16);
        assert_eq!(t.postings(1, kept[1]), &[0]);
        let mut rows = Vec::new();
        t.for_each_row(&mut |row| rows.push(row.to_vec()));
        assert_eq!(rows, [kept.to_vec()]);
    }
}
