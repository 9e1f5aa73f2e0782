//! Tables: schema, slab row storage, the [`Liveness`] bitmap both
//! backends tombstone through, per-column hash indexes, and the
//! [`RowStore`] backend trait the catalog and evaluator run over.

use eq_ir::{FastMap, Symbol, Value};
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
/// * The index is **memory-resident** on every backend and lent out as
///   slices: [`RowStore::postings`] yields the live ids holding a value
///   in ascending (= insertion) order — the evaluator's answer-order
///   guarantee rests on this, and so does its index-only membership
///   test, which intersects posting lists without reading a row.
/// * Arity is validated by the database layer before `push`/`delete`
///   reach the backend.
/// * Rows are stored at a fixed stride (arity cells, or arity encoded
///   cells on a page): no row is a heap object of its own.
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

    /// Capacity hint: `rows` more rows are about to be pushed. A bulk
    /// load calls it once, so row storage grows once to the size it
    /// needs instead of doubling its way there.
    fn reserve(&mut self, rows: usize);

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

/// One relation, in memory: a row slab, a [`Liveness`] bitmap and a
/// hash index per column.
///
/// **The slab.** Every row's cells sit in one `Vec<Value>`, row-major
/// at a stride of the relation's arity: row `id` is
/// `cells[id * arity..(id + 1) * arity]`. A row is never a heap object
/// of its own, so a table of n rows holds its data in one allocation of
/// n × arity cells — plus the bitmap's n bits and the posting lists.
/// A zero-arity relation's rows are empty slices: the slab stays empty
/// and the bitmap alone counts them.
///
/// **Tombstones.** Deleting a row clears its bit and takes its id off
/// the posting lists; its cells stay in the slab, so ids stay stable
/// for the table's lifetime, and a clone keeps them too.
///
/// **Sharing.** The catalog holds a table behind an `Arc`:
/// [`Database::snapshot`](crate::Database::snapshot) shares it, and the
/// first write on either side clones it, the slab and every posting
/// list at its exact length.
///
/// Indexes are maintained eagerly on insert. Workload relations are
/// narrow (arity ≤ 3 in the paper's schema) and read-dominated — the
/// coordination engine evaluates many combined queries against a
/// database that changes rarely — so eager maintenance is the right
/// trade. The evaluator probes the index of whichever bound column has
/// the shortest posting list.
#[derive(Clone)]
pub struct Table {
    schema: TableSchema,
    /// Cells per row: the slab's stride.
    arity: usize,
    /// Row-major cells of every row ever pushed, tombstones included.
    cells: Vec<Value>,
    live: Liveness,
    /// `indexes[col][value]` = live row ids having `value` in column
    /// `col`, ascending.
    indexes: Vec<FastMap<Value, Vec<u32>>>,
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
            indexes: (0..arity).map(|_| FastMap::default()).collect(),
        }
    }

    /// True if the row id refers to a live (non-tombstoned) row;
    /// `false` for an id out of range.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.is_live(id)
    }

    /// The cells of a live row; `None` for a tombstone or an id out of
    /// range.
    pub fn row(&self, id: u32) -> Option<&[Value]> {
        if !self.is_live(id) {
            return None;
        }
        let start = id as usize * self.arity;
        Some(&self.cells[start..start + self.arity])
    }

    /// Iterates over all live rows, in id order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.live.bound()).filter_map(|id| self.row(id))
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
        for (index, value) in self.indexes.iter_mut().zip(row) {
            index.entry(*value).or_default().push(id);
        }
        self.cells.extend_from_slice(row);
    }

    fn reserve(&mut self, rows: usize) {
        self.cells.reserve(rows.saturating_mul(self.arity));
        self.live.reserve(rows);
    }

    fn read_row(&self, id: u32, out: &mut Tuple) -> bool {
        let Some(row) = self.row(id) else {
            return false;
        };
        out.clear();
        out.extend_from_slice(row);
        true
    }

    fn postings(&self, col: usize, value: Value) -> &[u32] {
        self.indexes[col].get(&value).map_or(&[], Vec::as_slice)
    }

    fn delete(&mut self, row: &[Value]) -> bool {
        let Some(id) = self.find_row(row) else {
            return false;
        };
        for (index, value) in self.indexes.iter_mut().zip(row) {
            if let Some(list) = index.get_mut(value) {
                list.retain(|&x| x != id);
            }
        }
        self.live.kill(id)
    }

    fn for_each_row(&self, f: &mut dyn FnMut(&[Value])) {
        for row in self.rows() {
            f(row);
        }
    }

    #[cfg(test)]
    fn slab_capacity(&self) -> usize {
        self.cells.capacity()
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
        let rows: Vec<_> = t.rows().collect();
        assert_eq!(rows[0][0], Value::int(122));
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
        assert!(t.row(3).is_none());
        let nullary = Table::new(TableSchema::new("Flag", &[]));
        assert!(!nullary.is_live(0));
        assert!(!nullary.contains(&[]));
    }

    /// The slab is one allocation of exactly n × arity cells after a
    /// bulk load, a snapshot shares it rather than copying it, and the
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
}
