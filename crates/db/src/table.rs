//! Tables: schema, row storage, per-column hash indexes, and the
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
///   [`RowStore::read_row`] returns `false` for dead ids.
/// * The index is **memory-resident** on every backend and lent out as
///   slices: [`RowStore::postings`] yields the live ids holding a value
///   in ascending (= insertion) order — the evaluator's answer-order
///   guarantee rests on this, and so does its index-only membership
///   test, which intersects posting lists without reading a row.
/// * Arity is validated by the database layer before `push`/`delete`
///   reach the backend.
pub trait RowStore: fmt::Debug + Send + Sync {
    /// The relation's schema.
    fn schema(&self) -> &TableSchema;

    /// Number of live rows (tombstones excluded).
    fn len(&self) -> usize;

    /// Upper bound (exclusive) on row ids; ids below it may be
    /// tombstones.
    fn row_id_bound(&self) -> u32;

    /// Appends a row. The caller has already validated arity.
    fn push(&mut self, row: Tuple);

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

    /// Number of tombstoned (deleted) rows still occupying ids.
    fn tombstone_count(&self) -> usize;

    /// True if the store has no live rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of the first live row equal to `row`, decided from the index
    /// alone: the smallest id common to every column's posting list.
    /// `None` for a wrong-arity or zero-column tuple (no column to look
    /// up).
    fn find_row(&self, row: &[Value]) -> Option<u32> {
        if row.len() != self.schema().arity() {
            return None;
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
        if row.is_empty() {
            return self.schema().arity() == 0 && self.len() > 0;
        }
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

/// One relation: rows plus a hash index per column.
///
/// Indexes are maintained eagerly on insert. Workload relations are
/// narrow (arity ≤ 3 in the paper's schema) and read-dominated — the
/// coordination engine evaluates many combined queries against a
/// database that changes rarely — so eager maintenance is the right
/// trade. The evaluator probes the index of whichever bound column has
/// the shortest posting list.
pub struct Table {
    schema: TableSchema,
    rows: Vec<Tuple>,
    /// `indexes[col][value]` = row ids having `value` in column `col`.
    indexes: Vec<FastMap<Value, Vec<u32>>>,
    /// Deleted rows left in place as tombstones so row ids stay stable.
    tombstones: usize,
}

impl Table {
    /// Creates an empty table with an index per column.
    pub fn new(schema: TableSchema) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            rows: Vec::new(),
            indexes: (0..arity).map(|_| FastMap::default()).collect(),
            tombstones: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows (tombstones excluded).
    pub fn len(&self) -> usize {
        self.rows.len() - self.tombstones
    }

    /// Upper bound (exclusive) on row ids; ids below it may be
    /// tombstones. Scans iterate this range and skip dead rows.
    pub fn row_id_bound(&self) -> u32 {
        self.rows.len() as u32
    }

    /// True if the row id refers to a live (non-tombstoned) row.
    pub fn is_live(&self, id: u32) -> bool {
        self.schema.arity() == 0 || !self.rows[id as usize].is_empty()
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row (arity already checked by the database layer).
    pub(crate) fn push(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.schema.arity());
        let id = u32::try_from(self.rows.len()).expect("table too large");
        for (col, value) in row.iter().enumerate() {
            self.indexes[col].entry(*value).or_default().push(id);
        }
        self.rows.push(row);
    }

    /// The row with a given id.
    pub fn row(&self, id: u32) -> &Tuple {
        &self.rows[id as usize]
    }

    /// Iterates over all live rows.
    pub fn rows(&self) -> impl Iterator<Item = &Tuple> {
        let arity = self.schema.arity();
        self.rows
            .iter()
            .filter(move |r| arity == 0 || !r.is_empty())
    }

    /// Row ids whose column `col` equals `value`; empty slice if none.
    pub fn probe(&self, col: usize, value: Value) -> &[u32] {
        self.indexes[col]
            .get(&value)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Deletes the first occurrence of an exact tuple, updating all
    /// indexes. Returns true if a row was removed.
    ///
    /// Deletion marks the row as a tombstone (empty tuple) rather than
    /// shifting ids, so existing row ids stay stable; tombstones are
    /// skipped by scans and never referenced by indexes.
    pub(crate) fn delete(&mut self, row: &[Value]) -> bool {
        let Some(id) = self.find_row(row) else {
            return false;
        };
        for (col, value) in row.iter().enumerate() {
            if let Some(list) = self.indexes[col].get_mut(value) {
                list.retain(|&x| x != id);
            }
        }
        self.rows[id as usize] = Tuple::new();
        self.tombstones += 1;
        true
    }

    /// Number of tombstoned (deleted) rows still occupying ids.
    pub fn tombstone_count(&self) -> usize {
        self.tombstones
    }
}

impl RowStore for Table {
    fn schema(&self) -> &TableSchema {
        Table::schema(self)
    }

    fn len(&self) -> usize {
        Table::len(self)
    }

    fn row_id_bound(&self) -> u32 {
        Table::row_id_bound(self)
    }

    fn push(&mut self, row: Tuple) {
        Table::push(self, row)
    }

    fn read_row(&self, id: u32, out: &mut Tuple) -> bool {
        let Some(row) = self.rows.get(id as usize) else {
            return false;
        };
        if !Table::is_live(self, id) {
            return false;
        }
        out.clear();
        out.extend_from_slice(row);
        true
    }

    fn postings(&self, col: usize, value: Value) -> &[u32] {
        Table::probe(self, col, value)
    }

    fn delete(&mut self, row: &[Value]) -> bool {
        Table::delete(self, row)
    }

    fn tombstone_count(&self) -> usize {
        Table::tombstone_count(self)
    }

    fn for_each_row(&self, f: &mut dyn FnMut(&[Value])) {
        for row in self.rows() {
            f(row);
        }
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Table({:?}, {} rows)", self.schema, self.rows.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flights() -> Table {
        let mut t = Table::new(TableSchema::new("Flights", &["fno", "dest"]));
        for (fno, dest) in [(122, "Paris"), (123, "Paris"), (136, "Rome")] {
            t.push(vec![Value::int(fno), Value::str(dest)]);
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
        let paris = t.probe(1, Value::str("Paris"));
        assert_eq!(paris.len(), 2);
        assert_eq!(t.probe(1, Value::str("Athens")), &[] as &[u32]);
        assert_eq!(t.probe(0, Value::int(136)), &[2]);
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
        t.push(vec![Value::int(1)]);
        t.push(vec![Value::int(1)]);
        assert_eq!(t.probe(0, Value::int(1)).len(), 2);
    }
}
