//! The paged table backend: disk-resident records behind a page cache,
//! memory-resident per-column index — the EMBANKS split for this
//! paper's lineage (keep the index structure hot, spill the records).
//!
//! Row encoding is fixed-width: `arity × 9` bytes per slot, each cell a
//! tag byte (`0` = integer, `1` = string) followed by 8 little-endian
//! payload bytes: the integer itself, or the string's code in the
//! table's memory-resident [`PostingIndex`] dictionary — the same
//! dictionary and posting arenas the in-memory table indexes with. A
//! code is only meaningful to the process that wrote it, and it need
//! not be more: page files are **ephemeral spill** for the current
//! process (durability is the WAL + checkpoint pair, which persist
//! strings by text).

use crate::cache::{PageCacheConfig, PageStore};
use crate::error::StoreError;
use eq_db::{Liveness, PostingIndex, RowStore, StoreIoStats, TableSchema, Tuple};
use eq_ir::Value;
use std::fmt;
use std::path::Path;

/// Bytes per encoded cell: 1 tag + 8 payload.
const CELL_BYTES: usize = 9;

/// A relation whose rows live in fixed-size slotted pages on disk,
/// served through a budgeted [`PageStore`]. Implements [`RowStore`], so
/// a `Database` drives it exactly like the in-memory table.
///
/// Memory-resident state: the [`PostingIndex`] (value dictionary and
/// posting arenas) and the [`Liveness`] bitmap. Disk-resident state:
/// the row payloads.
pub struct PagedTable {
    schema: TableSchema,
    store: PageStore,
    live: Liveness,
    index: PostingIndex,
    /// The codes of the rows an open bulk load has pushed, at the arity
    /// stride: the index files them at the load's end.
    pending: Vec<u32>,
    /// The first row of an open bulk load.
    loading: Option<u32>,
    rows_per_page: usize,
    arity: usize,
}

impl PagedTable {
    /// Creates an empty paged table whose page file lives under `dir`
    /// (created if needed) as `<sanitized-relation>-<hash>.pages`,
    /// truncating any previous file for the same relation.
    pub fn create(
        dir: &Path,
        schema: TableSchema,
        config: PageCacheConfig,
    ) -> Result<PagedTable, StoreError> {
        let arity = schema.arity();
        let row_bytes = arity * CELL_BYTES;
        if row_bytes > config.page_bytes {
            return Err(StoreError::Corrupt("page too small for one row"));
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(page_file_name(schema.name.as_str()));
        let store = PageStore::create(&path, config)?;
        let rows_per_page = if arity == 0 {
            1
        } else {
            config.page_bytes / row_bytes
        };
        Ok(PagedTable {
            schema,
            store,
            live: Liveness::default(),
            index: PostingIndex::new(arity),
            pending: Vec::new(),
            loading: None,
            rows_per_page,
            arity,
        })
    }

    fn slot(&self, id: u32) -> (u64, usize) {
        let page = (id as usize / self.rows_per_page) as u64;
        let offset = (id as usize % self.rows_per_page) * self.arity * CELL_BYTES;
        (page, offset)
    }

    /// True if the row id refers to a live (non-tombstoned) row.
    pub fn is_live(&self, id: u32) -> bool {
        self.live.is_live(id)
    }
}

/// Page-file names come from relation names: anything that is not a
/// plain identifier character becomes `_`, and an FNV-1a hash of the
/// raw name is appended so relations that sanitize to the same string
/// (`a.b` vs `a_b`) never share — and truncate — one backing file.
fn page_file_name(name: &str) -> String {
    let sanitized: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{}-{:08x}.pages", sanitized, fnv1a(name.as_bytes()))
}

/// 32-bit FNV-1a — only ever a file-name disambiguator.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c9dc5, |hash, &b| {
        (hash ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

fn le8(bytes: &[u8]) -> [u8; 8] {
    let mut out = [0u8; 8];
    out.copy_from_slice(&bytes[..8]);
    out
}

impl RowStore for PagedTable {
    fn schema(&self) -> &TableSchema {
        &self.schema
    }

    fn liveness(&self) -> &Liveness {
        &self.live
    }

    fn push(&mut self, row: &[Value]) {
        // The slot layout of every later row depends on it.
        assert_eq!(row.len(), self.arity, "row arity");
        let id = self.live.push();
        let start = self.pending.len();
        for &value in row {
            let code = self.index.encode(value);
            self.pending.push(code);
        }
        if self.arity > 0 {
            // Encoded straight into the pinned page.
            let (page, offset) = self.slot(id);
            let codes = &self.pending[start..];
            self.store
                .with_page_mut(page, |buf| {
                    let slot = &mut buf[offset..offset + row.len() * CELL_BYTES];
                    let cells = slot.chunks_exact_mut(CELL_BYTES).zip(row.iter().zip(codes));
                    for (cell, (value, &code)) in cells {
                        let (tag, payload) = match *value {
                            Value::Int(x) => (0, x.to_le_bytes()),
                            Value::Str(_) => (1, u64::from(code).to_le_bytes()),
                        };
                        cell[0] = tag;
                        cell[1..].copy_from_slice(&payload);
                    }
                })
                // Spill I/O failure mid-insert leaves no consistent
                // fallback; surface it loudly rather than serving a
                // silently truncated relation.
                .expect("paged table spill write failed");
        }
        if self.loading.is_none() {
            self.index.insert(&self.pending, id);
            self.pending.clear();
        }
    }

    fn index(&self) -> &PostingIndex {
        &self.index
    }

    fn index_mut(&mut self) -> &mut PostingIndex {
        &mut self.index
    }

    fn begin_load(&mut self, rows: usize) {
        assert!(self.loading.is_none(), "a load is already open");
        self.live.reserve(rows);
        self.pending.reserve(rows.saturating_mul(self.arity));
        self.loading = Some(self.live.bound());
    }

    fn finish_load(&mut self) {
        let first = self.loading.take().expect("no load is open");
        self.index.finish_load(&self.pending, first);
        self.pending = Vec::new();
    }

    fn read_row(&self, id: u32, out: &mut Tuple) -> bool {
        if !self.is_live(id) {
            return false;
        }
        out.clear();
        if self.arity == 0 {
            return true;
        }
        let (page, offset) = self.slot(id);
        let decoded = self.store.with_page(page, |buf| {
            for i in 0..self.arity {
                let cell = &buf[offset + i * CELL_BYTES..offset + (i + 1) * CELL_BYTES];
                let payload = le8(&cell[1..]);
                match cell[0] {
                    0 => out.push(Value::Int(i64::from_le_bytes(payload))),
                    _ => {
                        let Ok(code) = u32::try_from(u64::from_le_bytes(payload)) else {
                            return false;
                        };
                        out.push(self.index.value(code));
                    }
                }
            }
            true
        });
        matches!(decoded, Ok(true))
    }

    fn postings(&self, col: usize, value: Value) -> &[u32] {
        debug_assert!(self.loading.is_none(), "index read during a load");
        self.index.postings(col, value)
    }

    fn delete(&mut self, row: &[Value]) -> bool {
        debug_assert!(self.loading.is_none(), "delete during a load");
        // Found in the memory-resident index: no page is read.
        let Some(id) = self.find_row(row) else {
            return false;
        };
        self.index.remove(row, id);
        self.live.kill(id)
    }

    fn io_stats(&self) -> StoreIoStats {
        self.store.stats()
    }
}

impl fmt::Debug for PagedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PagedTable({:?}, {} rows, {:?})",
            self.schema,
            self.live.bound(),
            self.store
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_paged(budget_pages: usize) -> (std::path::PathBuf, PagedTable) {
        let dir = crate::scratch_dir("paged-test");
        let table = PagedTable::create(
            &dir,
            TableSchema::new("T", &["a", "b"]),
            PageCacheConfig {
                page_bytes: 64, // 3 rows of arity 2 per page
                budget_bytes: 64 * budget_pages,
            },
        )
        .unwrap();
        (dir, table)
    }

    #[test]
    fn rows_survive_out_of_core_traffic() {
        let (dir, mut t) = small_paged(2);
        for i in 0..100i64 {
            t.push(&[Value::int(i), Value::str(&format!("s{}", i % 5))]);
        }
        assert_eq!(t.len(), 100);
        let mut buf = Tuple::new();
        for i in 0..100u32 {
            assert!(t.read_row(i, &mut buf), "row {i}");
            assert_eq!(buf[0], Value::int(i as i64));
            assert_eq!(buf[1], Value::str(&format!("s{}", i % 5)));
        }
        let stats = t.io_stats();
        assert!(stats.evictions > 0, "traffic should overflow the budget");
        assert!(stats.page_reads > 0);
        assert!(stats.resident_bytes_peak <= 2 * 64);
        crate::purge_dir(&dir);
    }

    #[test]
    fn probe_and_delete_match_table_semantics() {
        let (dir, mut t) = small_paged(4);
        t.push(&[Value::int(1), Value::str("x")]);
        t.push(&[Value::int(2), Value::str("x")]);
        t.push(&[Value::int(1), Value::str("y")]);
        assert_eq!(t.postings(1, Value::str("x")), &[0, 1]);
        assert_eq!(t.postings(0, Value::int(1)).len(), 2);
        assert!(t.contains(&[Value::int(1), Value::str("y")]));

        assert!(t.delete(&[Value::int(1), Value::str("x")]));
        assert!(!t.delete(&[Value::int(1), Value::str("x")]));
        assert_eq!(t.len(), 2);
        assert_eq!(t.tombstone_count(), 1);
        assert!(!t.is_live(0));
        let mut buf = Tuple::new();
        assert!(!t.read_row(0, &mut buf));
        assert_eq!(t.postings(0, Value::int(1)), &[2]);
        // Ids stay stable: a fresh push gets the next id, not id 0.
        t.push(&[Value::int(9), Value::str("z")]);
        assert_eq!(t.row_id_bound(), 4);
        crate::purge_dir(&dir);
    }

    #[test]
    fn attaches_to_a_database() {
        use eq_db::Database;
        let dir = crate::scratch_dir("paged-attach");
        let mut t = PagedTable::create(
            &dir,
            TableSchema::new("Friends", &["a", "b"]),
            PageCacheConfig::default(),
        )
        .unwrap();
        t.push(&[Value::str("ann"), Value::str("bob")]);
        let mut db = Database::new();
        db.attach_table(Box::new(t)).unwrap();
        assert!(db.contains("Friends", &[Value::str("ann"), Value::str("bob")]));
        db.insert("Friends", vec![Value::str("bob"), Value::str("cy")])
            .unwrap();
        assert_eq!(db.scan("Friends").unwrap().len(), 2);
        // Duplicate attach is rejected like create_table.
        let dup = PagedTable::create(
            &dir.join("dup"),
            TableSchema::new("Friends", &["a", "b"]),
            PageCacheConfig::default(),
        )
        .unwrap();
        assert!(db.attach_table(Box::new(dup)).is_err());
        crate::purge_dir(&dir);
    }

    #[test]
    fn name_collisions_after_sanitizing_get_distinct_page_files() {
        let dir = crate::scratch_dir("paged-collide");
        // Both names sanitize to `a_b`; the hash suffix must keep the
        // backing files apart (create truncates, so sharing one file
        // would wipe the first table's spilled rows). A one-frame
        // budget forces every row through the file.
        let config = PageCacheConfig {
            page_bytes: 64,
            budget_bytes: 64,
        };
        let mut dotted = PagedTable::create(&dir, TableSchema::new("a.b", &["x"]), config).unwrap();
        for i in 0..20i64 {
            dotted.push(&[Value::int(i)]);
        }
        let mut under = PagedTable::create(&dir, TableSchema::new("a_b", &["x"]), config).unwrap();
        for i in 0..20i64 {
            under.push(&[Value::int(-i)]);
        }
        let mut buf = Tuple::new();
        for i in 0..20u32 {
            assert!(dotted.read_row(i, &mut buf), "row {i} lost to truncation");
            assert_eq!(buf[0], Value::int(i as i64));
            assert!(under.read_row(i, &mut buf));
            assert_eq!(buf[0], Value::int(-(i as i64)));
        }
        crate::purge_dir(&dir);
    }

    #[test]
    fn rejects_rows_wider_than_a_page() {
        let dir = crate::scratch_dir("paged-wide");
        let wide = TableSchema::new("W", &["a", "b", "c", "d"]);
        let err = PagedTable::create(
            &dir,
            wide,
            PageCacheConfig {
                page_bytes: 16,
                budget_bytes: 64,
            },
        );
        assert!(err.is_err());
        crate::purge_dir(&dir);
    }
}
