//! `eq_store`: the out-of-core storage layer — paged on-disk tables
//! behind the [`eq_db::RowStore`] trait, a write-ahead log, and
//! atomic checkpoints.
//!
//! The paper's prototype keeps every relation and its entanglement
//! state in one process image; ROADMAP frontier 4 (production-scale
//! durability, the EMBANKS disk-resident-index direction) needs two
//! things this crate provides:
//!
//! * **Paged tables** ([`PagedTable`]): rows spill to fixed-size
//!   slotted pages served by a pinning, budgeted page cache
//!   ([`PageStore`], CLOCK eviction) while the table's
//!   [`eq_db::PostingIndex`] — the value dictionary and posting arenas
//!   the in-memory table indexes with too — stays memory-resident. A
//!   `Database` drives the backend through [`eq_db::RowStore`], so the
//!   evaluator's candidate cursors work unchanged; cache counters
//!   surface through [`eq_db::StoreIoStats`] into `BatchReport::io`.
//! * **Durability primitives** ([`WriteAheadLog`], [`checkpoint`]):
//!   length-prefixed checksummed log frames (one per service call,
//!   one `write` each) with torn-tail-tolerant replay, and
//!   temp-file+rename checkpoint images that truncate the log. `eq_core::durable` composes them into the crash-recoverable
//!   coordinator.
//!
//! This crate is the workspace's **I/O choke point**: the `eq_check`
//! rule `io-choke-point` forbids `std::fs` / `std::io::Write` in every
//! other crate's sources (except `eq_bench`'s JSON writer), so all
//! file traffic is auditable here. Scratch placement goes through
//! [`scratch_dir`] / [`purge_dir`] for the same reason.

#![forbid(unsafe_code)]

mod cache;
mod error;
mod table;

pub mod checkpoint;
pub mod wal;

pub use cache::{PageCacheConfig, PageStore};
pub use checkpoint::{read_checkpoint, write_checkpoint};
pub use error::StoreError;
pub use table::PagedTable;
pub use wal::{WalStats, WriteAheadLog};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Creates (and returns) a fresh scratch directory under the system
/// temp dir, unique per process and call — the placement helper for
/// page files, WALs, and checkpoints in benches, workloads, and tests,
/// so no other crate needs `std::fs` for setup.
pub fn scratch_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "eq_store-{label}-{pid}-{n}",
        pid = std::process::id()
    ));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Removes a scratch directory and everything in it. Best-effort:
/// cleanup failure (already gone, say) is not an error worth failing a
/// bench run over.
pub fn purge_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
}
