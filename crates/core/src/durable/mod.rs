//! Crash-recoverable coordination: a [`Coordinator`] opened on a
//! directory ([`Coordinator::open`]) whose acknowledged submissions and
//! terminal outcomes survive a process kill.
//!
//! # Protocol
//!
//! A durable coordinator is the one service with a write-ahead
//! durability sink installed when it is built; this module supplies
//! that sink and the recovery that rebuilds its state:
//!
//! * every `create_table`, successful `load`, admitted submission, and
//!   terminal outcome is appended to a write-ahead log
//!   ([`eq_store::WriteAheadLog`]) **before** the operation is
//!   acknowledged to the caller (submissions) or made visible to event
//!   subscribers (outcomes). **One service call writes one frame**: all
//!   the submissions a `submit_batch` admits on a shard, all the
//!   outcomes one drain retires, one whole `load` — each is encoded
//!   into a reused buffer and committed with a single `write`, inside
//!   the producing critical section, before any handle is returned and
//!   before the *first* of its events is enqueued on the dispatcher.
//!   WAL order therefore equals acknowledgment order;
//! * every WAL record carries a monotonically increasing **sequence
//!   number** (a frame stores its first record's number; record `i` of
//!   the frame has `base + i`), and [`Coordinator::checkpoint`] writes
//!   an atomic whole-state image — string table, database contents,
//!   pending submissions, the outcome ledger, the query-id watermark,
//!   and the sequence-number watermark of the records it folds in —
//!   then truncates the log, so the log normally holds only the suffix
//!   since the last checkpoint. A kill between the image rename and the
//!   truncation (or a truncation that failed) is harmless: replay skips
//!   every frame below the image's watermark, so nothing is applied
//!   twice. `open` never rewrites the log; the next checkpoint
//!   truncates it;
//! * [`Coordinator::open`] rebuilds state as *checkpoint + log replay*:
//!   tables are reloaded, still-pending submissions are re-admitted in
//!   one call under their **original** ids, recorded outcomes are
//!   restored to the ledger, and the id watermark moves past every id
//!   ever assigned. Recovery re-links without re-judging: an
//!   acknowledged query passes no second Figure-9 check, so a directory
//!   written with `admission_safety_check` off reopens with it on, and
//!   matching-time §3.1.1 enforcement sidelines whatever the pending
//!   set holds that is ambiguous.
//!
//! A durable query outlives the client that submitted it, so it is
//! submitted outside any session ([`Coordinator::submit_batch`]): a
//! session withdraws its pending queries when it closes, and recovery
//! re-admits a query with no session to hold it.
//!
//! The recovery invariant — property-tested against prefix-truncated
//! logs — is *exactly-once accounting*: after a kill and reopen, every
//! query whose submission was acknowledged is either still pending or
//! carries its exact terminal outcome in [`Coordinator::outcome`]; no
//! acknowledged query is lost and none is duplicated. A batch is
//! acknowledged as a whole and recovers as a whole: its frame survives
//! or it does not.
//!
//! # On-disk format
//!
//! Integers are LEB128 varints (`uv`), signed ones zig-zag first
//! (`iv`); counts are `uv`; there are no fixed-width lengths. The
//! container framing (checksums, lengths) is `eq_store`'s — see
//! `eq_store::wal` and `eq_store::checkpoint`.
//!
//! **Symbols are never written as text where they are used, and never
//! as interner indices.** The durable state owns a *dictionary*: a
//! symbol ⇄ dense local id table that only grows. Every relation name,
//! column name and string constant is written as its local id. The
//! text of each symbol is on disk exactly once before its first use:
//! in the image's string table, or in the *definitions* of the first
//! frame committed after the symbol entered the dictionary.
//!
//! ```text
//! frame payload := base_seqno:uv  dict_base:uv  defs  record*
//! defs          := n:uv (len:uv utf8-bytes)*n      -- ids dict_base, dict_base+1, ..
//! record        := 1 table:sym ncols:uv column:sym*            -- create table
//!                | 2 table:sym nrows:uv row*                   -- load
//!                | 3 id:uv len:uv submit-body                  -- admitted submission
//!                | 4 id:uv len:uv outcome-body                 -- terminal outcome
//! row           := arity:uv value*
//! value         := 1 iv | 2 sym          term := 0 var:uv | value
//! submit-body   := atoms atoms atoms  n:uv (term op:u8 term)*n  choose:uv
//!                  (0 | 1 len:uv tag-bytes)  policy            -- head, postconditions, body
//! policy        := p:u8 | (0x80 + p):u8 deadline:uv            -- p: 0 engine default,
//!                                                              --   1 reject, 2 keep pending;
//!                                                              --   deadline: ms since the
//!                                                              --   UNIX epoch
//! atoms         := n:uv (relation:sym arity:uv term*)*n
//! outcome-body  := 0 query:uv n:uv sym*n n:uv row*n            -- answered
//!                | 1 (2 | 4) | 2 | 3                           -- rejected (non-UCS | no
//!                                                              --   solution), stale, cancelled
//!
//! image payload := version:uv next_query_id:uv wal_seqno:uv  defs   -- version 4
//!                  ntables:uv table*                           -- by name
//!                  npending:uv (id:uv len:uv submit-body)*     -- ascending id
//!                  noutcomes:uv (id:uv len:uv outcome-body)*   -- ascending id
//! table         := name:sym ncols:uv column:sym*  nrows:uv
//!                  nvalues:uv value*nvalues                    -- the live values, in code order
//!                  code:uv*(nrows × ncols)                     -- the live rows, in row-id order
//! ```
//!
//! The log file starts with `eq_store`'s 8-byte header, which names the
//! log's format version (`eq_store::wal`); a log without it, or of
//! another version, is refused before any frame applies.
//!
//! **An image's table is its index's layout.** A table keeps each
//! distinct value once, in its dictionary, and its rows as fixed-stride
//! codes into it (`eq_db::PostingIndex`). Its section in the image is
//! that pair: the values live cells hold, in code order, then each live
//! row's codes, each renumbered to its value's place in that list (a
//! freed code and a tombstoned row are not written). Recovery looks each
//! value up in the new table's dictionary once, which gives the remap
//! from image codes to the table's, and maps every code through it
//! straight into the table's slab (`eq_db::Database::bulk_load_coded`):
//! no cell is decoded or hashed. The index is then filed in one pass, as
//! after any bulk load. A code at or past the section's value count,
//! and a row count the bytes left cannot hold (a code takes at least
//! one byte), are corrupt. An image of another version is refused
//! whole: formats are replaced, not converted.
//!
//! `dict_base` is the dictionary size the frame's definitions extend.
//! Replay requires it to equal the size rebuilt so far, so a frame can
//! only be decoded on top of exactly the prefix it was written after.
//! A torn frame loses its records *and* its definitions; reopen
//! rebuilds the dictionary from the image and the surviving frames, so
//! the symbols are simply defined again by the next frame that uses
//! them. Nothing process-local reaches the disk.
//!
//! A dated submission sets the policy byte's high bit and carries its
//! deadline behind it; an undated one carries neither, and a reader
//! that knows only undated bodies refuses a dated one (an unknown
//! policy tag) instead of reading it as undated. A deadline is an [`Instant`](std::time::Instant) in the process and
//! wall-clock milliseconds on disk; both clocks are read once when the
//! coordinator is opened, and recovery maps a recorded deadline back
//! onto the new process's clock, so one that passed while the service
//! was down expires on the first sweep.
//!
//! The pending mirror and the outcome ledger keep each entry as the
//! *encoded body* above (ids stay valid because the dictionary only
//! grows). The image copies those bytes verbatim;
//! [`Coordinator::outcome`], [`Coordinator::accounting`] and recovery
//! decode on demand.
//!
//! The module is three files: `codec` (the byte grammar above),
//! `recovery` (the image, replay and [`Coordinator::open`]) and `sink`
//! (the log writer and the durable operations of the [`Coordinator`]);
//! its tests are a fourth.
//!
//! # What is (deliberately) not durable
//!
//! * **Direct database writes** — mutations through
//!   [`Coordinator::db`] bypass the log; durable applications load
//!   data through [`Coordinator::load`] / [`Coordinator::create_table`].
//! * **Paged-table placement** — recovery materializes tables
//!   in-memory (page files are per-process spill, not a durability
//!   story); an application wanting out-of-core relations re-attaches
//!   paged backends after `open`.

use crate::engine::{EngineConfig, QueryOutcome};
use crate::error::CoordinationError;
use crate::service::Coordinator;
use eq_db::DbError;
use eq_ir::QueryId;
use eq_store::StoreError;
use std::fmt;
use std::ops::Deref;
use std::path::Path;

mod codec;
mod recovery;
mod sink;

pub(crate) use sink::DurabilitySink;

/// WAL file name inside a durable coordinator's directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside a durable coordinator's directory.
pub const CHECKPOINT_FILE: &str = "state.ckpt";

/// Errors from opening, checkpointing, or recovering a durable
/// [`Coordinator`].
#[derive(Debug)]
pub enum DurableError {
    /// The storage layer failed (I/O, torn checkpoint, undecodable
    /// record).
    Store(StoreError),
    /// Replayed state was refused by the engine (a logged submission
    /// or load no longer admissible — indicates an incompatible state
    /// directory, not a crash artifact).
    Coordination(CoordinationError),
    /// The coordinator keeps no log: it was built in memory
    /// ([`Coordinator::new`]), not opened on a directory.
    NotDurable,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "durable store: {e}"),
            DurableError::Coordination(e) => write!(f, "durable replay: {e}"),
            DurableError::NotDurable => write!(f, "not durable: an in-memory coordinator"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<DbError> for DurableError {
    fn from(e: DbError) -> Self {
        DurableError::Coordination(e.into())
    }
}

impl From<CoordinationError> for DurableError {
    fn from(e: CoordinationError) -> Self {
        DurableError::Coordination(e)
    }
}

/// The durable coordinator's former type, kept only for callers built
/// against it (ROADMAP 2(b)): a [`Coordinator`] opened on a directory,
/// plus the four old methods the one type has in another form.
#[deprecated(note = "open the one `Coordinator` on a directory: `Coordinator::open`")]
pub struct DurableCoordinator(Coordinator);

#[allow(deprecated)]
impl DurableCoordinator {
    #[deprecated(note = "use `Coordinator::open`")]
    pub fn open(dir: &Path, config: EngineConfig) -> Result<DurableCoordinator, DurableError> {
        Coordinator::open(dir, config).map(DurableCoordinator)
    }

    #[deprecated(note = "a `Coordinator` opened on a directory is the durable service")]
    pub fn coordinator(&self) -> &Coordinator {
        &self.0
    }

    #[deprecated(note = "use `Coordinator::wal_stats`")]
    pub fn wal_len_bytes(&self) -> u64 {
        self.0.wal_stats().map_or(0, |stats| stats.bytes)
    }

    #[deprecated(note = "use `Coordinator::accounting`")]
    pub fn accounting(&self) -> Vec<(QueryId, Option<QueryOutcome>)> {
        self.0.accounting().unwrap_or_default()
    }
}

#[allow(deprecated)]
impl Deref for DurableCoordinator {
    type Target = Coordinator;

    fn deref(&self) -> &Coordinator {
        &self.0
    }
}

#[cfg(test)]
mod tests;
