//! The write-ahead sink a durable [`Coordinator`] records through, and
//! the durable operations of the one service type: `create_table`,
//! `checkpoint`, `outcome`, `accounting` and `wal_stats`. On an
//! in-memory coordinator the last four answer "not durable".

use super::codec::{
    decode_outcome, put_entry, put_uv, Dict, Enc, WallClock, REC_CREATE_TABLE, REC_OUTCOME,
    REC_SUBMIT,
};
use super::recovery::encode_image;
use super::DurableError;
use crate::engine::QueryOutcome;
use crate::error::CoordinationError;
use crate::service::{Coordinator, SubmitRequest};
use crate::shard::StagedSubmits;
use eq_db::{Database, Tuple};
use eq_ir::{FastMap, QueryId, Symbol};
use eq_store::{write_checkpoint, StoreError, WalStats, WriteAheadLog};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The durability hook, fixed when the service is built and consulted
/// inside the producing critical section: after a batch is admitted
/// (before any handle is returned), when outcomes are drained (before
/// the first of their events is staged), and after a bulk load (before
/// the database lock is released). Each call is *encode into a buffer,
/// commit once*: one log frame per service call. Shards record
/// concurrently, so an implementation serializes its own commits.
/// [`WalSink`] is the WAL-backed one; the trait stays crate-private so
/// the recording points cannot be bypassed.
pub(crate) trait DurabilitySink: Send + Sync {
    /// Encodes one submission from a borrow (the engine consumes the
    /// query), with the deadline it takes at `now`.
    fn stage_submit(&self, staged: &mut StagedSubmits, request: &SubmitRequest, now: Instant);
    /// Commits the staged submissions the engine admitted: `admitted`
    /// yields, in staging order, the id each one drew or `None` for a
    /// refused one, whose bytes are discarded.
    fn commit_submits(
        &self,
        staged: &StagedSubmits,
        admitted: &mut dyn Iterator<Item = Option<QueryId>>,
    );
    /// Commits a drain's terminal outcomes, before any is staged.
    fn commit_outcomes(&self, outcomes: &[(QueryId, QueryOutcome)]);
    /// Encodes a bulk load into `record`, from a borrow of the rows.
    fn stage_load(&self, record: &mut Vec<u8>, table: &str, rows: &[Tuple]);
    /// Commits a staged load that succeeded.
    fn commit_load(&self, record: &[u8]);
    /// Records a new table, under the database write guard.
    fn commit_create_table(&self, table: &str, columns: &[&str]);
    /// Writes the image of the durable state plus `db` and truncates
    /// the log it supersedes, with every shard locked. The rest answer
    /// [`Coordinator::checkpoint`], [`Coordinator::outcome`],
    /// [`Coordinator::accounting`] and [`Coordinator::wal_stats`]; a
    /// sink that keeps no log keeps the defaults.
    fn checkpoint(&self, _db: &Database, _next_query_id: u64) -> Result<(), DurableError> {
        Err(DurableError::NotDurable)
    }
    fn outcome(&self, _id: QueryId) -> Option<QueryOutcome> {
        None
    }
    fn accounting(&self) -> Option<Vec<(QueryId, Option<QueryOutcome>)>> {
        None
    }
    fn wal_stats(&self) -> Option<WalStats> {
        None
    }
}

/// Shared durable bookkeeping: the open WAL, the dictionary, and the
/// in-memory mirror of what the log (together with the last
/// checkpoint) proves — which acknowledged submissions are still
/// pending and which outcomes have been recorded, each as its encoded
/// body. Innermost lock: always acquired after (never around) the
/// service shard locks and the database lock. It is also the sink's
/// only lock: the service holds its sink unlocked, and every shard
/// records through this one.
pub(super) struct DurableState {
    pub(super) wal: WriteAheadLog,
    /// Where [`DurableState::write_image`] puts the image.
    pub(super) image_path: PathBuf,
    /// Sequence number the next committed record will carry. Commits
    /// run under this lock, so numbers are strictly increasing in
    /// acknowledgment order and never reused — checkpoints record the
    /// watermark of what they fold in.
    pub(super) next_seqno: u64,
    pub(super) dict: Dict,
    /// The frame payload being assembled, and the records going into
    /// it; both reused from commit to commit.
    pub(super) frame: Vec<u8>,
    pub(super) records: Vec<u8>,
    pub(super) pending: FastMap<QueryId, Box<[u8]>>,
    pub(super) outcomes: FastMap<QueryId, Box<[u8]>>,
}

/// Lays out a frame payload: `records`, behind the sequence number of
/// the first and the definition of every symbol not yet on disk.
pub(super) fn put_frame(frame: &mut Vec<u8>, base_seqno: u64, dict: &Dict, records: &[u8]) {
    frame.clear();
    put_uv(frame, base_seqno);
    put_uv(frame, dict.logged as u64);
    dict.put_defs(frame, dict.logged);
    frame.extend_from_slice(records);
}

impl DurableState {
    /// Commits `records` (`count` of them) as one frame, in front of
    /// them the definition of every symbol not yet on disk. A commit
    /// failure is unrecoverable by design: the caller is about to
    /// acknowledge these events, and acknowledging without the log
    /// entry would break the recovery contract — so this panics rather
    /// than silently dropping durability.
    fn commit(&mut self, records: &[u8], count: u32) {
        put_frame(&mut self.frame, self.next_seqno, &self.dict, records);
        if let Err(e) = self.wal.commit(&self.frame, count) {
            panic!("write-ahead commit failed: {e}");
        }
        self.next_seqno += u64::from(count);
        self.dict.logged = self.dict.symbols.len();
    }

    /// Commits the records assembled in `self.records` by `fill`, if
    /// it produced any.
    fn commit_assembled(&mut self, fill: impl FnOnce(&mut Self, &mut Vec<u8>) -> u32) {
        let mut records = std::mem::take(&mut self.records);
        records.clear();
        let count = fill(self, &mut records);
        if count > 0 {
            self.commit(&records, count);
        }
        self.records = records;
    }

    /// Writes the image of this state plus `db`. Everything in the
    /// dictionary is on disk once it succeeds.
    pub(super) fn write_image(
        &mut self,
        db: &Database,
        next_query_id: u64,
    ) -> Result<(), StoreError> {
        let image = encode_image(
            db,
            next_query_id,
            self.next_seqno,
            &mut self.dict,
            &self.pending,
            &self.outcomes,
        );
        write_checkpoint(&self.image_path, &image)?;
        self.dict.logged = self.dict.symbols.len();
        Ok(())
    }

    /// Decodes a ledger entry. The ledger holds only bytes this process
    /// encoded or validated at `open`.
    fn ledger_outcome(&self, body: &[u8]) -> QueryOutcome {
        decode_outcome(body, &self.dict).expect("ledger entries are validated when they enter")
    }
}

/// The durability sink of a [`Coordinator`] opened on a directory.
pub(super) struct WalSink {
    pub(super) state: Arc<Mutex<DurableState>>,
    /// The clocks read at open, which every recorded deadline is
    /// mapped through.
    pub(super) clock: WallClock,
}

impl DurabilitySink for WalSink {
    fn stage_submit(&self, staged: &mut StagedSubmits, request: &SubmitRequest, now: Instant) {
        let deadline = request.to_options(now).deadline;
        let mut state = self.state.lock();
        Enc {
            out: &mut staged.bytes,
            dict: &mut state.dict,
        }
        .submit(
            &request.query,
            request.tag.as_deref(),
            request.on_no_solution,
            deadline.map(|d| self.clock.unix_ms(d)),
        );
        staged.ends.push(staged.bytes.len());
    }

    fn commit_submits(
        &self,
        staged: &StagedSubmits,
        admitted: &mut dyn Iterator<Item = Option<QueryId>>,
    ) {
        self.state.lock().commit_assembled(|state, records| {
            let mut count = 0;
            let mut start = 0;
            for (&end, id) in staged.ends.iter().zip(admitted) {
                // A refused query's bytes are simply not copied.
                if let Some(id) = id {
                    let body = &staged.bytes[start..end];
                    records.push(REC_SUBMIT);
                    put_entry(records, id, body);
                    state.pending.insert(id, body.into());
                    count += 1;
                }
                start = end;
            }
            count
        });
    }

    fn commit_outcomes(&self, outcomes: &[(QueryId, QueryOutcome)]) {
        self.state.lock().commit_assembled(|state, records| {
            let mut body = Vec::new();
            for (id, outcome) in outcomes {
                body.clear();
                Enc {
                    out: &mut body,
                    dict: &mut state.dict,
                }
                .outcome(outcome);
                records.push(REC_OUTCOME);
                put_entry(records, *id, &body);
                state.pending.remove(id);
                state.outcomes.insert(*id, body.as_slice().into());
            }
            outcomes.len() as u32
        });
    }

    fn stage_load(&self, record: &mut Vec<u8>, table: &str, rows: &[Tuple]) {
        let mut state = self.state.lock();
        Enc {
            out: record,
            dict: &mut state.dict,
        }
        .load(Symbol::new(table), rows);
    }

    fn commit_load(&self, record: &[u8]) {
        self.state.lock().commit(record, 1);
    }

    fn commit_create_table(&self, table: &str, columns: &[&str]) {
        let columns: Vec<Symbol> = columns.iter().map(|&c| Symbol::new(c)).collect();
        let mut state = self.state.lock();
        let mut record = vec![REC_CREATE_TABLE];
        Enc {
            out: &mut record,
            dict: &mut state.dict,
        }
        .schema(Symbol::new(table), &columns);
        state.commit(&record, 1);
    }

    fn checkpoint(&self, db: &Database, next_query_id: u64) -> Result<(), DurableError> {
        let mut state = self.state.lock();
        state.write_image(db, next_query_id)?;
        state.wal.truncate()?;
        Ok(())
    }

    fn outcome(&self, id: QueryId) -> Option<QueryOutcome> {
        let state = self.state.lock();
        let body = state.outcomes.get(&id)?;
        Some(state.ledger_outcome(body))
    }

    fn accounting(&self) -> Option<Vec<(QueryId, Option<QueryOutcome>)>> {
        let state = self.state.lock();
        let terminal = state
            .outcomes
            .iter()
            .map(|(&id, body)| (id, Some(state.ledger_outcome(body))));
        let mut all: Vec<(QueryId, Option<QueryOutcome>)> = state
            .pending
            .keys()
            .map(|&id| (id, None))
            .chain(terminal)
            .collect();
        all.sort_by_key(|(id, _)| id.0);
        Some(all)
    }

    fn wal_stats(&self) -> Option<WalStats> {
        Some(self.state.lock().wal.stats())
    }
}

impl Coordinator {
    /// Creates a relation. A durable coordinator logs it before the
    /// database write guard is released, as it does a
    /// [`Coordinator::load`].
    pub fn create_table(&self, name: &str, columns: &[&str]) -> Result<(), CoordinationError> {
        let db = self.db();
        let mut db = db.write();
        db.create_table(name, columns)?;
        if let Some(sink) = self.sink() {
            sink.commit_create_table(name, columns);
        }
        Ok(())
    }

    /// Writes an atomic checkpoint of the whole durable state —
    /// string table, database, pending submissions, outcome ledger, id
    /// watermark — and truncates the WAL it supersedes, or refuses with
    /// [`DurableError::NotDurable`] on an in-memory coordinator. Runs
    /// with every service shard locked, so the image is a consistent
    /// cut: no acknowledgment can land between the snapshot and the
    /// truncation. The image records the WAL sequence-number watermark
    /// it folds in, so a kill between the image rename and the
    /// truncation is recovered exactly: replay skips the superseded
    /// frames, and the next checkpoint truncates them.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        let sink = self.sink().ok_or(DurableError::NotDurable)?;
        self.with_exclusive(|| {
            let next_id = self.id_watermark();
            let db = self.db();
            let guard = db.read();
            sink.checkpoint(&guard, next_id)
        })
    }

    /// The recorded terminal outcome of an acknowledged query, if it
    /// has one. Survives restarts (subject to checkpoints, which carry
    /// the ledger forward). `None` on an in-memory coordinator, which
    /// keeps no ledger: its outcomes leave as [`crate::Event`]s.
    pub fn outcome(&self, id: QueryId) -> Option<QueryOutcome> {
        self.sink()?.outcome(id)
    }

    /// Every acknowledged id and whether it is still pending (`None`)
    /// or terminal (`Some(outcome)`), ascending — the exactly-once
    /// accounting view the recovery invariant is stated over. `None` on
    /// an in-memory coordinator.
    pub fn accounting(&self) -> Option<Vec<(QueryId, Option<QueryOutcome>)>> {
        self.sink()?.accounting()
    }

    /// Frames, records and bytes currently in the WAL (no frame right
    /// after a checkpoint; the bytes count the log's header too).
    /// `None` on an in-memory coordinator.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.sink()?.wal_stats()
    }
}
