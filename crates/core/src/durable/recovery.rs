//! Recovery: a checkpoint image and the log frames after it, replayed
//! into the state a durable [`Coordinator`] reopens with
//! ([`Coordinator::open`]), and the image a checkpoint writes.

use super::codec::{
    decode_submit, put_entry, put_uv, validate_outcome, Cur, Dec, Dict, Enc, WallClock,
    REC_CREATE_TABLE, REC_LOAD, REC_OUTCOME, REC_SUBMIT,
};
use super::sink::{DurableState, WalSink};
use super::{DurableError, CHECKPOINT_FILE, WAL_FILE};
use crate::engine::EngineConfig;
use crate::service::Coordinator;
use eq_db::{Database, DbError};
use eq_ir::{FastMap, QueryId, Symbol};
use eq_store::{read_checkpoint, StoreError, WriteAheadLog};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

pub(super) const CHECKPOINT_VERSION: u64 = 4;

/// Entries of a mirror in ascending id order — the image's order, and
/// the order recovery re-admits in.
fn ascending(mirror: &FastMap<QueryId, Box<[u8]>>) -> Vec<(QueryId, &[u8])> {
    let mut entries: Vec<(QueryId, &[u8])> = mirror.iter().map(|(&id, b)| (id, &**b)).collect();
    entries.sort_unstable_by_key(|(id, _)| id.0);
    entries
}

fn put_mirror(out: &mut Vec<u8>, mirror: &FastMap<QueryId, Box<[u8]>>) {
    put_uv(out, mirror.len() as u64);
    for (id, body) in ascending(mirror) {
        put_entry(out, id, body);
    }
}

/// Encodes the whole durable state. The tables are encoded first (a
/// direct database write may hold symbols the dictionary has not seen)
/// and the string table, complete by then, is put in front of them.
/// Each table is written from its index's dictionary and its rows'
/// codes ([`Enc::table`]), whichever backend holds it.
pub(super) fn encode_image(
    db: &Database,
    next_query_id: u64,
    wal_seqno: u64,
    dict: &mut Dict,
    pending: &FastMap<QueryId, Box<[u8]>>,
    outcomes: &FastMap<QueryId, Box<[u8]>>,
) -> Vec<u8> {
    let mut body = Vec::new();
    let mut names: Vec<Symbol> = db.table_names().collect();
    names.sort_by_key(|s| s.as_str());
    let mut enc = Enc {
        out: &mut body,
        dict,
    };
    put_uv(enc.out, names.len() as u64);
    let mut remap = Vec::new();
    for name in names {
        enc.table(db.table(name).expect("a listed table"), &mut remap);
    }
    put_mirror(&mut body, pending);
    put_mirror(&mut body, outcomes);

    let mut image = Vec::with_capacity(body.len() + 16 * dict.symbols.len());
    put_uv(&mut image, CHECKPOINT_VERSION);
    put_uv(&mut image, next_query_id);
    put_uv(&mut image, wal_seqno);
    dict.put_defs(&mut image, 0);
    image.extend_from_slice(&body);
    image
}

/// The state an image and the frames after it add up to.
#[derive(Default)]
pub(super) struct Recovered {
    pub(super) db: Database,
    pub(super) dict: Dict,
    pub(super) pending: FastMap<QueryId, Box<[u8]>>,
    pub(super) outcomes: FastMap<QueryId, Box<[u8]>>,
    pub(super) next_query_id: u64,
    /// Sequence number of the next record: the image's watermark, then
    /// one past the last replayed record.
    pub(super) next_seqno: u64,
}

impl Recovered {
    /// Loads a checkpoint image into an empty state: each table's codes
    /// move straight into its slab ([`Dec::table_into`]), with no cell
    /// decoded or hashed and no table held as a list of rows; the
    /// mirrors keep their entries' bytes verbatim.
    pub(super) fn apply_image(&mut self, image: &[u8]) -> Result<(), DurableError> {
        let mut cur = Cur::new(image);
        if cur.uv()? != CHECKPOINT_VERSION {
            return Err(StoreError::Corrupt("checkpoint version").into());
        }
        self.next_query_id = cur.uv()?;
        self.next_seqno = cur.uv()?;
        self.dict.read_defs(&mut cur)?;
        let mut dec = Dec {
            cur,
            dict: &self.dict,
        };
        for _ in 0..dec.cur.count()? {
            let (table, columns) = dec.schema()?;
            create_table(&mut self.db, table, &columns)?;
            dec.table_into(&mut self.db, table, columns.len())?;
        }
        for _ in 0..dec.cur.count()? {
            let (id, body) = dec.cur.entry()?;
            self.pending.insert(id, body.into());
        }
        for _ in 0..dec.cur.count()? {
            let (id, body) = dec.cur.entry()?;
            validate_outcome(body, &self.dict)?;
            self.outcomes.insert(id, body.into());
        }
        dec.cur.finish()?;
        Ok(())
    }

    /// Replays one frame. A frame below the image's watermark was
    /// folded into the image — records and definitions both — and is
    /// skipped; the checkpoint is a consistent cut taken between
    /// frames, so a frame is never half stale.
    pub(super) fn apply_frame(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        let mut cur = Cur::new(payload);
        let base = cur.uv()?;
        if base < self.next_seqno {
            return Ok(());
        }
        if base != self.next_seqno {
            return Err(StoreError::Corrupt("wal sequence gap").into());
        }
        if cur.uv()? != self.dict.symbols.len() as u64 {
            return Err(StoreError::Corrupt("wal dictionary base").into());
        }
        self.dict.read_defs(&mut cur)?;
        let mut dec = Dec {
            cur,
            dict: &self.dict,
        };
        while !dec.cur.is_empty() {
            match dec.cur.u8()? {
                REC_CREATE_TABLE => {
                    let (table, columns) = dec.schema()?;
                    create_table(&mut self.db, table, &columns)?;
                }
                REC_LOAD => {
                    let table = dec.sym()?;
                    load_rows(&mut self.db, &mut dec, table)?;
                }
                REC_SUBMIT => {
                    // Decoded only if still pending once replay ends.
                    let (id, body) = dec.cur.entry()?;
                    self.next_query_id = self.next_query_id.max(id.0 + 1);
                    self.pending.insert(id, body.into());
                }
                REC_OUTCOME => {
                    // The ledger keeps this for good: validate it now.
                    let (id, body) = dec.cur.entry()?;
                    validate_outcome(body, &self.dict)?;
                    self.pending.remove(&id);
                    self.outcomes.insert(id, body.into());
                }
                _ => return Err(StoreError::Corrupt("wal record tag").into()),
            }
            self.next_seqno += 1;
        }
        Ok(())
    }
}

/// Decodes a load record's row count and that many rows of `table`
/// straight into its slab, through one reused row buffer: recovery
/// never holds a table as a list of rows. A row takes at least 1 + 2 × arity bytes (its cell
/// count, then a tag and a value byte per cell), so a count the bytes
/// left cannot hold is refused before the slab is reserved for it, and
/// a row of the wrong arity is refused before it reaches the table.
fn load_rows(db: &mut Database, dec: &mut Dec<'_, '_>, table: Symbol) -> Result<(), DurableError> {
    let arity = db
        .table(table)
        .ok_or(DbError::UnknownRelation(table))?
        .schema()
        .arity();
    let n = dec.cur.count_of(1 + 2 * arity)?;
    db.bulk_load(table.as_str(), n, |row| {
        dec.row_into(row).map_err(DurableError::from)
    })?;
    Ok(())
}

fn create_table(db: &mut Database, table: Symbol, columns: &[Symbol]) -> Result<(), DurableError> {
    let columns: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
    db.create_table(table.as_str(), &columns)?;
    Ok(())
}

impl Coordinator {
    /// Opens (or creates) the durable coordinator rooted at `dir`:
    /// reads the checkpoint if one exists, replays the WAL frames at or
    /// above its watermark over it, re-admits every still-pending
    /// acknowledged submission under its original id, and restores the
    /// recorded-outcome ledger and the query-id watermark. Reads the
    /// log, never rewrites it (beyond cutting a torn tail off). Every
    /// later `create_table`, `load`, admission and terminal outcome is
    /// logged before it is acknowledged (module docs).
    ///
    /// ```
    /// use eq_core::{Coordinator, EngineConfig, EngineMode, QueryOutcome, SubmitRequest};
    /// use eq_ir::Value;
    /// use eq_sql::parse_ir_query;
    ///
    /// let dir = eq_store::scratch_dir("durable-doc");
    /// let config = EngineConfig {
    ///     mode: EngineMode::SetAtATime { batch_size: 0 },
    ///     ..Default::default()
    /// };
    /// let submit = |c: &Coordinator, text: &str| {
    ///     let request = SubmitRequest::new(parse_ir_query(text).unwrap());
    ///     c.submit_batch(vec![request]).pop().unwrap().unwrap().id
    /// };
    /// let id = {
    ///     let c = Coordinator::open(&dir, config.clone()).unwrap();
    ///     c.create_table("F", &["fno", "dest"]).unwrap();
    ///     c.load("F", vec![vec![Value::int(122), Value::str("Paris")]]).unwrap();
    ///     submit(&c, "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")
    /// }; // process "dies" — nothing was flushed or checkpointed
    ///
    /// let c = Coordinator::open(&dir, config).unwrap();
    /// assert_eq!(c.accounting(), Some(vec![(id, None)])); // the acknowledged query survived
    /// submit(&c, "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)");
    /// assert_eq!(c.flush().answered, 2);
    /// assert!(matches!(c.outcome(id), Some(QueryOutcome::Answered(_))));
    /// eq_store::purge_dir(&dir);
    /// ```
    pub fn open(dir: &Path, config: EngineConfig) -> Result<Coordinator, DurableError> {
        open_with_state(dir, config).map(|(coordinator, _)| coordinator)
    }
}

/// [`Coordinator::open`], also handing back the sink's state.
pub(super) fn open_with_state(
    dir: &Path,
    config: EngineConfig,
) -> Result<(Coordinator, Arc<Mutex<DurableState>>), DurableError> {
    let image_path = dir.join(CHECKPOINT_FILE);
    let mut recovered = Recovered::default();
    if let Some(image) = read_checkpoint(&image_path)? {
        recovered.apply_image(&image)?;
    }
    let (wal, frames) = WriteAheadLog::open(&dir.join(WAL_FILE))?;
    for payload in &frames {
        recovered.apply_frame(payload)?;
    }
    drop(frames);
    let Recovered {
        db,
        dict,
        pending,
        outcomes,
        next_query_id,
        next_seqno,
    } = recovered;

    let clock = WallClock::now();
    let mut replay = Vec::with_capacity(pending.len());
    for (id, body) in ascending(&pending) {
        replay.push(decode_submit(id, body, &dict, clock)?);
    }
    let state = Arc::new(Mutex::new(DurableState {
        wal,
        image_path,
        next_seqno,
        dict,
        frame: Vec::new(),
        records: Vec::new(),
        pending,
        outcomes,
    }));
    let sink = WalSink {
        state: Arc::clone(&state),
        clock,
    };
    let coordinator = Coordinator::with_sink(db, config, Some(Box::new(sink)));

    // Re-admit the pending set in one call, ascending id, each under
    // its recorded id: re-linked without re-judging (module docs).
    // Outcomes of recovery-time coordination (incremental mode) are
    // new history, recorded after every submission they depend on.
    coordinator.recover(replay)?;
    coordinator.set_id_watermark(next_query_id);
    Ok((coordinator, state))
}
