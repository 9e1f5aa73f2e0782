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
//! image payload := version:uv next_query_id:uv wal_seqno:uv  defs
//!                  ntables:uv (table:sym ncols:uv column:sym* nrows:uv row*)*
//!                  npending:uv (id:uv len:uv submit-body)*     -- ascending id
//!                  noutcomes:uv (id:uv len:uv outcome-body)*   -- ascending id
//! ```
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
//! (the log writer and the durable operations of the [`Coordinator`]).
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
mod tests {
    use super::codec::{
        decode_outcome, decode_submit, put_entry, put_iv, put_uv, Cur, Dict, Enc, WallClock,
        REC_CREATE_TABLE, REC_OUTCOME, REC_SUBMIT,
    };
    use super::recovery::{encode_image, open_with_state, Recovered, CHECKPOINT_VERSION};
    use super::sink::put_frame;
    use super::*;
    use crate::combine::QueryAnswer;
    use crate::engine::{
        EngineMode, FailReason, NoSolutionPolicy, QueryHandle, QueryStatus, RejectReason,
    };
    use crate::service::SubmitRequest;
    use eq_db::{Database, Tuple};
    use eq_ir::{Atom, CmpOp, Constraint, EntangledQuery, FastMap, Symbol, Term, Value, Var};
    use eq_sql::parse_ir_query;
    use eq_store::{write_checkpoint, StoreError};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::time::Instant;

    fn config() -> EngineConfig {
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        }
    }

    fn q(text: &str) -> EntangledQuery {
        parse_ir_query(text).unwrap()
    }

    fn seed(dc: &Coordinator) {
        dc.create_table("F", &["fno", "dest"]).unwrap();
        dc.load(
            "F",
            vec![
                vec![Value::int(122), Value::str("Paris")],
                vec![Value::int(136), Value::str("Rome")],
            ],
        )
        .unwrap();
    }

    fn table_rows(dc: &Coordinator, table: &str) -> Vec<Tuple> {
        dc.db().read().scan(table).unwrap()
    }

    /// One submission outside any session, as a batch of one.
    fn submit(dc: &Coordinator, request: SubmitRequest) -> Result<QueryHandle, CoordinationError> {
        dc.submit_batch(vec![request])
            .pop()
            .expect("one result per request")
    }

    /// The acknowledged ids still pending, ascending.
    fn pending_ids(dc: &Coordinator) -> Vec<QueryId> {
        let accounting = dc.accounting().expect("a durable coordinator");
        accounting
            .into_iter()
            .filter(|(_, o)| o.is_none())
            .map(|(id, _)| id)
            .collect()
    }

    fn answered(outcome: Option<QueryOutcome>) -> bool {
        matches!(outcome, Some(QueryOutcome::Answered(_)))
    }

    #[test]
    fn reopen_restores_pending_and_outcomes() {
        for mode in [
            EngineMode::SetAtATime { batch_size: 0 },
            EngineMode::Incremental,
        ] {
            let incremental = mode == EngineMode::Incremental;
            let config = EngineConfig {
                mode,
                ..Default::default()
            };
            let dir = eq_store::scratch_dir(&format!("durable-reopen-{incremental}"));
            let (answered_ids, lonely, kept) = {
                let dc = Coordinator::open(&dir, config.clone()).unwrap();
                seed(&dc);
                let a = submit(
                    &dc,
                    SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
                )
                .unwrap();
                let b = submit(
                    &dc,
                    SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
                )
                .unwrap();
                dc.flush();
                let lonely = submit(
                    &dc,
                    SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")).tag("lonely"),
                )
                .unwrap();
                // A KeepPending pair submitted before its row is loaded:
                // matched, no solution yet. The row lands, and the
                // process dies before anything evaluates again.
                let keep = |text| {
                    let request = SubmitRequest::new(q(text));
                    submit(&dc, request.on_no_solution(NoSolutionPolicy::KeepPending))
                        .unwrap()
                        .id
                };
                let kept = vec![
                    keep("{S(Puddy, u)} S(Elaine, u) <- F(u, Oslo)"),
                    keep("{S(Elaine, v)} S(Puddy, v) <- F(v, Oslo)"),
                ];
                dc.flush();
                assert_eq!(pending_ids(&dc), vec![lonely.id, kept[0], kept[1]]);
                dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
                    .unwrap();
                (vec![a.id, b.id], lonely.id, kept)
            };

            let dc = Coordinator::open(&dir, config.clone()).unwrap();
            // One lock for re-admitting the whole pending set and
            // staging what that re-admission retired — not one per query.
            assert_eq!(dc.lock_stats().acquisitions, 1);
            // Outcomes restored exactly; the unmatched query is pending
            // again under its original id, tag intact.
            for &id in &answered_ids {
                assert!(answered(dc.outcome(id)), "{id:?}");
            }
            // In incremental mode the one evaluation at the end of
            // recovery answers the kept pair; set-at-a-time waits for a
            // flush.
            for &id in &kept {
                assert_eq!(answered(dc.outcome(id)), incremental, "{mode:?} {id:?}");
            }
            let mut pending = vec![lonely];
            if !incremental {
                pending.extend(&kept);
            }
            assert_eq!(pending_ids(&dc), pending);
            assert!(matches!(dc.status(lonely), Some(QueryStatus::Pending)));
            // New submissions never reuse an id.
            let fresh = submit(
                &dc,
                SubmitRequest::new(q("{R(Frank, z)} R(Newman, z) <- F(z, Rome)")),
            )
            .unwrap();
            assert!(fresh.id.0 > kept[1].0);
            // Both pairs coordinate after recovery.
            dc.flush();
            for id in [lonely, fresh.id, kept[0], kept[1]] {
                assert!(answered(dc.outcome(id)), "{mode:?} {id:?}");
            }
            drop(dc);

            // Every outcome landed in the log after its submission
            // record: replayed again, each id is terminal exactly once.
            let dc = Coordinator::open(&dir, config).unwrap();
            let accounting = dc.accounting().unwrap();
            let mut ids = answered_ids.clone();
            ids.extend([lonely, kept[0], kept[1], fresh.id]);
            let recorded: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
            assert_eq!(recorded, ids);
            assert!(accounting.into_iter().all(|(_, o)| answered(o)));
            eq_store::purge_dir(&dir);
        }
    }

    /// A directory written with the Figure-9 check off can hold an
    /// acknowledged pending set the check would refuse. Reopening with
    /// the check on re-links it as acknowledged; matching-time §3.1.1
    /// enforcement sidelines the ambiguous consumer.
    #[test]
    fn reopening_with_the_check_on_keeps_an_unsafe_pending_set() {
        let dir = eq_store::scratch_dir("durable-check-on");
        let unchecked = EngineConfig {
            admission_safety_check: false,
            ..config()
        };
        let ids: Vec<QueryId> = {
            let dc = Coordinator::open(&dir, unchecked).unwrap();
            dc.create_table("T", &["v"]).unwrap();
            ["{} X(a) <- T(a)", "{} X(b) <- T(b)", "{X(v)} Y(v) <- T(v)"]
                .into_iter()
                .map(|text| submit(&dc, SubmitRequest::new(q(text))).unwrap().id)
                .collect()
        };
        let checked = config();
        assert!(checked.admission_safety_check);
        let dc = Coordinator::open(&dir, checked).unwrap();
        assert_eq!(pending_ids(&dc), ids);
        let pending: Vec<(QueryId, Option<QueryOutcome>)> =
            ids.iter().map(|&id| (id, None)).collect();
        assert_eq!(dc.accounting().unwrap(), pending);
        let consumer = ids[2];
        assert_eq!(dc.safety_sidelined(), vec![consumer]);
        dc.flush();
        assert_eq!(dc.status(consumer), Some(QueryStatus::Pending));
        assert_eq!(dc.outcome(consumer), None);
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = eq_store::scratch_dir("durable-ckpt");
        let pending_id = {
            let dc = Coordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let h = submit(
                &dc,
                SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
            )
            .unwrap();
            assert!(dc.wal_stats().unwrap().bytes > 0);
            dc.checkpoint().unwrap();
            assert_eq!(dc.wal_stats().unwrap().bytes, 0);
            h.id
        };
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(pending_ids(&dc), vec![pending_id]);
        assert_eq!(table_rows(&dc, "F").len(), 2, "checkpointed rows restored");
        // Post-checkpoint history keeps accumulating on the fresh WAL.
        dc.load("F", vec![vec![Value::int(200), Value::str("Rome")]])
            .unwrap();
        drop(dc);
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 3);
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn accounting_is_exactly_once_across_restart() {
        let dir = eq_store::scratch_dir("durable-account");
        let acknowledged = {
            let dc = Coordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let mut ids = Vec::new();
            for i in 0..4 {
                let h = submit(
                    &dc,
                    SubmitRequest::new(q(&format!(
                        "{{R(B{i}, ITH)}} R(A{i}, ITH) <- F(x{i}, Paris)"
                    ))),
                )
                .unwrap();
                ids.push(h.id);
            }
            dc.flush(); // nothing pairs: all four stay pending
            let h = submit(
                &dc,
                SubmitRequest::new(q("{R(A0, ITH)} R(B0, ITH) <- F(y, Paris)")),
            )
            .unwrap();
            ids.push(h.id);
            dc.flush(); // first pair answers
            ids
        };
        let dc = Coordinator::open(&dir, config()).unwrap();
        let accounting = dc.accounting().unwrap();
        let ids: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, acknowledged, "every acknowledged id, exactly once");
        let terminal = accounting.iter().filter(|(_, o)| o.is_some()).count();
        assert_eq!(terminal, 2, "the answered pair is terminal, rest pending");
        eq_store::purge_dir(&dir);
    }

    /// The mirrors hold encoded bytes, not object graphs: this only
    /// compiles while that is so.
    #[test]
    fn mirrors_hold_encoded_bytes() {
        let dir = eq_store::scratch_dir("durable-mirror");
        let (dc, state) = open_with_state(&dir, config()).unwrap();
        seed(&dc);
        let h = submit(
            &dc,
            SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
        )
        .unwrap();
        let state = state.lock();
        let pending: &FastMap<QueryId, Box<[u8]>> = &state.pending;
        let _ledger: &FastMap<QueryId, Box<[u8]>> = &state.outcomes;
        let body = &pending[&h.id];
        assert!(body.len() < 40, "{} bytes for a two-atom query", body.len());
        let back = decode_submit(h.id, body, &state.dict, WallClock::now()).unwrap();
        assert_eq!(
            back.query.head,
            q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)").head
        );
        drop(state);
        eq_store::purge_dir(&dir);
    }

    /// A state directory as a failed truncation leaves it: an image at
    /// watermark W, and a log with frames below W (folded into the
    /// image) and above it (acknowledged afterwards).
    #[test]
    fn open_skips_stale_frames_and_leaves_the_log_alone() {
        let dir = eq_store::scratch_dir("durable-stale-prefix");
        let (answered, pending) = {
            let (dc, state) = open_with_state(&dir, config()).unwrap();
            seed(&dc);
            let a = submit(
                &dc,
                SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
            )
            .unwrap();
            let b = submit(
                &dc,
                SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
            )
            .unwrap();
            assert_eq!(dc.flush().answered, 2);
            let lonely = submit(
                &dc,
                SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
            )
            .unwrap();
            // The image lands, the truncation does not happen, and the
            // service keeps acknowledging.
            dc.with_exclusive(|| {
                let db = dc.db();
                let guard = db.read();
                let next_id = dc.id_watermark();
                state.lock().write_image(&guard, next_id).unwrap();
            });
            let below = dc.wal_stats().unwrap();
            assert!(below.frames > 0, "the superseded frames must remain");
            // Above the watermark: a load, and a submission whose names
            // (Oslo, Elaine, Puddy) are defined by these frames only.
            dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
                .unwrap();
            let late = submit(
                &dc,
                SubmitRequest::new(q("{R(Elaine, w)} R(Puddy, w) <- F(w, Oslo)")),
            )
            .unwrap();
            assert_eq!(dc.wal_stats().unwrap().frames, below.frames + 2);
            (vec![a.id, b.id], vec![lonely.id, late.id])
        };

        let wal_path = dir.join(WAL_FILE);
        let log_before = std::fs::read(&wal_path).unwrap();
        let mut accountings = Vec::new();
        for _ in 0..2 {
            // Reopen must neither fail (replaying the create-table would
            // hit a duplicate relation) nor double-apply the folded load.
            let dc = Coordinator::open(&dir, config()).unwrap();
            assert_eq!(table_rows(&dc, "F").len(), 3, "2 in the image + 1 above it");
            assert_eq!(pending_ids(&dc), pending);
            for &id in &answered {
                assert!(matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))));
            }
            accountings.push(dc.accounting().unwrap());
            drop(dc);
            assert_eq!(
                std::fs::read(&wal_path).unwrap(),
                log_before,
                "open reads the log, it does not rewrite it"
            );
        }
        assert_eq!(accountings[0], accountings[1]);

        // History keeps accumulating behind the stale prefix, and the
        // next checkpoint is what finally truncates it.
        let dc = Coordinator::open(&dir, config()).unwrap();
        dc.load("F", vec![vec![Value::int(300), Value::str("Rome")]])
            .unwrap();
        drop(dc);
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 4);
        dc.checkpoint().unwrap();
        assert_eq!(dc.wal_stats().unwrap().bytes, 0);
        drop(dc);
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 4);
        assert_eq!(dc.accounting().unwrap(), accountings[0]);
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn load_checkpoint_load_kill_finds_every_row_once() {
        let dir = eq_store::scratch_dir("durable-load-ckpt-load");
        let first: Vec<Tuple> = (0..50)
            .map(|i| vec![Value::int(i), Value::str("Paris")])
            .collect();
        let second: Vec<Tuple> = (50..80)
            .map(|i| vec![Value::int(i), Value::str("Lima")])
            .collect();
        {
            let dc = Coordinator::open(&dir, config()).unwrap();
            dc.create_table("F", &["fno", "dest"]).unwrap();
            dc.load("F", first.clone()).unwrap();
            dc.checkpoint().unwrap();
            dc.load("F", second.clone()).unwrap();
        } // killed
        let dc = Coordinator::open(&dir, config()).unwrap();
        let mut expected = first;
        expected.extend(second);
        assert_eq!(
            table_rows(&dc, "F"),
            expected,
            "every row exactly once, in order"
        );
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn an_image_of_another_version_is_refused() {
        let dir = eq_store::scratch_dir("durable-version");
        let mut image = Vec::new();
        put_uv(&mut image, CHECKPOINT_VERSION - 1);
        write_checkpoint(&dir.join(CHECKPOINT_FILE), &image).unwrap();
        assert!(matches!(
            Coordinator::open(&dir, config()),
            Err(DurableError::Store(StoreError::Corrupt(
                "checkpoint version"
            )))
        ));
        eq_store::purge_dir(&dir);
    }

    // -----------------------------------------------------------------
    // Codec
    // -----------------------------------------------------------------

    #[test]
    fn varints_cover_the_64_bit_edges() {
        for x in [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_uv(&mut out, x);
            let mut cur = Cur::new(&out);
            assert_eq!(cur.uv().unwrap(), x);
            cur.finish().unwrap();
        }
        for x in [0, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut out = Vec::new();
            put_iv(&mut out, x);
            assert_eq!(Cur::new(&out).iv().unwrap(), x);
        }
        // Eleven continuation bytes, and a tenth byte with bits beyond 64.
        assert!(Cur::new(&[0xff; 11]).uv().is_err());
        assert!(
            Cur::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 2])
                .uv()
                .is_err()
        );
        assert!(Cur::new(&[0x80]).uv().is_err(), "truncated");
        // A count larger than the bytes behind it allocates nothing.
        assert!(Cur::new(&[0xff, 0xff, 0xff, 0x7f, 0]).count().is_err());
    }

    /// A frame payload the way `DurableState::commit` lays it out.
    fn frame_payload(base_seqno: u64, dict: &mut Dict, records: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        put_frame(&mut frame, base_seqno, dict, records);
        dict.logged = dict.symbols.len();
        frame
    }

    fn submit_record(
        dict: &mut Dict,
        id: u64,
        query: &EntangledQuery,
        tag: Option<&str>,
    ) -> Vec<u8> {
        let mut body = Vec::new();
        Enc {
            out: &mut body,
            dict,
        }
        .submit(query, tag, Some(NoSolutionPolicy::KeepPending), None);
        let mut record = vec![REC_SUBMIT];
        put_entry(&mut record, QueryId(id), &body);
        record
    }

    fn outcome_record(dict: &mut Dict, id: u64, outcome: &QueryOutcome) -> Vec<u8> {
        let mut body = Vec::new();
        Enc {
            out: &mut body,
            dict,
        }
        .outcome(outcome);
        let mut record = vec![REC_OUTCOME];
        put_entry(&mut record, QueryId(id), &body);
        record
    }

    /// Pinned bytes of one frame: the format is on disk, and local ids
    /// are dense from 0 in order of first use — whatever indices the
    /// process-wide interner handed these names.
    #[test]
    fn golden_frame_decodes_from_an_empty_dictionary() {
        for i in 0..100 {
            Symbol::new(&format!("golden-noise-{i}"));
        }
        let query = q("{Rg(Kramer, x)} Rg(Jerry, x) <- Fg(x, Paris), x >= -5");
        let answer = QueryOutcome::Answered(QueryAnswer {
            query: QueryId(7),
            relations: vec![Symbol::new("Rg")],
            tuples: vec![vec![Value::str("Jerry"), Value::int(300)]],
        });
        let mut dict = Dict::default();
        let mut records = vec![REC_CREATE_TABLE];
        Enc {
            out: &mut records,
            dict: &mut dict,
        }
        .schema(
            Symbol::new("Fg"),
            &[Symbol::new("fno"), Symbol::new("dest")],
        );
        Enc {
            out: &mut records,
            dict: &mut dict,
        }
        .load(
            Symbol::new("Fg"),
            &[vec![Value::int(300), Value::str("Paris")]],
        );
        records.extend(submit_record(&mut dict, 7, &query, Some("t")));
        records.extend(outcome_record(&mut dict, 7, &answer));
        let frame = frame_payload(5, &mut dict, &records);

        #[rustfmt::skip]
        let golden: &[u8] = &[
            5, 0,                                   // base_seqno, dict_base
            7,                                      // definitions: ids 0..7
            2, b'F', b'g', 3, b'f', b'n', b'o', 4, b'd', b'e', b's', b't',
            5, b'P', b'a', b'r', b'i', b's', 2, b'R', b'g',
            5, b'J', b'e', b'r', b'r', b'y', 6, b'K', b'r', b'a', b'm', b'e', b'r',
            1, 0, 2, 1, 2,                          // create table Fg(fno, dest)
            2, 0, 1, 2, 1, 0xd8, 0x04, 2, 3,        // load Fg: 1 row (300, Paris)
            3, 7, 32,                               // submit, id 7, 32-byte body
            1, 4, 2, 2, 5, 0, 0,                    //   head Rg(Jerry, ?0)
            1, 4, 2, 2, 6, 0, 0,                    //   postcondition Rg(Kramer, ?0)
            1, 0, 2, 0, 0, 2, 3,                    //   body Fg(?0, Paris)
            1, 0, 0, 3, 1, 9,                       //   constraint ?0 >= -5
            1,                                      //   choose 1
            1, 1, b't',                             //   tag "t"
            2,                                      //   keep pending
            4, 7, 11,                               // outcome, id 7, 11-byte body
            0, 7, 1, 4, 1, 2, 2, 5, 1, 0xd8, 0x04,  //   answered q7: Rg(Jerry, 300)
        ];
        assert_eq!(
            frame, golden,
            "frame bytes changed: that is a format change"
        );

        let mut recovered = Recovered {
            next_seqno: 5,
            ..Default::default()
        };
        recovered.apply_frame(golden).unwrap();
        assert_eq!(recovered.next_seqno, 9);
        assert_eq!(recovered.next_query_id, 8);
        assert_eq!(
            recovered.db.scan("Fg").unwrap(),
            vec![vec![Value::int(300), Value::str("Paris")]]
        );
        assert!(recovered.pending.is_empty(), "the outcome retired q7");
        let ledger = decode_outcome(&recovered.outcomes[&QueryId(7)], &recovered.dict).unwrap();
        assert_eq!(ledger, answer);
        // The frame extends exactly the dictionary it was written
        // after: replayed on top of anything else it is refused.
        assert!(recovered.apply_frame(&frame_with_base(golden, 9)).is_err());
    }

    /// Every outcome `retire` can record, byte for byte: the body
    /// format is on disk.
    #[test]
    fn reachable_outcomes_keep_their_bytes() {
        let answered = QueryOutcome::Answered(QueryAnswer {
            query: QueryId(7),
            relations: vec![Symbol::new("Ro")],
            tuples: vec![vec![Value::str("Jerry"), Value::int(300)]],
        });
        let rejected = |r| QueryOutcome::Failed(FailReason::Rejected(r));
        let cases: [(QueryOutcome, &[u8]); 5] = [
            (answered, &[0, 7, 1, 0, 1, 2, 2, 1, 1, 0xd8, 0x04]),
            (rejected(RejectReason::NonUcs), &[1, 2]),
            (rejected(RejectReason::NoSolution), &[1, 4]),
            (QueryOutcome::Failed(FailReason::Stale), &[2]),
            (QueryOutcome::Failed(FailReason::Cancelled), &[3]),
        ];
        let mut dict = Dict::default();
        for (outcome, golden) in cases {
            let mut body = Vec::new();
            Enc {
                out: &mut body,
                dict: &mut dict,
            }
            .outcome(&outcome);
            assert_eq!(body, golden, "{outcome:?}");
            assert_eq!(decode_outcome(&body, &dict).unwrap(), outcome);
        }
    }

    /// A dated submit body, byte for byte: the undated body with the
    /// policy byte's high bit set and the deadline behind it. An undated
    /// body's policy byte is 0, 1 or 2, all a reader that predates dated
    /// bodies accepts; a dated one is none of them, so such a reader
    /// refuses it as corrupt instead of reading it as undated.
    #[test]
    fn a_dated_submit_body_keeps_its_bytes() {
        let query = q("{Rd(Bo, x)} Rd(Al, x) <- Td(x)");
        let mut dict = Dict::default();
        let mut body = Vec::new();
        let keep = Some(NoSolutionPolicy::KeepPending);
        let ms = 1_700_000_000_123;
        Enc {
            out: &mut body,
            dict: &mut dict,
        }
        .submit(&query, None, keep, Some(ms));
        #[rustfmt::skip]
        let golden: &[u8] = &[
            1, 0, 2, 2, 1, 0, 0,                        // head Rd(Al, ?0)
            1, 0, 2, 2, 2, 0, 0,                        // postcondition Rd(Bo, ?0)
            1, 3, 1, 0, 0,                              // body Td(?0)
            0, 1, 0,                                    // no constraints, choose 1, no tag
            0x82,                                       // keep pending, dated
            0xfb, 0xd0, 0x95, 0xff, 0xbc, 0x31,         // deadline 1,700,000,000,123 ms
        ];
        assert_eq!(
            body, golden,
            "submit body bytes changed: that is a format change"
        );
        assert!(
            body[22] > 2,
            "an undated reader's policy tags are 0, 1 and 2"
        );

        // Read back: a deadline already past (this one is in 2023) is due
        // at once; one ahead keeps its distance from the clocks' reading.
        let clock = WallClock::now();
        let back = decode_submit(QueryId(9), &body, &dict, clock).unwrap();
        assert_eq!(back.on_no_solution, keep);
        let deadline = back.deadline.expect("a dated body decodes dated");
        assert!(deadline <= Instant::now(), "a past deadline is due at once");
        for ahead in [0, 1, 5_000, 86_400_000] {
            let ms = clock.unix_ms(Instant::now()) + ahead;
            let mut body = Vec::new();
            Enc {
                out: &mut body,
                dict: &mut dict,
            }
            .submit(&query, None, keep, Some(ms));
            let back = decode_submit(QueryId(9), &body, &dict, clock).unwrap();
            assert_eq!(back.deadline.map(|d| clock.unix_ms(d)), Some(ms));
        }
        // The deadline is part of the body: cut short, or with an unknown
        // policy under the flag, it is refused.
        assert!(decode_submit(QueryId(9), &golden[..golden.len() - 1], &dict, clock).is_err());
        let mut unknown = golden.to_vec();
        unknown[22] = 0x83;
        assert!(matches!(
            decode_submit(QueryId(9), &unknown, &dict, clock),
            Err(StoreError::Corrupt("policy tag"))
        ));
    }

    /// An outcome record whose reject reason has a tag no reason owns
    /// is a corrupt frame, not a panic and not a decoded outcome.
    #[test]
    fn unowned_reject_reason_tags_are_corrupt() {
        for body in [&[1u8, 0, 0][..], &[1, 1], &[1, 3]] {
            let mut record = vec![REC_OUTCOME];
            put_entry(&mut record, QueryId(1), body);
            let frame = frame_payload(0, &mut Dict::default(), &record);
            let err = Recovered::default().apply_frame(&frame).unwrap_err();
            assert!(
                matches!(
                    err,
                    DurableError::Store(StoreError::Corrupt("reject-reason tag"))
                ),
                "{body:?}: {err:?}"
            );
        }
    }

    /// `frame` with its base sequence number (one byte here) replaced.
    fn frame_with_base(frame: &[u8], base: u8) -> Vec<u8> {
        let mut frame = frame.to_vec();
        frame[0] = base;
        frame
    }

    #[test]
    fn golden_image_decodes_from_an_empty_dictionary() {
        let mut db = Database::new();
        db.create_table("Ti", &["a", "b"]).unwrap();
        db.insert_many(
            "Ti",
            vec![
                vec![Value::int(-1), Value::str("héllo")],
                vec![Value::int(i64::MIN), Value::str("")],
            ],
        )
        .unwrap();
        let mut dict = Dict::default();
        let query = q("{Ri(Bo, x)} Ri(Al, x) <- Ti(x, y)");
        let mut pending = FastMap::default();
        let mut outcomes = FastMap::default();
        let record = submit_record(&mut dict, 3, &query, None);
        pending.insert(QueryId(3), Box::<[u8]>::from(&record[3..]));
        let stale = QueryOutcome::Failed(FailReason::Stale);
        let record = outcome_record(&mut dict, 2, &stale);
        outcomes.insert(QueryId(2), Box::<[u8]>::from(&record[3..]));
        let image = encode_image(&db, 4, 17, &mut dict, &pending, &outcomes);

        #[rustfmt::skip]
        let golden: &[u8] = &[
            3, 4, 17,                               // version, next query id, wal seqno
            8,                                      // string table: ids 0..8
            2, b'R', b'i', 2, b'A', b'l', 2, b'B', b'o', 2, b'T', b'i', 1, b'a', 1, b'b',
            6, b'h', 0xc3, 0xa9, b'l', b'l', b'o', 0,
            1,                                      // one table
            3, 2, 4, 5, 2,                          //   Ti(a, b), 2 rows
            2, 1, 1, 2, 6,                          //   (-1, "héllo")
            2, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 7,
            1, 3, 25,                               // one pending: id 3, 25-byte body
            1, 0, 2, 2, 1, 0, 0,                    //   head Ri(Al, ?0)
            1, 0, 2, 2, 2, 0, 0,                    //   postcondition Ri(Bo, ?0)
            1, 3, 2, 0, 0, 0, 1,                    //   body Ti(?0, ?1)
            0, 1, 0, 2,                             //   no constraints, choose 1, no tag, keep pending
            1, 2, 1, 2,                             // one outcome: id 2, stale
        ];
        assert_eq!(
            image, golden,
            "image bytes changed: that is a format change"
        );

        let mut recovered = Recovered::default();
        recovered.apply_image(golden).unwrap();
        assert_eq!((recovered.next_query_id, recovered.next_seqno), (4, 17));
        assert_eq!(recovered.db.scan("Ti").unwrap(), db.scan("Ti").unwrap());
        let back = decode_submit(
            QueryId(3),
            &recovered.pending[&QueryId(3)],
            &recovered.dict,
            WallClock::now(),
        );
        let back = back.unwrap();
        assert_eq!(
            (
                &back.query.head,
                &back.query.postconditions,
                &back.query.body
            ),
            (&query.head, &query.postconditions, &query.body)
        );
        assert_eq!(back.on_no_solution, Some(NoSolutionPolicy::KeepPending));
        let ledger = decode_outcome(&recovered.outcomes[&QueryId(2)], &recovered.dict).unwrap();
        assert_eq!(ledger, stale);
        // Truncated anywhere, the image is refused, never misread.
        for cut in 0..golden.len() {
            assert!(
                Recovered::default().apply_image(&golden[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// Symbols `0..DISTINCT`, so local ids take one, two and three
    /// varint bytes; texts include the empty string, non-ASCII and a
    /// 300-byte name.
    const DISTINCT: u64 = 17_000;

    fn any_symbol(rng: &mut TestRng) -> Symbol {
        match rng.below(40) {
            0 => Symbol::new(""),
            1 => Symbol::new("naïve-Ünicode-名前"),
            2 => Symbol::new(&"x".repeat(300)),
            // Skewed so every id width shows up in every case.
            n => {
                let bound = [100, 10_000, DISTINCT][n as usize % 3];
                Symbol::new(&format!("sym{}", rng.below(bound)))
            }
        }
    }

    fn any_value(rng: &mut TestRng) -> Value {
        match rng.below(8) {
            0 => Value::Int(i64::MIN),
            1 => Value::Int(i64::MAX),
            2 => Value::Int(-(rng.below(1 << 40) as i64)),
            3 => Value::Int(rng.next_u64() as i64),
            4 => Value::Int(rng.below(300) as i64),
            _ => Value::Str(any_symbol(rng)),
        }
    }

    fn any_term(rng: &mut TestRng) -> Term {
        match rng.below(3) {
            0 => Term::Var(Var(rng.below(1 << 20) as u32)),
            1 => Term::Var(Var(rng.below(4) as u32)),
            _ => Term::Const(any_value(rng)),
        }
    }

    fn any_atoms(rng: &mut TestRng, max: u64) -> Vec<Atom> {
        (0..rng.below(max + 1))
            .map(|_| Atom {
                relation: any_symbol(rng),
                terms: (0..rng.below(5)).map(|_| any_term(rng)).collect(),
            })
            .collect()
    }

    fn any_rows(rng: &mut TestRng) -> Vec<Tuple> {
        (0..rng.below(6))
            .map(|_| (0..rng.below(4)).map(|_| any_value(rng)).collect())
            .collect()
    }

    fn any_query(rng: &mut TestRng) -> EntangledQuery {
        const OPS: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
        EntangledQuery {
            id: QueryId(rng.next_u64()),
            head: any_atoms(rng, 3),
            postconditions: any_atoms(rng, 3),
            body: any_atoms(rng, 4),
            constraints: (0..rng.below(3))
                .map(|_| Constraint {
                    lhs: any_term(rng),
                    op: OPS[rng.below(5) as usize],
                    rhs: any_term(rng),
                })
                .collect(),
            choose: rng.below(5) as u32,
        }
    }

    /// The outcomes `retire` can record.
    fn any_outcome(rng: &mut TestRng) -> QueryOutcome {
        let reason = match rng.below(8) {
            0 => FailReason::Rejected(RejectReason::NonUcs),
            1 => FailReason::Rejected(RejectReason::NoSolution),
            2 => FailReason::Stale,
            3 => FailReason::Cancelled,
            _ => {
                return QueryOutcome::Answered(QueryAnswer {
                    query: QueryId(rng.next_u64()),
                    relations: (0..rng.below(4)).map(|_| any_symbol(rng)).collect(),
                    tuples: any_rows(rng),
                })
            }
        };
        QueryOutcome::Failed(reason)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever is committed — in any number of frames, each
        /// defining the symbols it is first to use — decodes, from an
        /// empty dictionary, to exactly what was encoded.
        #[test]
        fn frames_round_trip_through_an_empty_dictionary(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let mut dict = Dict::default();
            let mut recovered = Recovered::default();
            // Earlier frames fill the dictionary, so this case's ids
            // start anywhere in the one- to three-byte range.
            let mut filler = Vec::new();
            for i in 0..rng.below(DISTINCT) {
                dict.id(Symbol::new(&format!("sym{i}")));
                filler.push(i);
            }
            let mut submitted = Vec::new();
            let mut retired = Vec::new();
            let mut loaded: Vec<Tuple> = Vec::new();
            let mut next_seqno = 0;
            let table = Symbol::new("Tany");
            for frame_no in 0..1 + rng.below(4) {
                let mut records = Vec::new();
                let mut count = 0;
                if frame_no == 0 {
                    records.push(REC_CREATE_TABLE);
                    let columns = [Symbol::new("c0"), Symbol::new("c1")];
                    Enc { out: &mut records, dict: &mut dict }.schema(table, &columns);
                    count += 1;
                }
                for _ in 0..rng.below(4) {
                    let query = any_query(&mut rng);
                    let tag = (rng.below(2) == 0).then(|| format!("tag-{}-é", rng.below(100)));
                    let id = submitted.len() as u64 + 1;
                    records.extend(submit_record(&mut dict, id, &query, tag.as_deref()));
                    submitted.push((query, tag));
                    count += 1;
                }
                for _ in 0..rng.below(4) {
                    let outcome = any_outcome(&mut rng);
                    let id = 1_000 + retired.len() as u64;
                    records.extend(outcome_record(&mut dict, id, &outcome));
                    retired.push(outcome);
                    count += 1;
                }
                if rng.below(2) == 0 {
                    let rows: Vec<Tuple> = (0..rng.below(5))
                        .map(|_| vec![any_value(&mut rng), any_value(&mut rng)])
                        .collect();
                    Enc { out: &mut records, dict: &mut dict }.load(table, &rows);
                    loaded.extend(rows);
                    count += 1;
                }
                if count == 0 {
                    continue;
                }
                let frame = frame_payload(next_seqno, &mut dict, &records);
                next_seqno += count;
                prop_assert!(recovered.apply_frame(&frame).is_ok());
            }
            prop_assert_eq!(recovered.next_seqno, next_seqno);
            prop_assert_eq!(recovered.dict.symbols.clone(), dict.symbols.clone());
            prop_assert_eq!(&recovered.db.scan("Tany").unwrap_or_default(), &loaded);
            for (i, (query, tag)) in submitted.iter().enumerate() {
                let id = QueryId(i as u64 + 1);
                let back = decode_submit(id, &recovered.pending[&id], &recovered.dict, WallClock::now());
                prop_assert!(back.is_ok());
                let back = back.unwrap();
                let expected = EntangledQuery { id, ..query.clone() };
                prop_assert_eq!(back.query, expected);
                prop_assert_eq!(&back.tag, tag);
                prop_assert_eq!(back.on_no_solution, Some(NoSolutionPolicy::KeepPending));
            }
            for (i, outcome) in retired.iter().enumerate() {
                let body = &recovered.outcomes[&QueryId(1_000 + i as u64)];
                let back = decode_outcome(body, &recovered.dict).ok();
                prop_assert_eq!(back.as_ref(), Some(outcome));
            }

            // The same state through an image, again from nothing.
            let image = encode_image(
                &recovered.db,
                recovered.next_query_id,
                recovered.next_seqno,
                &mut dict,
                &recovered.pending,
                &recovered.outcomes,
            );
            let mut reloaded = Recovered::default();
            prop_assert!(reloaded.apply_image(&image).is_ok());
            prop_assert_eq!(&reloaded.db.scan("Tany").unwrap_or_default(), &loaded);
            prop_assert_eq!(&reloaded.pending, &recovered.pending);
            prop_assert_eq!(&reloaded.outcomes, &recovered.outcomes);
            prop_assert_eq!(reloaded.next_seqno, recovered.next_seqno);
        }
    }

    /// An in-memory coordinator keeps no log: its durable views answer
    /// "not durable", and it still creates tables.
    #[test]
    fn an_in_memory_coordinator_is_not_durable() {
        let c = Coordinator::new(Database::new(), config());
        seed(&c);
        let h = submit(
            &c,
            SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
        )
        .unwrap();
        assert!(matches!(c.checkpoint(), Err(DurableError::NotDurable)));
        assert_eq!(c.accounting(), None);
        assert_eq!(c.outcome(h.id), None);
        assert_eq!(c.wal_stats(), None);
        assert_eq!(table_rows(&c, "F").len(), 2);
    }
}
