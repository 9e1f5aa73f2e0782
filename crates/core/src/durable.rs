//! The crash-recoverable coordinator: a [`Coordinator`] whose
//! acknowledged submissions and terminal outcomes survive a process
//! kill.
//!
//! # Protocol
//!
//! [`DurableCoordinator`] composes `eq_store`'s durability primitives
//! around the in-memory service:
//!
//! * every `create_table`, successful `load`, admitted submission, and
//!   terminal outcome is appended to a [`WriteAheadLog`] **before** the
//!   operation is acknowledged to the caller (submissions) or made
//!   visible to event subscribers (outcomes) — the
//!   `DurabilitySink` hook runs inside the service
//!   lock at exactly those two points, so WAL order equals
//!   acknowledgment order;
//! * every WAL record carries a monotonically increasing **sequence
//!   number**, and [`DurableCoordinator::checkpoint`] writes an atomic
//!   whole-state image — database contents, pending submissions, the
//!   outcome ledger, the query-id watermark, and the sequence-number
//!   watermark of the records it folds in — then truncates the log, so
//!   the log only ever holds the suffix since the last checkpoint. A
//!   kill between the image rename and the truncation is harmless:
//!   replay skips every record at a sequence number below the image's
//!   watermark, so nothing is applied twice;
//! * [`DurableCoordinator::open`] rebuilds state as *checkpoint +
//!   log replay*: tables are reloaded, still-pending submissions are
//!   re-admitted under their **original** ids, recorded outcomes are
//!   restored to the ledger, and the id watermark moves past every id
//!   ever assigned.
//!
//! The recovery invariant — property-tested against prefix-truncated
//! logs — is *exactly-once accounting*: after a kill and reopen, every
//! query whose submission was acknowledged is either still pending or
//! carries its exact terminal outcome in
//! [`DurableCoordinator::outcome`]; no acknowledged query is lost and
//! none is duplicated.
//!
//! # What is (deliberately) not durable
//!
//! * **Deadlines** — wall-clock instants do not survive a restart; a
//!   recovered query re-enters the pool deadline-free (its staleness
//!   clock restarts).
//! * **Direct database writes** — mutations through
//!   [`Coordinator::db`] bypass the log; durable applications load
//!   data through [`DurableCoordinator::load`] /
//!   [`DurableCoordinator::create_table`].
//! * **Paged-table placement** — recovery materializes tables
//!   in-memory (page files are per-process spill, not a durability
//!   story); an application wanting out-of-core relations re-attaches
//!   paged backends after `open`.

use crate::engine::{EngineConfig, FailReason, NoSolutionPolicy, QueryHandle, QueryOutcome};
use crate::error::CoordinationError;
use crate::service::{Coordinator, DurabilitySink, SubmitRequest};
use eq_db::{Database, Tuple};
use eq_ir::{
    Atom, CmpOp, Constraint, EntangledQuery, FastMap, Polarity, QueryId, Term, ValidationError,
    Value, Var,
};
use eq_store::{read_checkpoint, write_checkpoint, StoreError, WriteAheadLog};
use parking_lot::Mutex;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::combine::QueryAnswer;
use crate::coordinate::RejectReason;

/// WAL file name inside a durable coordinator's directory.
pub const WAL_FILE: &str = "wal.log";
/// Checkpoint file name inside a durable coordinator's directory.
pub const CHECKPOINT_FILE: &str = "state.ckpt";

/// Errors from opening, checkpointing, or recovering a
/// [`DurableCoordinator`].
#[derive(Debug)]
pub enum DurableError {
    /// The storage layer failed (I/O, torn checkpoint, undecodable
    /// record).
    Store(StoreError),
    /// Replayed state was refused by the engine (a logged submission
    /// or load no longer admissible — indicates an incompatible state
    /// directory, not a crash artifact).
    Coordination(CoordinationError),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Store(e) => write!(f, "durable store: {e}"),
            DurableError::Coordination(e) => write!(f, "durable replay: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

impl From<CoordinationError> for DurableError {
    fn from(e: CoordinationError) -> Self {
        DurableError::Coordination(e)
    }
}

// ---------------------------------------------------------------------
// Byte codec
//
// Fixed little-endian primitives over a plain `Vec<u8>` — no `std::io`
// (that belongs to `eq_store`, per the io-choke-point rule). Strings
// are written by text, never by interner id: symbol ids are assigned
// in process-arrival order and do not survive a restart.
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, x: i64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

/// A decode cursor. Every getter fails with
/// [`StoreError::Corrupt`] on truncation or a bad tag — reachable only
/// if a record passed its checksum yet doesn't parse, i.e. a version
/// skew or outside edit, never a torn write.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Corrupt("record truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, StoreError> {
        Ok(self.u64()? as i64)
    }

    fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt("non-utf8 string"))
    }

    fn opt_str(&mut self) -> Result<Option<String>, StoreError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.str()?)),
            _ => Err(StoreError::Corrupt("option tag")),
        }
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt("trailing bytes"))
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: Value) {
    match v {
        Value::Int(x) => {
            out.push(0);
            put_i64(out, x);
        }
        Value::Str(s) => {
            out.push(1);
            put_str(out, s.as_str());
        }
    }
}

fn get_value(cur: &mut Cur<'_>) -> Result<Value, StoreError> {
    match cur.u8()? {
        0 => Ok(Value::Int(cur.i64()?)),
        1 => Ok(Value::str(&cur.str()?)),
        _ => Err(StoreError::Corrupt("value tag")),
    }
}

fn put_term(out: &mut Vec<u8>, t: Term) {
    match t {
        Term::Const(v) => {
            out.push(0);
            put_value(out, v);
        }
        Term::Var(v) => {
            out.push(1);
            put_u32(out, v.index());
        }
    }
}

fn get_term(cur: &mut Cur<'_>) -> Result<Term, StoreError> {
    match cur.u8()? {
        0 => Ok(Term::Const(get_value(cur)?)),
        1 => Ok(Term::Var(Var(cur.u32()?))),
        _ => Err(StoreError::Corrupt("term tag")),
    }
}

fn put_atom(out: &mut Vec<u8>, a: &Atom) {
    put_str(out, a.relation.as_str());
    put_u32(out, a.terms.len() as u32);
    for &t in &a.terms {
        put_term(out, t);
    }
}

fn get_atom(cur: &mut Cur<'_>) -> Result<Atom, StoreError> {
    let relation = cur.str()?;
    let n = cur.u32()? as usize;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        terms.push(get_term(cur)?);
    }
    Ok(Atom::new(relation.as_str(), terms))
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Lt => 0,
        CmpOp::Le => 1,
        CmpOp::Gt => 2,
        CmpOp::Ge => 3,
        CmpOp::Ne => 4,
    }
}

fn get_cmp_op(cur: &mut Cur<'_>) -> Result<CmpOp, StoreError> {
    match cur.u8()? {
        0 => Ok(CmpOp::Lt),
        1 => Ok(CmpOp::Le),
        2 => Ok(CmpOp::Gt),
        3 => Ok(CmpOp::Ge),
        4 => Ok(CmpOp::Ne),
        _ => Err(StoreError::Corrupt("cmp-op tag")),
    }
}

fn put_constraint(out: &mut Vec<u8>, c: &Constraint) {
    put_term(out, c.lhs);
    out.push(cmp_op_tag(c.op));
    put_term(out, c.rhs);
}

fn get_constraint(cur: &mut Cur<'_>) -> Result<Constraint, StoreError> {
    let lhs = get_term(cur)?;
    let op = get_cmp_op(cur)?;
    let rhs = get_term(cur)?;
    Ok(Constraint { lhs, op, rhs })
}

fn put_query(out: &mut Vec<u8>, q: &EntangledQuery) {
    put_u64(out, q.id.0);
    for atoms in [&q.head, &q.postconditions, &q.body] {
        put_u32(out, atoms.len() as u32);
        for a in atoms.iter() {
            put_atom(out, a);
        }
    }
    put_u32(out, q.constraints.len() as u32);
    for c in &q.constraints {
        put_constraint(out, c);
    }
    put_u32(out, q.choose);
}

fn get_query(cur: &mut Cur<'_>) -> Result<EntangledQuery, StoreError> {
    let id = QueryId(cur.u64()?);
    let mut groups: [Vec<Atom>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for group in groups.iter_mut() {
        let n = cur.u32()? as usize;
        for _ in 0..n {
            group.push(get_atom(cur)?);
        }
    }
    let [head, postconditions, body] = groups;
    let n = cur.u32()? as usize;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        constraints.push(get_constraint(cur)?);
    }
    let choose = cur.u32()?;
    Ok(EntangledQuery {
        id,
        head,
        postconditions,
        body,
        constraints,
        choose,
    })
}

fn put_policy(out: &mut Vec<u8>, p: Option<NoSolutionPolicy>) {
    out.push(match p {
        None => 0,
        Some(NoSolutionPolicy::Reject) => 1,
        Some(NoSolutionPolicy::KeepPending) => 2,
    });
}

fn get_policy(cur: &mut Cur<'_>) -> Result<Option<NoSolutionPolicy>, StoreError> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some(NoSolutionPolicy::Reject)),
        2 => Ok(Some(NoSolutionPolicy::KeepPending)),
        _ => Err(StoreError::Corrupt("policy tag")),
    }
}

fn put_validation_error(out: &mut Vec<u8>, e: &ValidationError) {
    match e {
        ValidationError::EmptyHead => out.push(0),
        ValidationError::NotRangeRestricted { var, polarity } => {
            out.push(1);
            put_u32(out, var.index());
            out.push(match polarity {
                Polarity::Head => 0,
                Polarity::Postcondition => 1,
            });
        }
        ValidationError::ChooseZero => out.push(2),
        ValidationError::UnboundConstraintVar { var } => {
            out.push(3);
            put_u32(out, var.index());
        }
    }
}

fn get_validation_error(cur: &mut Cur<'_>) -> Result<ValidationError, StoreError> {
    match cur.u8()? {
        0 => Ok(ValidationError::EmptyHead),
        1 => {
            let var = Var(cur.u32()?);
            let polarity = match cur.u8()? {
                0 => Polarity::Head,
                1 => Polarity::Postcondition,
                _ => return Err(StoreError::Corrupt("polarity tag")),
            };
            Ok(ValidationError::NotRangeRestricted { var, polarity })
        }
        2 => Ok(ValidationError::ChooseZero),
        3 => Ok(ValidationError::UnboundConstraintVar {
            var: Var(cur.u32()?),
        }),
        _ => Err(StoreError::Corrupt("validation-error tag")),
    }
}

fn put_reject_reason(out: &mut Vec<u8>, r: &RejectReason) {
    match r {
        RejectReason::Invalid(e) => {
            out.push(0);
            put_validation_error(out, e);
        }
        RejectReason::Unsafe => out.push(1),
        RejectReason::NonUcs => out.push(2),
        RejectReason::Unmatched => out.push(3),
        RejectReason::NoSolution => out.push(4),
    }
}

fn get_reject_reason(cur: &mut Cur<'_>) -> Result<RejectReason, StoreError> {
    match cur.u8()? {
        0 => Ok(RejectReason::Invalid(get_validation_error(cur)?)),
        1 => Ok(RejectReason::Unsafe),
        2 => Ok(RejectReason::NonUcs),
        3 => Ok(RejectReason::Unmatched),
        4 => Ok(RejectReason::NoSolution),
        _ => Err(StoreError::Corrupt("reject-reason tag")),
    }
}

fn put_tuple(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for &v in row {
        put_value(out, v);
    }
}

fn get_tuple(cur: &mut Cur<'_>) -> Result<Tuple, StoreError> {
    let n = cur.u32()? as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(get_value(cur)?);
    }
    Ok(row)
}

fn put_outcome(out: &mut Vec<u8>, o: &QueryOutcome) {
    match o {
        QueryOutcome::Answered(answer) => {
            out.push(0);
            put_u64(out, answer.query.0);
            put_u32(out, answer.relations.len() as u32);
            for r in &answer.relations {
                put_str(out, r.as_str());
            }
            put_u32(out, answer.tuples.len() as u32);
            for t in &answer.tuples {
                put_tuple(out, t);
            }
        }
        QueryOutcome::Failed(FailReason::Rejected(reason)) => {
            out.push(1);
            put_reject_reason(out, reason);
        }
        QueryOutcome::Failed(FailReason::Stale) => out.push(2),
        QueryOutcome::Failed(FailReason::Cancelled) => out.push(3),
    }
}

fn get_outcome(cur: &mut Cur<'_>) -> Result<QueryOutcome, StoreError> {
    match cur.u8()? {
        0 => {
            let query = QueryId(cur.u64()?);
            let n = cur.u32()? as usize;
            let mut relations = Vec::with_capacity(n);
            for _ in 0..n {
                relations.push(eq_ir::Symbol::new(&cur.str()?));
            }
            let n = cur.u32()? as usize;
            let mut tuples = Vec::with_capacity(n);
            for _ in 0..n {
                tuples.push(get_tuple(cur)?);
            }
            Ok(QueryOutcome::Answered(QueryAnswer {
                query,
                relations,
                tuples,
            }))
        }
        1 => Ok(QueryOutcome::Failed(FailReason::Rejected(
            get_reject_reason(cur)?,
        ))),
        2 => Ok(QueryOutcome::Failed(FailReason::Stale)),
        3 => Ok(QueryOutcome::Failed(FailReason::Cancelled)),
        _ => Err(StoreError::Corrupt("outcome tag")),
    }
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

/// One durable event. Everything the service acknowledges flows
/// through exactly one of these.
enum WalRecord {
    CreateTable { name: String, columns: Vec<String> },
    Load { table: String, rows: Vec<Tuple> },
    Submit { id: QueryId, record: SubmitRecord },
    Outcome { id: QueryId, outcome: QueryOutcome },
}

/// Encodes one record under its sequence number. The number leads the
/// payload so replay can skip records already folded into a checkpoint
/// (see [`DurableCoordinator::checkpoint`]).
fn encode_record(seqno: u64, rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, seqno);
    match rec {
        WalRecord::CreateTable { name, columns } => {
            out.push(1);
            put_str(&mut out, name);
            put_u32(&mut out, columns.len() as u32);
            for c in columns {
                put_str(&mut out, c);
            }
        }
        WalRecord::Load { table, rows } => {
            out.push(2);
            put_str(&mut out, table);
            put_u32(&mut out, rows.len() as u32);
            for row in rows {
                put_tuple(&mut out, row);
            }
        }
        WalRecord::Submit { id, record } => {
            out.push(3);
            put_u64(&mut out, id.0);
            put_query(&mut out, &record.query);
            put_opt_str(&mut out, record.tag.as_deref());
            put_policy(&mut out, record.on_no_solution);
        }
        WalRecord::Outcome { id, outcome } => {
            out.push(4);
            put_u64(&mut out, id.0);
            put_outcome(&mut out, outcome);
        }
    }
    out
}

fn decode_record(bytes: &[u8]) -> Result<(u64, WalRecord), StoreError> {
    let mut cur = Cur::new(bytes);
    let seqno = cur.u64()?;
    let rec = match cur.u8()? {
        1 => {
            let name = cur.str()?;
            let n = cur.u32()? as usize;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(cur.str()?);
            }
            WalRecord::CreateTable { name, columns }
        }
        2 => {
            let table = cur.str()?;
            let n = cur.u32()? as usize;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(get_tuple(&mut cur)?);
            }
            WalRecord::Load { table, rows }
        }
        3 => {
            let id = QueryId(cur.u64()?);
            let query = get_query(&mut cur)?;
            let tag = cur.opt_str()?;
            let on_no_solution = get_policy(&mut cur)?;
            let record = SubmitRecord {
                query,
                tag,
                on_no_solution,
            };
            WalRecord::Submit { id, record }
        }
        4 => {
            let id = QueryId(cur.u64()?);
            let outcome = get_outcome(&mut cur)?;
            WalRecord::Outcome { id, outcome }
        }
        _ => return Err(StoreError::Corrupt("wal record tag")),
    };
    cur.finish()?;
    Ok((seqno, rec))
}

// ---------------------------------------------------------------------
// Checkpoint image
// ---------------------------------------------------------------------

const CHECKPOINT_VERSION: u32 = 2;

#[derive(Default)]
struct CheckpointImage {
    next_query_id: u64,
    /// WAL records with a sequence number below this are folded into
    /// the image; replay skips them.
    wal_seqno: u64,
    tables: Vec<(String, Vec<String>, Vec<Tuple>)>,
    pending: Vec<(QueryId, SubmitRecord)>,
    outcomes: Vec<(QueryId, QueryOutcome)>,
}

fn encode_checkpoint(
    db: &Database,
    next_query_id: u64,
    wal_seqno: u64,
    pending: &FastMap<QueryId, SubmitRecord>,
    outcomes: &FastMap<QueryId, QueryOutcome>,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, CHECKPOINT_VERSION);
    put_u64(&mut out, next_query_id);
    put_u64(&mut out, wal_seqno);

    let mut names: Vec<_> = db.table_names().collect();
    names.sort_by_key(|s| s.as_str());
    put_u32(&mut out, names.len() as u32);
    for name in names {
        let Some(table) = db.table(name) else {
            continue;
        };
        let schema = table.schema();
        put_str(&mut out, schema.name.as_str());
        put_u32(&mut out, schema.columns.len() as u32);
        for c in &schema.columns {
            put_str(&mut out, c.as_str());
        }
        put_u32(&mut out, table.len() as u32);
        table.for_each_row(&mut |row| put_tuple(&mut out, row));
    }

    let mut ordered: Vec<_> = pending.iter().collect();
    ordered.sort_by_key(|(id, _)| id.0);
    put_u32(&mut out, ordered.len() as u32);
    for (id, rec) in ordered {
        put_u64(&mut out, id.0);
        put_query(&mut out, &rec.query);
        put_opt_str(&mut out, rec.tag.as_deref());
        put_policy(&mut out, rec.on_no_solution);
    }

    let mut ordered: Vec<_> = outcomes.iter().collect();
    ordered.sort_by_key(|(id, _)| id.0);
    put_u32(&mut out, ordered.len() as u32);
    for (id, outcome) in ordered {
        put_u64(&mut out, id.0);
        put_outcome(&mut out, outcome);
    }
    out
}

fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointImage, StoreError> {
    let mut cur = Cur::new(bytes);
    if cur.u32()? != CHECKPOINT_VERSION {
        return Err(StoreError::Corrupt("checkpoint version"));
    }
    let next_query_id = cur.u64()?;
    let wal_seqno = cur.u64()?;

    let n = cur.u32()? as usize;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let name = cur.str()?;
        let cols = cur.u32()? as usize;
        let mut columns = Vec::with_capacity(cols);
        for _ in 0..cols {
            columns.push(cur.str()?);
        }
        let rows_n = cur.u32()? as usize;
        let mut rows = Vec::with_capacity(rows_n);
        for _ in 0..rows_n {
            rows.push(get_tuple(&mut cur)?);
        }
        tables.push((name, columns, rows));
    }

    let n = cur.u32()? as usize;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        let id = QueryId(cur.u64()?);
        let query = get_query(&mut cur)?;
        let tag = cur.opt_str()?;
        let on_no_solution = get_policy(&mut cur)?;
        pending.push((
            id,
            SubmitRecord {
                query,
                tag,
                on_no_solution,
            },
        ));
    }

    let n = cur.u32()? as usize;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let id = QueryId(cur.u64()?);
        outcomes.push((id, get_outcome(&mut cur)?));
    }
    cur.finish()?;
    Ok(CheckpointImage {
        next_query_id,
        wal_seqno,
        tables,
        pending,
        outcomes,
    })
}

// ---------------------------------------------------------------------
// The sink and its shared state
// ---------------------------------------------------------------------

/// One acknowledged, not-yet-terminal submission, as the WAL knows it.
#[derive(Clone, Debug)]
struct SubmitRecord {
    query: EntangledQuery,
    tag: Option<String>,
    on_no_solution: Option<NoSolutionPolicy>,
}

/// Shared durable bookkeeping: the open WAL plus the in-memory mirror
/// of what it (together with the last checkpoint) proves — which
/// acknowledged submissions are still pending and which outcomes have
/// been recorded. Innermost lock: always acquired after (never around)
/// the service shard locks.
struct DurableState {
    wal: WriteAheadLog,
    /// Sequence number the next appended record will carry. Appends
    /// run under this lock, so numbers are strictly increasing in
    /// acknowledgment order and never reused — checkpoints record the
    /// watermark of what they fold in.
    next_seqno: u64,
    pending: FastMap<QueryId, SubmitRecord>,
    outcomes: FastMap<QueryId, QueryOutcome>,
}

impl DurableState {
    /// Appends one record. An append failure is unrecoverable by
    /// design: the caller is about to acknowledge the event, and
    /// acknowledging without the log entry would break the recovery
    /// contract — so this panics rather than silently dropping
    /// durability.
    fn append(&mut self, rec: &WalRecord) {
        if let Err(e) = self.wal.append(&encode_record(self.next_seqno, rec)) {
            panic!("write-ahead append failed: {e}");
        }
        self.next_seqno += 1;
    }
}

struct WalSink {
    state: Arc<Mutex<DurableState>>,
}

impl DurabilitySink for WalSink {
    fn record_submit(
        &mut self,
        id: QueryId,
        query: EntangledQuery,
        tag: Option<&str>,
        on_no_solution: Option<NoSolutionPolicy>,
    ) {
        // The service's one clone is encoded from a borrow, then moves
        // into the pending mirror.
        let record = WalRecord::Submit {
            id,
            record: SubmitRecord {
                query,
                tag: tag.map(str::to_owned),
                on_no_solution,
            },
        };
        let mut state = self.state.lock();
        state.append(&record);
        if let WalRecord::Submit { record, .. } = record {
            state.pending.insert(id, record);
        }
    }

    fn record_outcome(&mut self, id: QueryId, outcome: &QueryOutcome) {
        let mut state = self.state.lock();
        state.append(&WalRecord::Outcome {
            id,
            outcome: outcome.clone(),
        });
        state.pending.remove(&id);
        state.outcomes.insert(id, outcome.clone());
    }

    fn record_load(&mut self, table: &str, rows: &[Tuple]) {
        let mut state = self.state.lock();
        state.append(&WalRecord::Load {
            table: table.to_owned(),
            rows: rows.to_vec(),
        });
    }
}

// ---------------------------------------------------------------------
// The durable coordinator
// ---------------------------------------------------------------------

/// A [`Coordinator`] with crash recovery: reopening the same state
/// directory resumes exactly where the acknowledged history left off.
///
/// ```
/// use eq_core::{DurableCoordinator, EngineConfig, EngineMode, QueryOutcome, SubmitRequest};
/// use eq_ir::Value;
/// use eq_sql::parse_ir_query;
///
/// let dir = eq_store::scratch_dir("durable-doc");
/// let config = EngineConfig {
///     mode: EngineMode::SetAtATime { batch_size: 0 },
///     ..Default::default()
/// };
/// let id = {
///     let dc = DurableCoordinator::open(&dir, config.clone()).unwrap();
///     dc.create_table("F", &["fno", "dest"]).unwrap();
///     dc.load("F", vec![vec![Value::int(122), Value::str("Paris")]]).unwrap();
///     let h = dc
///         .submit(SubmitRequest::new(
///             parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap(),
///         ))
///         .unwrap();
///     h.id
/// }; // process "dies" — nothing was flushed or checkpointed
///
/// let dc = DurableCoordinator::open(&dir, config).unwrap();
/// assert_eq!(dc.pending_ids(), vec![id]); // the acknowledged query survived
/// dc.submit(SubmitRequest::new(
///     parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)").unwrap(),
/// ))
/// .unwrap();
/// assert_eq!(dc.coordinator().flush().answered, 2);
/// assert!(matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))));
/// eq_store::purge_dir(&dir);
/// ```
pub struct DurableCoordinator {
    coordinator: Coordinator,
    state: Arc<Mutex<DurableState>>,
    checkpoint_path: PathBuf,
}

impl DurableCoordinator {
    /// Opens (or creates) the durable coordinator rooted at `dir`:
    /// reads the checkpoint if one exists, replays the WAL tail over
    /// it, re-admits every still-pending acknowledged submission under
    /// its original id, and restores the recorded-outcome ledger and
    /// the query-id watermark.
    pub fn open(dir: &Path, config: EngineConfig) -> Result<DurableCoordinator, DurableError> {
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let image = match read_checkpoint(&checkpoint_path)? {
            Some(payload) => decode_checkpoint(&payload)?,
            None => CheckpointImage::default(),
        };
        let (mut wal, raw) = WriteAheadLog::open(&dir.join(WAL_FILE))?;
        let mut records = Vec::with_capacity(raw.len());
        for bytes in &raw {
            records.push(decode_record(bytes)?);
        }

        // Skip records the checkpoint already folded in. Normally the
        // checkpoint truncates the log, but a kill between the image
        // rename and the truncation leaves the full pre-checkpoint log
        // behind — replaying it would double-apply loads and re-create
        // tables. Sequence numbers are append-ordered, so the stale
        // records are exactly the prefix below the image's watermark.
        let stale = records
            .iter()
            .take_while(|(seqno, _)| *seqno < image.wal_seqno)
            .count();
        if stale > 0 {
            // Finish the interrupted checkpoint's truncation: rewrite
            // the log as just the surviving suffix, restoring the
            // "log = suffix since the last checkpoint" invariant.
            wal.truncate()?;
            for bytes in &raw[stale..] {
                wal.append(bytes)?;
            }
        }
        let mut next_seqno = image.wal_seqno;
        for (seqno, _) in &records[stale..] {
            next_seqno = next_seqno.max(seqno + 1);
        }

        // Checkpoint state, then the log suffix on top of it.
        let mut db = Database::new();
        for (name, columns, rows) in &image.tables {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            db.create_table(name, &cols)
                .map_err(CoordinationError::from)?;
            db.insert_many(name, rows.clone())
                .map_err(CoordinationError::from)?;
        }
        let mut pending: FastMap<QueryId, SubmitRecord> = image.pending.into_iter().collect();
        let mut outcomes: FastMap<QueryId, QueryOutcome> = image.outcomes.into_iter().collect();
        let mut watermark = image.next_query_id;
        for (_, record) in records.into_iter().skip(stale) {
            match record {
                WalRecord::CreateTable { name, columns } => {
                    let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                    db.create_table(&name, &cols)
                        .map_err(CoordinationError::from)?;
                }
                WalRecord::Load { table, rows } => {
                    db.insert_many(&table, rows)
                        .map_err(CoordinationError::from)?;
                }
                WalRecord::Submit { id, record } => {
                    watermark = watermark.max(id.0 + 1);
                    pending.insert(id, record);
                }
                WalRecord::Outcome { id, outcome } => {
                    pending.remove(&id);
                    outcomes.insert(id, outcome);
                }
            }
        }

        let coordinator = Coordinator::new(db, config);
        let state = Arc::new(Mutex::new(DurableState {
            wal,
            next_seqno,
            pending: pending.clone(),
            outcomes,
        }));
        coordinator.install_sink(Box::new(WalSink {
            state: Arc::clone(&state),
        }));

        // Re-admit pending submissions in ascending id order so each
        // reproduces its original id. `recover_submit` bypasses the
        // sink — these records are already in the log; re-recording
        // them would duplicate the history on the next replay.
        let mut replay: Vec<(QueryId, SubmitRecord)> = pending.into_iter().collect();
        replay.sort_by_key(|(id, _)| id.0);
        for (id, rec) in replay {
            coordinator.recover_submit(id, rec.query, rec.on_no_solution, rec.tag)?;
        }
        coordinator.set_id_watermark(watermark);
        // Outcomes produced by recovery-time coordination (incremental
        // mode) are new history: record and broadcast them now, after
        // every submission record they depend on.
        coordinator.pump_now();

        Ok(DurableCoordinator {
            coordinator,
            state,
            checkpoint_path,
        })
    }

    /// The underlying service handle — subscriptions, flushes, status
    /// queries, cancellation all work as usual and are durably
    /// recorded where applicable (terminal outcomes). Direct database
    /// writes through [`Coordinator::db`] bypass durability; prefer
    /// [`DurableCoordinator::load`].
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// Creates a relation, durably.
    pub fn create_table(&self, name: &str, columns: &[&str]) -> Result<(), CoordinationError> {
        self.coordinator.with_exclusive(|| {
            self.coordinator.db().write().create_table(name, columns)?;
            self.state.lock().append(&WalRecord::CreateTable {
                name: name.to_owned(),
                columns: columns.iter().map(|c| (*c).to_owned()).collect(),
            });
            Ok(())
        })
    }

    /// Bulk-loads rows, durably (see [`Coordinator::load`]; the rows
    /// are WAL-logged once the insert succeeds, before it is
    /// acknowledged).
    pub fn load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize, CoordinationError> {
        self.coordinator.load(table, rows)
    }

    /// Submits one query durably: the WAL holds its record before the
    /// handle is returned.
    pub fn submit(
        &self,
        request: impl Into<SubmitRequest>,
    ) -> Result<QueryHandle, CoordinationError> {
        self.coordinator.submit_request(request.into())
    }

    /// Submits a batch durably (see [`crate::Session::submit_batch`]);
    /// each admitted query's record precedes the batch's return.
    pub fn submit_batch(
        &self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        self.coordinator.submit_batch_request(requests)
    }

    /// Runs a coordination round (see [`Coordinator::flush`]); every
    /// terminal outcome it produces is WAL-recorded before its event is
    /// broadcast.
    pub fn flush(&self) -> crate::BatchReport {
        self.coordinator.flush()
    }

    /// Writes an atomic checkpoint of the whole durable state —
    /// database, pending submissions, outcome ledger, id watermark —
    /// and truncates the WAL it supersedes. Runs with every service
    /// shard locked, so the image is a consistent cut: no
    /// acknowledgment can land between the snapshot and the
    /// truncation. The image records
    /// the WAL sequence-number watermark it folds in, so a kill
    /// between the image rename and the truncation is recovered
    /// exactly: replay skips the superseded records and `open`
    /// finishes the truncation.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        self.coordinator.with_exclusive(|| {
            let next_id = self.coordinator.id_watermark();
            let db = self.coordinator.db();
            let guard = db.read();
            let mut state = self.state.lock();
            let payload = encode_checkpoint(
                &guard,
                next_id,
                state.next_seqno,
                &state.pending,
                &state.outcomes,
            );
            write_checkpoint(&self.checkpoint_path, &payload)?;
            state.wal.truncate()?;
            Ok(())
        })
    }

    /// Ids of acknowledged submissions that have not reached a terminal
    /// outcome, ascending.
    pub fn pending_ids(&self) -> Vec<QueryId> {
        let state = self.state.lock();
        let mut ids: Vec<QueryId> = state.pending.keys().copied().collect();
        ids.sort_by_key(|id| id.0);
        ids
    }

    /// The recorded terminal outcome of an acknowledged query, if it
    /// has one. Survives restarts (subject to checkpoints, which carry
    /// the ledger forward).
    pub fn outcome(&self, id: QueryId) -> Option<QueryOutcome> {
        self.state.lock().outcomes.get(&id).cloned()
    }

    /// Every acknowledged id and whether it is still pending (`None`)
    /// or terminal (`Some(outcome)`), ascending — the exactly-once
    /// accounting view the recovery invariant is stated over.
    pub fn accounting(&self) -> Vec<(QueryId, Option<QueryOutcome>)> {
        let state = self.state.lock();
        let mut all: Vec<(QueryId, Option<QueryOutcome>)> = state
            .pending
            .keys()
            .map(|&id| (id, None))
            .chain(
                state
                    .outcomes
                    .iter()
                    .map(|(&id, outcome)| (id, Some(outcome.clone()))),
            )
            .collect();
        all.sort_by_key(|(id, _)| id.0);
        all
    }

    /// Bytes of intact records currently in the WAL (0 right after a
    /// checkpoint). Kill-and-recover harnesses use this to pick
    /// truncation points.
    pub fn wal_len_bytes(&self) -> u64 {
        self.state.lock().wal.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineMode, QueryStatus};
    use eq_sql::parse_ir_query;

    fn config() -> EngineConfig {
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        }
    }

    fn q(text: &str) -> EntangledQuery {
        parse_ir_query(text).unwrap()
    }

    fn seed(dc: &DurableCoordinator) {
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

    #[test]
    fn reopen_restores_pending_and_outcomes() {
        let dir = eq_store::scratch_dir("durable-reopen");
        let (answered, lonely) = {
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let a = dc
                .submit(SubmitRequest::new(q(
                    "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
                )))
                .unwrap();
            let b = dc
                .submit(SubmitRequest::new(q(
                    "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
                )))
                .unwrap();
            let report = dc.flush();
            assert_eq!(report.answered, 2);
            let lonely = dc
                .submit(
                    SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")).tag("lonely"),
                )
                .unwrap();
            (vec![a.id, b.id], lonely.id)
        };

        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        // Outcomes restored exactly; the unmatched query is pending
        // again under its original id, tag intact.
        for id in answered {
            assert!(
                matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))),
                "{id:?}"
            );
        }
        assert_eq!(dc.pending_ids(), vec![lonely]);
        assert!(matches!(
            dc.coordinator().status(lonely),
            Some(QueryStatus::Pending)
        ));
        // New submissions never reuse an id.
        let fresh = dc
            .submit(SubmitRequest::new(q(
                "{R(Frank, z)} R(Newman, z) <- F(z, Rome)",
            )))
            .unwrap();
        assert!(fresh.id.0 > lonely.0);
        // The pair coordinates after recovery.
        assert_eq!(dc.flush().answered, 2);
        assert!(matches!(
            dc.outcome(lonely),
            Some(QueryOutcome::Answered(_))
        ));
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_survives_reopen() {
        let dir = eq_store::scratch_dir("durable-ckpt");
        let pending_id = {
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let h = dc
                .submit(SubmitRequest::new(q(
                    "{R(Newman, z)} R(Frank, z) <- F(z, Rome)",
                )))
                .unwrap();
            assert!(dc.wal_len_bytes() > 0);
            dc.checkpoint().unwrap();
            assert_eq!(dc.wal_len_bytes(), 0);
            h.id
        };
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(dc.pending_ids(), vec![pending_id]);
        assert_eq!(
            dc.coordinator().db().read().scan("F").unwrap().len(),
            2,
            "checkpointed rows restored"
        );
        // Post-checkpoint history keeps accumulating on the fresh WAL.
        dc.load("F", vec![vec![Value::int(200), Value::str("Rome")]])
            .unwrap();
        drop(dc);
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(dc.coordinator().db().read().scan("F").unwrap().len(), 3);
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn accounting_is_exactly_once_across_restart() {
        let dir = eq_store::scratch_dir("durable-account");
        let acknowledged = {
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let mut ids = Vec::new();
            for i in 0..4 {
                let h = dc
                    .submit(SubmitRequest::new(q(&format!(
                        "{{R(B{i}, ITH)}} R(A{i}, ITH) <- F(x{i}, Paris)"
                    ))))
                    .unwrap();
                ids.push(h.id);
            }
            dc.flush(); // nothing pairs: all four stay pending
            let h = dc
                .submit(SubmitRequest::new(q(
                    "{R(A0, ITH)} R(B0, ITH) <- F(y, Paris)",
                )))
                .unwrap();
            ids.push(h.id);
            dc.flush(); // first pair answers
            ids
        };
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        let accounting = dc.accounting();
        let ids: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, acknowledged, "every acknowledged id, exactly once");
        let terminal = accounting.iter().filter(|(_, o)| o.is_some()).count();
        assert_eq!(terminal, 2, "the answered pair is terminal, rest pending");
        eq_store::purge_dir(&dir);
    }

    #[test]
    fn wal_records_round_trip() {
        let query = q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris), x >= 5");
        let records = [
            WalRecord::CreateTable {
                name: "F".into(),
                columns: vec!["fno".into(), "dest".into()],
            },
            WalRecord::Load {
                table: "F".into(),
                rows: vec![vec![Value::int(-3), Value::str("Paris")]],
            },
            WalRecord::Submit {
                id: QueryId(7),
                record: SubmitRecord {
                    query,
                    tag: Some("t".into()),
                    on_no_solution: Some(NoSolutionPolicy::KeepPending),
                },
            },
            WalRecord::Outcome {
                id: QueryId(7),
                outcome: QueryOutcome::Answered(QueryAnswer {
                    query: QueryId(7),
                    relations: vec![eq_ir::Symbol::new("R")],
                    tuples: vec![vec![Value::str("Jerry"), Value::int(9)]],
                }),
            },
            WalRecord::Outcome {
                id: QueryId(8),
                outcome: QueryOutcome::Failed(FailReason::Rejected(RejectReason::NoSolution)),
            },
        ];
        for (i, rec) in records.iter().enumerate() {
            let seqno = i as u64 * 3 + 1;
            let bytes = encode_record(seqno, rec);
            let (back_seqno, back) = decode_record(&bytes).unwrap();
            assert_eq!(back_seqno, seqno, "sequence number must round-trip");
            assert_eq!(
                encode_record(back_seqno, &back),
                bytes,
                "codec must be stable"
            );
        }
        assert!(decode_record(&[9, 0, 0]).is_err());
    }

    #[test]
    fn kill_between_checkpoint_rename_and_wal_truncate_is_harmless() {
        let dir = eq_store::scratch_dir("durable-ckpt-window");
        let (answered, lonely) = {
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            seed(&dc);
            let a = dc
                .submit(SubmitRequest::new(q(
                    "{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)",
                )))
                .unwrap();
            let b = dc
                .submit(SubmitRequest::new(q(
                    "{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)",
                )))
                .unwrap();
            assert_eq!(dc.flush().answered, 2);
            let lonely = dc
                .submit(SubmitRequest::new(q(
                    "{R(Newman, z)} R(Frank, z) <- F(z, Rome)",
                )))
                .unwrap();
            // A checkpoint whose process dies right after the image
            // rename: write the image through the real path, but leave
            // the superseded WAL exactly as the kill would.
            dc.coordinator.with_exclusive(|| {
                let next_id = dc.coordinator.id_watermark();
                let db = dc.coordinator.db();
                let guard = db.read();
                let state = dc.state.lock();
                let payload = encode_checkpoint(
                    &guard,
                    next_id,
                    state.next_seqno,
                    &state.pending,
                    &state.outcomes,
                );
                write_checkpoint(&dc.checkpoint_path, &payload).unwrap();
            });
            assert!(dc.wal_len_bytes() > 0, "pre-checkpoint log must remain");
            (vec![a.id, b.id], lonely.id)
        };

        // Reopen must neither fail (CreateTable replay would hit
        // DuplicateRelation) nor double-apply the checkpointed loads.
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(
            dc.coordinator().db().read().scan("F").unwrap().len(),
            2,
            "checkpointed rows must not be replayed on top of the image"
        );
        for id in answered {
            assert!(
                matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))),
                "{id:?}"
            );
        }
        assert_eq!(dc.pending_ids(), vec![lonely]);
        assert_eq!(
            dc.wal_len_bytes(),
            0,
            "open finishes the interrupted truncation"
        );
        // History keeps accumulating normally afterwards.
        dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
            .unwrap();
        drop(dc);
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(dc.coordinator().db().read().scan("F").unwrap().len(), 3);
        eq_store::purge_dir(&dir);
    }
}
