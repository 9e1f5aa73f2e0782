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
//!   visible to event subscribers (outcomes). **One service call writes
//!   one frame**: all the submissions a `submit_batch` admits on a
//!   shard, all the outcomes one drain retires, one whole `load` — each
//!   is encoded into a reused buffer and committed with a single
//!   `write`, inside the producing critical section, before any handle
//!   is returned and before the *first* of its events is enqueued on
//!   the dispatcher. WAL order therefore equals acknowledgment order;
//! * every WAL record carries a monotonically increasing **sequence
//!   number** (a frame stores its first record's number; record `i` of
//!   the frame has `base + i`), and [`DurableCoordinator::checkpoint`]
//!   writes an atomic whole-state image — string table, database
//!   contents, pending submissions, the outcome ledger, the query-id
//!   watermark, and the sequence-number watermark of the records it
//!   folds in — then truncates the log, so the log normally holds only
//!   the suffix since the last checkpoint. A kill between the image
//!   rename and the truncation (or a truncation that failed) is
//!   harmless: replay skips every frame below the image's watermark,
//!   so nothing is applied twice. `open` never rewrites the log; the
//!   next checkpoint truncates it;
//! * [`DurableCoordinator::open`] rebuilds state as *checkpoint +
//!   log replay*: tables are reloaded, still-pending submissions are
//!   re-admitted in one call under their **original** ids, recorded
//!   outcomes are restored to the ledger, and the id watermark moves
//!   past every id ever assigned. Recovery re-links without
//!   re-judging: an acknowledged query passes no second Figure-9 check,
//!   so a directory written with `admission_safety_check` off reopens
//!   with it on, and matching-time §3.1.1 enforcement sidelines
//!   whatever the pending set holds that is ambiguous.
//!
//! The recovery invariant — property-tested against prefix-truncated
//! logs — is *exactly-once accounting*: after a kill and reopen, every
//! query whose submission was acknowledged is either still pending or
//! carries its exact terminal outcome in
//! [`DurableCoordinator::outcome`]; no acknowledged query is lost and
//! none is duplicated. A batch is acknowledged as a whole and recovers
//! as a whole: its frame survives or it does not.
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
//!                  (0 | 1 len:uv tag-bytes)  policy:u8         -- head, postconditions, body
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
//! The pending mirror and the outcome ledger keep each entry as the
//! *encoded body* above (ids stay valid because the dictionary only
//! grows). The image copies those bytes verbatim;
//! [`DurableCoordinator::outcome`], [`DurableCoordinator::accounting`]
//! and recovery decode on demand.
//!
//! # What is (deliberately) not durable
//!
//! * **Deadlines** — wall-clock instants do not survive a restart; a
//!   recovered query re-enters the pool deadline-free.
//! * **Direct database writes** — mutations through
//!   [`Coordinator::db`] bypass the log; durable applications load
//!   data through [`DurableCoordinator::load`] /
//!   [`DurableCoordinator::create_table`].
//! * **Paged-table placement** — recovery materializes tables
//!   in-memory (page files are per-process spill, not a durability
//!   story); an application wanting out-of-core relations re-attaches
//!   paged backends after `open`.

use crate::engine::{
    EngineConfig, FailReason, NoSolutionPolicy, QueryHandle, QueryOutcome, RejectReason,
};
use crate::error::CoordinationError;
use crate::service::{Coordinator, DurabilitySink, SubmitRequest};
use crate::shard::StagedSubmits;
use eq_db::{Database, DbError, Tuple};
use eq_ir::{
    Atom, CmpOp, Constraint, EntangledQuery, FastMap, QueryId, Symbol, Term, Terms, Value, Var,
};
use eq_store::{read_checkpoint, write_checkpoint, StoreError, WalStats, WriteAheadLog};
use parking_lot::Mutex;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::combine::QueryAnswer;

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

// ---------------------------------------------------------------------
// Byte codec: varints over a plain `Vec<u8>` — no `std::io` (that
// belongs to `eq_store`, per the io-choke-point rule).
// ---------------------------------------------------------------------

fn put_uv(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

fn put_iv(out: &mut Vec<u8>, x: i64) {
    put_uv(out, ((x << 1) ^ (x >> 63)) as u64);
}

/// A record's id, the length of its body, the body.
fn put_entry(out: &mut Vec<u8>, id: QueryId, body: &[u8]) {
    put_uv(out, id.0);
    put_uv(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// A decode cursor. Every getter fails with
/// [`StoreError::Corrupt`] on truncation or a bad tag — reachable only
/// if a frame passed its checksum yet doesn't parse, i.e. a version
/// skew or outside edit, never a torn write.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
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

    fn uv(&mut self) -> Result<u64, StoreError> {
        let mut x = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            x |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Ok(x);
            }
        }
        Err(StoreError::Corrupt("varint overflow"))
    }

    fn iv(&mut self) -> Result<i64, StoreError> {
        let z = self.uv()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        u32::try_from(self.uv()?).map_err(|_| StoreError::Corrupt("32-bit field overflow"))
    }

    /// An element count. Every element takes at least one byte, so a
    /// count beyond the bytes left is corrupt — checked before anything
    /// is allocated for it.
    fn count(&mut self) -> Result<usize, StoreError> {
        self.count_of(1)
    }

    /// A count of elements that each take at least `min_len` bytes: a
    /// count the bytes left cannot hold is corrupt, so what is reserved
    /// for it stays within a constant factor of the record.
    fn count_of(&mut self, min_len: usize) -> Result<usize, StoreError> {
        let n = self.uv()?;
        if n > ((self.buf.len() - self.pos) / min_len) as u64 {
            return Err(StoreError::Corrupt("count exceeds record"));
        }
        Ok(n as usize)
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.count()?;
        self.take(n)
    }

    /// An `id:uv len:uv body` entry.
    fn entry(&mut self) -> Result<(QueryId, &'a [u8]), StoreError> {
        Ok((QueryId(self.uv()?), self.bytes()?))
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(StoreError::Corrupt("trailing bytes"))
        }
    }
}

// ---------------------------------------------------------------------
// The dictionary
// ---------------------------------------------------------------------

/// Symbol ⇄ dense local id, in order of first use by this state
/// directory. Only grows, so bytes encoded against it stay decodable
/// for the life of the process — and, through the image's string table
/// and the frames' definitions, across restarts.
#[derive(Default)]
struct Dict {
    ids: FastMap<Symbol, u32>,
    symbols: Vec<Symbol>,
    /// Entries `..logged` have their text on disk (image or log); the
    /// next committed frame defines the rest.
    logged: usize,
}

impl Dict {
    fn id(&mut self, s: Symbol) -> u32 {
        *self.ids.entry(s).or_insert_with(|| {
            self.symbols.push(s);
            (self.symbols.len() - 1) as u32
        })
    }

    fn symbol(&self, id: u64) -> Result<Symbol, StoreError> {
        usize::try_from(id)
            .ok()
            .and_then(|id| self.symbols.get(id).copied())
            .ok_or(StoreError::Corrupt("undefined symbol id"))
    }

    /// Writes the text of entries `from..` as a `defs` block.
    fn put_defs(&self, out: &mut Vec<u8>, from: usize) {
        put_uv(out, (self.symbols.len() - from) as u64);
        for s in &self.symbols[from..] {
            let text = s.as_str();
            put_uv(out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
    }

    /// Reads a `defs` block, extending the table.
    fn read_defs(&mut self, cur: &mut Cur<'_>) -> Result<(), StoreError> {
        for _ in 0..cur.count()? {
            let text = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| StoreError::Corrupt("non-utf8 symbol"))?;
            let s = Symbol::new(text);
            self.ids.insert(s, self.symbols.len() as u32);
            self.symbols.push(s);
        }
        self.logged = self.symbols.len();
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Encoding and decoding against a dictionary
// ---------------------------------------------------------------------

const TAG_VAR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;

const REC_CREATE_TABLE: u8 = 1;
const REC_LOAD: u8 = 2;
const REC_SUBMIT: u8 = 3;
const REC_OUTCOME: u8 = 4;

struct Enc<'a> {
    out: &'a mut Vec<u8>,
    dict: &'a mut Dict,
}

impl Enc<'_> {
    fn sym(&mut self, s: Symbol) {
        let id = self.dict.id(s);
        put_uv(self.out, u64::from(id));
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Int(x) => {
                self.out.push(TAG_INT);
                put_iv(self.out, x);
            }
            Value::Str(s) => {
                self.out.push(TAG_STR);
                self.sym(s);
            }
        }
    }

    fn term(&mut self, t: Term) {
        match t {
            Term::Var(v) => {
                self.out.push(TAG_VAR);
                put_uv(self.out, u64::from(v.index()));
            }
            Term::Const(v) => self.value(v),
        }
    }

    fn atoms(&mut self, atoms: &[Atom]) {
        put_uv(self.out, atoms.len() as u64);
        for a in atoms {
            self.sym(a.relation);
            put_uv(self.out, a.terms.len() as u64);
            for &t in &a.terms {
                self.term(t);
            }
        }
    }

    fn row(&mut self, row: &[Value]) {
        put_uv(self.out, row.len() as u64);
        for &v in row {
            self.value(v);
        }
    }

    /// A submit body. The query's own `id` field is not written: the
    /// engine assigns it at admission and the entry's id carries it.
    fn submit(
        &mut self,
        q: &EntangledQuery,
        tag: Option<&str>,
        on_no_solution: Option<NoSolutionPolicy>,
    ) {
        self.atoms(&q.head);
        self.atoms(&q.postconditions);
        self.atoms(&q.body);
        put_uv(self.out, q.constraints.len() as u64);
        for c in &q.constraints {
            self.term(c.lhs);
            self.out.push(cmp_op_tag(c.op));
            self.term(c.rhs);
        }
        put_uv(self.out, u64::from(q.choose));
        match tag {
            None => self.out.push(0),
            Some(tag) => {
                self.out.push(1);
                put_uv(self.out, tag.len() as u64);
                self.out.extend_from_slice(tag.as_bytes());
            }
        }
        self.out.push(match on_no_solution {
            None => 0,
            Some(NoSolutionPolicy::Reject) => 1,
            Some(NoSolutionPolicy::KeepPending) => 2,
        });
    }

    fn outcome(&mut self, o: &QueryOutcome) {
        match o {
            QueryOutcome::Answered(answer) => {
                self.out.push(0);
                put_uv(self.out, answer.query.0);
                put_uv(self.out, answer.relations.len() as u64);
                for &r in &answer.relations {
                    self.sym(r);
                }
                put_uv(self.out, answer.tuples.len() as u64);
                for t in &answer.tuples {
                    self.row(t);
                }
            }
            QueryOutcome::Failed(FailReason::Rejected(reason)) => {
                self.out.extend([1, reject_reason_tag(*reason)]);
            }
            QueryOutcome::Failed(FailReason::Stale) => self.out.push(2),
            QueryOutcome::Failed(FailReason::Cancelled) => self.out.push(3),
        }
    }

    /// `table:sym ncols:uv column:sym*` — a create-table record's body
    /// and a table's header in the image.
    fn schema(&mut self, table: Symbol, columns: &[Symbol]) {
        self.sym(table);
        put_uv(self.out, columns.len() as u64);
        for &c in columns {
            self.sym(c);
        }
    }

    fn load(&mut self, table: Symbol, rows: &[Tuple]) {
        self.out.push(REC_LOAD);
        self.sym(table);
        put_uv(self.out, rows.len() as u64);
        for row in rows {
            self.row(row);
        }
    }
}

struct Dec<'a, 'd> {
    cur: Cur<'a>,
    dict: &'d Dict,
}

impl Dec<'_, '_> {
    fn sym(&mut self) -> Result<Symbol, StoreError> {
        self.dict.symbol(self.cur.uv()?)
    }

    fn value_tagged(&mut self, tag: u8) -> Result<Value, StoreError> {
        match tag {
            TAG_INT => Ok(Value::Int(self.cur.iv()?)),
            TAG_STR => Ok(Value::Str(self.sym()?)),
            _ => Err(StoreError::Corrupt("value tag")),
        }
    }

    fn term(&mut self) -> Result<Term, StoreError> {
        match self.cur.u8()? {
            TAG_VAR => Ok(Term::Var(Var(self.cur.u32()?))),
            tag => Ok(Term::Const(self.value_tagged(tag)?)),
        }
    }

    fn atoms(&mut self) -> Result<Vec<Atom>, StoreError> {
        let n = self.cur.count()?;
        let mut atoms = Vec::with_capacity(n);
        for _ in 0..n {
            let relation = self.sym()?;
            let arity = self.cur.count()?;
            let mut terms = Terms::new();
            for _ in 0..arity {
                terms.push(self.term()?);
            }
            atoms.push(Atom { relation, terms });
        }
        Ok(atoms)
    }

    /// Decodes one row into `row`, replacing what it held. A cell
    /// takes a tag byte and at least one value byte.
    fn row_into(&mut self, row: &mut Tuple) -> Result<(), StoreError> {
        let n = self.cur.count_of(2)?;
        row.clear();
        row.reserve(n);
        for _ in 0..n {
            let tag = self.cur.u8()?;
            row.push(self.value_tagged(tag)?);
        }
        Ok(())
    }

    fn schema(&mut self) -> Result<(Symbol, Vec<Symbol>), StoreError> {
        let table = self.sym()?;
        let n = self.cur.count()?;
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            columns.push(self.sym()?);
        }
        Ok((table, columns))
    }
}

/// Decodes one acknowledged, not-yet-terminal submission as the request
/// it was, under its recorded id.
fn decode_submit(id: QueryId, body: &[u8], dict: &Dict) -> Result<SubmitRequest, StoreError> {
    let mut dec = Dec {
        cur: Cur::new(body),
        dict,
    };
    let head = dec.atoms()?;
    let postconditions = dec.atoms()?;
    let atoms = dec.atoms()?;
    let n = dec.cur.count()?;
    let mut constraints = Vec::with_capacity(n);
    for _ in 0..n {
        let lhs = dec.term()?;
        let op = get_cmp_op(&mut dec.cur)?;
        let rhs = dec.term()?;
        constraints.push(Constraint { lhs, op, rhs });
    }
    let choose = dec.cur.u32()?;
    let tag = match dec.cur.u8()? {
        0 => None,
        1 => Some(
            std::str::from_utf8(dec.cur.bytes()?)
                .map_err(|_| StoreError::Corrupt("non-utf8 tag"))?
                .to_owned(),
        ),
        _ => return Err(StoreError::Corrupt("option tag")),
    };
    let on_no_solution = match dec.cur.u8()? {
        0 => None,
        1 => Some(NoSolutionPolicy::Reject),
        2 => Some(NoSolutionPolicy::KeepPending),
        _ => return Err(StoreError::Corrupt("policy tag")),
    };
    dec.cur.finish()?;
    let mut request = SubmitRequest::new(EntangledQuery {
        id,
        head,
        postconditions,
        body: atoms,
        constraints,
        choose,
    });
    request.tag = tag;
    request.on_no_solution = on_no_solution;
    Ok(request)
}

fn decode_outcome(body: &[u8], dict: &Dict) -> Result<QueryOutcome, StoreError> {
    let mut dec = Dec {
        cur: Cur::new(body),
        dict,
    };
    let outcome = match dec.cur.u8()? {
        0 => {
            let query = QueryId(dec.cur.uv()?);
            let n = dec.cur.count()?;
            let mut relations = Vec::with_capacity(n);
            for _ in 0..n {
                relations.push(dec.sym()?);
            }
            let mut tuples = vec![Tuple::new(); dec.cur.count()?];
            for tuple in &mut tuples {
                dec.row_into(tuple)?;
            }
            QueryOutcome::Answered(QueryAnswer {
                query,
                relations,
                tuples,
            })
        }
        1 => QueryOutcome::Failed(FailReason::Rejected(get_reject_reason(&mut dec.cur)?)),
        2 => QueryOutcome::Failed(FailReason::Stale),
        3 => QueryOutcome::Failed(FailReason::Cancelled),
        _ => return Err(StoreError::Corrupt("outcome tag")),
    };
    dec.cur.finish()?;
    Ok(outcome)
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

/// A reject reason's tag inside an outcome body. The tags are part of
/// the on-disk format; 0, 1 and 3 name no reason and are refused.
fn reject_reason_tag(r: RejectReason) -> u8 {
    match r {
        RejectReason::NonUcs => 2,
        RejectReason::NoSolution => 4,
    }
}

fn get_reject_reason(cur: &mut Cur<'_>) -> Result<RejectReason, StoreError> {
    match cur.u8()? {
        2 => Ok(RejectReason::NonUcs),
        4 => Ok(RejectReason::NoSolution),
        _ => Err(StoreError::Corrupt("reject-reason tag")),
    }
}

// ---------------------------------------------------------------------
// Checkpoint image
// ---------------------------------------------------------------------

const CHECKPOINT_VERSION: u64 = 3;

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
fn encode_image(
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
    for name in names {
        let table = db.table(name).expect("a listed table");
        let schema = table.schema();
        enc.schema(schema.name, &schema.columns);
        put_uv(enc.out, table.len() as u64);
        table.for_each_row(&mut |row| enc.row(row));
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

// ---------------------------------------------------------------------
// Recovery: image + log suffix
// ---------------------------------------------------------------------

/// The state an image and the frames after it add up to.
#[derive(Default)]
struct Recovered {
    db: Database,
    dict: Dict,
    pending: FastMap<QueryId, Box<[u8]>>,
    outcomes: FastMap<QueryId, Box<[u8]>>,
    next_query_id: u64,
    /// Sequence number of the next record: the image's watermark, then
    /// one past the last replayed record.
    next_seqno: u64,
}

impl Recovered {
    /// Loads a checkpoint image into an empty state: each table's rows
    /// move straight into its slab ([`load_rows`]), never held as a
    /// list of rows; the mirrors keep their entries' bytes verbatim.
    fn apply_image(&mut self, image: &[u8]) -> Result<(), DurableError> {
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
            load_rows(&mut self.db, &mut dec, table)?;
        }
        for _ in 0..dec.cur.count()? {
            let (id, body) = dec.cur.entry()?;
            self.pending.insert(id, body.into());
        }
        for _ in 0..dec.cur.count()? {
            let (id, body) = dec.cur.entry()?;
            decode_outcome(body, &self.dict)?;
            self.outcomes.insert(id, body.into());
        }
        dec.cur.finish()?;
        Ok(())
    }

    /// Replays one frame. A frame below the image's watermark was
    /// folded into the image — records and definitions both — and is
    /// skipped; the checkpoint is a consistent cut taken between
    /// frames, so a frame is never half stale.
    fn apply_frame(&mut self, payload: &[u8]) -> Result<(), DurableError> {
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
                    decode_outcome(body, &self.dict)?;
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

/// Decodes a row count and that many rows of `table` straight into its
/// slab, through one reused row buffer: recovery never holds a table as
/// a list of rows. A row takes at least 1 + 2 × arity bytes (its cell
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

// ---------------------------------------------------------------------
// The sink and its shared state
// ---------------------------------------------------------------------

/// Shared durable bookkeeping: the open WAL, the dictionary, and the
/// in-memory mirror of what the log (together with the last
/// checkpoint) proves — which acknowledged submissions are still
/// pending and which outcomes have been recorded, each as its encoded
/// body. Innermost lock: always acquired after (never around) the
/// service shard locks and the database lock. It is also the sink's
/// only lock: the service holds its sink unlocked, and every shard
/// records through this one.
struct DurableState {
    wal: WriteAheadLog,
    /// Sequence number the next committed record will carry. Commits
    /// run under this lock, so numbers are strictly increasing in
    /// acknowledgment order and never reused — checkpoints record the
    /// watermark of what they fold in.
    next_seqno: u64,
    dict: Dict,
    /// The frame payload being assembled, and the records going into
    /// it; both reused from commit to commit.
    frame: Vec<u8>,
    records: Vec<u8>,
    pending: FastMap<QueryId, Box<[u8]>>,
    outcomes: FastMap<QueryId, Box<[u8]>>,
}

/// Lays out a frame payload: `records`, behind the sequence number of
/// the first and the definition of every symbol not yet on disk.
fn put_frame(frame: &mut Vec<u8>, base_seqno: u64, dict: &Dict, records: &[u8]) {
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
    fn write_image(
        &mut self,
        path: &Path,
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
        write_checkpoint(path, &image)?;
        self.dict.logged = self.dict.symbols.len();
        Ok(())
    }
}

struct WalSink {
    state: Arc<Mutex<DurableState>>,
}

impl DurabilitySink for WalSink {
    fn stage_submit(
        &self,
        staged: &mut StagedSubmits,
        query: &EntangledQuery,
        tag: Option<&str>,
        on_no_solution: Option<NoSolutionPolicy>,
    ) {
        let mut state = self.state.lock();
        Enc {
            out: &mut staged.bytes,
            dict: &mut state.dict,
        }
        .submit(query, tag, on_no_solution);
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
    /// reads the checkpoint if one exists, replays the WAL frames at or
    /// above its watermark over it, re-admits every still-pending
    /// acknowledged submission under its original id, and restores the
    /// recorded-outcome ledger and the query-id watermark. Reads the
    /// log, never rewrites it (beyond cutting a torn tail off).
    pub fn open(dir: &Path, config: EngineConfig) -> Result<DurableCoordinator, DurableError> {
        let checkpoint_path = dir.join(CHECKPOINT_FILE);
        let mut recovered = Recovered::default();
        if let Some(image) = read_checkpoint(&checkpoint_path)? {
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

        let mut replay = Vec::with_capacity(pending.len());
        for (id, body) in ascending(&pending) {
            replay.push(decode_submit(id, body, &dict)?);
        }
        let state = Arc::new(Mutex::new(DurableState {
            wal,
            next_seqno,
            dict,
            frame: Vec::new(),
            records: Vec::new(),
            pending,
            outcomes,
        }));
        let sink = WalSink {
            state: Arc::clone(&state),
        };
        let coordinator = Coordinator::with_sink(db, config, Some(Box::new(sink)));

        // Re-admit the pending set in one call, ascending id, each under
        // its recorded id: re-linked without re-judging (module docs).
        // Outcomes of recovery-time coordination (incremental mode) are
        // new history, recorded after every submission they depend on.
        coordinator.recover(replay)?;
        coordinator.set_id_watermark(next_query_id);

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
            let columns: Vec<Symbol> = columns.iter().map(|&c| Symbol::new(c)).collect();
            let mut state = self.state.lock();
            let mut record = vec![REC_CREATE_TABLE];
            Enc {
                out: &mut record,
                dict: &mut state.dict,
            }
            .schema(Symbol::new(name), &columns);
            state.commit(&record, 1);
            Ok(())
        })
    }

    /// Bulk-loads rows, durably (see [`Coordinator::load`]; the rows
    /// are WAL-logged once the insert succeeds, before it is
    /// acknowledged and before the database lock is released).
    pub fn load(&self, table: &str, rows: Vec<Tuple>) -> Result<usize, CoordinationError> {
        self.coordinator.load(table, rows)
    }

    /// Submits one query durably, as a batch of one: the WAL holds its
    /// record before the handle is returned.
    pub fn submit(
        &self,
        request: impl Into<SubmitRequest>,
    ) -> Result<QueryHandle, CoordinationError> {
        let mut results = self.submit_batch(vec![request.into()]);
        results.pop().expect("one result per request")
    }

    /// Submits a batch durably (see [`crate::Session::submit_batch`]);
    /// the admitted queries' records — one frame per shard the batch
    /// touches — precede the batch's return.
    pub fn submit_batch(
        &self,
        requests: Vec<SubmitRequest>,
    ) -> Vec<Result<QueryHandle, CoordinationError>> {
        self.coordinator.submit_batch_request(requests)
    }

    /// Runs a coordination round (see [`Coordinator::flush`]); the
    /// terminal outcomes it produces are WAL-recorded, as one frame,
    /// before the first of their events is enqueued.
    pub fn flush(&self) -> crate::BatchReport {
        self.coordinator.flush()
    }

    /// Writes an atomic checkpoint of the whole durable state —
    /// string table, database, pending submissions, outcome ledger, id
    /// watermark — and truncates the WAL it supersedes. Runs with
    /// every service shard locked, so the image is a consistent cut:
    /// no acknowledgment can land between the snapshot and the
    /// truncation. The image records the WAL sequence-number watermark
    /// it folds in, so a kill between the image rename and the
    /// truncation is recovered exactly: replay skips the superseded
    /// frames, and the next checkpoint truncates them.
    pub fn checkpoint(&self) -> Result<(), DurableError> {
        self.coordinator.with_exclusive(|| {
            let next_id = self.coordinator.id_watermark();
            let db = self.coordinator.db();
            let guard = db.read();
            let mut state = self.state.lock();
            state.write_image(&self.checkpoint_path, &guard, next_id)?;
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
        let state = self.state.lock();
        let body = state.outcomes.get(&id)?;
        Some(ledger_outcome(body, &state.dict))
    }

    /// Every acknowledged id and whether it is still pending (`None`)
    /// or terminal (`Some(outcome)`), ascending — the exactly-once
    /// accounting view the recovery invariant is stated over.
    pub fn accounting(&self) -> Vec<(QueryId, Option<QueryOutcome>)> {
        let state = self.state.lock();
        let terminal = state
            .outcomes
            .iter()
            .map(|(&id, body)| (id, Some(ledger_outcome(body, &state.dict))));
        let mut all: Vec<(QueryId, Option<QueryOutcome>)> = state
            .pending
            .keys()
            .map(|&id| (id, None))
            .chain(terminal)
            .collect();
        all.sort_by_key(|(id, _)| id.0);
        all
    }

    /// Bytes of intact frames currently in the WAL (0 right after a
    /// checkpoint). Kill-and-recover harnesses use this to pick
    /// truncation points.
    pub fn wal_len_bytes(&self) -> u64 {
        self.state.lock().wal.len_bytes()
    }

    /// Frames, records and bytes currently in the WAL.
    pub fn wal_stats(&self) -> WalStats {
        self.state.lock().wal.stats()
    }
}

/// Decodes a ledger entry. The ledger holds only bytes this process
/// encoded or validated at `open`.
fn ledger_outcome(body: &[u8], dict: &Dict) -> QueryOutcome {
    decode_outcome(body, dict).expect("ledger entries are validated when they enter")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineMode, QueryStatus};
    use eq_sql::parse_ir_query;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

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

    fn table_rows(dc: &DurableCoordinator, table: &str) -> Vec<Tuple> {
        dc.coordinator().db().read().scan(table).unwrap()
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
                let dc = DurableCoordinator::open(&dir, config.clone()).unwrap();
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
                dc.flush();
                let lonely = dc
                    .submit(
                        SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
                            .tag("lonely"),
                    )
                    .unwrap();
                // A KeepPending pair submitted before its row is loaded:
                // matched, no solution yet. The row lands, and the
                // process dies before anything evaluates again.
                let keep = |text| {
                    let request = SubmitRequest::new(q(text));
                    dc.submit(request.on_no_solution(NoSolutionPolicy::KeepPending))
                        .unwrap()
                        .id
                };
                let kept = vec![
                    keep("{S(Puddy, u)} S(Elaine, u) <- F(u, Oslo)"),
                    keep("{S(Elaine, v)} S(Puddy, v) <- F(v, Oslo)"),
                ];
                dc.flush();
                assert_eq!(dc.pending_ids(), vec![lonely.id, kept[0], kept[1]]);
                dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
                    .unwrap();
                (vec![a.id, b.id], lonely.id, kept)
            };

            let dc = DurableCoordinator::open(&dir, config.clone()).unwrap();
            // One lock for re-admitting the whole pending set and
            // staging what that re-admission retired — not one per query.
            assert_eq!(dc.coordinator().lock_stats().acquisitions, 1);
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
            assert_eq!(dc.pending_ids(), pending);
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
            assert!(fresh.id.0 > kept[1].0);
            // Both pairs coordinate after recovery.
            dc.flush();
            for id in [lonely, fresh.id, kept[0], kept[1]] {
                assert!(answered(dc.outcome(id)), "{mode:?} {id:?}");
            }
            drop(dc);

            // Every outcome landed in the log after its submission
            // record: replayed again, each id is terminal exactly once.
            let dc = DurableCoordinator::open(&dir, config).unwrap();
            let accounting = dc.accounting();
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
            let dc = DurableCoordinator::open(&dir, unchecked).unwrap();
            dc.create_table("T", &["v"]).unwrap();
            ["{} X(a) <- T(a)", "{} X(b) <- T(b)", "{X(v)} Y(v) <- T(v)"]
                .into_iter()
                .map(|text| dc.submit(SubmitRequest::new(q(text))).unwrap().id)
                .collect()
        };
        let checked = config();
        assert!(checked.admission_safety_check);
        let dc = DurableCoordinator::open(&dir, checked).unwrap();
        assert_eq!(dc.pending_ids(), ids);
        let pending: Vec<(QueryId, Option<QueryOutcome>)> =
            ids.iter().map(|&id| (id, None)).collect();
        assert_eq!(dc.accounting(), pending);
        let consumer = ids[2];
        assert_eq!(dc.coordinator().safety_sidelined(), vec![consumer]);
        dc.flush();
        assert_eq!(
            dc.coordinator().status(consumer),
            Some(QueryStatus::Pending)
        );
        assert_eq!(dc.outcome(consumer), None);
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
        assert_eq!(table_rows(&dc, "F").len(), 2, "checkpointed rows restored");
        // Post-checkpoint history keeps accumulating on the fresh WAL.
        dc.load("F", vec![vec![Value::int(200), Value::str("Rome")]])
            .unwrap();
        drop(dc);
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 3);
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

    /// The mirrors hold encoded bytes, not object graphs: this only
    /// compiles while that is so.
    #[test]
    fn mirrors_hold_encoded_bytes() {
        let dir = eq_store::scratch_dir("durable-mirror");
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        seed(&dc);
        let h = dc
            .submit(SubmitRequest::new(q(
                "{R(Newman, z)} R(Frank, z) <- F(z, Rome)",
            )))
            .unwrap();
        let state = dc.state.lock();
        let pending: &FastMap<QueryId, Box<[u8]>> = &state.pending;
        let _ledger: &FastMap<QueryId, Box<[u8]>> = &state.outcomes;
        let body = &pending[&h.id];
        assert!(body.len() < 40, "{} bytes for a two-atom query", body.len());
        let back = decode_submit(h.id, body, &state.dict).unwrap();
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
            // The image lands, the truncation does not happen, and the
            // service keeps acknowledging.
            dc.coordinator.with_exclusive(|| {
                let db = dc.coordinator.db();
                let guard = db.read();
                let next_id = dc.coordinator.id_watermark();
                let mut state = dc.state.lock();
                state
                    .write_image(&dc.checkpoint_path, &guard, next_id)
                    .unwrap();
            });
            let below = dc.wal_stats();
            assert!(below.frames > 0, "the superseded frames must remain");
            // Above the watermark: a load, and a submission whose names
            // (Oslo, Elaine, Puddy) are defined by these frames only.
            dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
                .unwrap();
            let late = dc
                .submit(SubmitRequest::new(q(
                    "{R(Elaine, w)} R(Puddy, w) <- F(w, Oslo)",
                )))
                .unwrap();
            assert_eq!(dc.wal_stats().frames, below.frames + 2);
            (vec![a.id, b.id], vec![lonely.id, late.id])
        };

        let wal_path = dir.join(WAL_FILE);
        let log_before = std::fs::read(&wal_path).unwrap();
        let mut accountings = Vec::new();
        for _ in 0..2 {
            // Reopen must neither fail (replaying the create-table would
            // hit a duplicate relation) nor double-apply the folded load.
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            assert_eq!(table_rows(&dc, "F").len(), 3, "2 in the image + 1 above it");
            assert_eq!(dc.pending_ids(), pending);
            for &id in &answered {
                assert!(matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))));
            }
            accountings.push(dc.accounting());
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
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        dc.load("F", vec![vec![Value::int(300), Value::str("Rome")]])
            .unwrap();
        drop(dc);
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 4);
        dc.checkpoint().unwrap();
        assert_eq!(dc.wal_len_bytes(), 0);
        drop(dc);
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 4);
        assert_eq!(dc.accounting(), accountings[0]);
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
            let dc = DurableCoordinator::open(&dir, config()).unwrap();
            dc.create_table("F", &["fno", "dest"]).unwrap();
            dc.load("F", first.clone()).unwrap();
            dc.checkpoint().unwrap();
            dc.load("F", second.clone()).unwrap();
        } // killed
        let dc = DurableCoordinator::open(&dir, config()).unwrap();
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
            DurableCoordinator::open(&dir, config()),
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
        .submit(query, tag, Some(NoSolutionPolicy::KeepPending));
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
        let back = decode_submit(QueryId(3), &recovered.pending[&QueryId(3)], &recovered.dict);
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
                let back = decode_submit(id, &recovered.pending[&id], &recovered.dict);
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
}
