//! The byte grammar of the module docs: varints over a plain `Vec<u8>`
//! — no `std::io` (that belongs to `eq_store`, per the io-choke-point
//! rule) — the symbol dictionary, and the encoders and decoders of
//! rows, tables, submissions and outcomes against it.

use super::DurableError;
use crate::combine::QueryAnswer;
use crate::engine::{FailReason, NoSolutionPolicy, QueryOutcome, RejectReason};
use crate::service::SubmitRequest;
use eq_db::{Database, RowStore, Tuple};
use eq_ir::{Atom, CmpOp, Constraint, EntangledQuery, QueryId, Symbol, Term, Terms, Value, Var};
use eq_store::StoreError;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub(super) fn put_uv(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push(x as u8 | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

pub(super) fn put_iv(out: &mut Vec<u8>, x: i64) {
    put_uv(out, ((x << 1) ^ (x >> 63)) as u64);
}

/// A record's id, the length of its body, the body.
pub(super) fn put_entry(out: &mut Vec<u8>, id: QueryId, body: &[u8]) {
    put_uv(out, id.0);
    put_uv(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// A decode cursor. Every getter fails with
/// [`StoreError::Corrupt`] on truncation or a bad tag — reachable only
/// if a frame passed its checksum yet doesn't parse, i.e. a version
/// skew or outside edit, never a torn write.
pub(super) struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    pub(super) fn is_empty(&self) -> bool {
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

    pub(super) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(super) fn uv(&mut self) -> Result<u64, StoreError> {
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

    pub(super) fn iv(&mut self) -> Result<i64, StoreError> {
        let z = self.uv()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        u32::try_from(self.uv()?).map_err(|_| StoreError::Corrupt("32-bit field overflow"))
    }

    /// An element count. Every element takes at least one byte, so a
    /// count beyond the bytes left is corrupt — checked before anything
    /// is allocated for it.
    pub(super) fn count(&mut self) -> Result<usize, StoreError> {
        self.count_of(1)
    }

    /// A count of elements that each take at least `min_len` bytes: a
    /// count the bytes left cannot hold is corrupt, so what is reserved
    /// for it stays within a constant factor of the record.
    pub(super) fn count_of(&mut self, min_len: usize) -> Result<usize, StoreError> {
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
    pub(super) fn entry(&mut self) -> Result<(QueryId, &'a [u8]), StoreError> {
        Ok((QueryId(self.uv()?), self.bytes()?))
    }

    pub(super) fn finish(self) -> Result<(), StoreError> {
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

/// An interned symbol with no local id yet.
const NO_ID: u32 = u32::MAX;

/// Symbol ⇄ dense local id, in order of first use by this state
/// directory. Only grows, so bytes encoded against it stay decodable
/// for the life of the process — and, through the image's string table
/// and the frames' definitions, across restarts.
#[derive(Default)]
pub(super) struct Dict {
    /// Local id by [`Symbol::index`], [`NO_ID`] for a symbol this
    /// directory has not used: an encoder's lookup is an array read,
    /// never a hash probe. Grows to the highest interner index used.
    ids: Vec<u32>,
    pub(super) symbols: Vec<Symbol>,
    /// Entries `..logged` have their text on disk (image or log); the
    /// next committed frame defines the rest.
    pub(super) logged: usize,
}

impl Dict {
    pub(super) fn id(&mut self, s: Symbol) -> u32 {
        match self.ids.get(s.index() as usize) {
            Some(&id) if id != NO_ID => id,
            _ => self.define(s),
        }
    }

    /// Gives `s` the next local id.
    fn define(&mut self, s: Symbol) -> u32 {
        let (at, id) = (s.index() as usize, self.symbols.len() as u32);
        if at >= self.ids.len() {
            self.ids.resize(at + 1, NO_ID);
        }
        self.ids[at] = id;
        self.symbols.push(s);
        id
    }

    pub(super) fn symbol(&self, id: u64) -> Result<Symbol, StoreError> {
        usize::try_from(id)
            .ok()
            .and_then(|id| self.symbols.get(id).copied())
            .ok_or(StoreError::Corrupt("undefined symbol id"))
    }

    /// Writes the text of entries `from..` as a `defs` block.
    pub(super) fn put_defs(&self, out: &mut Vec<u8>, from: usize) {
        put_uv(out, (self.symbols.len() - from) as u64);
        for s in &self.symbols[from..] {
            let text = s.as_str();
            put_uv(out, text.len() as u64);
            out.extend_from_slice(text.as_bytes());
        }
    }

    /// Reads a `defs` block, extending the table.
    pub(super) fn read_defs(&mut self, cur: &mut Cur<'_>) -> Result<(), StoreError> {
        for _ in 0..cur.count()? {
            let text = std::str::from_utf8(cur.bytes()?)
                .map_err(|_| StoreError::Corrupt("non-utf8 symbol"))?;
            self.define(Symbol::new(text));
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

/// The submit body's policy-byte flag of a dated query: its deadline
/// follows the byte. A reader that predates it refuses the body as
/// corrupt (an unknown policy tag), never reads it as undated.
const DATED: u8 = 0x80;

pub(super) const REC_CREATE_TABLE: u8 = 1;
pub(super) const REC_LOAD: u8 = 2;
pub(super) const REC_SUBMIT: u8 = 3;
pub(super) const REC_OUTCOME: u8 = 4;

/// One reading of both clocks, to carry a deadline across a restart:
/// in the process it is an [`Instant`], on disk milliseconds since the
/// UNIX epoch. A durable coordinator reads both clocks once, when it is
/// opened, and maps every deadline through that reading, so a deadline
/// keeps its distance from the monotonic clock it was set on.
#[derive(Clone, Copy)]
pub(super) struct WallClock {
    at: Instant,
    unix_ms: u64,
}

impl WallClock {
    pub(super) fn now() -> Self {
        let since_epoch = SystemTime::now().duration_since(UNIX_EPOCH);
        WallClock {
            at: Instant::now(),
            unix_ms: since_epoch.map_or(0, millis),
        }
    }

    /// `deadline` in milliseconds since the UNIX epoch (saturating: a
    /// caller may set any deadline an [`Instant`] holds).
    pub(super) fn unix_ms(self, deadline: Instant) -> u64 {
        match deadline.checked_duration_since(self.at) {
            Some(ahead) => self.unix_ms.saturating_add(millis(ahead)),
            None => self.unix_ms.saturating_sub(millis(self.at - deadline)),
        }
    }

    /// The instant of `unix_ms`. One already past is this reading, so
    /// the first deadline sweep expires it; one too far ahead for an
    /// [`Instant`] never expires, like an unrepresentable staleness
    /// bound.
    pub(super) fn instant(self, unix_ms: u64) -> Option<Instant> {
        let ahead = Duration::from_millis(unix_ms.saturating_sub(self.unix_ms));
        self.at.checked_add(ahead)
    }
}

/// Whole milliseconds of `d`, saturating.
fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

pub(super) struct Enc<'a> {
    pub(super) out: &'a mut Vec<u8>,
    pub(super) dict: &'a mut Dict,
}

impl Enc<'_> {
    pub(super) fn sym(&mut self, s: Symbol) {
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

    pub(super) fn row(&mut self, row: &[Value]) {
        put_uv(self.out, row.len() as u64);
        for &v in row {
            self.value(v);
        }
    }

    /// A submit body. The query's own `id` field is not written: the
    /// engine assigns it at admission and the entry's id carries it. A
    /// deadline, in ms since the UNIX epoch, sets the policy byte's
    /// [`DATED`] bit and follows it; an undated body has neither.
    pub(super) fn submit(
        &mut self,
        q: &EntangledQuery,
        tag: Option<&str>,
        on_no_solution: Option<NoSolutionPolicy>,
        deadline_ms: Option<u64>,
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
        let policy = match on_no_solution {
            None => 0,
            Some(NoSolutionPolicy::Reject) => 1,
            Some(NoSolutionPolicy::KeepPending) => 2,
        };
        match deadline_ms {
            None => self.out.push(policy),
            Some(ms) => {
                self.out.push(policy | DATED);
                put_uv(self.out, ms);
            }
        }
    }

    pub(super) fn outcome(&mut self, o: &QueryOutcome) {
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
    pub(super) fn schema(&mut self, table: Symbol, columns: &[Symbol]) {
        self.sym(table);
        put_uv(self.out, columns.len() as u64);
        for &c in columns {
            self.sym(c);
        }
    }

    /// A table section of the image: its schema, its live row count,
    /// its live value dictionary in code order, then every live row's
    /// codes in row-id order, each renumbered to its value's place in
    /// that dictionary through `remap` (reused from table to table): a
    /// freed code is skipped, so the section holds live state only.
    pub(super) fn table(&mut self, table: &dyn RowStore, remap: &mut Vec<u32>) {
        let schema = table.schema();
        self.schema(schema.name, &schema.columns);
        put_uv(self.out, table.len() as u64);
        let index = table.index();
        let mut live = 0u32;
        remap.clear();
        remap.extend(index.dictionary().map(|value| match value {
            Some(_) => {
                live += 1;
                live - 1
            }
            None => u32::MAX,
        }));
        put_uv(self.out, u64::from(live));
        for value in index.dictionary().flatten() {
            self.value(value);
        }
        let out = &mut *self.out;
        table.for_each_row_codes(&mut |codes| {
            for &code in codes {
                put_uv(out, u64::from(remap[code as usize]));
            }
        });
    }

    pub(super) fn load(&mut self, table: Symbol, rows: &[Tuple]) {
        self.out.push(REC_LOAD);
        self.sym(table);
        put_uv(self.out, rows.len() as u64);
        for row in rows {
            self.row(row);
        }
    }
}

pub(super) struct Dec<'a, 'd> {
    pub(super) cur: Cur<'a>,
    pub(super) dict: &'d Dict,
}

impl Dec<'_, '_> {
    pub(super) fn sym(&mut self) -> Result<Symbol, StoreError> {
        self.dict.symbol(self.cur.uv()?)
    }

    fn value_tagged(&mut self, tag: u8) -> Result<Value, StoreError> {
        match tag {
            TAG_INT => Ok(Value::Int(self.cur.iv()?)),
            TAG_STR => Ok(Value::Str(self.sym()?)),
            _ => Err(StoreError::Corrupt("value tag")),
        }
    }

    /// A tagged value: a row's cell, or an entry of a table's
    /// dictionary in the image.
    pub(super) fn value(&mut self) -> Result<Value, StoreError> {
        let tag = self.cur.u8()?;
        self.value_tagged(tag)
    }

    /// A row's cell count. A cell takes a tag byte and at least one
    /// value byte.
    fn row_len(&mut self) -> Result<usize, StoreError> {
        self.cur.count_of(2)
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

    /// Decodes one row into `row`, replacing what it held.
    pub(super) fn row_into(&mut self, row: &mut Tuple) -> Result<(), StoreError> {
        let n = self.row_len()?;
        row.clear();
        row.reserve(n);
        for _ in 0..n {
            row.push(self.value()?);
        }
        Ok(())
    }

    /// Reads the rest of a table section ([`Enc::table`]) into `table`,
    /// just created with `arity` columns: the live row count, the value
    /// dictionary, then the codes. Each value is looked up in the
    /// table's dictionary once, which gives the remap from image codes
    /// to the table's; each image code then goes through it straight
    /// into the slab ([`Database::bulk_load_coded`]). A code takes at
    /// least one byte, so a row count the bytes left cannot hold is
    /// refused before the slab is reserved for it, and a code at or past
    /// the dictionary's length is refused before it reaches the table.
    pub(super) fn table_into(
        &mut self,
        db: &mut Database,
        table: Symbol,
        arity: usize,
    ) -> Result<(), DurableError> {
        let rows = if arity == 0 {
            // A nullary row takes no bytes: its count is bounded by the
            // row ids a table has instead.
            let rows = self.cur.uv()?;
            usize::try_from(rows)
                .ok()
                .filter(|&rows| rows <= u32::MAX as usize)
                .ok_or(StoreError::Corrupt("row count"))?
        } else {
            self.cur.count_of(arity)?
        };
        // A value takes a tag byte and at least one value byte.
        let values = self.cur.count_of(2)?;
        db.bulk_load_coded(table.as_str(), rows, |load| {
            for _ in 0..values {
                load.value(self.value()?);
            }
            let mut row = vec![0; arity];
            for _ in 0..rows {
                for cell in &mut row {
                    let code = self.cur.uv()?;
                    *cell = usize::try_from(code)
                        .ok()
                        .and_then(|code| load.codes().get(code))
                        .copied()
                        .ok_or(StoreError::Corrupt("table code"))?;
                }
                load.push(&row)?;
            }
            Ok::<(), DurableError>(())
        })?;
        Ok(())
    }

    pub(super) fn schema(&mut self) -> Result<(Symbol, Vec<Symbol>), StoreError> {
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
/// it was, under its recorded id, its deadline mapped onto `clock`.
pub(super) fn decode_submit(
    id: QueryId,
    body: &[u8],
    dict: &Dict,
    clock: WallClock,
) -> Result<SubmitRequest, StoreError> {
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
    let policy = dec.cur.u8()?;
    let on_no_solution = match policy & !DATED {
        0 => None,
        1 => Some(NoSolutionPolicy::Reject),
        2 => Some(NoSolutionPolicy::KeepPending),
        _ => return Err(StoreError::Corrupt("policy tag")),
    };
    let deadline = if policy & DATED != 0 {
        clock.instant(dec.cur.uv()?)
    } else {
        None
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
    request.deadline = deadline;
    Ok(request)
}

/// Decodes a terminal outcome body.
pub(super) fn decode_outcome(body: &[u8], dict: &Dict) -> Result<QueryOutcome, StoreError> {
    let mut answer = QueryAnswer {
        query: QueryId(0),
        relations: Vec::new(),
        tuples: Vec::new(),
    };
    Ok(match read_outcome(body, dict, Some(&mut answer))? {
        None => QueryOutcome::Answered(answer),
        Some(reason) => QueryOutcome::Failed(reason),
    })
}

/// Checks that `body` decodes as an outcome, building nothing: replay
/// validates every outcome it puts in the ledger this way, and
/// allocates nothing for it.
pub(super) fn validate_outcome(body: &[u8], dict: &Dict) -> Result<(), StoreError> {
    read_outcome(body, dict, None).map(drop)
}

/// Reads an outcome body: the one reader of its grammar, shared by
/// [`decode_outcome`] and [`validate_outcome`]. An answered body fills
/// `answer` when one is given, and is only walked when not; a failed
/// one returns its reason.
fn read_outcome(
    body: &[u8],
    dict: &Dict,
    mut answer: Option<&mut QueryAnswer>,
) -> Result<Option<FailReason>, StoreError> {
    let mut dec = Dec {
        cur: Cur::new(body),
        dict,
    };
    let failed = match dec.cur.u8()? {
        0 => {
            let query = QueryId(dec.cur.uv()?);
            let n = dec.cur.count()?;
            // Exact sizes: a decoded answer lives as long as its caller
            // keeps it, and `reserve` would round one tuple up to four.
            if let Some(answer) = answer.as_deref_mut() {
                answer.query = query;
                answer.relations.reserve_exact(n);
            }
            for _ in 0..n {
                let relation = dec.sym()?;
                if let Some(answer) = answer.as_deref_mut() {
                    answer.relations.push(relation);
                }
            }
            let n = dec.cur.count()?;
            if let Some(answer) = answer.as_deref_mut() {
                answer.tuples.reserve_exact(n);
            }
            for _ in 0..n {
                match answer.as_deref_mut() {
                    Some(answer) => {
                        let mut tuple = Tuple::new();
                        dec.row_into(&mut tuple)?;
                        answer.tuples.push(tuple);
                    }
                    None => {
                        for _ in 0..dec.row_len()? {
                            dec.value()?;
                        }
                    }
                }
            }
            None
        }
        1 => Some(FailReason::Rejected(get_reject_reason(&mut dec.cur)?)),
        2 => Some(FailReason::Stale),
        3 => Some(FailReason::Cancelled),
        _ => return Err(StoreError::Corrupt("outcome tag")),
    };
    dec.cur.finish()?;
    Ok(failed)
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
