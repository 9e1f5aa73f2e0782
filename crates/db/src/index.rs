//! [`PostingIndex`]: the value dictionary and per-column posting
//! arenas of one relation, shared by both [`RowStore`] backends — the
//! in-memory [`Table`] and `eq_store`'s paged table.
//!
//! **The dictionary.** Every value a live cell holds has a dense `u32`
//! code, so a backend stores its rows as codes (the in-memory slab) or
//! as codes behind a tag (a page's string cells), and each distinct
//! value is stored once per table. It tracks live values, not history:
//! each code counts the live cells holding it, and a code whose last
//! live cell is deleted leaves the dictionary and is handed to the next
//! new value. The value → code map is an open-addressing table of codes
//! (linear probing, at most three quarters full), 4 bytes a slot: a
//! `FastMap<Value, u32>` would keep a second copy of every 16-byte
//! value beside its code, which measured 34 bytes more per distinct
//! value in `crates/core/tests/table_footprint.rs`'s 20,000-value
//! load.
//!
//! **The arenas.** Column `col`'s posting lists sit in one `Vec<u32>`
//! of row ids; code `c`'s list is the span `(start, len, cap)` at
//! `spans[c]`, ascending. A push appends in place while the span has
//! room; a full span moves to the arena's end with twice its capacity,
//! leaving its old place as garbage, and the arena packs itself once
//! its garbage exceeds its live ids. A delete takes the id out of its
//! span by binary search.
//!
//! **Bulk loads** push no posting: the backend keeps the loaded rows'
//! codes (the slab itself, for the in-memory table) and hands them to
//! [`PostingIndex::finish_load`] at the load's end. A load larger than
//! the table it joins lays every column's lists out afresh — the old
//! lists first, then the loaded ids, counted and placed per column — in
//! one exactly sized arena, so a loaded table holds exactly
//! `rows × arity` ids; a smaller one is filed row by row, as single
//! inserts are. Either way a load costs in proportion to its own rows,
//! not the table's, so many small loads stay linear.
//!
//! **Coded loads.** A checkpoint image stores a table as this layout:
//! its live values in code order ([`PostingIndex::dictionary`]), then
//! its rows' codes. Loading it back looks each value up once
//! ([`PostingIndex::encode`], which also holds the code for the load)
//! and pushes every row's codes as they are, counting each cell with
//! [`PostingIndex::hold`] instead of a lookup; the load then releases
//! its holds ([`PostingIndex::release`]) and files the rows as above.
//!
//! [`RowStore`]: crate::RowStore
//! [`Table`]: crate::Table

use eq_ir::hash::FxHasher;
use eq_ir::Value;
use std::hash::{BuildHasher, BuildHasherDefault};

/// An empty dictionary slot.
const EMPTY: u32 = u32::MAX;

/// Value ↔ code for one relation, counting each code's live cells.
#[derive(Clone, Debug, Default)]
struct Dictionary {
    /// `values[code]`: the value a code stands for. A freed code keeps
    /// its last value until it is reused.
    values: Vec<Value>,
    /// `cells[code]`: live cells holding the code; 0 for a freed code.
    cells: Vec<u32>,
    /// Freed codes, reused before a new one is minted.
    free: Vec<u32>,
    /// The live codes by value hash; empty or a power of two long.
    slots: Vec<u32>,
}

impl Dictionary {
    fn live(&self) -> usize {
        self.values.len() - self.free.len()
    }

    /// Where `value`'s probe sequence starts. A multiplicative hash
    /// mixes into its high bits, so those pick the slot.
    fn home(&self, value: Value) -> usize {
        let hash = BuildHasherDefault::<FxHasher>::default().hash_one(value);
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `value`'s code, or the empty slot it would take.
    fn probe(&self, value: Value) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(value);
        loop {
            match self.slots[at] {
                EMPTY => return (at, None),
                code if self.values[code as usize] == value => return (at, Some(code)),
                _ => at = (at + 1) & mask,
            }
        }
    }

    fn code(&self, value: Value) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(value).1
    }

    /// `value`'s code, minted on first sight, with one more live cell.
    fn acquire(&mut self, value: Value) -> u32 {
        if (self.live() + 1) * 4 > self.slots.len() * 3 {
            self.rehash((self.slots.len() * 2).max(8));
        }
        let code = match self.probe(value) {
            (_, Some(code)) => code,
            (at, None) => {
                let code = match self.free.pop() {
                    Some(code) => {
                        self.values[code as usize] = value;
                        code
                    }
                    None => {
                        let code = u32::try_from(self.values.len())
                            .ok()
                            .filter(|&code| code != EMPTY)
                            .expect("too many distinct values");
                        self.values.push(value);
                        self.cells.push(0);
                        code
                    }
                };
                self.slots[at] = code;
                code
            }
        };
        self.cells[code as usize] += 1;
        code
    }

    /// One live cell fewer for `code`; its last one frees it. The hole
    /// it leaves is filled by backward shifting, so probes need no
    /// tombstones.
    fn release(&mut self, code: u32) {
        let cells = &mut self.cells[code as usize];
        *cells -= 1;
        if *cells > 0 {
            return;
        }
        let mask = self.slots.len() - 1;
        let (mut hole, _) = self.probe(self.values[code as usize]);
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let next = self.slots[at];
            if next == EMPTY {
                break;
            }
            // `next` may move back into the hole unless its home lies
            // cyclically after the hole.
            let home = self.home(self.values[next as usize]);
            if at.wrapping_sub(home) & mask >= at.wrapping_sub(hole) & mask {
                self.slots[hole] = next;
                hole = at;
            }
        }
        self.slots[hole] = EMPTY;
        self.free.push(code);
    }

    /// Rebuilds the slot table at `slots` slots.
    fn rehash(&mut self, slots: usize) {
        self.slots = vec![EMPTY; slots];
        for (code, &cells) in self.cells.iter().enumerate() {
            if cells > 0 {
                let (at, _) = self.probe(self.values[code]);
                self.slots[at] = code as u32;
            }
        }
    }

    /// Trims every vector to its length and the slot table to the
    /// smallest that holds the live codes.
    fn shrink(&mut self) {
        self.values.shrink_to_fit();
        self.cells.shrink_to_fit();
        self.free.shrink_to_fit();
        let slots = (self.live() * 4).div_ceil(3).next_power_of_two().max(8);
        if slots < self.slots.len() {
            self.rehash(slots);
        }
    }
}

/// One code's posting list: `ids[start..start + len]`, room for `cap`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One column's posting lists in one vector of row ids.
#[derive(Clone, Debug, Default)]
struct Arena {
    ids: Vec<u32>,
    /// By code; codes past its end have empty lists.
    spans: Vec<Span>,
    /// Ids in `ids` that belong to no span: left behind by moved spans.
    garbage: usize,
    /// Ids in the lists.
    live: usize,
}

impl Arena {
    fn list(&self, code: u32) -> &[u32] {
        self.spans
            .get(code as usize)
            .map_or(&[], |&span| &self.ids[span.range()])
    }

    /// Appends `id`, which is above every id in `code`'s list.
    fn push(&mut self, code: u32, id: u32) {
        let code = code as usize;
        if code >= self.spans.len() {
            self.spans.resize(code + 1, Span::default());
        }
        let span = &mut self.spans[code];
        if span.len == span.cap {
            let end = u32::try_from(self.ids.len()).expect("posting arena too large");
            if span.start + span.cap == end {
                // The arena's last span grows in place.
                self.ids.push(0);
                span.cap += 1;
            } else {
                let cap = (span.cap * 2).max(1);
                self.ids.extend_from_within(span.range());
                self.ids.resize((end + cap) as usize, 0);
                self.garbage += span.cap as usize;
                *span = Span {
                    start: end,
                    len: span.len,
                    cap,
                };
            }
        }
        self.ids[(span.start + span.len) as usize] = id;
        span.len += 1;
        self.live += 1;
        if self.garbage > self.live {
            self.pack(self.spans.len(), &[], 0, 1, 0);
        }
    }

    /// Takes `id` out of `code`'s list.
    fn remove(&mut self, code: u32, id: u32) {
        let Some(span) = self.spans.get_mut(code as usize) else {
            return;
        };
        let (start, end) = (span.start as usize, (span.start + span.len) as usize);
        if let Ok(at) = self.ids[start..end].binary_search(&id) {
            self.ids.copy_within(start + at + 1..end, start + at);
            span.len -= 1;
            self.live -= 1;
        }
    }

    /// Lays the lists out afresh in an exactly sized vector: `codes`
    /// spans, each list followed by the ids of the `pending` rows (codes
    /// at `arity` stride, ids from `first`) holding its code in column
    /// `col`.
    fn pack(&mut self, codes: usize, pending: &[u32], col: usize, arity: usize, first: u32) {
        self.spans.resize(codes, Span::default());
        self.spans.shrink_to_fit();
        for span in &mut self.spans {
            span.cap = span.len;
        }
        for row in pending.chunks_exact(arity) {
            self.spans[row[col] as usize].cap += 1;
        }
        let total = self.spans.iter().map(|span| span.cap as usize).sum();
        let mut ids = Vec::with_capacity(total);
        for span in &mut self.spans {
            let start = ids.len();
            ids.extend_from_slice(&self.ids[span.range()]);
            ids.resize(start + span.cap as usize, 0);
            span.start = start as u32;
        }
        for (id, row) in (first..).zip(pending.chunks_exact(arity)) {
            let span = &mut self.spans[row[col] as usize];
            ids[(span.start + span.len) as usize] = id;
            span.len += 1;
        }
        self.live = ids.len();
        self.ids = ids;
        self.garbage = 0;
    }
}

/// The dictionary and posting arenas of one relation (see the module
/// docs). Row ids are the backend's; the index only files them.
#[derive(Clone, Debug)]
pub struct PostingIndex {
    dictionary: Dictionary,
    columns: Vec<Arena>,
}

impl PostingIndex {
    /// An empty index for a relation of `arity` columns.
    pub fn new(arity: usize) -> Self {
        PostingIndex {
            dictionary: Dictionary::default(),
            columns: vec![Arena::default(); arity],
        }
    }

    /// The code of `value`, minted on first sight, counting one more
    /// live cell that holds it. Every cell a backend stores is encoded
    /// exactly once.
    pub fn encode(&mut self, value: Value) -> u32 {
        self.dictionary.acquire(value)
    }

    /// The value a live code stands for.
    pub fn value(&self, code: u32) -> Value {
        self.dictionary.values[code as usize]
    }

    /// The code of `value`, if a live cell holds it.
    pub fn code(&self, value: Value) -> Option<u32> {
        self.dictionary.code(value)
    }

    /// The dictionary in code order: for every code handed out so far,
    /// its value while a live cell holds it, `None` once it is freed.
    /// The view a checkpoint writes a table's dictionary from.
    pub fn dictionary(&self) -> impl Iterator<Item = Option<Value>> + '_ {
        let dictionary = &self.dictionary;
        (dictionary.values.iter().zip(&dictionary.cells))
            .map(|(&value, &cells)| (cells > 0).then_some(value))
    }

    /// One more live cell holding `code`, which a live cell (or a
    /// coded load's hold, [`PostingIndex::encode`]) already holds: a
    /// coded cell is counted without its value being looked up. Panics
    /// on a freed code.
    pub fn hold(&mut self, code: u32) {
        let cells = &mut self.dictionary.cells[code as usize];
        assert!(*cells > 0, "code {code} is not live");
        *cells += 1;
    }

    /// One live cell fewer holding `code`; its last one frees it.
    pub fn release(&mut self, code: u32) {
        self.dictionary.release(code);
    }

    /// The live row ids whose column `col` holds `value`, ascending.
    pub fn postings(&self, col: usize, value: Value) -> &[u32] {
        match self.dictionary.code(value) {
            Some(code) => self.columns[col].list(code),
            None => &[],
        }
    }

    /// Files row `id` — above every id filed so far — whose cells are
    /// `codes`, one per column.
    pub fn insert(&mut self, codes: &[u32], id: u32) {
        for (arena, &code) in self.columns.iter_mut().zip(codes) {
            arena.push(code, id);
        }
    }

    /// Takes row `id`, whose cells are `row`, out of every column's
    /// list and releases its cells' codes.
    pub fn remove(&mut self, row: &[Value], id: u32) {
        for (col, &value) in row.iter().enumerate() {
            let code = self.code(value).expect("a live cell's value has a code");
            self.columns[col].remove(code, id);
            self.dictionary.release(code);
        }
    }

    /// The end-of-load step: files the rows a bulk load pushed —
    /// `pending` holds their codes at the arity stride, the first one
    /// is row `first`. A load of more rows than the lists hold packs
    /// every arena and the dictionary to their exact sizes; a smaller
    /// one is filed row by row.
    pub fn finish_load(&mut self, pending: &[u32], first: u32) {
        let Some(arena) = self.columns.first() else {
            return;
        };
        let arity = self.columns.len();
        if pending.len() / arity <= arena.live {
            for (id, codes) in (first..).zip(pending.chunks_exact(arity)) {
                self.insert(codes, id);
            }
            return;
        }
        self.dictionary.shrink();
        let (codes, arity) = (self.dictionary.values.len(), self.columns.len());
        for (col, arena) in self.columns.iter_mut().enumerate() {
            arena.pack(codes, pending, col, arity, first);
        }
    }

    /// Codes handed out and not yet reused, freed ones included.
    #[cfg(test)]
    pub(crate) fn code_space(&self) -> usize {
        self.dictionary.values.len()
    }

    /// Row ids the arenas have room for, across every column.
    #[cfg(test)]
    pub(crate) fn id_capacity(&self) -> usize {
        self.columns.iter().map(|arena| arena.ids.capacity()).sum()
    }
}
