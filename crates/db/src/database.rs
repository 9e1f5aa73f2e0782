//! The database: a catalog of tables plus the public evaluation API.

use crate::eval::{EvalStats, Prepared, Valuation};
use crate::table::{RowStore, StoreIoStats, Table, TableSchema, Tuple};
use eq_ir::{Atom, Constraint, FastMap, Symbol, Value};
use std::fmt;
use std::sync::Arc;

/// Errors raised by the database layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DbError {
    /// A relation name was not found in the catalog.
    UnknownRelation(Symbol),
    /// A relation with this name already exists.
    DuplicateRelation(Symbol),
    /// A tuple or atom had the wrong number of columns for its relation.
    ArityMismatch {
        /// The relation involved.
        relation: Symbol,
        /// Arity declared in the catalog.
        expected: usize,
        /// Arity supplied by the caller.
        got: usize,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            DbError::DuplicateRelation(r) => write!(f, "relation {r} already exists"),
            DbError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch for {relation}: schema has {expected} columns, got {got}"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// `Ok` if a tuple of `got` cells fits a relation of `expected` columns.
fn check_arity(relation: Symbol, expected: usize, got: usize) -> Result<(), DbError> {
    if got == expected {
        Ok(())
    } else {
        Err(DbError::ArityMismatch {
            relation,
            expected,
            got,
        })
    }
}

/// An open coded load ([`Database::bulk_load_coded`]): the load's value
/// dictionary, mapped onto the table's, and the rows pushed so far.
pub struct CodedLoad<'a> {
    table: &'a mut dyn RowStore,
    relation: Symbol,
    arity: usize,
    /// The table code of each value listed, in listing order. The load
    /// holds each code (one live cell's worth) until it ends, so a code
    /// stays valid before any row holds it.
    codes: Vec<u32>,
    pushed: usize,
}

impl CodedLoad<'_> {
    /// Lists the load's next value. Its table code, found or minted with
    /// one dictionary probe, is [`CodedLoad::codes`]' next entry.
    pub fn value(&mut self, value: Value) {
        let code = self.table.index_mut().encode(value);
        self.codes.push(code);
    }

    /// The table code of every value listed so far, in listing order:
    /// the remap from a load's own codes to the table's.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Appends one row given as table codes, each drawn from
    /// [`CodedLoad::codes`]; a row of the wrong arity is refused before
    /// it reaches the table. Panics on a code no live cell and no listed
    /// value holds.
    pub fn push(&mut self, codes: &[u32]) -> Result<(), DbError> {
        check_arity(self.relation, self.arity, codes.len())?;
        self.table.push_codes(codes);
        self.pushed += 1;
        Ok(())
    }
}

/// An in-memory relational database.
///
/// Evaluation operates on `&self`; the coordination engine wraps the
/// database in a read-write lock and evaluates combined queries under a
/// read guard, which realises the paper's requirement that "the
/// underlying database is not changed during the answering process"
/// (§2.3).
#[derive(Default)]
pub struct Database {
    /// Relation backends, one per relation name.
    tables: FastMap<Symbol, Backend>,
    /// Monotone mutation counter; see [`Database::revision`].
    revision: u64,
}

/// One relation's backend in the catalog.
enum Backend {
    /// A table made by [`Database::create_table`], shared with every
    /// [`Database::snapshot`] of it until one side writes.
    Memory(Arc<Table>),
    /// A backend installed by [`Database::attach_table`] (notably
    /// `eq_store`'s paged table), owned by this database alone.
    Attached(Box<dyn RowStore>),
}

impl Backend {
    fn store(&self) -> &dyn RowStore {
        match self {
            Backend::Memory(table) => &**table,
            Backend::Attached(store) => &**store,
        }
    }

    /// The backend, writable. A shared in-memory table is copied first,
    /// so the first write on either side of a snapshot pays one copy
    /// and the other side never sees the write.
    fn store_mut(&mut self) -> &mut dyn RowStore {
        match self {
            Backend::Memory(table) => Arc::<Table>::make_mut(table),
            Backend::Attached(store) => &mut **store,
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table. Fails if the name is taken.
    pub fn create_table(&mut self, name: &str, columns: &[&str]) -> Result<(), DbError> {
        let schema = TableSchema::new(name, columns);
        let name = schema.name;
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateRelation(name));
        }
        self.tables
            .insert(name, Backend::Memory(Arc::new(Table::new(schema))));
        self.revision += 1;
        Ok(())
    }

    /// Installs an externally built [`RowStore`] backend (a paged
    /// on-disk table, say) under its schema's relation name. Fails if
    /// the name is taken. The backend participates in every catalog
    /// operation — inserts, deletes, scans, evaluation — exactly like a
    /// table created by [`Database::create_table`].
    pub fn attach_table(&mut self, table: Box<dyn RowStore>) -> Result<(), DbError> {
        let name = table.schema().name;
        if self.tables.contains_key(&name) {
            return Err(DbError::DuplicateRelation(name));
        }
        self.tables.insert(name, Backend::Attached(table));
        self.revision += 1;
        Ok(())
    }

    /// Sum of the I/O counters of every table backend. In-memory
    /// tables contribute zeros, so this is non-zero exactly when a
    /// paged backend has touched its cache. The one place a caller
    /// reads cache traffic — page faults, write-backs, hits, evictions,
    /// resident peak.
    pub fn io_stats(&self) -> StoreIoStats {
        self.tables
            .values()
            .fold(StoreIoStats::default(), |acc, t| {
                acc.merge(t.store().io_stats())
            })
    }

    /// A counter bumped by every successful mutation (`create_table`,
    /// `insert`, `delete`, `update`). Readers that cache derived state —
    /// the coordination engine's dirty-component tracking uses this to
    /// decide whether kept-pending components must be re-evaluated —
    /// compare revisions instead of diffing tables.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Inserts a tuple, maintaining all column indexes.
    pub fn insert(&mut self, relation: &str, row: Tuple) -> Result<(), DbError> {
        let name = Symbol::new(relation);
        let backend = self
            .tables
            .get_mut(&name)
            .ok_or(DbError::UnknownRelation(name))?;
        check_arity(name, backend.store().schema().arity(), row.len())?;
        backend.store_mut().push(&row);
        self.revision += 1;
        Ok(())
    }

    /// Bulk insert with one arity validation pass, one
    /// [`RowStore::begin_load`] and a **single revision bump** for the
    /// whole batch. Loading n rows through [`Database::insert`] bumps
    /// [`Database::revision`] n times and — when the database sits
    /// behind the engine's lock — costs n lock round trips;
    /// `insert_many` is the one-lock/one-revision form workload
    /// generators and example setup code should use. All-or-nothing: if
    /// any row has the wrong arity, nothing is inserted. Returns the
    /// number of rows inserted. The rows go through
    /// [`Database::bulk_load`], each dropped right after its cells are
    /// copied into the table's slab.
    pub fn insert_many(&mut self, relation: &str, rows: Vec<Tuple>) -> Result<usize, DbError> {
        let name = Symbol::new(relation);
        let table = self.table(name).ok_or(DbError::UnknownRelation(name))?;
        let expected = table.schema().arity();
        for row in &rows {
            check_arity(name, expected, row.len())?;
        }
        let n = rows.len();
        let mut rows = rows.into_iter();
        self.bulk_load(relation, n, |row| {
            *row = rows.next().expect("one row per count");
            Ok(())
        })
    }

    /// Moves `rows` rows into `relation`, each written by `next_row`
    /// into one reused buffer and copied from there into the table's
    /// slab, so a load never holds the relation as a list of rows: the
    /// bulk form recovery decodes a checkpoint image through. Storage
    /// is reserved once for `rows` rows, the index is built once the
    /// rows are in ([`RowStore::finish_load`], also when the load ends
    /// early) — per column when the load outgrows the table, row by row
    /// when it does not — and [`Database::revision`] is bumped once if
    /// any row went in.
    ///
    /// Each row's arity is checked before it reaches the table. The
    /// first wrong-arity row or `next_row` error ends the load with
    /// that error, and the rows before it stay in the table: a caller
    /// that needs all-or-nothing validates first, as
    /// [`Database::insert_many`] does. Returns `rows`.
    pub fn bulk_load<E: From<DbError>>(
        &mut self,
        relation: &str,
        rows: usize,
        mut next_row: impl FnMut(&mut Tuple) -> Result<(), E>,
    ) -> Result<usize, E> {
        let name = Symbol::new(relation);
        let backend = self
            .tables
            .get_mut(&name)
            .ok_or(DbError::UnknownRelation(name))?;
        if rows == 0 {
            return Ok(0);
        }
        let expected = backend.store().schema().arity();
        let table = backend.store_mut();
        table.begin_load(rows);
        let mut row = Tuple::new();
        let mut pushed = 0;
        let mut fill = || -> Result<usize, E> {
            for _ in 0..rows {
                next_row(&mut row)?;
                check_arity(name, expected, row.len())?;
                table.push(&row);
                pushed += 1;
            }
            Ok(rows)
        };
        let loaded = fill();
        table.finish_load();
        if pushed > 0 {
            self.revision += 1;
        }
        loaded
    }

    /// [`Database::bulk_load`] for rows given as codes: the form a
    /// checkpoint image stores a table in, its value dictionary then its
    /// rows' codes. `fill` lists the load's values
    /// ([`CodedLoad::value`]), each looked up in the table's dictionary
    /// once, and pushes rows of the table codes they drew
    /// ([`CodedLoad::codes`]), which go into the slab as they are: no
    /// cell is decoded or hashed, and no row is held as a list.
    /// Storage is reserved once for `rows` rows, the index is built
    /// once the rows are in, and [`Database::revision`] is bumped once
    /// if any row went in. An error from `fill` ends the load, and the
    /// rows before it stay in the table. Returns the rows pushed.
    pub fn bulk_load_coded<E: From<DbError>>(
        &mut self,
        relation: &str,
        rows: usize,
        fill: impl FnOnce(&mut CodedLoad<'_>) -> Result<(), E>,
    ) -> Result<usize, E> {
        let name = Symbol::new(relation);
        let backend = self
            .tables
            .get_mut(&name)
            .ok_or(DbError::UnknownRelation(name))?;
        let arity = backend.store().schema().arity();
        let table = backend.store_mut();
        table.begin_load(rows);
        let mut load = CodedLoad {
            table,
            relation: name,
            arity,
            codes: Vec::new(),
            pushed: 0,
        };
        let filled = fill(&mut load);
        let CodedLoad {
            table,
            codes,
            pushed,
            ..
        } = load;
        for code in codes {
            table.index_mut().release(code);
        }
        table.finish_load();
        if pushed > 0 {
            self.revision += 1;
        }
        filled.map(|()| pushed)
    }

    /// Deletes one occurrence of an exact tuple. Returns true if a row
    /// was removed. Row ids stay stable (tombstoned internally).
    pub fn delete(&mut self, relation: &str, row: &[Value]) -> Result<bool, DbError> {
        let name = Symbol::new(relation);
        let backend = self
            .tables
            .get_mut(&name)
            .ok_or(DbError::UnknownRelation(name))?;
        check_arity(name, backend.store().schema().arity(), row.len())?;
        // A miss changes nothing, so it must not copy a shared table.
        if !backend.store().contains(row) {
            return Ok(false);
        }
        let deleted = backend.store_mut().delete(row);
        if deleted {
            self.revision += 1;
        }
        Ok(deleted)
    }

    /// Replaces one occurrence of `old` with `new` (delete + insert).
    /// Returns true if `old` existed. `new` is validated first, so a
    /// failed update changes nothing.
    pub fn update(&mut self, relation: &str, old: &[Value], new: Tuple) -> Result<bool, DbError> {
        let name = Symbol::new(relation);
        let table = self.table(name).ok_or(DbError::UnknownRelation(name))?;
        check_arity(name, table.schema().arity(), new.len())?;
        if !self.delete(relation, old)? {
            return Ok(false);
        }
        self.insert(relation, new)?;
        Ok(true)
    }

    /// An owned database with the same relations and rows, and a fresh
    /// revision counter: how a caller hands a `Coordinator` a database
    /// of its own while keeping its own (one-shot coordination does so
    /// on every call).
    ///
    /// **In-memory tables are shared, copy-on-write**, so a snapshot
    /// costs O(tables) and allocates nothing per row: the snapshot's
    /// table *is* the source's until one side writes to it, and that
    /// first `insert`, `insert_many` or `delete` copies the table once,
    /// for the writer alone — the other side never sees the write. A
    /// shared table keeps the source's row ids, tombstones and posting
    /// order, so evaluating against the snapshot enumerates exactly
    /// what evaluating against the source would.
    ///
    /// **Attached backends are copied** into fresh in-memory tables
    /// (tombstones compacted away), so a paged owner stays paged and
    /// owns its page file alone, and the snapshot is a self-contained
    /// image. The copy is a trusted bulk transfer: every row already
    /// passed arity validation when it entered its source, so rows are
    /// pushed from the slices [`RowStore::for_each_row`] lends out into
    /// a slab reserved once at the live row count, without the
    /// `insert_many` validation pass, and indexed once at the end.
    pub fn snapshot(&self) -> Database {
        let mut out = Database::new();
        for (&name, backend) in &self.tables {
            let copy = match backend {
                Backend::Memory(table) => Arc::clone(table),
                Backend::Attached(store) => {
                    let mut copy = Table::new(store.schema().clone());
                    copy.begin_load(store.len());
                    store.for_each_row(&mut |row| copy.push(row));
                    copy.finish_load();
                    Arc::new(copy)
                }
            };
            out.tables.insert(name, Backend::Memory(copy));
            out.revision += 1;
        }
        out
    }

    /// Looks up a table backend by name.
    pub fn table(&self, name: Symbol) -> Option<&dyn RowStore> {
        self.tables.get(&name).map(Backend::store)
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.tables.keys().copied()
    }

    /// True if the exact tuple is present in `relation`.
    pub fn contains(&self, relation: &str, row: &[Value]) -> bool {
        self.table(Symbol::new(relation))
            .is_some_and(|t| t.contains(row))
    }

    /// All rows of a relation, for tests and exports.
    pub fn scan(&self, relation: &str) -> Result<Vec<Tuple>, DbError> {
        let name = Symbol::new(relation);
        let table = self.table(name).ok_or(DbError::UnknownRelation(name))?;
        let mut rows = Vec::with_capacity(table.len());
        table.for_each_row(&mut |row| rows.push(row.to_vec()));
        Ok(rows)
    }

    /// Evaluates a conjunction of atoms over database relations, returning
    /// up to `limit` valuations of the atoms' variables (a `LIMIT k`
    /// select-project-join query). `usize::MAX` means "all".
    ///
    /// Fails fast if an atom names an unknown relation or has the wrong
    /// arity — those are programming errors in query generation, not
    /// coordination failures.
    pub fn evaluate(&self, atoms: &[Atom], limit: usize) -> Result<Vec<Valuation>, DbError> {
        self.evaluate_with_stats(atoms, limit).map(|(v, _)| v)
    }

    /// [`Database::evaluate`] with additional comparison constraints on
    /// the valuations (`x < 5`, `level >= min`). Constraints are checked
    /// as soon as their variables bind, pruning the join search.
    pub fn evaluate_filtered(
        &self,
        atoms: &[Atom],
        constraints: &[Constraint],
        limit: usize,
    ) -> Result<Vec<Valuation>, DbError> {
        Ok(self.prepare(atoms, constraints)?.collect(limit).0)
    }

    /// Resolves a conjunction against this database once — table
    /// handles, variable slots, join-order ranks, and the fail-fast
    /// relation/arity validation [`Database::evaluate`] runs — so it
    /// can be searched any number of times: streamed to a visitor in
    /// the exact order `evaluate_filtered` would collect, projected
    /// ("done with this value"), or pinned. See [`Prepared`].
    ///
    /// The conjunction is borrowed atom by atom, so a caller holding a
    /// sub-conjunction as indices into a larger body — the engine's
    /// region evaluation, which resolves a region when a pass reaches
    /// it — hands its atoms over without copying them.
    pub fn prepare<'q>(
        &self,
        atoms: impl IntoIterator<Item = &'q Atom>,
        constraints: impl IntoIterator<Item = &'q Constraint>,
    ) -> Result<Prepared<'_>, DbError> {
        let atoms: Vec<&Atom> = atoms.into_iter().collect();
        let constraints: Vec<&Constraint> = constraints.into_iter().collect();
        Prepared::resolve(self, &atoms, &constraints)
    }

    /// Checks that every atom names a table of its arity: the fail-fast
    /// validation [`Database::prepare`] runs, without resolving
    /// anything. Reports the first offending atom.
    pub fn validate<'q>(&self, atoms: impl IntoIterator<Item = &'q Atom>) -> Result<(), DbError> {
        atoms
            .into_iter()
            .try_for_each(|atom| self.table_for(atom).map(drop))
    }

    /// The table `atom` reads, once its relation exists and its arity
    /// matches.
    pub(crate) fn table_for(&self, atom: &Atom) -> Result<&dyn RowStore, DbError> {
        let table = self
            .table(atom.relation)
            .ok_or(DbError::UnknownRelation(atom.relation))?;
        check_arity(atom.relation, table.schema().arity(), atom.arity())?;
        Ok(table)
    }

    /// [`Database::evaluate`] plus evaluator statistics (rows read,
    /// index probes), used by the Figure 7 harness to report DB time
    /// drivers.
    pub fn evaluate_with_stats(
        &self,
        atoms: &[Atom],
        limit: usize,
    ) -> Result<(Vec<Valuation>, EvalStats), DbError> {
        Ok(self.prepare(atoms, None)?.collect(limit))
    }
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<_> = self
            .tables
            .values()
            .map(|t| format!("{:?}", t.store()))
            .collect();
        names.sort();
        write!(f, "Database[{}]", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_insert_scan() {
        let mut db = Database::new();
        db.create_table("User", &["name", "home"]).unwrap();
        db.insert("User", vec![Value::str("Jerry"), Value::str("ITH")])
            .unwrap();
        let rows = db.scan("User").unwrap();
        assert_eq!(rows.len(), 1);
        assert!(db.contains("User", &[Value::str("Jerry"), Value::str("ITH")]));
        assert!(!db.contains("User", &[Value::str("Jerry"), Value::str("JFK")]));
    }

    #[test]
    fn insert_many_single_revision_bump() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        let before = db.revision();
        let n = db
            .insert_many(
                "T",
                vec![
                    vec![Value::int(1), Value::str("x")],
                    vec![Value::int(2), Value::str("y")],
                    vec![Value::int(3), Value::str("z")],
                ],
            )
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.revision(), before + 1);
        assert_eq!(db.scan("T").unwrap().len(), 3);
        // Empty batches don't bump the revision.
        assert_eq!(db.insert_many("T", vec![]).unwrap(), 0);
        assert_eq!(db.revision(), before + 1);
    }

    #[test]
    fn insert_many_is_all_or_nothing_on_arity_error() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        let err = db
            .insert_many(
                "T",
                vec![vec![Value::int(1), Value::str("x")], vec![Value::int(2)]],
            )
            .unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { got: 1, .. }));
        assert!(db.scan("T").unwrap().is_empty());
        assert!(db.insert_many("Nope", vec![]).is_err());
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = Database::new();
        db.create_table("T", &["a"]).unwrap();
        assert_eq!(
            db.create_table("T", &["a", "b"]),
            Err(DbError::DuplicateRelation(Symbol::new("T")))
        );
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = Database::new();
        assert_eq!(
            db.insert("Nope", vec![]),
            Err(DbError::UnknownRelation(Symbol::new("Nope")))
        );
        assert!(db.scan("Nope").is_err());
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        assert_eq!(
            db.insert("T", vec![Value::int(1)]),
            Err(DbError::ArityMismatch {
                relation: Symbol::new("T"),
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn delete_removes_tuple_and_index_entries() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        db.insert("T", vec![Value::int(1), Value::str("x")])
            .unwrap();
        db.insert("T", vec![Value::int(2), Value::str("y")])
            .unwrap();
        assert!(db.delete("T", &[Value::int(1), Value::str("x")]).unwrap());
        assert!(!db.contains("T", &[Value::int(1), Value::str("x")]));
        assert!(db.contains("T", &[Value::int(2), Value::str("y")]));
        // Deleting again is a no-op.
        assert!(!db.delete("T", &[Value::int(1), Value::str("x")]).unwrap());
        // Scans skip the tombstone.
        assert_eq!(db.scan("T").unwrap().len(), 1);
        // Evaluation no longer sees the deleted row.
        use eq_ir::{atom, Term, Var};
        let rows = db
            .evaluate(
                &[atom!("T", [Term::var(Var(0)), Term::var(Var(1))])],
                usize::MAX,
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn delete_only_first_duplicate() {
        let mut db = Database::new();
        db.create_table("D", &["a"]).unwrap();
        db.insert("D", vec![Value::int(7)]).unwrap();
        db.insert("D", vec![Value::int(7)]).unwrap();
        assert!(db.delete("D", &[Value::int(7)]).unwrap());
        assert!(db.contains("D", &[Value::int(7)]));
        assert_eq!(db.scan("D").unwrap().len(), 1);
    }

    #[test]
    fn update_replaces_tuple() {
        let mut db = Database::new();
        db.create_table("Seats", &["fno", "left"]).unwrap();
        db.insert("Seats", vec![Value::int(122), Value::int(3)])
            .unwrap();
        assert!(db
            .update(
                "Seats",
                &[Value::int(122), Value::int(3)],
                vec![Value::int(122), Value::int(2)],
            )
            .unwrap());
        assert!(db.contains("Seats", &[Value::int(122), Value::int(2)]));
        assert!(!db.contains("Seats", &[Value::int(122), Value::int(3)]));
        // Updating a missing row reports false and inserts nothing.
        assert!(!db
            .update(
                "Seats",
                &[Value::int(999), Value::int(1)],
                vec![Value::int(999), Value::int(0)],
            )
            .unwrap());
    }

    /// A wrong-arity replacement is refused before the old row goes.
    #[test]
    fn failed_update_keeps_the_old_row() {
        let mut db = Database::new();
        db.create_table("Seats", &["fno", "left"]).unwrap();
        let old = [Value::int(122), Value::int(3)];
        db.insert("Seats", old.to_vec()).unwrap();
        let before = db.revision();
        assert_eq!(
            db.update("Seats", &old, vec![Value::int(122)]),
            Err(DbError::ArityMismatch {
                relation: Symbol::new("Seats"),
                expected: 2,
                got: 1
            })
        );
        assert!(db.contains("Seats", &old));
        assert_eq!(db.revision(), before);
        assert!(db.update("Nope", &old, old.to_vec()).is_err());
    }

    /// One reused buffer per load; a wrong-arity row or a source error
    /// stops the load before it reaches the table, and a load that
    /// pushed nothing leaves the revision alone.
    #[test]
    fn bulk_load_checks_each_row_and_bumps_once() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        let before = db.revision();
        let loaded: Result<_, DbError> = db.bulk_load("T", 3, |row| {
            let i = row.first().map_or(0, |v| v.as_int().unwrap() + 1);
            row.clear();
            row.extend([Value::int(i), Value::str("x")]);
            Ok(())
        });
        assert_eq!(loaded, Ok(3));
        assert_eq!(db.revision(), before + 1);
        let ids: Vec<Value> = db.scan("T").unwrap().iter().map(|r| r[0]).collect();
        assert_eq!(ids, [Value::int(0), Value::int(1), Value::int(2)]);

        let mut source =
            vec![vec![Value::int(3), Value::str("y")], vec![Value::int(4)]].into_iter();
        let short = db.bulk_load("T", 5, |row| {
            *row = source.next().unwrap();
            Ok::<_, DbError>(())
        });
        assert!(matches!(short, Err(DbError::ArityMismatch { got: 1, .. })));
        assert_eq!(db.scan("T").unwrap().len(), 4, "the row before it stays");
        assert_eq!(db.revision(), before + 2);

        let refused: Result<_, DbError> = db.bulk_load("T", 2, |_| {
            Err(DbError::UnknownRelation(Symbol::new("src")))
        });
        assert!(refused.is_err());
        assert_eq!(db.revision(), before + 2);
        assert_eq!(db.bulk_load("T", 0, |_| Ok::<_, DbError>(())), Ok(0));
        assert!(db.bulk_load("Nope", 0, |_| Ok::<_, DbError>(())).is_err());
    }

    /// A coded load into a table that already holds values: listed
    /// values map onto the table's codes (an old value keeps its code,
    /// a new one draws a fresh or freed one), rows go in as those codes,
    /// a listed value no row holds leaves no code behind, and the table
    /// then reads, indexes and deletes as if the rows were inserted.
    #[test]
    fn a_coded_load_maps_its_values_onto_the_table_dictionary() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        db.insert("T", vec![Value::int(7), Value::str("x")])
            .unwrap();
        db.insert("T", vec![Value::int(8), Value::str("gone")])
            .unwrap();
        assert!(db
            .delete("T", &[Value::int(8), Value::str("gone")])
            .unwrap());
        let before = db.revision();
        let listed = [
            Value::str("y"),
            Value::int(7),
            Value::str("unused"),
            Value::str("x"),
        ];
        let loaded = db.bulk_load_coded("T", 2, |load| {
            for value in listed {
                load.value(value);
            }
            let c = load.codes().to_vec();
            assert_eq!(c[1], 0, "7 keeps its code");
            load.push(&[c[1], c[0]])?;
            load.push(&[c[1], c[3]])?;
            load.push(&[c[0]])
        });
        assert!(matches!(loaded, Err(DbError::ArityMismatch { got: 1, .. })));
        assert_eq!(db.revision(), before + 1);
        let rows = [
            vec![Value::int(7), Value::str("x")],
            vec![Value::int(7), Value::str("y")],
            vec![Value::int(7), Value::str("x")],
        ];
        assert_eq!(db.scan("T").unwrap(), rows);
        let table = db.table(Symbol::new("T")).unwrap();
        assert_eq!(table.postings(0, Value::int(7)), [0, 2, 3]);
        assert_eq!(table.postings(1, Value::str("x")), [0, 3]);
        assert_eq!(table.postings(1, Value::str("unused")), [0u32; 0]);
        let live: Vec<Value> = table.index().dictionary().flatten().collect();
        assert_eq!(live.len(), 3, "7, x and y: {live:?}");
        assert!(db.delete("T", &rows[1]).unwrap());
        let table = db.table(Symbol::new("T")).unwrap();
        assert_eq!(table.index().code(Value::str("y")), None);
        let mut codes = Vec::new();
        table.for_each_row_codes(&mut |row| codes.push(row.to_vec()));
        assert_eq!(codes, [[0, 1], [0, 1]]);
    }

    /// A snapshot keeps the source's ids and tombstones, a delete that
    /// misses copies nothing, and a write on either side stays there.
    #[test]
    fn snapshot_shares_tables_until_the_first_write() {
        let t = Symbol::new("T");
        let shared = |a: &Database, b: &Database| {
            std::ptr::addr_eq(a.table(t).unwrap(), b.table(t).unwrap())
        };
        let mut db = Database::new();
        db.create_table("T", &["a"]).unwrap();
        db.insert("T", vec![Value::int(1)]).unwrap();
        db.insert("T", vec![Value::int(2)]).unwrap();
        db.delete("T", &[Value::int(1)]).unwrap();
        let mut copy = db.snapshot();
        let table = copy.table(t).unwrap();
        assert_eq!((table.row_id_bound(), table.tombstone_count()), (2, 1));
        assert_eq!(db.delete("T", &[Value::int(9)]), Ok(false));
        assert!(shared(&db, &copy));

        db.insert("T", vec![Value::int(3)]).unwrap();
        assert!(!shared(&db, &copy));
        assert_eq!(copy.scan("T").unwrap(), vec![vec![Value::int(2)]]);
        assert_eq!(db.scan("T").unwrap().len(), 2);

        let copy_of_copy = copy.snapshot();
        assert!(copy.delete("T", &[Value::int(2)]).unwrap());
        assert!(copy.scan("T").unwrap().is_empty());
        assert_eq!(copy_of_copy.scan("T").unwrap(), vec![vec![Value::int(2)]]);
        assert_eq!(db.scan("T").unwrap().len(), 2);
    }

    #[test]
    fn delete_arity_checked() {
        let mut db = Database::new();
        db.create_table("T", &["a", "b"]).unwrap();
        assert!(db.delete("T", &[Value::int(1)]).is_err());
        assert!(db.delete("Nope", &[Value::int(1)]).is_err());
    }

    #[test]
    fn error_display() {
        let e = DbError::ArityMismatch {
            relation: Symbol::new("T"),
            expected: 2,
            got: 1,
        };
        assert!(e.to_string().contains("arity mismatch"));
    }
}
