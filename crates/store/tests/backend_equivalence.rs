//! Property test: a `Database` whose tables live on the paged on-disk
//! backend is indistinguishable from one on the in-memory backend —
//! the same insert/delete history (duplicate rows and tombstones
//! included) yields the same rows and the same emptiness, and random
//! conjunctive queries (with comparison constraints and limits) come
//! back answer-for-answer equal **in the same order**: both backends
//! lend the evaluator ascending posting lists, and `eq_db`'s own
//! proptests hold the in-memory side to the recursive oracle, so this
//! holds the paged side to it too. The page cache runs under a
//! two-frame budget so most instances actually fault and evict.

use eq_db::{Database, TableSchema, Valuation};
use eq_ir::{Atom, CmpOp, Constraint, Term, Value, Var};
use eq_store::{PageCacheConfig, PagedTable};
use proptest::prelude::*;
use std::path::PathBuf;

const RELS: [(&str, usize); 3] = [("P", 2), ("Q", 2), ("S", 1)];
const NUM_VARS: u32 = 4;
const DOMAIN: i64 = 4;
const NAMES: [&str; 3] = ["ada", "bob", "cyd"];
const PAGE_BYTES: usize = 64;
const BUDGET_BYTES: usize = 128;

#[derive(Clone, Debug)]
struct Instance {
    /// Rows per relation, parallel to `RELS`.
    rows: Vec<Vec<Vec<Value>>>,
    /// `(relation, index)` delete requests; the index picks one of the
    /// relation's generated rows (modulo its length).
    deletes: Vec<(usize, usize)>,
    atoms: Vec<Atom>,
    constraints: Vec<Constraint>,
    /// `5` means unlimited.
    limit: usize,
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..DOMAIN).prop_map(Value::int),
        (0..NAMES.len()).prop_map(|i| Value::str(NAMES[i])),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0..NUM_VARS).prop_map(|i| Term::var(Var(i))),
        arb_value().prop_map(Term::Const),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    (0..RELS.len()).prop_flat_map(|r| {
        proptest::collection::vec(arb_term(), RELS[r].1)
            .prop_map(move |terms| Atom::new(RELS[r].0, terms))
    })
}

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    const OPS: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
    (arb_term(), 0..OPS.len(), arb_term())
        .prop_map(|(lhs, op, rhs)| Constraint::new(lhs, OPS[op], rhs))
}

fn arb_rows(arity: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    proptest::collection::vec(proptest::collection::vec(arb_value(), arity), 0..24)
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        (
            arb_rows(RELS[0].1),
            arb_rows(RELS[1].1),
            arb_rows(RELS[2].1),
        ),
        proptest::collection::vec((0..RELS.len(), 0..24usize), 0..6),
        proptest::collection::vec(arb_atom(), 1..5),
        proptest::collection::vec(arb_constraint(), 0..3),
        0..6usize,
    )
        .prop_map(|(rows, deletes, atoms, constraints, limit)| Instance {
            rows: vec![rows.0, rows.1, rows.2],
            deletes,
            atoms,
            constraints,
            limit,
        })
}

/// Builds the same database twice — in-memory tables and paged tables
/// under a deliberately tiny cache budget — applying an identical
/// insert-then-delete history to both.
fn build_pair(inst: &Instance) -> (Database, Database, PathBuf) {
    let dir = eq_store::scratch_dir("backend-equiv");
    let mut mem = Database::new();
    let mut paged = Database::new();
    for (i, &(name, arity)) in RELS.iter().enumerate() {
        let cols: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
        mem.create_table(name, &col_refs).unwrap();
        let table = PagedTable::create(
            &dir,
            TableSchema::new(name, &col_refs),
            PageCacheConfig {
                page_bytes: PAGE_BYTES,
                budget_bytes: BUDGET_BYTES,
            },
        )
        .unwrap();
        paged.attach_table(Box::new(table)).unwrap();
        for row in &inst.rows[i] {
            mem.insert(name, row.clone()).unwrap();
            paged.insert(name, row.clone()).unwrap();
        }
    }
    for &(r, idx) in &inst.deletes {
        let rows = &inst.rows[r];
        if rows.is_empty() {
            continue;
        }
        let row = &rows[idx % rows.len()];
        let hit_mem = mem.delete(RELS[r].0, row).unwrap();
        let hit_paged = paged.delete(RELS[r].0, row).unwrap();
        assert_eq!(hit_mem, hit_paged, "delete must hit or miss identically");
    }
    (mem, paged, dir)
}

/// The no-live-rows contract of `RowStore::is_empty`, on a table whose
/// rows were all deleted: tombstones still occupy ids on both backends.
#[test]
fn emptied_table_is_empty_on_both_backends() {
    let inst = Instance {
        rows: vec![
            vec![
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(1), Value::int(2)],
            ],
            vec![],
            vec![],
        ],
        deletes: vec![(0, 0), (0, 1)],
        atoms: vec![],
        constraints: vec![],
        limit: 0,
    };
    let (mem, paged, dir) = build_pair(&inst);
    for db in [&mem, &paged] {
        let p = db.table("P".into()).unwrap();
        assert_eq!(p.len(), 0);
        assert_eq!(p.tombstone_count(), 2);
        assert!(p.is_empty(), "{p:?} has no live rows");
        assert!(db.table("Q".into()).unwrap().is_empty());
    }
    eq_store::purge_dir(&dir);
}

/// A zero-column relation's rows are all equal and have no column to
/// look up: on both backends `delete` takes exactly one of them, and
/// `contains`, the counts and evaluation follow.
#[test]
fn nullary_rows_delete_on_both_backends() {
    let dir = eq_store::scratch_dir("backend-nullary");
    let mut mem = Database::new();
    mem.create_table("Flag", &[]).unwrap();
    let mut paged = Database::new();
    let table = PagedTable::create(
        &dir,
        TableSchema::new("Flag", &[]),
        PageCacheConfig {
            page_bytes: PAGE_BYTES,
            budget_bytes: BUDGET_BYTES,
        },
    )
    .unwrap();
    paged.attach_table(Box::new(table)).unwrap();
    let flag = [Atom::new("Flag", vec![])];
    for db in [&mut mem, &mut paged] {
        db.insert("Flag", vec![]).unwrap();
        db.insert("Flag", vec![]).unwrap();
        assert_eq!(db.delete("Flag", &[]), Ok(true));
        assert!(db.contains("Flag", &[]));
        assert_eq!(db.delete("Flag", &[]), Ok(true));
        assert!(!db.contains("Flag", &[]));
        assert_eq!(db.delete("Flag", &[]), Ok(false));
        assert!(db.evaluate(&flag, usize::MAX).unwrap().is_empty());
        db.insert("Flag", vec![]).unwrap();
        let t = db.table("Flag".into()).unwrap();
        assert_eq!((t.len(), t.tombstone_count(), t.row_id_bound()), (1, 2, 3));
        assert_eq!(db.evaluate(&flag, usize::MAX).unwrap().len(), 1);
    }
    eq_store::purge_dir(&dir);
}

/// A snapshot of a paged table is an in-memory copy, never a share: a
/// write to the owner while the snapshot is alive still goes through
/// the page cache, and the snapshot neither sees it nor answers
/// differently from a resident database with the same history.
#[test]
fn paged_snapshot_stays_a_copy() {
    let dir = eq_store::scratch_dir("backend-snapshot");
    let columns = ["a", "b"];
    let mut resident = Database::new();
    resident.create_table("Friends", &columns).unwrap();
    let mut paged = Database::new();
    let table = PagedTable::create(
        &dir,
        TableSchema::new("Friends", &columns),
        PageCacheConfig {
            page_bytes: PAGE_BYTES,
            budget_bytes: BUDGET_BYTES,
        },
    )
    .unwrap();
    paged.attach_table(Box::new(table)).unwrap();
    let rows: Vec<Vec<Value>> = (0..40)
        .map(|i| vec![Value::int(i % 7), Value::int(i)])
        .collect();
    for db in [&mut resident, &mut paged] {
        db.insert_many("Friends", rows.clone()).unwrap();
        assert!(db.delete("Friends", &rows[3]).unwrap());
    }

    let snapshot = paged.snapshot();
    let touched = |db: &Database| {
        let io = db.io_stats();
        io.page_reads + io.cache_hits
    };
    let before = touched(&paged);
    let extra = vec![Value::int(0), Value::int(99)];
    paged.insert("Friends", extra.clone()).unwrap();
    assert!(
        touched(&paged) > before,
        "the owner's insert went through its cache"
    );
    assert!(format!("{paged:?}").contains("PagedTable"), "{paged:?}");
    assert!(paged.contains("Friends", &extra));

    assert!(!snapshot.contains("Friends", &extra));
    assert!(
        !format!("{snapshot:?}").contains("PagedTable"),
        "{snapshot:?}"
    );
    assert_eq!(
        snapshot.scan("Friends").unwrap(),
        resident.scan("Friends").unwrap()
    );
    let friends_of_zero = [Atom::new(
        "Friends",
        vec![Term::Const(Value::int(0)), Term::var(Var(0))],
    )];
    assert_eq!(
        snapshot.evaluate(&friends_of_zero, usize::MAX).unwrap(),
        resident.evaluate(&friends_of_zero, usize::MAX).unwrap()
    );
    eq_store::purge_dir(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_backend_matches_in_memory(inst in arb_instance()) {
        let (mem, paged, dir) = build_pair(&inst);

        // Same visible rows, in id order, after the same history — and
        // the same answer to "any live row?".
        for &(name, _) in &RELS {
            let rows = mem.scan(name).unwrap();
            prop_assert_eq!(&rows, &paged.scan(name).unwrap(), "scan of {} diverged", name);
            for db in [&mem, &paged] {
                prop_assert_eq!(db.table(name.into()).unwrap().is_empty(), rows.is_empty());
            }
        }

        // Same answers to the conjunction, in the same order.
        let full: Vec<Valuation> = mem
            .evaluate_filtered(&inst.atoms, &inst.constraints, usize::MAX)
            .unwrap();
        let full_paged = paged
            .evaluate_filtered(&inst.atoms, &inst.constraints, usize::MAX)
            .unwrap();
        prop_assert_eq!(&full, &full_paged);

        // Limited evaluation is the prefix of it on either backend.
        let limit = if inst.limit == 5 { usize::MAX } else { inst.limit };
        let prefix = &full[..full.len().min(limit)];
        for db in [&mem, &paged] {
            let limited = db
                .evaluate_filtered(&inst.atoms, &inst.constraints, limit)
                .unwrap();
            prop_assert_eq!(&limited[..], prefix);
        }

        // The paged run stayed inside its byte budget.
        let io = paged.io_stats();
        prop_assert!(
            io.resident_bytes_peak as usize <= RELS.len() * BUDGET_BYTES,
            "resident peak {} over {} budgets of {}",
            io.resident_bytes_peak,
            RELS.len(),
            BUDGET_BYTES
        );

        eq_store::purge_dir(&dir);
    }
}
