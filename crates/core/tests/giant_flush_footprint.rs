//! The giant flush holds its component once: edges keep no unifier,
//! matching keeps no seed table per query, the atom indexes, the work
//! units and the region plan name atoms instead of copying them, and one
//! region's resolved query is alive at a time. A counting global
//! allocator, switched on for the test thread alone, measures what one
//! `submit_batch` and one `flush` of a 2,000-query shared-variable ring
//! ask for, and that `split_unit` asks for nothing on a unit that
//! cannot split.

use eq_core::{CoordinationEngine, EngineConfig, QueryOutcome, SubmitOptions};
use eq_workload::rng::{SliceRandom, StdRng};
use eq_workload::{giant_component, GiantBody, GiantComponentConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations of whichever thread has switched counting on,
/// and follows its live bytes: what it allocates minus what it frees.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(grew: i64, allocated: bool) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        if allocated {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        let live = LIVE.with(|l| {
            l.set(l.get() + grew);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each meets `System`'s contract exactly when its caller meets
// `GlobalAlloc`'s. `note` neither allocates nor unwinds: it touches
// const-initialized `Cell`s that have no destructor to register.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, true);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted: its result, the
/// number of allocations, and the peak of live bytes above where `f`
/// started.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    ALLOCATIONS.with(|n| n.set(0));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get), PEAK.with(Cell::get))
}

/// FNV-1a over text: stable across runs and toolchains, unlike the
/// std hasher or interned symbol ids.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn giant_flush_footprint() {
    const N: usize = 2_000;
    let (db, mut queries) = giant_component(&GiantComponentConfig {
        queries: N,
        friends_per_user: 12,
        body: GiantBody::SharedChain,
    });
    queries.shuffle(&mut StdRng::seed_from_u64(2011));
    let mut engine = CoordinationEngine::new(db, EngineConfig::default());
    let batch = queries
        .into_iter()
        .map(|q| (q, SubmitOptions::default()))
        .collect();

    let (admitted, admit_allocations, admit_peak) = counted(|| engine.submit_batch(batch));
    assert!(admitted.iter().all(Result::is_ok));
    let edges = engine.graph().edge_count() as u64;
    let (report, flush_allocations, flush_peak) = counted(|| engine.flush());
    let mut outcomes = engine.drain_outcome_log();
    outcomes.sort_by_key(|(id, _)| *id);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (id, outcome) in &outcomes {
        let QueryOutcome::Answered(answer) = outcome else {
            panic!("{id:?} not answered: {outcome:?}");
        };
        hash = fnv(hash, &format!("{id:?}"));
        for tuple in &answer.tuples {
            for value in tuple {
                hash = fnv(hash, &format!("{value};"));
            }
        }
    }
    // Each bound is a measured count plus 25 % headroom.
    // (a) A ring has one edge per query, so an allocation per edge
    // shows as one more per query. Measured: 16,995 allocations in a
    // release build, 18,995 in a debug one (the bound's base); with a
    // unifier table per edge it was three more per edge.
    assert_eq!(edges, N as u64);
    assert!(
        admit_allocations < 23_750,
        "admitting {N} queries with {edges} edges made {admit_allocations} allocations"
    );
    // (b) The slot vectors and id maps grow once for the batch instead
    // of doubling through it. Measured: 1,445,528 bytes above the
    // starting heap.
    assert!(
        admit_peak < 1_807_000,
        "admitting {N} queries peaked {admit_peak} bytes above the starting heap"
    );
    // (c) Matching checks each query's seed in one scratch unifier and
    // folds the ring's unifier into the global through one buffer; the
    // plan holds the simplified body once and its unit names the atoms
    // by index; the global unifier and the union-find are dropped before
    // the ring is cut into regions. Measured: 815,880 bytes above the
    // starting heap and 36,320 allocations. With a seed table per query,
    // a list per class in every fold, the atoms moved into the unit and
    // the global kept through evaluation it was 1,292,616 bytes and
    // 50,373 allocations; with per-region atom copies, a resolved query
    // per region alive across both passes and a hash set per witness
    // set as well, 2,883,968 bytes.
    assert!(
        flush_peak < 1_020_000,
        "the flush peaked {flush_peak} bytes above its starting heap"
    );
    assert!(
        flush_allocations < 45_400,
        "the flush made {flush_allocations} allocations"
    );
    // (d) The answers, pinned before edges lost their unifiers.
    assert_eq!(report.answered, N);
    assert_eq!(outcomes.len(), N);
    assert_eq!(hash, 0x3eb6_2241_af79_3830, "answer tuples changed");
}

/// A unit with fewer than two multi-variable conjuncts cannot have two
/// blocks — every edge of its variable graph comes from one such
/// conjunct's clique — so `split_unit` refuses it before allocating
/// anything. The pair and clique workloads' units are all of this kind.
/// Two multi-variable atoms do make it number the variables and build
/// the block-cut tree.
#[test]
fn split_unit_refuses_units_without_two_multi_variable_conjuncts_before_allocating() {
    use eq_core::intra::split_unit;
    use eq_core::WorkUnit;
    use eq_ir::{Atom, CmpOp, Constraint, Term, Var};
    let [x, y, z] = [0, 1, 2].map(|i| Term::var(Var(i)));
    // Splits the unit that is the whole body, counting only the split.
    let split = |atoms: &[Atom], constraints: &[Constraint]| {
        let unit = WorkUnit {
            atoms: (0..atoms.len() as u32).collect(),
            constraints: (0..constraints.len() as u32).collect(),
            regions: None,
        };
        counted(|| split_unit(atoms, constraints, &unit))
    };
    let single_variable = [
        Atom::new("User", vec![Term::str("Jerry"), x]),
        Atom::new("User", vec![Term::str("Kramer"), x]),
        Atom::new("Friends", vec![x, x]),
    ];
    let one_edge = [
        Atom::new("User", vec![x, Term::str("NYC")]),
        Atom::new("Friends", vec![x, y]),
        Atom::new("User", vec![y, Term::str("NYC")]),
    ];
    let below_five = [Constraint::new(x, CmpOp::Lt, Term::int(5))];
    for (atoms, constraints) in [(&single_variable, &below_five[..]), (&one_edge, &[])] {
        let (regions, allocations, _) = split(atoms, constraints);
        assert!(regions.is_none());
        assert_eq!(allocations, 0, "{atoms:?}");
    }
    let chain = [
        Atom::new("Friends", vec![x, y]),
        Atom::new("Friends", vec![y, z]),
    ];
    let (regions, allocations, _) = split(&chain, &[]);
    assert_eq!(regions.map(|rp| rp.regions.len()), Some(2));
    assert!(allocations > 0);
}
