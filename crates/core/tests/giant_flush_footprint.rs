//! The giant flush holds its component once: edges keep no unifier, the
//! atom indexes and the region plan name atoms instead of copying them,
//! and one region's resolved query is alive at a time. A counting global
//! allocator, switched on for the test thread alone, measures what one
//! `submit_batch` and one `flush` of a 2,000-query shared-variable ring
//! ask for, and that `split_unit` asks for nothing on a unit that
//! cannot split.

use eq_core::{CoordinationEngine, EngineConfig, EngineMode, QueryOutcome, SubmitOptions};
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
    let config = EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..EngineConfig::default()
    };
    let mut engine = CoordinationEngine::new(db, config);
    let batch = queries
        .into_iter()
        .map(|q| (q, SubmitOptions::default()))
        .collect();

    let (admitted, admit_allocations, _) = counted(|| engine.submit_batch(batch));
    assert!(admitted.iter().all(Result::is_ok));
    let edges = engine.graph().edge_count() as u64;
    let (report, _, flush_peak) = counted(|| engine.flush());
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
    // (a) A ring has one edge per query, so an allocation per edge
    // shows as one more per query. Measured: 33,060 allocations in a
    // release build, 35,060 in a debug one; with a unifier table per
    // edge it was 39,059 and 41,059 — three more per edge.
    assert_eq!(edges, N as u64);
    assert!(
        admit_allocations < 37_000,
        "admitting {N} queries with {edges} edges made {admit_allocations} allocations"
    );
    // (b) Measured: 1,554,936 bytes above the starting heap, bound with
    // 25 % headroom. With per-region atom copies, a resolved query per
    // region alive across both passes and a hash set per witness set it
    // was 2,883,968.
    assert!(
        flush_peak < 1_950_000,
        "the flush peaked {flush_peak} bytes above its starting heap"
    );
    // (c) The answers, pinned before edges lost their unifiers.
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
    let unit = |atoms: Vec<Atom>, constraints: Vec<Constraint>| WorkUnit {
        atoms,
        constraints,
        regions: None,
    };
    let single_variable = unit(
        vec![
            Atom::new("User", vec![Term::str("Jerry"), x]),
            Atom::new("User", vec![Term::str("Kramer"), x]),
            Atom::new("Friends", vec![x, x]),
        ],
        vec![Constraint::new(x, CmpOp::Lt, Term::int(5))],
    );
    let one_edge = unit(
        vec![
            Atom::new("User", vec![x, Term::str("NYC")]),
            Atom::new("Friends", vec![x, y]),
            Atom::new("User", vec![y, Term::str("NYC")]),
        ],
        vec![],
    );
    for unit in [&single_variable, &one_edge] {
        let (regions, allocations, _) = counted(|| split_unit(unit));
        assert!(regions.is_none());
        assert_eq!(allocations, 0, "{:?}", unit.atoms);
    }
    let chain = unit(
        vec![
            Atom::new("Friends", vec![x, y]),
            Atom::new("Friends", vec![y, z]),
        ],
        vec![],
    );
    let (regions, allocations, _) = counted(|| split_unit(&chain));
    assert_eq!(regions.map(|rp| rp.regions.len()), Some(2));
    assert!(allocations > 0);
}
