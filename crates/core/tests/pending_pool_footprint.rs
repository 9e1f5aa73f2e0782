//! What the pending pool's bookkeeping costs per query: a counting
//! global allocator, switched on for the test thread alone, follows a
//! prefix of the best-case pair stream (`two_way_pairs`, the paper's
//! Figure 6 workload) into a bare engine and back out of it.
//!
//! * Admission allocates almost nothing of its own: the atom index
//!   keeps its posting lists in a slab, edges and component members are
//!   threaded through per-slot links, and the admission probe fills a
//!   reused edge buffer.
//! * The bookkeeping a pending query holds — index postings, slot
//!   links, slot state, its id entry — is a few hundred bytes.
//! * Retirement allocates nothing beyond the outcome log's own growth,
//!   and a drained pool holds no posting list, no cell and no member.

use eq_core::{CoordinationEngine, EngineConfig, QueryOutcome, QueryStatus};
use eq_ir::{Atom, Constraint, EntangledQuery};
use eq_workload::{build_database, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem::size_of;

/// Counts the allocations of whichever thread has switched counting on,
/// and follows its live bytes: what it allocates minus what it frees.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(grew: i64, allocated: bool) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        if allocated {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
        LIVE.with(|l| l.set(l.get() + grew));
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

/// Runs `f` with this thread's allocations counted, adding them to
/// `allocations`; the live bytes the thread holds keep accumulating
/// across calls (see [`held`]).
fn counted<T>(allocations: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = ALLOCATIONS.with(Cell::get);
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    *allocations += ALLOCATIONS.with(Cell::get) - before;
    out
}

/// Live bytes allocated and not freed inside [`counted`] calls so far.
fn held() -> i64 {
    LIVE.with(Cell::get)
}

/// Queries streamed through the pool.
const N: usize = 6_000;
/// Pending queries the stream keeps: past this, each admission cancels
/// the oldest pending query, so the pool churns as on the benchmark's
/// pair workloads, where most of the stream retires while it arrives
/// (`pairs_incremental` peaks at about 17,500 pending of its 70,000).
const POOL: usize = N / 4;

/// `{R(v, D)} R(u, D) <- Friends(u, v), User(u, c), User(v, c)` over a
/// graph large enough that most users appear in few queries, as on the
/// benchmark's 41,084-user graph.
fn pair_stream() -> (SocialGraph, Vec<EntangledQuery>) {
    let graph = SocialGraph::generate(&SocialGraphConfig {
        users: 8_000,
        planted_cliques: 4,
        ..Default::default()
    });
    let queries = two_way_pairs(&graph, N, PairStyle::BestCase, 2011);
    (graph, queries)
}

/// The heap blocks a query owns: its four vectors. Pair queries' atoms
/// are binary, so their terms sit inline and own nothing.
fn query_heap(query: &EntangledQuery) -> i64 {
    let atoms = [&query.head, &query.postconditions, &query.body];
    assert!(atoms.iter().all(|v| v.iter().all(|a| !a.terms.spilled())));
    let atom_bytes: usize = atoms.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<Atom>();
    (atom_bytes + query.constraints.capacity() * size_of::<Constraint>()) as i64
}

#[test]
fn pending_pool_footprint() {
    let (graph, mut queries) = pair_stream();
    let mut engine = CoordinationEngine::new(build_database(&graph), EngineConfig::default());

    // (a) Admission, one submit per query as on `pairs_incremental`,
    // cancelling the oldest pending query once the pool is full. The
    // queries were built before counting, so what admission is charged
    // is the engine's: validation, renaming, the probe and the
    // bookkeeping.
    let (mut admit_allocations, mut churn_allocations) = (0, 0);
    let mut pending = VecDeque::with_capacity(N);
    // The queries came in with their own heap blocks, which the engine
    // frees inside the count when it drops a refused or retired query:
    // those bytes are added back, so `held` is the bookkeeping alone.
    let mut returned = 0;
    let mut admitted = 0;
    for query in queries.drain(..) {
        let heap = query_heap(&query);
        match counted(&mut admit_allocations, || engine.submit(query)) {
            Ok(handle) => {
                pending.push_back((handle.id, heap));
                admitted += 1;
            }
            Err(_) => returned += heap,
        }
        if pending.len() > POOL {
            let (oldest, heap) = pending.pop_front().expect("a full pool");
            assert!(counted(&mut churn_allocations, || engine.cancel(oldest)));
            returned += heap;
        }
    }
    // The churn's outcomes leave with the log; what stays is the pool.
    counted(&mut churn_allocations, || drop(engine.drain_outcome_log()));
    assert!(admitted > N * 9 / 10, "{admitted} of {N} admitted");
    assert_eq!(engine.pending_count(), POOL);
    let per_query = admit_allocations as f64 / admitted as f64;
    let held = held() + returned;
    let bytes_per_pending = held as f64 / POOL as f64;
    eprintln!(
        "admission: {admit_allocations} allocations for {admitted} queries \
         ({per_query:.2} each); {held} bytes held for {POOL} pending ({bytes_per_pending:.0} each)"
    );
    // Measured in a debug build: 2.02 allocations per query, two of
    // them validation's (the submit's own and admission's debug
    // check), and 587 bytes per pending query. With a `Vec` per posting
    // list, tombstoned postings and cells, a cell map, a hash set per
    // component, a `Vec` per slot's edge lists, separate id and status
    // maps, a deadline per slot and a fresh edge and result vector per
    // submit, it was 9.17 allocations and 1,003 bytes.
    assert!(
        per_query <= 3.0,
        "{per_query:.2} allocations per admitted query"
    );
    assert!(
        bytes_per_pending <= 600.0,
        "{bytes_per_pending:.0} bytes of bookkeeping per pending query"
    );

    // (b) Retirement: cancel the rest. Each outcome goes onto the
    // outcome log, a `Vec`; what the log's growth costs is measured
    // apart, and retirement may allocate nothing beyond it.
    let mut retire_allocations = 0;
    counted(&mut retire_allocations, || {
        for &(id, _) in &pending {
            assert!(engine.cancel(id));
        }
    });
    let outcomes = engine.drain_outcome_log();
    let mut log_allocations = 0;
    counted(&mut log_allocations, || {
        let mut log = Vec::new();
        for (id, outcome) in &outcomes {
            log.push((*id, outcome.clone()));
        }
        log
    });
    eprintln!(
        "retirement: {retire_allocations} allocations for {POOL} queries, \
         {log_allocations} of them the outcome log's"
    );
    assert_eq!(
        retire_allocations, log_allocations,
        "retirement allocated beyond the outcome log"
    );
    assert_eq!(outcomes.len(), POOL);
    assert!(outcomes
        .iter()
        .all(|(_, o)| matches!(o, QueryOutcome::Failed(_))));
    assert!(pending
        .iter()
        .all(|&(id, _)| matches!(engine.status(id), Some(QueryStatus::Failed(_)))));

    // (c) The drained pool holds no posting list, cell, edge or member.
    let g = engine.graph();
    assert_eq!(engine.pending_count(), 0);
    assert!(g.head_index().is_empty() && g.pc_index().is_empty());
    assert_eq!(g.head_index().list_count(), 0);
    assert_eq!(g.pc_index().list_count(), 0);
    assert_eq!(g.edge_count(), 0);
    assert!(g.components().is_empty());
    engine.check_invariants().unwrap();
}
