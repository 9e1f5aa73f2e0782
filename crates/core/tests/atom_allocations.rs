//! A binary atom owns no heap allocation: its two terms sit inline in
//! the 48-byte `Atom`. A counting global allocator, switched on for the
//! test thread alone, shows what building, copying, substituting and
//! renaming queries ask for: a best-case pair query (three `Vec<Atom>`s
//! of five binary atoms) clones in three allocations, substitution and
//! renaming add none per binary atom, and a ternary atom spills to
//! exactly one.

use eq_core::{CoordinationEngine, EngineConfig, EngineMode};
use eq_ir::{atom, Atom, EntangledQuery, Symbol, Term, Terms, Var, VarGen};
use eq_workload::{build_database, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (and reallocations) of whichever thread has
/// switched counting on.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    if ON.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each meets `System`'s contract exactly when its caller meets
// `GlobalAlloc`'s. `note` neither allocates nor unwinds: it touches
// const-initialized `Cell`s that have no destructor to register.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` with this thread's allocations counted: its result and the
/// number of allocations.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

fn graph() -> SocialGraph {
    SocialGraph::generate(&SocialGraphConfig {
        users: 400,
        planted_cliques: 4,
        ..Default::default()
    })
}

/// `{R(v, D)} R(u, D) <- Friends(u, v), User(u, c), User(v, c)`.
fn best_case_pairs(n: usize) -> Vec<EntangledQuery> {
    two_way_pairs(&graph(), n, PairStyle::BestCase, 2011)
}

fn v(i: u32) -> Term {
    Term::var(Var(i))
}

#[test]
fn a_best_case_pair_query_clones_in_three_allocations() {
    for query in best_case_pairs(40) {
        let atoms = query.head.len() + query.postconditions.len() + query.body.len();
        assert_eq!(atoms, 5);
        assert!(query.constraints.is_empty());
        let (copy, allocations) = counted(|| query.clone());
        assert_eq!(copy, query);
        // The head, postcondition and body vectors; no atom allocates.
        assert_eq!(allocations, 3, "{query}");
    }
}

#[test]
fn substitution_and_renaming_allocate_nothing_per_binary_atom() {
    let atom = atom!("R", [v(0), Term::str("Paris")]);
    let (out, allocations) = counted(|| atom.apply(&|x: Var| Some(Term::int(x.0 as i64))));
    assert_eq!(allocations, 0);
    assert_eq!(out, atom!("R", [Term::int(0), Term::str("Paris")]));
    let (built, allocations) = counted(|| Atom::with_terms("R", [v(1), v(2)]));
    assert_eq!(allocations, 0);
    assert_eq!(built.arity(), 2);

    let gen = VarGen::starting_at(1_000);
    for query in best_case_pairs(40) {
        // A renamed copy costs the clone's three vectors, nothing more.
        let (renamed, allocations) = counted(|| query.rename_apart(&gen));
        assert_eq!(allocations, 3);
        assert_ne!(renamed.variables(), query.variables());
        // In place, nothing at all.
        let mut query = query;
        let ((), allocations) = counted(|| query.rename_apart_in_place(&gen));
        assert_eq!(allocations, 0);
        assert_eq!(query.variables().len(), renamed.variables().len());
    }
}

#[test]
fn in_place_renaming_allocates_only_past_eight_variables() {
    let gen = VarGen::new();
    let query = |vars: u32| {
        let body = (0..vars).map(|i| atom!("F", [v(i), v(i)])).collect();
        EntangledQuery::new(vec![atom!("R", [v(0), v(vars - 1)])], vec![], body)
    };
    let mut eight = query(8);
    let ((), allocations) = counted(|| eight.rename_apart_in_place(&gen));
    assert_eq!(allocations, 0);
    let mut nine = query(9);
    let ((), allocations) = counted(|| nine.rename_apart_in_place(&gen));
    assert!(allocations > 0, "the ninth variable goes into a map");
    // Renaming keeps first-occurrence numbering either way.
    let fresh = |q: &EntangledQuery| q.variables().windows(2).all(|w| w[0].0 + 1 == w[1].0);
    assert!(fresh(&eight) && fresh(&nine));
}

#[test]
fn a_ternary_atom_spills_to_exactly_one_allocation() {
    let terms = [v(0), v(1), Term::int(3)];
    let t = Symbol::new("T");
    let (atom, allocations) = counted(|| Atom::with_terms(t, terms));
    assert_eq!(allocations, 1);
    assert!(atom.terms.spilled());
    let (_, allocations) = counted(|| atom.clone());
    assert_eq!(allocations, 1);
    let (_, allocations) = counted(|| atom.apply(&|_| Some(Term::int(0))));
    assert_eq!(allocations, 1);
    let (pushed, allocations) = counted(|| {
        let mut pushed = Terms::new();
        for t in terms {
            pushed.push(t);
        }
        pushed
    });
    assert_eq!(allocations, 1);
    assert_eq!(pushed, atom.terms);
}

#[test]
fn admission_allocates_no_renamed_copy() {
    // A batch-mode engine admits without evaluating: what a submit
    // allocates is the admission step plus the engine's bookkeeping
    // (graph slot, index postings, id maps). The query is renamed in
    // the vectors it came in.
    let queries = best_case_pairs(2_000);
    let n = queries.len();
    let mut engine = CoordinationEngine::new(
        build_database(&graph()),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        },
    );
    let (admitted, allocations) = counted(|| {
        queries
            .into_iter()
            .filter(|q| engine.submit(q.clone()).is_ok())
            .count()
    });
    assert!(admitted > n / 2);
    // Measured 12.98 per submit, 3 of them the `clone` above; 26.98
    // when atoms kept their terms in a `Vec` and admission renamed a
    // copy through a `HashMap`.
    assert!(
        allocations <= 14 * n,
        "{allocations} allocations for {n} submits"
    );
}
