//! End-to-end engine integration: two-way coordination scenarios — two
//! queries entangled on the same flight (travel) or the same gift
//! choice — and a hub with an ambiguous postcondition, driven through
//! a `Coordinator` in both `Incremental` and `SetAtATime` modes (the
//! mode is the service's cadence), asserting that the modes agree with
//! each other and with the brute-force oracle of §2.3 — and, as a
//! property over the paper's two-way workload generator, that one flush
//! of a bare engine answers exactly the components the oracle finds a
//! coordinating set for.

use eq_core::engine::{FailReason, NoSolutionPolicy, QueryOutcome};
use eq_core::{
    bruteforce, safety, ucs, CoordinationEngine, Coordinator, EngineConfig, EngineMode, Event,
    MatchGraph, OverflowPolicy,
};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, Value, VarGen};
use eq_sql::parse_ir_query;
use eq_workload::{build_database, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

fn q(text: &str) -> EntangledQuery {
    parse_ir_query(text).unwrap()
}

/// Gifts(gift, price) — Elaine and George coordinate on one gift for
/// Jerry: Elaine only considers gifts the Bargains table also lists,
/// George anything from the registry.
fn gift_db() -> Database {
    let mut db = Database::new();
    db.create_table("Registry", &["gift", "price"]).unwrap();
    db.create_table("Bargains", &["gift"]).unwrap();
    for (g, p) in [("puzzle", 30), ("fruit", 10), ("label_maker", 25)] {
        db.insert("Registry", vec![Value::str(g), Value::int(p)])
            .unwrap();
    }
    for g in ["fruit", "label_maker"] {
        db.insert("Bargains", vec![Value::str(g)]).unwrap();
    }
    db
}

fn flight_db() -> Database {
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    db.create_table("A", &["fno", "airline"]).unwrap();
    for (fno, dest) in [(122, "Paris"), (123, "Paris"), (136, "Rome")] {
        db.insert("F", vec![Value::int(fno), Value::str(dest)])
            .unwrap();
    }
    for (fno, al) in [(122, "United"), (123, "United"), (136, "Alitalia")] {
        db.insert("A", vec![Value::int(fno), Value::str(al)])
            .unwrap();
    }
    db
}

/// Drives the queries through a `Coordinator` in the given mode; returns
/// the terminal outcome of each query (None = still pending).
fn drive(db: Database, mode: EngineMode, queries: &[EntangledQuery]) -> Vec<Option<QueryOutcome>> {
    let config = EngineConfig {
        mode,
        ..Default::default()
    };
    drive_with(db, config, queries)
}

/// One submit per query, then — in set-at-a-time mode — one flush;
/// each query's outcome is read off its terminal event.
fn drive_with(
    db: Database,
    config: EngineConfig,
    queries: &[EntangledQuery],
) -> Vec<Option<QueryOutcome>> {
    let set_at_a_time = matches!(config.mode, EngineMode::SetAtATime { .. });
    let coordinator = Coordinator::new(db, config);
    let events = coordinator.subscribe_with(queries.len() + 1, OverflowPolicy::Block);
    let mut session = coordinator.session();
    let handles: Vec<_> = queries
        .iter()
        .map(|query| session.submit(query.clone()).unwrap())
        .collect();
    if set_at_a_time {
        coordinator.flush();
    }
    let mut log: FastMap<QueryId, QueryOutcome> = FastMap::default();
    for event in events.drain() {
        let outcome = match &*event {
            Event::Answered { answer, .. } => QueryOutcome::Answered(answer.clone()),
            Event::Failed { reason, .. } => QueryOutcome::Failed(FailReason::Rejected(*reason)),
            Event::Flushed(_) => continue,
            other => panic!("no query expires or is cancelled here: {other:?}"),
        };
        assert!(log.insert(event.id().unwrap(), outcome).is_none());
    }
    handles.into_iter().map(|h| log.remove(&h.id)).collect()
}

fn answered_tuple(outcome: &Option<QueryOutcome>) -> &[Value] {
    match outcome {
        Some(QueryOutcome::Answered(a)) => &a.tuples[0],
        other => panic!("expected an answer, got {other:?}"),
    }
}

#[test]
fn gift_choice_coordinates_in_both_modes_and_matches_bruteforce() {
    // Elaine gives Jerry gift g only if George gives the same g, and
    // she only buys bargains; George reciprocates from the registry.
    let elaine = q("{R(George, g)} R(Elaine, g) <- Registry(g, p), Bargains(g)");
    let george = q("{R(Elaine, h)} R(George, h) <- Registry(h, p2)");
    let queries = [elaine, george];

    let incremental = drive(gift_db(), EngineMode::Incremental, &queries);
    let batched = drive(
        gift_db(),
        EngineMode::SetAtATime { batch_size: 0 },
        &queries,
    );

    // Both coordinated, on the same gift, in both modes.
    for outcomes in [&incremental, &batched] {
        let e = answered_tuple(&outcomes[0]);
        let g = answered_tuple(&outcomes[1]);
        assert_eq!(e[1], g[1], "Elaine and George must pick the same gift");
        assert!(
            e[1] == Value::str("fruit") || e[1] == Value::str("label_maker"),
            "the shared gift must be a bargain, got {:?}",
            e[1]
        );
    }
    assert_eq!(
        answered_tuple(&incremental[0])[1],
        answered_tuple(&batched[0])[1],
        "modes must agree on the chosen gift"
    );

    // The brute-force generic-semantics oracle also finds a total
    // coordinating set.
    let gen = eq_ir::VarGen::new();
    let renamed: Vec<EntangledQuery> = queries.iter().map(|x| x.rename_apart(&gen)).collect();
    let solution = bruteforce::find_coordinating_set(&renamed, &gift_db(), true).unwrap();
    assert!(solution.is_some(), "oracle must coordinate the gift pair");
}

#[test]
fn flight_choice_coordinates_and_oracle_agrees_on_failure_too() {
    // Kramer/Jerry coordinate on a United flight to Paris — succeeds.
    let ok = [
        q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"),
        q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)"),
    ];
    for mode in [
        EngineMode::Incremental,
        EngineMode::SetAtATime { batch_size: 0 },
    ] {
        let outcomes = drive(flight_db(), mode, &ok);
        let k = answered_tuple(&outcomes[0]);
        let j = answered_tuple(&outcomes[1]);
        assert_eq!(k[1], j[1], "same flight");
        assert!(j[1] == Value::int(122) || j[1] == Value::int(123));
    }
    let gen = eq_ir::VarGen::new();
    let renamed: Vec<EntangledQuery> = ok.iter().map(|x| x.rename_apart(&gen)).collect();
    assert!(
        bruteforce::find_coordinating_set(&renamed, &flight_db(), true)
            .unwrap()
            .is_some()
    );

    // Newman wants Rome on United — no such flight: both fail, and the
    // oracle agrees there is no total coordinating set.
    let bad = [
        q("{R(Newman, x)} R(Kramer, x) <- F(x, Rome), A(x, United)"),
        q("{R(Kramer, y)} R(Newman, y) <- F(y, Rome), A(y, United)"),
    ];
    for mode in [
        EngineMode::Incremental,
        EngineMode::SetAtATime { batch_size: 0 },
    ] {
        let outcomes = drive(flight_db(), mode, &bad);
        for o in &outcomes {
            assert!(
                matches!(o, Some(QueryOutcome::Failed(_))),
                "expected failure, got {o:?}"
            );
        }
    }
    let renamed: Vec<EntangledQuery> = bad.iter().map(|x| x.rename_apart(&gen)).collect();
    assert!(
        bruteforce::find_coordinating_set(&renamed, &flight_db(), true)
            .unwrap()
            .is_none()
    );
}

#[test]
fn hub_with_an_ambiguous_postcondition_gets_the_same_outcomes_in_both_modes() {
    // 65 users each want to go to Ithaca with Ann; then Ann wants to go
    // with *someone* she is a buddy of. Her postcondition unifies with
    // all 65 heads, so §3.1.1 sidelines her, and nobody else can be
    // satisfied without her head: every query stays pending — in both
    // modes, although incremental mode evaluates after each arrival
    // and set-at-a-time mode only once at the end.
    const USERS: usize = 65;
    let mut db = Database::new();
    db.create_table("Buddy", &["a", "b"]).unwrap();
    for i in 0..USERS {
        let user = format!("U{i}");
        for (a, b) in [(user.as_str(), "Ann"), ("Ann", user.as_str())] {
            db.insert("Buddy", vec![Value::str(a), Value::str(b)])
                .unwrap();
        }
    }
    let mut queries: Vec<EntangledQuery> = (0..USERS)
        .map(|i| q(&format!("{{R(Ann, ITH)}} R(U{i}, ITH) <- Buddy(U{i}, Ann)")))
        .collect();
    queries.push(q("{R(x, ITH)} R(Ann, ITH) <- Buddy(Ann, x)"));

    let outcomes = |mode| {
        let config = EngineConfig {
            mode,
            admission_safety_check: false,
            ..Default::default()
        };
        drive_with(db.snapshot(), config, &queries)
    };
    let incremental = outcomes(EngineMode::Incremental);
    let batched = outcomes(EngineMode::SetAtATime { batch_size: 0 });
    assert_eq!(incremental, batched, "modes must agree query for query");
    assert!(incremental.iter().all(Option::is_none), "{incremental:?}");
}

fn social_graph() -> &'static SocialGraph {
    static GRAPH: OnceLock<SocialGraph> = OnceLock::new();
    GRAPH.get_or_init(|| {
        SocialGraph::generate(&SocialGraphConfig {
            users: 400,
            airports: 6,
            planted_cliques: 60,
            ..Default::default()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn flush_agrees_with_bruteforce_on_two_way(seed in 0u64..500) {
        let queries = two_way_pairs(social_graph(), 12, PairStyle::BestCase, seed);
        let db = build_database(social_graph());
        let config = EngineConfig {
            admission_safety_check: false,
            on_no_solution: NoSolutionPolicy::Reject,
            ..Default::default()
        };
        // The engine assigns its own QueryIds at submission, so key
        // outcomes by submission index — the same order the match-graph
        // slots below use.
        let mut engine = CoordinationEngine::new(db.snapshot(), config);
        let handles: Vec<_> = queries
            .iter()
            .map(|query| engine.submit(query.clone()).unwrap())
            .collect();
        engine.flush();
        let log: FastMap<QueryId, QueryOutcome> = engine.drain_outcome_log().into_iter().collect();
        let answered: Vec<bool> = handles
            .iter()
            .map(|h| matches!(log.get(&h.id), Some(QueryOutcome::Answered(_))))
            .collect();

        // Per unifiability component, the engine answers everyone iff
        // the generic-semantics brute force finds a total coordinating
        // set (components here are friend pairs, so the search is tiny).
        let gen = VarGen::new();
        let renamed: Vec<EntangledQuery> = queries
            .iter()
            .map(|q| q.rename_apart(&gen).with_id(q.id))
            .collect();
        let mg = MatchGraph::build(renamed.clone());
        // The engine's pipeline enforces the §3.1.1 safety rule and the
        // §3.1.2 UCS condition before evaluating; the generic-semantics
        // oracle knows neither, so the comparison only covers safe, UCS
        // components (overlapping users in the sampled pairs can create
        // ambiguous pcs or cross-SCC edges).
        let mut alive = vec![true; mg.len()];
        safety::enforce(&mg, &mut alive);
        for component in mg.components() {
            if component.iter().any(|&s| !alive[s as usize]) {
                continue;
            }
            let mut comp_alive = vec![false; mg.len()];
            for &s in &component {
                comp_alive[s as usize] = true;
            }
            if !ucs::violations(&mg, &comp_alive).is_empty() {
                continue;
            }
            let comp: Vec<EntangledQuery> = component
                .iter()
                .map(|&s| renamed[s as usize].clone())
                .collect();
            let oracle = bruteforce::find_coordinating_set(&comp, &db, true)
                .unwrap()
                .is_some();
            let engine_all = component.iter().all(|&s| answered[s as usize]);
            prop_assert_eq!(
                engine_all, oracle,
                "seed={} component={:?}", seed, component
            );
        }
    }
}
