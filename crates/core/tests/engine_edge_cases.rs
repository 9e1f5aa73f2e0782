//! Engine edge cases beyond the happy paths covered in `engine.rs`'s
//! unit tests: empty flushes, status transitions, re-submission,
//! multi-edge matching, and interaction of deadlines with batching.

use eq_core::engine::{FailReason, NoSolutionPolicy, QueryOutcome};
use eq_core::{
    CoordinationEngine, EngineConfig, EngineMode, QueryStatus, SubmitError, SubmitOptions,
};
use eq_db::Database;
use eq_ir::{EntangledQuery, FastMap, QueryId, ValidationError, Value};
use eq_sql::parse_ir_query;
use std::time::Instant;

fn q(text: &str) -> EntangledQuery {
    parse_ir_query(text).unwrap()
}

/// The engine's outcome log, drained into a map keyed by id.
fn drained(engine: &mut CoordinationEngine) -> FastMap<QueryId, QueryOutcome> {
    engine.drain_outcome_log().into_iter().collect()
}

fn db() -> Database {
    let mut db = Database::new();
    db.create_table("F", &["fno", "dest"]).unwrap();
    db.insert("F", vec![Value::int(122), Value::str("Paris")])
        .unwrap();
    db.insert("F", vec![Value::int(136), Value::str("Rome")])
        .unwrap();
    db
}

#[test]
fn empty_flush_reports_zeroes() {
    let mut engine = CoordinationEngine::new(
        db(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            ..Default::default()
        },
    );
    let report = engine.flush();
    assert_eq!(report.answered, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(report.pending, 0);
    assert_eq!(report.components, 0);
}

#[test]
fn parallel_flush_on_empty_pool_is_fine() {
    let mut engine = CoordinationEngine::new(
        db(),
        EngineConfig {
            mode: EngineMode::SetAtATime { batch_size: 0 },
            flush_threads: 8,
            ..Default::default()
        },
    );
    let report = engine.flush();
    assert_eq!(report.components, 0);
}

#[test]
fn status_transitions_pending_to_answered() {
    let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
    let h1 = engine
        .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
        .unwrap();
    assert_eq!(engine.status(h1.id), Some(&QueryStatus::Pending));
    let h2 = engine
        .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
        .unwrap();
    assert_eq!(engine.status(h1.id), Some(&QueryStatus::Answered));
    assert_eq!(engine.status(h2.id), Some(&QueryStatus::Answered));
    // Unknown ids report nothing.
    assert_eq!(engine.status(eq_ir::QueryId(9999)), None);
}

#[test]
fn same_query_text_can_be_resubmitted_after_failure() {
    let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
    // Athens has no flights: the pair fails with NoSolution.
    let h1 = engine
        .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
        .unwrap();
    let _h2 = engine
        .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
        .unwrap();
    assert!(matches!(
        drained(&mut engine).remove(&h1.id).unwrap(),
        QueryOutcome::Failed(_)
    ));
    // A flight appears; resubmission coordinates.
    engine
        .db()
        .write()
        .insert("F", vec![Value::int(200), Value::str("Athens")])
        .unwrap();
    let h3 = engine
        .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
        .unwrap();
    let h4 = engine
        .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
        .unwrap();
    let mut out = drained(&mut engine);
    assert!(matches!(
        out.remove(&h3.id).unwrap(),
        QueryOutcome::Answered(_)
    ));
    assert!(matches!(
        out.remove(&h4.id).unwrap(),
        QueryOutcome::Answered(_)
    ));
}

#[test]
fn multi_edge_pair_coordinates() {
    // Two queries connected by *two* head/postcondition pairs each way:
    // both travellers mirror two answer relations.
    let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
    let h1 = engine
        .submit(q(
            "{R(Jerry, x) & S(Jerry, x)} R(Kramer, x) & S(Kramer, x) <- F(x, Paris)",
        ))
        .unwrap();
    let h2 = engine
        .submit(q(
            "{R(Kramer, y) & S(Kramer, y)} R(Jerry, y) & S(Jerry, y) <- F(y, Paris)",
        ))
        .unwrap();
    let mut out = drained(&mut engine);
    let (QueryOutcome::Answered(a1), QueryOutcome::Answered(a2)) =
        (out.remove(&h1.id).unwrap(), out.remove(&h2.id).unwrap())
    else {
        panic!("expected both answered");
    };
    // Each answer carries two head tuples (R and S), on the same flight.
    assert_eq!(a1.tuples.len(), 2);
    assert_eq!(a2.tuples.len(), 2);
    assert_eq!(a1.tuples[0][1], a2.tuples[0][1]);
    assert_eq!(a1.tuples[1][1], a1.tuples[0][1]);
}

#[test]
fn staleness_zero_expires_everything_on_next_submit() {
    let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
    let now = || SubmitOptions {
        deadline: Some(Instant::now()),
        ..Default::default()
    };
    let h1 = engine
        .submit_with(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"), now())
        .unwrap();
    // The next submission sweeps the (instantly stale) first query, so
    // the pair never forms.
    let h2 = engine
        .submit_with(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"), now())
        .unwrap();
    let mut out = drained(&mut engine);
    assert_eq!(
        out.remove(&h1.id).unwrap(),
        QueryOutcome::Failed(FailReason::Stale)
    );
    // The second query is alone now (it will expire on the next sweep).
    assert!(!out.contains_key(&h2.id));
    assert_eq!(engine.pending_count(), 1);
}

#[test]
fn keep_pending_policy_in_incremental_mode() {
    // After the database gains the flight, the still-pending component
    // is retried by the next evaluation: an explicit flush, or — in
    // incremental mode — any next submit, even an unrelated one.
    for retry_by_submit in [false, true] {
        let mut engine = CoordinationEngine::new(
            db(),
            EngineConfig {
                on_no_solution: NoSolutionPolicy::KeepPending,
                ..Default::default()
            },
        );
        let h1 = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Athens)"))
            .unwrap();
        let h2 = engine
            .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Athens)"))
            .unwrap();
        // Component closed but no DB solution: both remain pending.
        let mut out = drained(&mut engine);
        assert!(!out.contains_key(&h1.id));
        assert!(!out.contains_key(&h2.id));
        assert_eq!(engine.pending_count(), 2);
        engine
            .db()
            .write()
            .insert("F", vec![Value::int(300), Value::str("Athens")])
            .unwrap();
        if retry_by_submit {
            let lonely = engine
                .submit(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)"))
                .unwrap();
            out.extend(drained(&mut engine));
            assert!(!out.contains_key(&lonely.id));
            assert_eq!(engine.pending_count(), 1);
        } else {
            assert_eq!(engine.flush().answered, 2);
        }
        out.extend(drained(&mut engine));
        for h in [h1, h2] {
            assert!(matches!(
                out.remove(&h.id).unwrap(),
                QueryOutcome::Answered(_)
            ));
        }
    }
}

#[test]
fn handles_survive_engine_drop() {
    let (handle, log) = {
        let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
        let handle = engine
            .submit(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)"))
            .unwrap();
        (handle, engine.drain_outcome_log())
        // Engine dropped here with the query still pending.
    };
    // The handle is a plain id that outlives the engine; the drained
    // log holds no outcome for the still-pending query.
    assert!(log.iter().all(|(id, _)| *id != handle.id));
}

#[test]
fn choose_k_other_than_one_is_refused_at_submit() {
    // The engine answers one coordinated solution (§4.2), so a query
    // asking for CHOOSE k with k ≠ 1 is refused rather than answered as
    // CHOOSE 1; its partner is left alone in the pool.
    let mut engine = CoordinationEngine::new(db(), EngineConfig::default());
    let kramer = q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").with_choose(3);
    assert_eq!(
        engine.submit(kramer).unwrap_err(),
        SubmitError::Invalid(ValidationError::ChooseUnsupported { k: 3 })
    );
    let jerry = engine
        .submit(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)"))
        .unwrap();
    assert!(drained(&mut engine).is_empty());
    assert_eq!(engine.status(jerry.id), Some(&QueryStatus::Pending));
}
