//! The durable service's tests: recovery, the log and image formats'
//! golden bytes, and round trips through an empty dictionary.

use super::codec::{
    decode_outcome, decode_submit, put_entry, put_iv, put_uv, Cur, Dict, Enc, WallClock,
    REC_CREATE_TABLE, REC_OUTCOME, REC_SUBMIT,
};
use super::recovery::{encode_image, open_with_state, Recovered, CHECKPOINT_VERSION};
use super::sink::put_frame;
use super::*;
use crate::combine::QueryAnswer;
use crate::engine::{
    EngineMode, FailReason, NoSolutionPolicy, QueryHandle, QueryStatus, RejectReason,
};
use crate::service::SubmitRequest;
use eq_db::{Database, Tuple};
use eq_ir::{Atom, CmpOp, Constraint, EntangledQuery, FastMap, Symbol, Term, Value, Var};
use eq_sql::parse_ir_query;
use eq_store::{write_checkpoint, StoreError};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::time::Instant;

fn config() -> EngineConfig {
    EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..Default::default()
    }
}

fn q(text: &str) -> EntangledQuery {
    parse_ir_query(text).unwrap()
}

fn seed(dc: &Coordinator) {
    dc.create_table("F", &["fno", "dest"]).unwrap();
    dc.load(
        "F",
        vec![
            vec![Value::int(122), Value::str("Paris")],
            vec![Value::int(136), Value::str("Rome")],
        ],
    )
    .unwrap();
}

fn table_rows(dc: &Coordinator, table: &str) -> Vec<Tuple> {
    dc.db().read().scan(table).unwrap()
}

/// One submission outside any session, as a batch of one.
fn submit(dc: &Coordinator, request: SubmitRequest) -> Result<QueryHandle, CoordinationError> {
    dc.submit_batch(vec![request])
        .pop()
        .expect("one result per request")
}

/// The acknowledged ids still pending, ascending.
fn pending_ids(dc: &Coordinator) -> Vec<QueryId> {
    let accounting = dc.accounting().expect("a durable coordinator");
    accounting
        .into_iter()
        .filter(|(_, o)| o.is_none())
        .map(|(id, _)| id)
        .collect()
}

fn answered(outcome: Option<QueryOutcome>) -> bool {
    matches!(outcome, Some(QueryOutcome::Answered(_)))
}

#[test]
fn reopen_restores_pending_and_outcomes() {
    for mode in [
        EngineMode::SetAtATime { batch_size: 0 },
        EngineMode::Incremental,
    ] {
        let incremental = mode == EngineMode::Incremental;
        let config = EngineConfig {
            mode,
            ..Default::default()
        };
        let dir = eq_store::scratch_dir(&format!("durable-reopen-{incremental}"));
        let (answered_ids, lonely, kept) = {
            let dc = Coordinator::open(&dir, config.clone()).unwrap();
            seed(&dc);
            let a = submit(
                &dc,
                SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
            )
            .unwrap();
            let b = submit(
                &dc,
                SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
            )
            .unwrap();
            dc.flush();
            let lonely = submit(
                &dc,
                SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")).tag("lonely"),
            )
            .unwrap();
            // A KeepPending pair submitted before its row is loaded:
            // matched, no solution yet. The row lands, and the
            // process dies before anything evaluates again.
            let keep = |text| {
                let request = SubmitRequest::new(q(text));
                submit(&dc, request.on_no_solution(NoSolutionPolicy::KeepPending))
                    .unwrap()
                    .id
            };
            let kept = vec![
                keep("{S(Puddy, u)} S(Elaine, u) <- F(u, Oslo)"),
                keep("{S(Elaine, v)} S(Puddy, v) <- F(v, Oslo)"),
            ];
            dc.flush();
            assert_eq!(pending_ids(&dc), vec![lonely.id, kept[0], kept[1]]);
            dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
                .unwrap();
            (vec![a.id, b.id], lonely.id, kept)
        };

        let dc = Coordinator::open(&dir, config.clone()).unwrap();
        // One lock for re-admitting the whole pending set and
        // staging what that re-admission retired — not one per query.
        assert_eq!(dc.lock_stats().acquisitions, 1);
        // Outcomes restored exactly; the unmatched query is pending
        // again under its original id, tag intact.
        for &id in &answered_ids {
            assert!(answered(dc.outcome(id)), "{id:?}");
        }
        // In incremental mode the one evaluation at the end of
        // recovery answers the kept pair; set-at-a-time waits for a
        // flush.
        for &id in &kept {
            assert_eq!(answered(dc.outcome(id)), incremental, "{mode:?} {id:?}");
        }
        let mut pending = vec![lonely];
        if !incremental {
            pending.extend(&kept);
        }
        assert_eq!(pending_ids(&dc), pending);
        assert!(matches!(dc.status(lonely), Some(QueryStatus::Pending)));
        // New submissions never reuse an id.
        let fresh = submit(
            &dc,
            SubmitRequest::new(q("{R(Frank, z)} R(Newman, z) <- F(z, Rome)")),
        )
        .unwrap();
        assert!(fresh.id.0 > kept[1].0);
        // Both pairs coordinate after recovery.
        dc.flush();
        for id in [lonely, fresh.id, kept[0], kept[1]] {
            assert!(answered(dc.outcome(id)), "{mode:?} {id:?}");
        }
        drop(dc);

        // Every outcome landed in the log after its submission
        // record: replayed again, each id is terminal exactly once.
        let dc = Coordinator::open(&dir, config).unwrap();
        let accounting = dc.accounting().unwrap();
        let mut ids = answered_ids.clone();
        ids.extend([lonely, kept[0], kept[1], fresh.id]);
        let recorded: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
        assert_eq!(recorded, ids);
        assert!(accounting.into_iter().all(|(_, o)| answered(o)));
        eq_store::purge_dir(&dir);
    }
}

/// A directory written with the Figure-9 check off can hold an
/// acknowledged pending set the check would refuse. Reopening with
/// the check on re-links it as acknowledged; matching-time §3.1.1
/// enforcement sidelines the ambiguous consumer.
#[test]
fn reopening_with_the_check_on_keeps_an_unsafe_pending_set() {
    let dir = eq_store::scratch_dir("durable-check-on");
    let unchecked = EngineConfig {
        admission_safety_check: false,
        ..config()
    };
    let ids: Vec<QueryId> = {
        let dc = Coordinator::open(&dir, unchecked).unwrap();
        dc.create_table("T", &["v"]).unwrap();
        ["{} X(a) <- T(a)", "{} X(b) <- T(b)", "{X(v)} Y(v) <- T(v)"]
            .into_iter()
            .map(|text| submit(&dc, SubmitRequest::new(q(text))).unwrap().id)
            .collect()
    };
    let checked = config();
    assert!(checked.admission_safety_check);
    let dc = Coordinator::open(&dir, checked).unwrap();
    assert_eq!(pending_ids(&dc), ids);
    let pending: Vec<(QueryId, Option<QueryOutcome>)> = ids.iter().map(|&id| (id, None)).collect();
    assert_eq!(dc.accounting().unwrap(), pending);
    let consumer = ids[2];
    assert_eq!(dc.safety_sidelined(), vec![consumer]);
    dc.flush();
    assert_eq!(dc.status(consumer), Some(QueryStatus::Pending));
    assert_eq!(dc.outcome(consumer), None);
    eq_store::purge_dir(&dir);
}

#[test]
fn checkpoint_truncates_wal_and_survives_reopen() {
    let dir = eq_store::scratch_dir("durable-ckpt");
    let pending_id = {
        let dc = Coordinator::open(&dir, config()).unwrap();
        seed(&dc);
        let h = submit(
            &dc,
            SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
        )
        .unwrap();
        assert!(dc.wal_stats().unwrap().frames > 0);
        dc.checkpoint().unwrap();
        assert_eq!(dc.wal_stats().unwrap().frames, 0);
        h.id
    };
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(pending_ids(&dc), vec![pending_id]);
    assert_eq!(table_rows(&dc, "F").len(), 2, "checkpointed rows restored");
    // Post-checkpoint history keeps accumulating on the fresh WAL.
    dc.load("F", vec![vec![Value::int(200), Value::str("Rome")]])
        .unwrap();
    drop(dc);
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(table_rows(&dc, "F").len(), 3);
    eq_store::purge_dir(&dir);
}

#[test]
fn accounting_is_exactly_once_across_restart() {
    let dir = eq_store::scratch_dir("durable-account");
    let acknowledged = {
        let dc = Coordinator::open(&dir, config()).unwrap();
        seed(&dc);
        let mut ids = Vec::new();
        for i in 0..4 {
            let h = submit(
                &dc,
                SubmitRequest::new(q(&format!(
                    "{{R(B{i}, ITH)}} R(A{i}, ITH) <- F(x{i}, Paris)"
                ))),
            )
            .unwrap();
            ids.push(h.id);
        }
        dc.flush(); // nothing pairs: all four stay pending
        let h = submit(
            &dc,
            SubmitRequest::new(q("{R(A0, ITH)} R(B0, ITH) <- F(y, Paris)")),
        )
        .unwrap();
        ids.push(h.id);
        dc.flush(); // first pair answers
        ids
    };
    let dc = Coordinator::open(&dir, config()).unwrap();
    let accounting = dc.accounting().unwrap();
    let ids: Vec<QueryId> = accounting.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, acknowledged, "every acknowledged id, exactly once");
    let terminal = accounting.iter().filter(|(_, o)| o.is_some()).count();
    assert_eq!(terminal, 2, "the answered pair is terminal, rest pending");
    eq_store::purge_dir(&dir);
}

/// The mirrors hold encoded bytes, not object graphs: this only
/// compiles while that is so.
#[test]
fn mirrors_hold_encoded_bytes() {
    let dir = eq_store::scratch_dir("durable-mirror");
    let (dc, state) = open_with_state(&dir, config()).unwrap();
    seed(&dc);
    let h = submit(
        &dc,
        SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
    )
    .unwrap();
    let state = state.lock();
    let pending: &FastMap<QueryId, Box<[u8]>> = &state.pending;
    let _ledger: &FastMap<QueryId, Box<[u8]>> = &state.outcomes;
    let body = &pending[&h.id];
    assert!(body.len() < 40, "{} bytes for a two-atom query", body.len());
    let back = decode_submit(h.id, body, &state.dict, WallClock::now()).unwrap();
    assert_eq!(
        back.query.head,
        q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)").head
    );
    drop(state);
    eq_store::purge_dir(&dir);
}

/// A state directory as a failed truncation leaves it: an image at
/// watermark W, and a log with frames below W (folded into the
/// image) and above it (acknowledged afterwards).
#[test]
fn open_skips_stale_frames_and_leaves_the_log_alone() {
    let dir = eq_store::scratch_dir("durable-stale-prefix");
    let (answered, pending) = {
        let (dc, state) = open_with_state(&dir, config()).unwrap();
        seed(&dc);
        let a = submit(
            &dc,
            SubmitRequest::new(q("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)")),
        )
        .unwrap();
        let b = submit(
            &dc,
            SubmitRequest::new(q("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris)")),
        )
        .unwrap();
        assert_eq!(dc.flush().answered, 2);
        let lonely = submit(
            &dc,
            SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
        )
        .unwrap();
        // The image lands, the truncation does not happen, and the
        // service keeps acknowledging.
        dc.with_exclusive(|| {
            let db = dc.db();
            let guard = db.read();
            let next_id = dc.id_watermark();
            state.lock().write_image(&guard, next_id).unwrap();
        });
        let below = dc.wal_stats().unwrap();
        assert!(below.frames > 0, "the superseded frames must remain");
        // Above the watermark: a load, and a submission whose names
        // (Oslo, Elaine, Puddy) are defined by these frames only.
        dc.load("F", vec![vec![Value::int(200), Value::str("Oslo")]])
            .unwrap();
        let late = submit(
            &dc,
            SubmitRequest::new(q("{R(Elaine, w)} R(Puddy, w) <- F(w, Oslo)")),
        )
        .unwrap();
        assert_eq!(dc.wal_stats().unwrap().frames, below.frames + 2);
        (vec![a.id, b.id], vec![lonely.id, late.id])
    };

    let wal_path = dir.join(WAL_FILE);
    let log_before = std::fs::read(&wal_path).unwrap();
    let mut accountings = Vec::new();
    for _ in 0..2 {
        // Reopen must neither fail (replaying the create-table would
        // hit a duplicate relation) nor double-apply the folded load.
        let dc = Coordinator::open(&dir, config()).unwrap();
        assert_eq!(table_rows(&dc, "F").len(), 3, "2 in the image + 1 above it");
        assert_eq!(pending_ids(&dc), pending);
        for &id in &answered {
            assert!(matches!(dc.outcome(id), Some(QueryOutcome::Answered(_))));
        }
        accountings.push(dc.accounting().unwrap());
        drop(dc);
        assert_eq!(
            std::fs::read(&wal_path).unwrap(),
            log_before,
            "open reads the log, it does not rewrite it"
        );
    }
    assert_eq!(accountings[0], accountings[1]);

    // History keeps accumulating behind the stale prefix, and the
    // next checkpoint is what finally truncates it.
    let dc = Coordinator::open(&dir, config()).unwrap();
    dc.load("F", vec![vec![Value::int(300), Value::str("Rome")]])
        .unwrap();
    drop(dc);
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(table_rows(&dc, "F").len(), 4);
    dc.checkpoint().unwrap();
    assert_eq!(dc.wal_stats().unwrap().frames, 0);
    drop(dc);
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(table_rows(&dc, "F").len(), 4);
    assert_eq!(dc.accounting().unwrap(), accountings[0]);
    eq_store::purge_dir(&dir);
}

#[test]
fn load_checkpoint_load_kill_finds_every_row_once() {
    let dir = eq_store::scratch_dir("durable-load-ckpt-load");
    let first: Vec<Tuple> = (0..50)
        .map(|i| vec![Value::int(i), Value::str("Paris")])
        .collect();
    let second: Vec<Tuple> = (50..80)
        .map(|i| vec![Value::int(i), Value::str("Lima")])
        .collect();
    {
        let dc = Coordinator::open(&dir, config()).unwrap();
        dc.create_table("F", &["fno", "dest"]).unwrap();
        dc.load("F", first.clone()).unwrap();
        dc.checkpoint().unwrap();
        dc.load("F", second.clone()).unwrap();
    } // killed
    let dc = Coordinator::open(&dir, config()).unwrap();
    let mut expected = first;
    expected.extend(second);
    assert_eq!(
        table_rows(&dc, "F"),
        expected,
        "every row exactly once, in order"
    );
    eq_store::purge_dir(&dir);
}

/// Formats are replaced, not converted: an image of version 3, which
/// wrote every cell as a tag and a value, is refused whole.
#[test]
fn an_image_of_another_version_is_refused() {
    #[rustfmt::skip]
    let version_3: &[u8] = &[
        3, 4, 17, 3, 2, b'T', b'i', 1, b'a', 1, b'b',
        1, 0, 2, 1, 2, 1,                       // one table Ti(a, b), 1 row
        2, 1, 1, 1, 3,                          //   (-1, -2), one tagged cell each
        0, 0,                                   // no pending, no outcomes
    ];
    let mut recovered = Recovered::default();
    assert!(matches!(
        recovered.apply_image(version_3),
        Err(DurableError::Store(StoreError::Corrupt(
            "checkpoint version"
        )))
    ));
    let dir = eq_store::scratch_dir("durable-version");
    write_checkpoint(&dir.join(CHECKPOINT_FILE), version_3).unwrap();
    assert!(matches!(
        Coordinator::open(&dir, config()),
        Err(DurableError::Store(StoreError::Corrupt(
            "checkpoint version"
        )))
    ));
    assert!(
        !dir.join(WAL_FILE).exists(),
        "refused before the log is opened"
    );
    eq_store::purge_dir(&dir);
}

/// A log written before the log had a header, or under another version,
/// is refused before any frame applies: the reopen fails, the log is
/// left as it was, and no table appears.
#[test]
fn a_log_without_this_version_header_is_refused() {
    let dir = eq_store::scratch_dir("durable-wal-version");
    {
        let dc = Coordinator::open(&dir, config()).unwrap();
        seed(&dc);
    }
    let wal_path = dir.join(WAL_FILE);
    let log = std::fs::read(&wal_path).unwrap();
    assert_eq!(&log[..8], b"EQWLOG01");
    let unversioned = log[8..].to_vec();
    let mut other = log.clone();
    other[7] = b'2';
    for (bytes, error) in [(unversioned, "wal header"), (other, "wal version")] {
        std::fs::write(&wal_path, &bytes).unwrap();
        let refused = Coordinator::open(&dir, config()).err();
        assert!(
            matches!(refused, Some(DurableError::Store(StoreError::Corrupt(e))) if e == error),
            "{refused:?}"
        );
        assert_eq!(std::fs::read(&wal_path).unwrap(), bytes);
    }
    std::fs::write(&wal_path, &log).unwrap();
    let dc = Coordinator::open(&dir, config()).unwrap();
    assert_eq!(table_rows(&dc, "F").len(), 2);
    drop(dc);
    eq_store::purge_dir(&dir);
}

// -----------------------------------------------------------------
// Codec
// -----------------------------------------------------------------

#[test]
fn varints_cover_the_64_bit_edges() {
    for x in [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u64::from(u32::MAX),
        u64::MAX,
    ] {
        let mut out = Vec::new();
        put_uv(&mut out, x);
        let mut cur = Cur::new(&out);
        assert_eq!(cur.uv().unwrap(), x);
        cur.finish().unwrap();
    }
    for x in [0, -1, 1, -64, 64, i64::MIN, i64::MAX] {
        let mut out = Vec::new();
        put_iv(&mut out, x);
        assert_eq!(Cur::new(&out).iv().unwrap(), x);
    }
    // Eleven continuation bytes, and a tenth byte with bits beyond 64.
    assert!(Cur::new(&[0xff; 11]).uv().is_err());
    assert!(
        Cur::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 2])
            .uv()
            .is_err()
    );
    assert!(Cur::new(&[0x80]).uv().is_err(), "truncated");
    // A count larger than the bytes behind it allocates nothing.
    assert!(Cur::new(&[0xff, 0xff, 0xff, 0x7f, 0]).count().is_err());
}

/// A frame payload the way `DurableState::commit` lays it out.
fn frame_payload(base_seqno: u64, dict: &mut Dict, records: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    put_frame(&mut frame, base_seqno, dict, records);
    dict.logged = dict.symbols.len();
    frame
}

fn submit_record(dict: &mut Dict, id: u64, query: &EntangledQuery, tag: Option<&str>) -> Vec<u8> {
    let mut body = Vec::new();
    Enc {
        out: &mut body,
        dict,
    }
    .submit(query, tag, Some(NoSolutionPolicy::KeepPending), None);
    let mut record = vec![REC_SUBMIT];
    put_entry(&mut record, QueryId(id), &body);
    record
}

fn outcome_record(dict: &mut Dict, id: u64, outcome: &QueryOutcome) -> Vec<u8> {
    let mut body = Vec::new();
    Enc {
        out: &mut body,
        dict,
    }
    .outcome(outcome);
    let mut record = vec![REC_OUTCOME];
    put_entry(&mut record, QueryId(id), &body);
    record
}

/// Pinned bytes of one frame: the format is on disk, and local ids
/// are dense from 0 in order of first use — whatever indices the
/// process-wide interner handed these names.
#[test]
fn golden_frame_decodes_from_an_empty_dictionary() {
    for i in 0..100 {
        Symbol::new(&format!("golden-noise-{i}"));
    }
    let query = q("{Rg(Kramer, x)} Rg(Jerry, x) <- Fg(x, Paris), x >= -5");
    let answer = QueryOutcome::Answered(QueryAnswer {
        query: QueryId(7),
        relations: vec![Symbol::new("Rg")],
        tuples: vec![vec![Value::str("Jerry"), Value::int(300)]],
    });
    let mut dict = Dict::default();
    let mut records = vec![REC_CREATE_TABLE];
    Enc {
        out: &mut records,
        dict: &mut dict,
    }
    .schema(
        Symbol::new("Fg"),
        &[Symbol::new("fno"), Symbol::new("dest")],
    );
    Enc {
        out: &mut records,
        dict: &mut dict,
    }
    .load(
        Symbol::new("Fg"),
        &[vec![Value::int(300), Value::str("Paris")]],
    );
    records.extend(submit_record(&mut dict, 7, &query, Some("t")));
    records.extend(outcome_record(&mut dict, 7, &answer));
    let frame = frame_payload(5, &mut dict, &records);

    #[rustfmt::skip]
    let golden: &[u8] = &[
        5, 0,                                   // base_seqno, dict_base
        7,                                      // definitions: ids 0..7
        2, b'F', b'g', 3, b'f', b'n', b'o', 4, b'd', b'e', b's', b't',
        5, b'P', b'a', b'r', b'i', b's', 2, b'R', b'g',
        5, b'J', b'e', b'r', b'r', b'y', 6, b'K', b'r', b'a', b'm', b'e', b'r',
        1, 0, 2, 1, 2,                          // create table Fg(fno, dest)
        2, 0, 1, 2, 1, 0xd8, 0x04, 2, 3,        // load Fg: 1 row (300, Paris)
        3, 7, 32,                               // submit, id 7, 32-byte body
        1, 4, 2, 2, 5, 0, 0,                    //   head Rg(Jerry, ?0)
        1, 4, 2, 2, 6, 0, 0,                    //   postcondition Rg(Kramer, ?0)
        1, 0, 2, 0, 0, 2, 3,                    //   body Fg(?0, Paris)
        1, 0, 0, 3, 1, 9,                       //   constraint ?0 >= -5
        1,                                      //   choose 1
        1, 1, b't',                             //   tag "t"
        2,                                      //   keep pending
        4, 7, 11,                               // outcome, id 7, 11-byte body
        0, 7, 1, 4, 1, 2, 2, 5, 1, 0xd8, 0x04,  //   answered q7: Rg(Jerry, 300)
    ];
    assert_eq!(
        frame, golden,
        "frame bytes changed: that is a format change"
    );

    let mut recovered = Recovered {
        next_seqno: 5,
        ..Default::default()
    };
    recovered.apply_frame(golden).unwrap();
    assert_eq!(recovered.next_seqno, 9);
    assert_eq!(recovered.next_query_id, 8);
    assert_eq!(
        recovered.db.scan("Fg").unwrap(),
        vec![vec![Value::int(300), Value::str("Paris")]]
    );
    assert!(recovered.pending.is_empty(), "the outcome retired q7");
    let ledger = decode_outcome(&recovered.outcomes[&QueryId(7)], &recovered.dict).unwrap();
    assert_eq!(ledger, answer);
    // The frame extends exactly the dictionary it was written
    // after: replayed on top of anything else it is refused.
    assert!(recovered.apply_frame(&frame_with_base(golden, 9)).is_err());
}

/// Every outcome `retire` can record, byte for byte: the body
/// format is on disk.
#[test]
fn reachable_outcomes_keep_their_bytes() {
    let answered = QueryOutcome::Answered(QueryAnswer {
        query: QueryId(7),
        relations: vec![Symbol::new("Ro")],
        tuples: vec![vec![Value::str("Jerry"), Value::int(300)]],
    });
    let rejected = |r| QueryOutcome::Failed(FailReason::Rejected(r));
    let cases: [(QueryOutcome, &[u8]); 5] = [
        (answered, &[0, 7, 1, 0, 1, 2, 2, 1, 1, 0xd8, 0x04]),
        (rejected(RejectReason::NonUcs), &[1, 2]),
        (rejected(RejectReason::NoSolution), &[1, 4]),
        (QueryOutcome::Failed(FailReason::Stale), &[2]),
        (QueryOutcome::Failed(FailReason::Cancelled), &[3]),
    ];
    let mut dict = Dict::default();
    for (outcome, golden) in cases {
        let mut body = Vec::new();
        Enc {
            out: &mut body,
            dict: &mut dict,
        }
        .outcome(&outcome);
        assert_eq!(body, golden, "{outcome:?}");
        assert_eq!(decode_outcome(&body, &dict).unwrap(), outcome);
    }
}

/// A dated submit body, byte for byte: the undated body with the
/// policy byte's high bit set and the deadline behind it. An undated
/// body's policy byte is 0, 1 or 2, all a reader that predates dated
/// bodies accepts; a dated one is none of them, so such a reader
/// refuses it as corrupt instead of reading it as undated.
#[test]
fn a_dated_submit_body_keeps_its_bytes() {
    let query = q("{Rd(Bo, x)} Rd(Al, x) <- Td(x)");
    let mut dict = Dict::default();
    let mut body = Vec::new();
    let keep = Some(NoSolutionPolicy::KeepPending);
    let ms = 1_700_000_000_123;
    Enc {
        out: &mut body,
        dict: &mut dict,
    }
    .submit(&query, None, keep, Some(ms));
    #[rustfmt::skip]
    let golden: &[u8] = &[
        1, 0, 2, 2, 1, 0, 0,                        // head Rd(Al, ?0)
        1, 0, 2, 2, 2, 0, 0,                        // postcondition Rd(Bo, ?0)
        1, 3, 1, 0, 0,                              // body Td(?0)
        0, 1, 0,                                    // no constraints, choose 1, no tag
        0x82,                                       // keep pending, dated
        0xfb, 0xd0, 0x95, 0xff, 0xbc, 0x31,         // deadline 1,700,000,000,123 ms
    ];
    assert_eq!(
        body, golden,
        "submit body bytes changed: that is a format change"
    );
    assert!(
        body[22] > 2,
        "an undated reader's policy tags are 0, 1 and 2"
    );

    // Read back: a deadline already past (this one is in 2023) is due
    // at once; one ahead keeps its distance from the clocks' reading.
    let clock = WallClock::now();
    let back = decode_submit(QueryId(9), &body, &dict, clock).unwrap();
    assert_eq!(back.on_no_solution, keep);
    let deadline = back.deadline.expect("a dated body decodes dated");
    assert!(deadline <= Instant::now(), "a past deadline is due at once");
    for ahead in [0, 1, 5_000, 86_400_000] {
        let ms = clock.unix_ms(Instant::now()) + ahead;
        let mut body = Vec::new();
        Enc {
            out: &mut body,
            dict: &mut dict,
        }
        .submit(&query, None, keep, Some(ms));
        let back = decode_submit(QueryId(9), &body, &dict, clock).unwrap();
        assert_eq!(back.deadline.map(|d| clock.unix_ms(d)), Some(ms));
    }
    // The deadline is part of the body: cut short, or with an unknown
    // policy under the flag, it is refused.
    assert!(decode_submit(QueryId(9), &golden[..golden.len() - 1], &dict, clock).is_err());
    let mut unknown = golden.to_vec();
    unknown[22] = 0x83;
    assert!(matches!(
        decode_submit(QueryId(9), &unknown, &dict, clock),
        Err(StoreError::Corrupt("policy tag"))
    ));
}

/// An outcome record whose reject reason has a tag no reason owns
/// is a corrupt frame, not a panic and not a decoded outcome.
#[test]
fn unowned_reject_reason_tags_are_corrupt() {
    for body in [&[1u8, 0, 0][..], &[1, 1], &[1, 3]] {
        let mut record = vec![REC_OUTCOME];
        put_entry(&mut record, QueryId(1), body);
        let frame = frame_payload(0, &mut Dict::default(), &record);
        let err = Recovered::default().apply_frame(&frame).unwrap_err();
        assert!(
            matches!(
                err,
                DurableError::Store(StoreError::Corrupt("reject-reason tag"))
            ),
            "{body:?}: {err:?}"
        );
    }
}

/// `frame` with its base sequence number (one byte here) replaced.
fn frame_with_base(frame: &[u8], base: u8) -> Vec<u8> {
    let mut frame = frame.to_vec();
    frame[0] = base;
    frame
}

/// Pinned bytes of one image, derived from the module docs' grammar: a
/// table with a tombstoned row (its freed codes are not written, and
/// the codes after them are renumbered), a pending submission and a
/// ledger entry.
#[test]
fn golden_image_decodes_from_an_empty_dictionary() {
    let mut db = Database::new();
    db.create_table("Ti", &["a", "b"]).unwrap();
    db.insert_many(
        "Ti",
        vec![
            vec![Value::int(-1), Value::str("héllo")],
            vec![Value::int(5), Value::str("gone")],
            vec![Value::int(i64::MIN), Value::str("")],
            vec![Value::int(-1), Value::str("")],
        ],
    )
    .unwrap();
    assert!(db
        .delete("Ti", &[Value::int(5), Value::str("gone")])
        .unwrap());
    let mut dict = Dict::default();
    let query = q("{Ri(Bo, x)} Ri(Al, x) <- Ti(x, y)");
    let mut pending = FastMap::default();
    let mut outcomes = FastMap::default();
    let record = submit_record(&mut dict, 3, &query, None);
    pending.insert(QueryId(3), Box::<[u8]>::from(&record[3..]));
    let stale = QueryOutcome::Failed(FailReason::Stale);
    let record = outcome_record(&mut dict, 2, &stale);
    outcomes.insert(QueryId(2), Box::<[u8]>::from(&record[3..]));
    let image = encode_image(&db, 4, 17, &mut dict, &pending, &outcomes);

    #[rustfmt::skip]
    let golden: &[u8] = &[
        4, 4, 17,                               // version, next query id, wal seqno
        8,                                      // string table: ids 0..8
        2, b'R', b'i', 2, b'A', b'l', 2, b'B', b'o', 2, b'T', b'i', 1, b'a', 1, b'b',
        6, b'h', 0xc3, 0xa9, b'l', b'l', b'o', 0,
        1,                                      // one table
        3, 2, 4, 5,                             //   Ti(a, b)
        3,                                      //   3 live rows
        4,                                      //   4 live values, in code order:
        1, 1,                                   //     0: -1
        2, 6,                                   //     1: "héllo"
        1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1,
                                                //     2: i64::MIN (table code 4)
        2, 7,                                   //     3: "" (table code 5)
        0, 1,  2, 3,  0, 3,                     //   rows 0, 2, 3 (row 1 deleted)
        1, 3, 25,                               // one pending: id 3, 25-byte body
        1, 0, 2, 2, 1, 0, 0,                    //   head Ri(Al, ?0)
        1, 0, 2, 2, 2, 0, 0,                    //   postcondition Ri(Bo, ?0)
        1, 3, 2, 0, 0, 0, 1,                    //   body Ti(?0, ?1)
        0, 1, 0, 2,                             //   no constraints, choose 1, no tag, keep pending
        1, 2, 1, 2,                             // one outcome: id 2, stale
    ];
    assert_eq!(
        image, golden,
        "image bytes changed: that is a format change"
    );

    assert_eq!(u64::from(golden[0]), CHECKPOINT_VERSION);
    let mut recovered = Recovered::default();
    recovered.apply_image(golden).unwrap();
    assert_eq!((recovered.next_query_id, recovered.next_seqno), (4, 17));
    assert_eq!(recovered.db.scan("Ti").unwrap(), db.scan("Ti").unwrap());
    let back = decode_submit(
        QueryId(3),
        &recovered.pending[&QueryId(3)],
        &recovered.dict,
        WallClock::now(),
    );
    let back = back.unwrap();
    assert_eq!(
        (
            &back.query.head,
            &back.query.postconditions,
            &back.query.body
        ),
        (&query.head, &query.postconditions, &query.body)
    );
    assert_eq!(back.on_no_solution, Some(NoSolutionPolicy::KeepPending));
    let ledger = decode_outcome(&recovered.outcomes[&QueryId(2)], &recovered.dict).unwrap();
    assert_eq!(ledger, stale);
    let table = recovered.db.table(Symbol::new("Ti")).unwrap();
    assert_eq!(table.postings(0, Value::int(-1)), [0, 2]);
    assert_eq!(table.postings(0, Value::int(i64::MIN)), [1]);
    assert_eq!(table.postings(1, Value::str("")), [1, 2]);
    assert_eq!(table.postings(1, Value::str("gone")), [0u32; 0]);
    // Truncated anywhere, the image is refused, never misread.
    for cut in 0..golden.len() {
        assert!(
            Recovered::default().apply_image(&golden[..cut]).is_err(),
            "cut {cut}"
        );
    }
    // A code at the dictionary's length is corrupt, not an index
    // past it.
    let rows = golden.iter().position(|&b| b == 7).unwrap() + 1;
    assert_eq!(&golden[rows..rows + 6], [0, 1, 2, 3, 0, 3]);
    let mut past = golden.to_vec();
    past[rows + 5] = 4;
    assert!(matches!(
        Recovered::default().apply_image(&past),
        Err(DurableError::Store(StoreError::Corrupt("table code")))
    ));
}

/// Symbols `0..DISTINCT`, so local ids take one, two and three
/// varint bytes; texts include the empty string, non-ASCII and a
/// 300-byte name.
const DISTINCT: u64 = 17_000;

fn any_symbol(rng: &mut TestRng) -> Symbol {
    match rng.below(40) {
        0 => Symbol::new(""),
        1 => Symbol::new("naïve-Ünicode-名前"),
        2 => Symbol::new(&"x".repeat(300)),
        // Skewed so every id width shows up in every case.
        n => {
            let bound = [100, 10_000, DISTINCT][n as usize % 3];
            Symbol::new(&format!("sym{}", rng.below(bound)))
        }
    }
}

fn any_value(rng: &mut TestRng) -> Value {
    match rng.below(8) {
        0 => Value::Int(i64::MIN),
        1 => Value::Int(i64::MAX),
        2 => Value::Int(-(rng.below(1 << 40) as i64)),
        3 => Value::Int(rng.next_u64() as i64),
        4 => Value::Int(rng.below(300) as i64),
        _ => Value::Str(any_symbol(rng)),
    }
}

fn any_term(rng: &mut TestRng) -> Term {
    match rng.below(3) {
        0 => Term::Var(Var(rng.below(1 << 20) as u32)),
        1 => Term::Var(Var(rng.below(4) as u32)),
        _ => Term::Const(any_value(rng)),
    }
}

fn any_atoms(rng: &mut TestRng, max: u64) -> Vec<Atom> {
    (0..rng.below(max + 1))
        .map(|_| Atom {
            relation: any_symbol(rng),
            terms: (0..rng.below(5)).map(|_| any_term(rng)).collect(),
        })
        .collect()
}

fn any_rows(rng: &mut TestRng) -> Vec<Tuple> {
    (0..rng.below(6))
        .map(|_| (0..rng.below(4)).map(|_| any_value(rng)).collect())
        .collect()
}

fn any_query(rng: &mut TestRng) -> EntangledQuery {
    const OPS: [CmpOp; 5] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge, CmpOp::Ne];
    EntangledQuery {
        id: QueryId(rng.next_u64()),
        head: any_atoms(rng, 3),
        postconditions: any_atoms(rng, 3),
        body: any_atoms(rng, 4),
        constraints: (0..rng.below(3))
            .map(|_| Constraint {
                lhs: any_term(rng),
                op: OPS[rng.below(5) as usize],
                rhs: any_term(rng),
            })
            .collect(),
        choose: rng.below(5) as u32,
    }
}

/// The outcomes `retire` can record.
fn any_outcome(rng: &mut TestRng) -> QueryOutcome {
    let reason = match rng.below(8) {
        0 => FailReason::Rejected(RejectReason::NonUcs),
        1 => FailReason::Rejected(RejectReason::NoSolution),
        2 => FailReason::Stale,
        3 => FailReason::Cancelled,
        _ => {
            return QueryOutcome::Answered(QueryAnswer {
                query: QueryId(rng.next_u64()),
                relations: (0..rng.below(4)).map(|_| any_symbol(rng)).collect(),
                tuples: any_rows(rng),
            })
        }
    };
    QueryOutcome::Failed(reason)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever is committed — in any number of frames, each
    /// defining the symbols it is first to use — decodes, from an
    /// empty dictionary, to exactly what was encoded.
    #[test]
    fn frames_round_trip_through_an_empty_dictionary(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let mut dict = Dict::default();
        let mut recovered = Recovered::default();
        // Earlier frames fill the dictionary, so this case's ids
        // start anywhere in the one- to three-byte range.
        let mut filler = Vec::new();
        for i in 0..rng.below(DISTINCT) {
            dict.id(Symbol::new(&format!("sym{i}")));
            filler.push(i);
        }
        let mut submitted = Vec::new();
        let mut retired = Vec::new();
        let mut loaded: Vec<Tuple> = Vec::new();
        let mut next_seqno = 0;
        let table = Symbol::new("Tany");
        for frame_no in 0..1 + rng.below(4) {
            let mut records = Vec::new();
            let mut count = 0;
            if frame_no == 0 {
                records.push(REC_CREATE_TABLE);
                let columns = [Symbol::new("c0"), Symbol::new("c1")];
                Enc { out: &mut records, dict: &mut dict }.schema(table, &columns);
                count += 1;
            }
            for _ in 0..rng.below(4) {
                let query = any_query(&mut rng);
                let tag = (rng.below(2) == 0).then(|| format!("tag-{}-é", rng.below(100)));
                let id = submitted.len() as u64 + 1;
                records.extend(submit_record(&mut dict, id, &query, tag.as_deref()));
                submitted.push((query, tag));
                count += 1;
            }
            for _ in 0..rng.below(4) {
                let outcome = any_outcome(&mut rng);
                let id = 1_000 + retired.len() as u64;
                records.extend(outcome_record(&mut dict, id, &outcome));
                retired.push(outcome);
                count += 1;
            }
            if rng.below(2) == 0 {
                let rows: Vec<Tuple> = (0..rng.below(5))
                    .map(|_| vec![any_value(&mut rng), any_value(&mut rng)])
                    .collect();
                Enc { out: &mut records, dict: &mut dict }.load(table, &rows);
                loaded.extend(rows);
                count += 1;
            }
            if count == 0 {
                continue;
            }
            let frame = frame_payload(next_seqno, &mut dict, &records);
            next_seqno += count;
            prop_assert!(recovered.apply_frame(&frame).is_ok());
        }
        prop_assert_eq!(recovered.next_seqno, next_seqno);
        prop_assert_eq!(recovered.dict.symbols.clone(), dict.symbols.clone());
        prop_assert_eq!(&recovered.db.scan("Tany").unwrap_or_default(), &loaded);
        for (i, (query, tag)) in submitted.iter().enumerate() {
            let id = QueryId(i as u64 + 1);
            let back = decode_submit(id, &recovered.pending[&id], &recovered.dict, WallClock::now());
            prop_assert!(back.is_ok());
            let back = back.unwrap();
            let expected = EntangledQuery { id, ..query.clone() };
            prop_assert_eq!(back.query, expected);
            prop_assert_eq!(&back.tag, tag);
            prop_assert_eq!(back.on_no_solution, Some(NoSolutionPolicy::KeepPending));
        }
        for (i, outcome) in retired.iter().enumerate() {
            let body = &recovered.outcomes[&QueryId(1_000 + i as u64)];
            let back = decode_outcome(body, &recovered.dict).ok();
            prop_assert_eq!(back.as_ref(), Some(outcome));
        }

        // The same state through an image, again from nothing.
        let image = encode_image(
            &recovered.db,
            recovered.next_query_id,
            recovered.next_seqno,
            &mut dict,
            &recovered.pending,
            &recovered.outcomes,
        );
        let mut reloaded = Recovered::default();
        prop_assert!(reloaded.apply_image(&image).is_ok());
        prop_assert_eq!(&reloaded.db.scan("Tany").unwrap_or_default(), &loaded);
        prop_assert_eq!(&reloaded.pending, &recovered.pending);
        prop_assert_eq!(&reloaded.outcomes, &recovered.outcomes);
        prop_assert_eq!(reloaded.next_seqno, recovered.next_seqno);
    }
}

/// An in-memory coordinator keeps no log: its durable views answer
/// "not durable", and it still creates tables.
#[test]
fn an_in_memory_coordinator_is_not_durable() {
    let c = Coordinator::new(Database::new(), config());
    seed(&c);
    let h = submit(
        &c,
        SubmitRequest::new(q("{R(Newman, z)} R(Frank, z) <- F(z, Rome)")),
    )
    .unwrap();
    assert!(matches!(c.checkpoint(), Err(DurableError::NotDurable)));
    assert_eq!(c.accounting(), None);
    assert_eq!(c.outcome(h.id), None);
    assert_eq!(c.wal_stats(), None);
    assert_eq!(table_rows(&c, "F").len(), 2);
}

/// A random value: small integers (so values repeat across rows and
/// columns), the 64-bit edges, and strings from a small pool.
fn any_cell(rng: &mut TestRng) -> Value {
    match rng.below(8) {
        0 => Value::int(i64::MIN),
        1 => Value::int(i64::MAX),
        2..=4 => Value::int(rng.below(12) as i64 - 4),
        _ => Value::str(&format!("v{}", rng.below(10))),
    }
}

/// Random tables through a checkpoint: each live row's cells, the
/// source's live rows in id order, and each column's postings of every
/// live value with the source's ids renumbered to their place among the
/// live rows (a reopened table holds no tombstones).
type TableView = (Vec<Tuple>, Vec<Vec<(Value, Vec<u32>)>>);

fn table_view(db: &Database, name: &str) -> TableView {
    let table = db.table(Symbol::new(name)).unwrap();
    let live: Vec<u32> = (0..table.row_id_bound())
        .filter(|&id| table.liveness().is_live(id))
        .collect();
    let rows = db.scan(name).unwrap();
    let postings = (0..table.schema().arity())
        .map(|col| {
            let mut values: Vec<Value> = rows.iter().map(|row| row[col]).collect();
            values.sort_unstable();
            values.dedup();
            values
                .into_iter()
                .map(|value| {
                    let ids = table.postings(col, value).iter();
                    let ranks = ids.map(|id| live.binary_search(id).unwrap() as u32);
                    (value, ranks.collect())
                })
                .collect()
        })
        .collect();
    (rows, postings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A checkpoint reopens every table row for row, in the same order,
    /// with the same postings of every live value — so join order and
    /// answers cannot move — whatever deletes left tombstones and freed
    /// codes and whatever a reload after them reused. A byte changed
    /// anywhere in the image file is refused as corrupt; one changed in
    /// the image's payload is refused or yields tables that agree with
    /// their own indexes, and never panics.
    #[test]
    fn images_reopen_tables_row_for_row(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let dir = eq_store::scratch_dir("durable-image-round-trip");
        let names: Vec<String> = (0..1 + rng.below(3)).map(|t| format!("T{t}")).collect();
        let expected: Vec<TableView> = {
            let dc = Coordinator::open(&dir, config()).unwrap();
            for name in &names {
                let arity = 1 + rng.below(3) as usize;
                let columns: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
                let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
                dc.create_table(name, &columns).unwrap();
                let batch = |rng: &mut TestRng| -> Vec<Tuple> {
                    (0..rng.below(40))
                        .map(|_| (0..arity).map(|_| any_cell(rng)).collect())
                        .collect()
                };
                dc.load(name, batch(&mut rng)).unwrap();
                let db = dc.db();
                let mut db = db.write();
                for row in db.scan(name).unwrap() {
                    if rng.below(3) == 0 {
                        prop_assert!(db.delete(name, &row).unwrap());
                    }
                }
                if rng.below(2) == 0 {
                    db.insert_many(name, batch(&mut rng)).unwrap();
                }
            }
            dc.checkpoint().unwrap();
            let db = dc.db();
            let db = db.read();
            names.iter().map(|name| table_view(&db, name)).collect()
        };

        let dc = Coordinator::open(&dir, config()).unwrap();
        {
            let db = dc.db();
            let db = db.read();
            for (name, view) in names.iter().zip(&expected) {
                prop_assert_eq!(&table_view(&db, name), view);
            }
        }
        drop(dc);

        let image_path = dir.join(CHECKPOINT_FILE);
        let file = std::fs::read(&image_path).unwrap();
        let payload = eq_store::read_checkpoint(&image_path).unwrap().unwrap();
        for _ in 0..8 {
            let mut bytes = file.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.below(255) as u8;
            std::fs::write(&image_path, &bytes).unwrap();
            prop_assert!(matches!(
                Coordinator::open(&dir, config()),
                Err(DurableError::Store(StoreError::Corrupt(_)))
            ));

            let mut bytes = payload.clone();
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] ^= 1 + rng.below(255) as u8;
            let mut recovered = Recovered::default();
            if recovered.apply_image(&bytes).is_ok() {
                for name in recovered.db.table_names().collect::<Vec<_>>() {
                    let (rows, postings) = table_view(&recovered.db, name.as_str());
                    for (col, values) in postings.iter().enumerate() {
                        let filed: usize = values.iter().map(|(_, ids)| ids.len()).sum();
                        prop_assert_eq!(filed, rows.len());
                        for (value, ids) in values {
                            for &id in ids {
                                prop_assert_eq!(rows[id as usize][col], *value);
                            }
                        }
                    }
                }
            }
        }
        eq_store::purge_dir(&dir);
    }
}
