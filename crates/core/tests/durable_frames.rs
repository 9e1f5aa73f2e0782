//! Group-commit guard: a stream of friend pairs through the durable
//! coordinator writes exactly one WAL frame per `submit_batch` and one
//! per flush that retired anything, and stays inside the log-volume
//! budget (the text codec this replaced spent 293 bytes per query on
//! the same shape of stream).

use eq_core::{Coordinator, EngineConfig, EngineMode, SubmitRequest};
use eq_workload::{build_database, two_way_pairs, PairStyle, SocialGraph, SocialGraphConfig};

const PAIRS: usize = 2_000;
const BURST: usize = 100;
const BYTES_PER_QUERY: u64 = 150;

#[test]
fn one_frame_per_call_and_a_bounded_log_volume() {
    let graph = SocialGraph::generate(&SocialGraphConfig {
        users: 4_000,
        planted_cliques: 40,
        ..Default::default()
    });
    let source = build_database(&graph);
    let queries = two_way_pairs(&graph, 2 * PAIRS, PairStyle::BestCase, 2011);
    assert_eq!(queries.len(), 2 * PAIRS);

    let dir = eq_store::scratch_dir("durable-frames");
    let config = EngineConfig {
        mode: EngineMode::SetAtATime { batch_size: 0 },
        ..Default::default()
    };
    let dc = Coordinator::open(&dir, config.clone()).unwrap();
    for (table, columns) in [("User", ["name", "home"]), ("Friends", ["name1", "name2"])] {
        dc.create_table(table, &columns).unwrap();
        let before = dc.wal_stats().unwrap();
        dc.load(table, source.scan(table).unwrap()).unwrap();
        let after = dc.wal_stats().unwrap();
        assert_eq!(
            (after.frames, after.records),
            (before.frames + 1, before.records + 1),
            "a load is one record in one frame"
        );
    }
    dc.checkpoint().unwrap();
    let emptied = dc.wal_stats().unwrap();
    assert_eq!((emptied.frames, emptied.records), (0, 0));

    let (mut submitted, mut retired) = (0u64, 0u64);
    for burst in queries.chunks(BURST) {
        let before = dc.wal_stats().unwrap();
        let requests = burst.iter().cloned().map(SubmitRequest::new).collect();
        let admitted = dc
            .submit_batch(requests)
            .into_iter()
            .filter(Result::is_ok)
            .count() as u64;
        let mid = dc.wal_stats().unwrap();
        assert!(admitted > 0);
        assert_eq!(mid.frames, before.frames + 1, "one frame per submit_batch");
        assert_eq!(mid.records, before.records + admitted);
        submitted += admitted;

        let report = dc.flush();
        let terminal = (report.answered + report.failed) as u64;
        let after = dc.wal_stats().unwrap();
        assert_eq!(
            after.frames,
            mid.frames + u64::from(terminal > 0),
            "one frame per non-empty flush, none for an empty one"
        );
        assert_eq!(after.records, mid.records + terminal);
        retired += terminal;
    }
    assert!(
        retired > submitted / 2,
        "the stream must actually coordinate"
    );
    let stats = dc.wal_stats().unwrap();
    assert_eq!(stats.records, submitted + retired);
    let per_query = stats.bytes / queries.len() as u64;
    assert!(
        per_query <= BYTES_PER_QUERY,
        "{per_query} WAL bytes per query (submit + outcome), budget {BYTES_PER_QUERY}"
    );

    // And what those frames hold is the whole acknowledged history.
    let before = dc.accounting().unwrap();
    drop(dc);
    let dc = Coordinator::open(&dir, config).unwrap();
    assert_eq!(dc.accounting().unwrap(), before);
    eq_store::purge_dir(&dir);
}
