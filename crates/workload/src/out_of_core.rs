//! The out-of-core workload flavor: the same social-network experiment
//! database, but with the hot `Friends` relation spilled to
//! `eq_store`'s paged backend under a cache budget a configurable
//! factor smaller than the relation's data — so every evaluation round
//! actually exercises page faults, write-backs, and CLOCK eviction
//! rather than fitting in the cache.
//!
//! `User` stays in-memory (it is the small dimension table); `Friends`
//! carries the join traffic, which is exactly the table the paper's
//! workloads hammer through the body atom `Friends(x, y)`.

use crate::SocialGraph;
use eq_db::{Database, TableSchema};
use eq_store::{PageCacheConfig, PagedTable};
use std::path::PathBuf;

/// Bytes per encoded `Friends` row in the paged backend (arity 2, 9
/// bytes per cell — see `eq_store`'s row encoding).
const FRIENDS_ROW_BYTES: usize = 2 * 9;

/// An out-of-core experiment database and the knobs it was built with.
pub struct OutOfCoreSetup {
    /// `Friends` paged (spilled), `User` in-memory.
    pub db: Database,
    /// Scratch directory holding the page file — pass to
    /// [`eq_store::purge_dir`] when done.
    pub dir: PathBuf,
    /// The page-cache byte budget the `Friends` table runs under.
    pub budget_bytes: usize,
    /// Bytes of page-file data the `Friends` rows occupy — at least
    /// `spill_ratio ×` the budget, so the workload cannot go resident.
    pub hot_data_bytes: usize,
}

/// Builds the experiment database with `Friends` on the paged backend,
/// its cache budget sized at `1/spill_ratio` of the relation's page
/// data (min one page): `spill_ratio = 10` gives the "hot relation ≥
/// 10× cache budget" regime. Page placement is a fresh
/// [`eq_store::scratch_dir`].
pub fn build_out_of_core_database(
    graph: &SocialGraph,
    page_bytes: usize,
    spill_ratio: usize,
) -> OutOfCoreSetup {
    let mut rows = 0usize;
    for u in 0..graph.num_users() {
        rows += graph.friends(u).len();
    }
    let rows_per_page = (page_bytes / FRIENDS_ROW_BYTES).max(1);
    let pages = rows.div_ceil(rows_per_page);
    let hot_data_bytes = pages * page_bytes;
    let budget_bytes = (hot_data_bytes / spill_ratio.max(1)).max(page_bytes);

    let dir = eq_store::scratch_dir("out-of-core");
    let friends = PagedTable::create(
        &dir,
        TableSchema::new("Friends", &["name1", "name2"]),
        PageCacheConfig {
            page_bytes,
            budget_bytes,
        },
    )
    .expect("paged Friends table");

    let mut db = Database::new();
    db.attach_table(Box::new(friends)).expect("fresh database");
    db.create_table("User", &["name", "home"])
        .expect("fresh database");

    crate::load_social_tables(&mut db, graph);

    OutOfCoreSetup {
        db,
        dir,
        budget_bytes,
        hot_data_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_database, SocialGraphConfig};

    #[test]
    fn spilled_database_answers_like_the_resident_one() {
        let g = SocialGraph::generate(&SocialGraphConfig {
            users: 300,
            ..Default::default()
        });
        let setup = build_out_of_core_database(&g, 256, 10);
        assert!(
            setup.hot_data_bytes >= 10 * setup.budget_bytes,
            "hot {} vs budget {}",
            setup.hot_data_bytes,
            setup.budget_bytes
        );
        let resident = build_database(&g);
        let mut spilled_rows = setup.db.scan("Friends").unwrap();
        let mut resident_rows = resident.scan("Friends").unwrap();
        spilled_rows.sort();
        resident_rows.sort();
        assert_eq!(spilled_rows, resident_rows);
        // The load alone already overflowed the budget.
        let io = setup.db.io_stats();
        assert!(io.resident_bytes_peak as usize <= setup.budget_bytes);
        assert!(io.evictions > 0);
        eq_store::purge_dir(&setup.dir);
    }
}
