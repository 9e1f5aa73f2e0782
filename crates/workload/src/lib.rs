//! Workload generators reproducing the paper's evaluation setup (§5.2):
//! a social network of 82,168 users over 102 airports, and the query
//! generators behind Figures 6–9.
//!
//! The paper used the Slashdot February 2009 trace from SNAP; that trace
//! is not redistributable here, so [`SocialGraph::generate`] builds a
//! synthetic scale-free graph (preferential attachment) of the same
//! size, symmetrized, with explicit triangle closure and planted cliques
//! so that the three-way (§5.3.2) and multi-postcondition (§5.3.3)
//! workloads have the structures they require. Hometowns are assigned so
//! that, as far as possible, at least half of each user's friends share
//! their city — the paper's stated property.
//!
//! Workload schema (§5.2):
//!
//! ```text
//! Reserve(UserName, Destination)   -- the ANSWER relation
//! Friends(UserName1, UserName2)
//! User(UserName, HomeTown)
//! ```

#![forbid(unsafe_code)]

mod churn;
mod giant;
mod out_of_core;
mod queries;
pub mod rng;
mod service;
mod social;

pub use churn::{churn_script, ChurnConfig, ChurnOp};
pub use giant::{giant_component, giant_detour, GiantBody, GiantComponentConfig};
pub use out_of_core::{build_out_of_core_database, OutOfCoreSetup};
pub use queries::{
    chains, clique_groups, giant_cluster, grid_pairs, no_unify, three_way_triangles, two_way_pairs,
    unsafe_arrivals, unsafe_residents, PairStyle,
};
pub use service::{
    scale_service_script, service_script, ScaleScript, ScaleServiceConfig, ScriptSubmission,
    ServiceConfig, ServiceOp,
};
pub use social::{SocialGraph, SocialGraphConfig};

use eq_db::{Database, DbError, Tuple};

/// Builds the experiment database (`Friends` + `User` tables) from a
/// social graph, streaming each table's rows through one
/// [`Database::bulk_load`]. The `Reserve` relation is virtual (an
/// ANSWER relation) and is *not* a database table.
pub fn build_database(graph: &SocialGraph) -> Database {
    let mut db = Database::new();
    db.create_table("Friends", &["name1", "name2"])
        .expect("fresh database");
    db.create_table("User", &["name", "home"])
        .expect("fresh database");
    load_social_tables(&mut db, graph);
    db
}

/// Fills `User` (one row per user) and then `Friends` (one row per
/// directed friendship, user by user) straight from the graph, each
/// table with one [`Database::bulk_load`] (one revision bump per
/// table): rows are written into the table one at a time, so a load
/// never holds a table as a list of rows.
fn load_social_tables(db: &mut Database, graph: &SocialGraph) {
    let users = graph.num_users();
    let mut next = 0..users;
    let loaded = db.bulk_load("User", users, |row: &mut Tuple| {
        let u = next.next().expect("one row per user");
        row.clear();
        row.extend([graph.user_value(u), graph.hometown_value(u)]);
        Ok::<_, DbError>(())
    });
    loaded.expect("schema arity");
    let rows = (0..users).map(|u| graph.friends(u).len()).sum();
    let mut friendships =
        (0..users).flat_map(|u| graph.friends(u).iter().map(move |&v| (u, v as usize)));
    let loaded = db.bulk_load("Friends", rows, |row: &mut Tuple| {
        let (u, v) = friendships.next().expect("one row per friendship");
        row.clear();
        row.extend([graph.user_value(u), graph.user_value(v)]);
        Ok::<_, DbError>(())
    });
    loaded.expect("schema arity");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_matches_graph() {
        let g = SocialGraph::generate(&SocialGraphConfig {
            users: 500,
            ..Default::default()
        });
        let db = build_database(&g);
        let users = db.scan("User").unwrap();
        assert_eq!(users.len(), 500);
        let friends = db.scan("Friends").unwrap();
        // Friendship is symmetric: every edge appears in both directions.
        assert_eq!(friends.len() % 2, 0);
        assert!(db.contains("Friends", &[friends[0][0], friends[0][1]]));
        assert!(db.contains("Friends", &[friends[0][1], friends[0][0]]));
    }
}
