//! The connectivity router of the sharded `Coordinator`: which engine
//! shard a query belongs on.
//!
//! A plain data structure, like the [`crate::shard::Shard`]s it routes
//! to: it holds no lock and touches no shard. The service keeps it
//! behind a read-write lock, resolves under the read side, and takes
//! the write side only to merge groups; whoever holds the write side
//! moves the pending queries a merge strands ([`Route::losers`]).

use eq_ir::{Atom, EntangledQuery, FastMap};

/// Sentinel shard for a union-find group that has not been placed yet.
const UNASSIGNED: u32 = u32::MAX;

/// Routes queries to engine shards by `(relation, arity)` connectivity.
///
/// Two entangled queries can share a match-graph edge only if a head
/// of one unifies with a postcondition of the other — which requires
/// the same relation symbol and arity. A union-find over the
/// `(relation, arity)` keys of every admitted query's head and
/// postcondition atoms therefore *over-approximates* match-graph
/// connectivity: queries whose key sets ended up in different groups
/// are provably edge-free, so homing each group on one shard keeps
/// every possible edge — and the Figure-9 admission safety check that
/// polices edges — shard-local. Over-merging (a query bridging groups
/// that never actually coordinate) only costs parallelism, never
/// correctness.
///
/// A submission whose keys all resolve to one placed group takes the
/// read-locked fast path straight to that group's shard. Anything else
/// — unknown keys, a group not yet placed, or keys spanning groups —
/// takes the write path: groups merge, and if the merged group spans
/// shards the rendezvous migrates every losing shard's members to the
/// winner ([`crate::shard::rendezvous`], under the involved shard locks).
pub(crate) struct Router {
    /// `(relation, arity)` key → union-find slot.
    pub(crate) index: FastMap<u64, u32>,
    parent: Vec<u32>,
    /// Shard owning each group; valid at root slots, [`UNASSIGNED`]
    /// until the group is first placed.
    shard: Vec<u32>,
    /// Key groups homed per shard (placement heuristic for new
    /// groups).
    load: Vec<u32>,
}

/// One write-path routing decision: the shard to admit on, the merged
/// group's union-find root, and the shards whose members of that group
/// must migrate to `shard`.
pub(crate) struct Route {
    pub(crate) shard: usize,
    pub(crate) root: u32,
    pub(crate) losers: Vec<usize>,
}

impl Router {
    pub(crate) fn new(shards: usize) -> Self {
        Router {
            index: FastMap::default(),
            parent: Vec::new(),
            shard: Vec::new(),
            load: vec![0; shards],
        }
    }

    /// The routing key of one answer-relation atom. `Symbol` is
    /// interned, so `(relation, arity)` packs collision-free into a
    /// `u64` — atoms unify only when relation and arity agree, which
    /// is exactly what makes the key a sound connectivity
    /// over-approximation.
    fn key(atom: &Atom) -> u64 {
        ((atom.relation.index() as u64) << 32) | atom.terms.len() as u64
    }

    /// Sorted, deduplicated routing keys of a query's head and
    /// postcondition atoms (body atoms name database relations and
    /// never form match edges).
    pub(crate) fn query_keys(query: &EntangledQuery) -> Vec<u64> {
        let mut keys: Vec<u64> = query
            .head
            .iter()
            .chain(query.postconditions.iter())
            .map(Self::key)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn intern(&mut self, key: u64) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let slot = self.parent.len() as u32;
        self.parent.push(slot);
        self.shard.push(UNASSIGNED);
        self.index.insert(key, slot);
        slot
    }

    /// Non-compressing find, usable under a read guard (chains grow by
    /// one hop per merge and merges are rare; the write path re-roots
    /// directly).
    fn find(&self, mut slot: u32) -> u32 {
        while self.parent[slot as usize] != slot {
            slot = self.parent[slot as usize];
        }
        slot
    }

    /// Root of the group owning `query`, if its keys are interned. All
    /// of an admitted query's keys are in one group (an admission
    /// invariant the write path maintains), so the first head atom's
    /// key decides.
    pub(crate) fn root_of(&self, query: &EntangledQuery) -> Option<u32> {
        let key = Self::key(&query.head[0]);
        self.index.get(&key).map(|&slot| self.find(slot))
    }

    /// Read-path resolution: the placed shard every key agrees on, or
    /// `None` if any key is unknown, the keys span groups, or the
    /// group is unplaced — all of which take the write path.
    pub(crate) fn resolve(&self, keys: &[u64]) -> Option<usize> {
        let mut root: Option<u32> = None;
        for key in keys {
            let slot = *self.index.get(key)?;
            let r = self.find(slot);
            match root {
                None => root = Some(r),
                Some(r0) if r0 == r => {}
                Some(_) => return None,
            }
        }
        let shard = self.shard[root? as usize];
        (shard != UNASSIGNED).then_some(shard as usize)
    }

    /// Write-path routing: interns unknown keys, merges every group
    /// the key set touches into one, places the merged group — on the
    /// least-loaded shard if none was placed yet, else on the
    /// least-loaded *involved* shard, ties to the lowest index (the
    /// deterministic rendezvous winner; preferring the lowest index
    /// unconditionally would pile every merged group onto shard 0) —
    /// and names the shards that now owe a migration.
    pub(crate) fn route(&mut self, keys: &[u64]) -> Route {
        let slots: Vec<u32> = keys.iter().map(|&k| self.intern(k)).collect();
        let mut roots: Vec<u32> = slots.iter().map(|&s| self.find(s)).collect();
        roots.sort_unstable();
        roots.dedup();
        let mut involved: Vec<u32> = roots
            .iter()
            .map(|&r| self.shard[r as usize])
            .filter(|&s| s != UNASSIGNED)
            .collect();
        involved.sort_unstable();
        involved.dedup();
        let target = if involved.is_empty() {
            let mut best = 0usize;
            for (s, &l) in self.load.iter().enumerate() {
                if l < self.load[best] {
                    best = s;
                }
            }
            best as u32
        } else {
            *involved
                .iter()
                .min_by_key(|&&s| (self.load[s as usize], s))
                .expect("non-empty involved set")
        };
        let winner_root = roots[0];
        for &r in &roots {
            let owner = self.shard[r as usize];
            if owner != UNASSIGNED {
                self.load[owner as usize] -= 1;
            }
            self.parent[r as usize] = winner_root;
        }
        self.shard[winner_root as usize] = target;
        self.load[target as usize] += 1;
        Route {
            shard: target as usize,
            root: winner_root,
            losers: involved
                .into_iter()
                .filter(|&s| s != target)
                .map(|s| s as usize)
                .collect(),
        }
    }
}
