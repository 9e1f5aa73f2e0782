//! Process-global unifier operation counters.
//!
//! The engine's contract is that matching, admission and evaluation
//! never clone a unifier: they move tables or merge into them in place.
//! The only way to prove that negative — no hot-path clone crept back
//! in — is to count. The counters are process totals; callers take a
//! reading before and after an operation and diff with
//! [`UnifyOps::delta_since`]. All updates use relaxed ordering: these
//! are statistics, not synchronization.

use std::sync::atomic::{AtomicU64, Ordering};

static MERGES: AtomicU64 = AtomicU64::new(0);
static CLONES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide unifier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnifyOps {
    /// [`crate::Unifier::merge_from`] invocations (every in-place MGU
    /// fold of a whole table; [`crate::Unifier::unify_atoms`] is not
    /// counted).
    pub merges: u64,
    /// Always 0: the unifier has no rollback. Kept until the benchmark
    /// drops its `unify.rollbacks` row (ROADMAP item 2(g)).
    pub rollbacks: u64,
    /// `Unifier::clone` calls. The engine's matching / admission /
    /// combine paths must keep this at 0 — ci asserts the delta across
    /// a benchmark flush — leaving tests as the only cloners.
    pub clones: u64,
    /// Always 0: the unifier has no undo log. Kept until the benchmark
    /// drops its `unify.undo_high_water` row (ROADMAP item 2(g)).
    pub undo_high_water: u64,
}

impl UnifyOps {
    /// Counter movement since the `earlier` reading.
    pub fn delta_since(&self, earlier: &UnifyOps) -> UnifyOps {
        UnifyOps {
            merges: self.merges.saturating_sub(earlier.merges),
            clones: self.clones.saturating_sub(earlier.clones),
            ..UnifyOps::default()
        }
    }
}

/// Current process totals.
pub fn global() -> UnifyOps {
    UnifyOps {
        merges: MERGES.load(Ordering::Relaxed),
        clones: CLONES.load(Ordering::Relaxed),
        ..UnifyOps::default()
    }
}

pub(crate) fn count_merge() {
    MERGES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_clone() {
    CLONES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_monotone_counters() {
        let earlier = UnifyOps {
            merges: 10,
            clones: 2,
            ..UnifyOps::default()
        };
        let later = UnifyOps {
            merges: 15,
            clones: 2,
            ..UnifyOps::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.merges, 5);
        assert_eq!(d.clones, 0);
    }
}
