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
static ROLLBACKS: AtomicU64 = AtomicU64::new(0);
static SNAPSHOTS: AtomicU64 = AtomicU64::new(0);
static CLONES: AtomicU64 = AtomicU64::new(0);
static UNDO_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the process-wide unifier counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnifyOps {
    /// [`crate::Unifier::merge_from`] invocations (every in-place MGU
    /// fold: seeding, propagation, global folds, probe assembly).
    pub merges: u64,
    /// Snapshots closed by rollback (speculation rejected in place).
    pub rollbacks: u64,
    /// Snapshots opened.
    pub snapshots: u64,
    /// `Unifier::clone` calls. The engine's matching / admission /
    /// combine paths must keep this at 0 — ci asserts the delta across
    /// a benchmark flush — leaving the differential-oracle tests as the
    /// only sanctioned cloners.
    pub clones: u64,
    /// Highest undo-log length observed when a snapshot was closed: the
    /// peak in-flight speculation footprint, in logged writes.
    pub undo_high_water: u64,
}

impl UnifyOps {
    /// Counter movement since the `earlier` reading. The high-water
    /// mark is a running peak, not a sum, so it is carried over rather
    /// than subtracted.
    pub fn delta_since(&self, earlier: &UnifyOps) -> UnifyOps {
        UnifyOps {
            merges: self.merges.saturating_sub(earlier.merges),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            snapshots: self.snapshots.saturating_sub(earlier.snapshots),
            clones: self.clones.saturating_sub(earlier.clones),
            undo_high_water: self.undo_high_water,
        }
    }
}

/// Current process totals.
pub fn global() -> UnifyOps {
    UnifyOps {
        merges: MERGES.load(Ordering::Relaxed),
        rollbacks: ROLLBACKS.load(Ordering::Relaxed),
        snapshots: SNAPSHOTS.load(Ordering::Relaxed),
        clones: CLONES.load(Ordering::Relaxed),
        undo_high_water: UNDO_HIGH_WATER.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_merge() {
    MERGES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_rollback() {
    ROLLBACKS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_snapshot() {
    SNAPSHOTS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_clone() {
    CLONES.fetch_add(1, Ordering::Relaxed);
    #[cfg(test)]
    THREAD_CLONES.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
thread_local! {
    static THREAD_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `Unifier::clone` calls made on the calling thread. `cargo test` runs
/// sibling tests — the differential oracles clone freely — on other
/// threads of the same process, so a unit test asserting "this call did
/// not clone" must not read the process total.
#[cfg(test)]
pub(crate) fn clones_on_this_thread() -> u64 {
    THREAD_CLONES.with(std::cell::Cell::get)
}

/// Records the undo-log length at a snapshot-close boundary. The log
/// only grows between closes, so sampling here captures the peak.
pub(crate) fn note_undo_high_water(len: usize) {
    UNDO_HIGH_WATER.fetch_max(len as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_monotone_counters_but_keeps_peak() {
        let earlier = UnifyOps {
            merges: 10,
            rollbacks: 1,
            snapshots: 4,
            clones: 2,
            undo_high_water: 7,
        };
        let later = UnifyOps {
            merges: 15,
            rollbacks: 3,
            snapshots: 9,
            clones: 2,
            undo_high_water: 7,
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.merges, 5);
        assert_eq!(d.rollbacks, 2);
        assert_eq!(d.snapshots, 5);
        assert_eq!(d.clones, 0);
        assert_eq!(d.undo_high_water, 7);
    }
}
