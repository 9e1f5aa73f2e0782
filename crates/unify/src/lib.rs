//! Unification engine for entangled query matching.
//!
//! A [`Unifier`] is the paper's notion from §4.1.3: *"a partition of a
//! subset of Val which contains at most one constant per partition
//! class"*. It constrains the valuations permitted for a coordinating set:
//! variables in the same class must take the same value, and a class with
//! a constant pins its variables to that constant.
//!
//! The implementation is a disjoint-set forest with union by rank and path
//! compression, giving the expected `O(k·α(k))` bound for `k` variables
//! that §4.1.5 analyses. Classes are keyed by [`eq_ir::Var`]; variables
//! absent from the forest are implicit singletons, so an empty `Unifier`
//! imposes no constraints.
//!
//! Speculation is first-class: [`Unifier::snapshot`] opens an undo-log
//! window, [`Unifier::rollback_to`] reverts it exactly (forest shape
//! included) and [`Unifier::commit`] keeps it — so a backtracking caller
//! (`mgu` itself) pays for the writes it makes instead of cloning whole
//! tables. The [`ops`] module counts merges/rollbacks/clones
//! process-wide; the engine's benchmark reports surface them and ci
//! asserts the hot-path clone count is 0.

#![forbid(unsafe_code)]

mod mgu;
pub mod ops;
mod unifier;

pub use mgu::{mgu_atoms, mgu_terms};
pub use unifier::{Conflict, Snapshot, SnapshotError, Unifier};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod oracle;
#[cfg(test)]
mod proptests;
