//@ path: crates/core/src/matching.rs
//@ expect: no-unifier-clone
// A deep-copy of a live unifier on the matching hot path: propagation
// moves a seed out and merges into it in place, never cloning a binding
// table.

pub fn propagate(parent_unifier: &Unifier, out: &mut Vec<Unifier>) {
    let speculative = parent_unifier.clone();
    out.push(speculative);
}

pub struct Unifier;
