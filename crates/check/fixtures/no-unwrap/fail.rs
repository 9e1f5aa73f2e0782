//@ path: crates/core/src/graph.rs
//@ expect: no-unwrap
// A bare .unwrap() in non-test engine code: the panic message carries
// no invariant, and a corrupted slot takes the whole service down.

pub fn edge_target(slots: &[Option<u32>], eid: usize) -> u32 {
    slots[eid].unwrap()
}
