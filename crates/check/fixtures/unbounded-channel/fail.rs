//@ path: crates/core/src/service.rs
//@ expect: unbounded-channel
// An unbounded mpsc channel, in service.rs as anywhere else: a slow
// consumer would buffer an entire flush in memory with no backpressure.

pub fn leaky_plumbing() {
    let (tx, rx) = std::sync::mpsc::channel::<u64>();
    tx.send(1).ok();
    drop(rx);
}
