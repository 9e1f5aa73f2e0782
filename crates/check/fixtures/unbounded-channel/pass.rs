//@ path: crates/core/src/service.rs
// Bounded sync_channel is legal everywhere: a full queue blocks its
// sender instead of buffering without bound. Test code may use an
// unbounded channel (the service's tests hand results between threads).

pub fn bounded_plumbing() {
    let (tx, rx) = std::sync::mpsc::sync_channel::<u64>(1);
    tx.send(1).ok();
    drop(rx);
}

#[cfg(test)]
mod tests {
    #[test]
    fn unbounded_in_tests() {
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        tx.send(1).ok();
        drop(rx);
    }
}
