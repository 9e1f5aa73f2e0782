//@ path: crates/core/src/shard.rs
//@ expect: sans-io-shard
// A shard that reads the clock itself: one flush of the service would
// sweep each shard at a different instant, and a test could not drive
// the shard at a fixed time.

use std::time::Instant;

pub struct Shard {
    swept: u64,
}

impl Shard {
    pub fn flush(&mut self) -> u64 {
        let now = Instant::now();
        self.sweep(now)
    }

    fn sweep(&mut self, _now: Instant) -> u64 {
        self.swept += 1;
        self.swept
    }
}
