//@ path: crates/core/src/shard.rs
// The sans-IO shape: the caller passes the time in and applies what
// the shard returns. Naming `Instant` as a type is fine, a Mutex in a
// comment is not a Mutex, and a cfg(test) driver may read the clock
// and take locks.

use std::time::Instant;

pub struct Shard {
    swept: u64,
}

impl Shard {
    pub fn flush(&mut self, now: Instant) -> u64 {
        self.sweep(now)
    }

    fn sweep(&mut self, _now: Instant) -> u64 {
        self.swept += 1;
        self.swept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn driven_under_a_lock_at_the_current_time() {
        let shard = Mutex::new(Shard { swept: 0 });
        assert_eq!(shard.lock().unwrap().flush(Instant::now()), 1);
    }
}
