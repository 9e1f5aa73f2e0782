//@ path: crates/core/src/engine.rs
//@ expect: spawn-confinement
// A raw thread spawn in non-test engine code: evaluation runs on the
// caller's thread, and only the event plumbing may spawn.

pub fn rogue_worker() {
    std::thread::spawn(|| {
        do_work();
    });
}

fn do_work() {}
