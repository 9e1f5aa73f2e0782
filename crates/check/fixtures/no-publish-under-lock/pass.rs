//@ path: crates/core/src/service.rs
// The out-of-lock discipline: inside a `.lock()` scope events are only
// *staged* (enqueue); delivery (`broadcast`) happens after the guard's
// scope has closed. `pump_stats` is a distinct identifier and stays
// legal anywhere.

pub struct Coordinator;

impl Coordinator {
    fn flush(&self) {
        {
            let mut inner = self.shard.lock();
            inner.step();
            self.enqueue(1);
        }
        self.broadcast(1);
    }

    fn recover(&self) {
        let state = self.state.lock();
        state.replay();
        self.pump_stats();
    }

    fn enqueue(&self, _event: u64) {}
    fn broadcast(&self, _event: u64) {}
    fn pump_stats(&self) {}
}
