//@ path: crates/core/src/service.rs
// Construction confined to the stage_outcomes/stage_flushed staging
// choke point (the read-only accessors that match on variants live
// with the type, in events.rs); type *mentions* and cfg(test)
// constructions never fire.

pub struct Coordinator;

impl Coordinator {
    fn stage_outcomes(&self) {
        self.enqueue(Event::Answered { id: 1 });
    }

    fn stage_flushed(&self, report: u64) {
        self.enqueue(Event::Flushed(report));
    }

    fn enqueue(&self, _event: Event) {}
}

pub enum Event {
    Answered { id: u64 },
    Flushed(u64),
}

pub fn forward(event: Event) -> Option<Event> {
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_build_events() {
        assert!(forward(Event::Answered { id: 9 }).is_some());
    }
}
