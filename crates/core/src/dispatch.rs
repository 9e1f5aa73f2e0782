//! Out-of-lock ordered event dispatch for the [`crate::Coordinator`].
//!
//! Shard critical sections **stage** events (append them to one global
//! FIFO queue, preserving log order = ack order and the
//! durability-sink-before-broadcast contract) and **drain** them only
//! after every service lock is released. Fan-out to subscribers —
//! including a [`crate::OverflowPolicy::Block`] subscriber that may
//! park the publisher indefinitely — therefore never extends a shard's
//! critical section: a stalled subscriber suspends at most the one
//! thread that happened to become the dispatcher, while every other
//! session keeps admitting, flushing, and staging.
//!
//! Ordering: the queue is FIFO and at most one thread drains at a time
//! (a compare-and-swap claims the drainer role), so subscribers observe
//! events in exactly the order shard critical sections staged them.
//! A thread that loses the claim simply returns — its events are
//! delivered by the incumbent, which rechecks the queue after
//! releasing the role so no staged event is ever stranded.

use crate::events::{bounded, Event, EventSender, Events, OverflowPolicy};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

struct Queue {
    events: VecDeque<Arc<Event>>,
    /// High-water mark of staged-but-undrained events, surfaced as
    /// [`crate::BatchReport::dispatch_queue_peak`].
    peak: u64,
}

/// The service-wide dispatch queue plus the subscriber registry.
pub(crate) struct Dispatcher {
    queue: Mutex<Queue>,
    subscribers: Mutex<Vec<Arc<EventSender>>>,
    /// Mirror of `subscribers.len()`, readable without the lock —
    /// staging paths consult it on every retirement.
    subscriber_count: AtomicUsize,
    disconnected: AtomicU64,
    /// True while some thread holds the drainer role.
    draining: AtomicBool,
}

impl Dispatcher {
    pub(crate) fn new() -> Self {
        Dispatcher {
            queue: Mutex::new(Queue {
                events: VecDeque::new(),
                peak: 0,
            }),
            subscribers: Mutex::new(Vec::new()),
            subscriber_count: AtomicUsize::new(0),
            disconnected: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Registers a bounded subscription and returns the receiver half.
    pub(crate) fn subscribe(&self, capacity: usize, policy: OverflowPolicy) -> Events {
        let (tx, rx) = bounded(capacity, policy);
        let mut subs = self.subscribers.lock();
        subs.push(Arc::new(tx));
        self.subscriber_count.store(subs.len(), Ordering::Relaxed);
        rx
    }

    pub(crate) fn has_subscribers(&self) -> bool {
        self.subscriber_count.load(Ordering::Relaxed) > 0
    }

    pub(crate) fn subscriber_count(&self) -> usize {
        self.subscriber_count.load(Ordering::Relaxed)
    }

    pub(crate) fn disconnected(&self) -> u64 {
        self.disconnected.load(Ordering::Relaxed)
    }

    pub(crate) fn queue_peak(&self) -> u64 {
        self.queue.lock().peak
    }

    /// Stages one event for the next drain. Called from inside shard
    /// critical sections — this only appends to the FIFO (no subscriber
    /// I/O). With no live subscribers the event is dropped, matching
    /// pre-dispatch broadcast semantics (events published before the
    /// first subscription are not replayed).
    pub(crate) fn enqueue(&self, event: Event) {
        if !self.has_subscribers() {
            return;
        }
        let mut q = self.queue.lock();
        q.events.push_back(Arc::new(event));
        q.peak = q.peak.max(q.events.len() as u64);
    }

    /// Delivers every staged event to every subscriber, in staging
    /// order. Must be called with **no** service lock held: a `Block`
    /// subscriber may park this thread until it drains. If another
    /// thread already holds the drainer role this returns immediately
    /// (the incumbent delivers our events too).
    pub(crate) fn drain(&self) {
        loop {
            if self
                .draining
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                return;
            }
            loop {
                let batch: Vec<Arc<Event>> = {
                    let mut q = self.queue.lock();
                    if q.events.is_empty() {
                        break;
                    }
                    q.events.drain(..).collect()
                };
                self.deliver(&batch);
            }
            self.draining.store(false, Ordering::Release);
            // Recheck after releasing the role: an enqueue that saw
            // `draining == true` after we emptied the queue is relying
            // on us (or whoever wins the CAS below) to deliver it.
            if self.queue.lock().events.is_empty() {
                return;
            }
        }
    }

    fn deliver(&self, batch: &[Arc<Event>]) {
        let snapshot: Vec<Arc<EventSender>> = self.subscribers.lock().clone();
        if snapshot.is_empty() {
            return;
        }
        let mut dead: Vec<usize> = Vec::new();
        for event in batch {
            for (i, sub) in snapshot.iter().enumerate() {
                if dead.contains(&i) {
                    continue;
                }
                if sub.send(Arc::clone(event)).is_err() {
                    dead.push(i);
                }
            }
        }
        if !dead.is_empty() {
            let mut subs = self.subscribers.lock();
            subs.retain(|s| !dead.iter().any(|&i| Arc::ptr_eq(s, &snapshot[i])));
            self.subscriber_count.store(subs.len(), Ordering::Relaxed);
            self.disconnected
                .fetch_add(dead.len() as u64, Ordering::Relaxed);
        }
    }
}
