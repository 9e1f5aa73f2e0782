//! Bounded per-subscriber event queues with explicit overflow policies.
//!
//! The service's event stream used to ride unbounded `std::mpsc`
//! channels: a slow subscriber under a 100k-query sweep would buffer
//! the entire flush's worth of events in memory and stall nothing —
//! silent, unbounded growth. Every subscription is now a **bounded**
//! FIFO queue with an [`OverflowPolicy`] chosen at subscription time:
//!
//! * [`OverflowPolicy::Block`] — the publisher waits for the subscriber
//!   to drain (backpressure; no event is ever lost). The default.
//! * [`OverflowPolicy::DropOldest`] — the queue stays bounded by
//!   evicting its oldest entry; evictions are **counted** (never
//!   silent) and reported in [`SubscriberStats::dropped`].
//! * [`OverflowPolicy::Disconnect`] — overflow disconnects the
//!   subscriber; it drains what was already queued, then the stream
//!   ends and [`SubscriberStats::disconnected`] is set. The publisher
//!   side accounts the disconnect
//!   ([`crate::Coordinator::disconnected_subscribers`]).
//!
//! A dropped receiver (`Events` going out of scope — e.g. a client
//! thread that died mid-flush) wakes any blocked publisher immediately;
//! the publisher observes `Disconnected`, prunes the subscriber, and
//! counts it — event fan-out never panics or hangs on a vanished
//! subscriber.
//!
//! The queue is deliberately simple: one `std::sync::Mutex` + two
//! condvars per subscriber (offline-dependency policy: the vendored
//! `parking_lot` shim has no condvar, and publisher/subscriber pairs
//! are not contended enough to care).
//!
//! Queues carry **`Arc<Event>`**: the publisher materializes each
//! event once and fan-out to any number of subscribers is a pointer
//! bump per queue, and receivers get the same `Arc<Event>` back.
//!
//! Delivery is **out-of-lock**: events are only *staged* (on the
//! coordinator's ordered dispatch queue) while a service shard lock is
//! held; the fan-out into these subscriber queues runs after every
//! shard lock is released (`crate::dispatch`). A `Block` subscriber
//! that never drains therefore stalls only the dispatcher thread
//! currently delivering — never a shard lock, and never another
//! session's submit or flush. The blocking contract on
//! [`crate::Coordinator::subscribe_with`] spells out what a stalled
//! subscriber can and cannot hold up.

use crate::combine::QueryAnswer;
use crate::engine::{BatchReport, RejectReason};
use eq_ir::QueryId;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A coordination event, pushed to every subscriber
/// ([`crate::Coordinator::subscribe`]).
///
/// Query events carry the submission's tag (if any); every submitted
/// query produces **exactly one** terminal event — `Answered`,
/// `Failed`, `Expired`, or `Cancelled` — property-tested against the
/// engine's final [`crate::QueryStatus`] under churn.
#[derive(Clone, Debug)]
pub enum Event {
    /// The query coordinated; the answer is attached.
    Answered {
        /// The answered query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
        /// The coordinated answer.
        answer: QueryAnswer,
    },
    /// The query was rejected during a coordination round.
    Failed {
        /// The rejected query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
        /// Why it was rejected.
        reason: RejectReason,
    },
    /// The query exceeded its deadline or staleness bound.
    Expired {
        /// The expired query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
    },
    /// The query was withdrawn (explicit cancel, or its session
    /// closed).
    Cancelled {
        /// The withdrawn query.
        id: QueryId,
        /// Its submission tag.
        tag: Option<String>,
    },
    /// A flush completed; the report summarizes the round. Boxed, so
    /// the other events do not carry a report's worth of bytes.
    Flushed(Box<BatchReport>),
}

impl Event {
    /// The query this event concerns (`None` for [`Event::Flushed`]).
    pub fn id(&self) -> Option<QueryId> {
        match self {
            Event::Answered { id, .. }
            | Event::Failed { id, .. }
            | Event::Expired { id, .. }
            | Event::Cancelled { id, .. } => Some(*id),
            Event::Flushed(_) => None,
        }
    }

    /// The submission tag, if the event concerns a tagged query.
    pub fn tag(&self) -> Option<&str> {
        match self {
            Event::Answered { tag, .. }
            | Event::Failed { tag, .. }
            | Event::Expired { tag, .. }
            | Event::Cancelled { tag, .. } => tag.as_deref(),
            Event::Flushed(_) => None,
        }
    }

    /// True for a query's terminal event (everything except
    /// [`Event::Flushed`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Event::Flushed(_))
    }
}

/// What a bounded subscriber queue does when a published event finds it
/// full. See the module docs for the loss-accounting guarantees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Block the publisher until the subscriber drains (backpressure).
    /// Never loses an event; requires the subscriber to drain from a
    /// different thread than the one flushing.
    #[default]
    Block,
    /// Evict the oldest queued event to make room, counting the
    /// eviction in [`SubscriberStats::dropped`].
    DropOldest,
    /// Disconnect the subscriber: already-queued events remain
    /// drainable, then the stream ends.
    Disconnect,
}

/// Delivery accounting for one subscription, observable from both ends
/// ([`Events::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Events the subscriber actually received.
    pub delivered: u64,
    /// Events evicted under [`OverflowPolicy::DropOldest`].
    pub dropped: u64,
    /// True once the subscription ended by overflow
    /// ([`OverflowPolicy::Disconnect`]) or because the receiver was
    /// dropped.
    pub disconnected: bool,
}

struct QueueState {
    queue: VecDeque<Arc<Event>>,
    delivered: u64,
    dropped: u64,
    /// Set by [`OverflowPolicy::Disconnect`] on overflow: publishers
    /// stop, the receiver drains the backlog then sees the end.
    overflowed: bool,
    receiver_gone: bool,
    sender_gone: bool,
}

struct Shared {
    capacity: usize,
    policy: OverflowPolicy,
    state: Mutex<QueueState>,
    /// Signalled when the queue gains an event or the stream ends.
    not_empty: Condvar,
    /// Signalled when the queue loses an event or the receiver goes.
    not_full: Condvar,
}

/// The publisher half of one subscription. Owned by the `Coordinator`;
/// not exposed publicly.
pub(crate) struct EventSender {
    shared: Arc<Shared>,
}

/// Error returned to the publisher when the subscription is over (the
/// receiver was dropped, or the Disconnect policy tripped).
pub(crate) struct Disconnected;

impl EventSender {
    /// Publishes one event under this subscription's policy. `Err`
    /// means the subscription is permanently over and the publisher
    /// should prune it (and account the disconnect).
    pub(crate) fn send(&self, event: Arc<Event>) -> Result<(), Disconnected> {
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        loop {
            if state.receiver_gone || state.overflowed {
                return Err(Disconnected);
            }
            if state.queue.len() < self.shared.capacity {
                state.queue.push_back(event);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            match self.shared.policy {
                OverflowPolicy::Block => {
                    state = self
                        .shared
                        .not_full
                        .wait(state)
                        .expect("event queue poisoned");
                }
                OverflowPolicy::DropOldest => {
                    state.queue.pop_front();
                    state.dropped += 1;
                    state.queue.push_back(event);
                    self.shared.not_empty.notify_one();
                    return Ok(());
                }
                OverflowPolicy::Disconnect => {
                    state.overflowed = true;
                    // Wake the receiver so it can observe the end after
                    // draining the backlog.
                    self.shared.not_empty.notify_one();
                    return Err(Disconnected);
                }
            }
        }
    }
}

impl Drop for EventSender {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        state.sender_gone = true;
        self.shared.not_empty.notify_one();
    }
}

/// A subscription to a [`crate::Coordinator`]'s [`Event`] stream,
/// backed by a bounded FIFO queue (see the module docs for capacity and
/// overflow semantics).
///
/// Events published before the subscription was created are not
/// replayed. The stream ends (`None` forever) once the coordinator is
/// dropped, or — under [`OverflowPolicy::Disconnect`] — once the queue
/// overflowed and the backlog is drained.
pub struct Events {
    shared: Arc<Shared>,
}

impl Events {
    /// The next event if one is already queued (non-blocking).
    pub fn try_next(&self) -> Option<Arc<Event>> {
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        Self::pop(&self.shared, &mut state)
    }

    /// Blocks up to `timeout` for the next event. A `timeout` too large
    /// to represent as an `Instant` (e.g. `Duration::MAX`, the natural
    /// "wait forever" idiom) waits without a deadline instead of
    /// panicking on instant overflow.
    pub fn next_timeout(&self, timeout: Duration) -> Option<Arc<Event>> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        loop {
            if let Some(e) = Self::pop(&self.shared, &mut state) {
                return Some(e);
            }
            if state.sender_gone || state.overflowed {
                return None; // stream over and backlog drained
            }
            state = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    let (next, timed_out) = self
                        .shared
                        .not_empty
                        .wait_timeout(state, deadline - now)
                        .expect("event queue poisoned");
                    if timed_out.timed_out() && next.queue.is_empty() {
                        return None;
                    }
                    next
                }
                None => self
                    .shared
                    .not_empty
                    .wait(state)
                    .expect("event queue poisoned"),
            };
        }
    }

    /// Drains every queued event (non-blocking).
    pub fn drain(&self) -> Vec<Arc<Event>> {
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        let mut out = Vec::with_capacity(state.queue.len());
        while let Some(e) = Self::pop(&self.shared, &mut state) {
            out.push(e);
        }
        out
    }

    /// Delivery accounting so far: events received, events evicted
    /// under `DropOldest`, and whether the subscription was
    /// disconnected. Nothing is ever lost *silently* — the three
    /// counters always reconcile with what the publisher sent.
    pub fn stats(&self) -> SubscriberStats {
        let state = self.shared.state.lock().expect("event queue poisoned");
        SubscriberStats {
            delivered: state.delivered,
            dropped: state.dropped,
            disconnected: state.overflowed || state.receiver_gone,
        }
    }

    fn pop(shared: &Shared, state: &mut QueueState) -> Option<Arc<Event>> {
        let e = state.queue.pop_front()?;
        state.delivered += 1;
        shared.not_full.notify_one();
        Some(e)
    }
}

impl Drop for Events {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().expect("event queue poisoned");
        state.receiver_gone = true;
        // Wake a publisher blocked on a full queue: it must observe the
        // disconnect instead of waiting forever.
        self.shared.not_full.notify_one();
    }
}

/// Creates one bounded subscription. `capacity` is clamped to at least
/// 1 (a zero-capacity queue could never deliver anything under
/// `DropOldest`/`Disconnect`).
pub(crate) fn bounded(capacity: usize, policy: OverflowPolicy) -> (EventSender, Events) {
    let shared = Arc::new(Shared {
        capacity: capacity.max(1),
        policy,
        state: Mutex::new(QueueState {
            queue: VecDeque::new(),
            delivered: 0,
            dropped: 0,
            overflowed: false,
            receiver_gone: false,
            sender_gone: false,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        EventSender {
            shared: Arc::clone(&shared),
        },
        Events { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flushed() -> Arc<Event> {
        Arc::new(Event::Flushed(Box::default()))
    }

    fn mk(capacity: usize, policy: OverflowPolicy) -> (EventSender, Events) {
        bounded(capacity, policy)
    }

    #[test]
    fn fifo_order_and_stats() {
        let (tx, rx) = mk(8, OverflowPolicy::Block);
        for _ in 0..3 {
            tx.send(flushed()).ok().unwrap();
        }
        assert_eq!(rx.drain().len(), 3);
        assert_eq!(rx.stats().delivered, 3);
        assert_eq!(rx.stats().dropped, 0);
        assert!(!rx.stats().disconnected);
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let (tx, rx) = mk(2, OverflowPolicy::DropOldest);
        for _ in 0..5 {
            tx.send(flushed()).ok().unwrap();
        }
        assert_eq!(rx.drain().len(), 2);
        let stats = rx.stats();
        assert_eq!(stats.dropped, 3);
        assert_eq!(stats.delivered, 2);
        assert!(!stats.disconnected);
    }

    #[test]
    fn disconnect_policy_ends_stream_after_backlog() {
        let (tx, rx) = mk(2, OverflowPolicy::Disconnect);
        tx.send(flushed()).ok().unwrap();
        tx.send(flushed()).ok().unwrap();
        assert!(tx.send(flushed()).is_err(), "overflow disconnects");
        // Backlog still drains, then the stream is over.
        assert_eq!(rx.drain().len(), 2);
        assert!(rx.try_next().is_none());
        assert!(rx.next_timeout(Duration::from_millis(5)).is_none());
        assert!(rx.stats().disconnected);
    }

    #[test]
    fn block_policy_applies_backpressure_without_loss() {
        let (tx, rx) = mk(2, OverflowPolicy::Block);
        let total = 50u64;
        let producer = std::thread::spawn(move || {
            for _ in 0..total {
                if tx.send(flushed()).is_err() {
                    panic!("receiver vanished");
                }
            }
        });
        let mut received = 0u64;
        while received < total {
            if rx.next_timeout(Duration::from_secs(5)).is_some() {
                received += 1;
            } else {
                panic!("stream stalled at {received}");
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.stats().delivered, total);
        assert_eq!(rx.stats().dropped, 0);
    }

    #[test]
    fn dropped_receiver_wakes_blocked_sender() {
        let (tx, rx) = mk(1, OverflowPolicy::Block);
        tx.send(flushed()).ok().unwrap(); // queue now full
        let t = std::thread::spawn(move || tx.send(flushed()).is_err());
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert!(t.join().unwrap(), "sender must observe the disconnect");
    }

    #[test]
    fn huge_timeout_waits_instead_of_panicking() {
        // Duration::MAX is the natural "block until the next event"
        // idiom; it must not overflow Instant arithmetic.
        let (tx, rx) = mk(4, OverflowPolicy::Block);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(flushed()).ok().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(rx.next_timeout(Duration::MAX).is_some());
        t.join().unwrap();
    }

    #[test]
    fn dropped_sender_ends_stream() {
        let (tx, rx) = mk(4, OverflowPolicy::Block);
        tx.send(flushed()).ok().unwrap();
        drop(tx);
        assert!(rx.next_timeout(Duration::from_millis(50)).is_some());
        assert!(rx.next_timeout(Duration::from_millis(5)).is_none());
    }
}
