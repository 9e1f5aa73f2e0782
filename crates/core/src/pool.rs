//! The one scoped worker-pool primitive every parallel phase in this
//! crate uses: claim indices from a shared atomic cursor, run a
//! read-only job per index, return results keyed by index.
//!
//! Two call sites share it, both in evaluation — the cross-component
//! flush shard (`engine::sharded_process`) and intra-component
//! work-unit evaluation (`intra::evaluate_plan_with_stats`) — so claim
//! semantics, the sequential fallback, and panic propagation live in
//! exactly one place. Admission never uses it: it links one query at a
//! time under the shard lock.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `f(idx)` for every index in `order` (a caller-chosen claim
/// order, e.g. largest-first) on up to `threads` scoped workers,
/// returning `(idx, result)` pairs. With `threads <= 1` or a single
/// item the calls happen inline on the caller's thread — same
/// semantics, no spawn.
///
/// `stop`, when provided, is checked before each claim: once set (by
/// the caller or from inside `f`), remaining unclaimed indices are
/// skipped and missing from the output. Callers using `stop` must
/// treat absent results as "skipped because the overall answer is
/// already decided".
///
/// Results arrive in claim-completion order; callers needing
/// deterministic output scatter by the returned index.
pub(crate) fn parallel_claim<T, F>(
    order: &[usize],
    threads: usize,
    stop: Option<&AtomicBool>,
    f: F,
) -> Vec<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(order.len().max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(order.len());
        for &idx in order {
            if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                break;
            }
            out.push((idx, f(idx)));
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let mut merged: Vec<(usize, T)> = Vec::with_capacity(order.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut produced = Vec::new();
                    loop {
                        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = order.get(k) else {
                            break;
                        };
                        produced.push((idx, f(idx)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            merged.extend(h.join().expect("pool worker panicked"));
        }
    });
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let order: Vec<usize> = (0..100).rev().collect();
        for threads in [1, 2, 8] {
            let mut out = parallel_claim(&order, threads, None, |i| i * 2);
            out.sort_unstable();
            assert_eq!(out.len(), 100);
            for (k, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx, k);
                assert_eq!(*v, k * 2);
            }
        }
    }

    #[test]
    fn stop_flag_skips_remaining_work() {
        let order: Vec<usize> = (0..1000).collect();
        let stop = AtomicBool::new(false);
        let out = parallel_claim(&order, 4, Some(&stop), |i| {
            if i == 3 {
                stop.store(true, Ordering::Relaxed);
            }
            i
        });
        assert!(out.iter().any(|&(idx, _)| idx == 3));
        assert!(out.len() < 1000, "stop must skip the tail");
    }

    #[test]
    fn empty_order_is_fine() {
        assert!(parallel_claim(&[], 4, None, |i| i).is_empty());
    }
}
