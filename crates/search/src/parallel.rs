//! A deterministic parallel map over independent work items.
//!
//! A routing session routes every net against the same immutable
//! obstacle plane, so per-item work is pure: `out[i]` depends only on
//! `items[i]`. That makes the parallel schedule unobservable — this map
//! returns results **in input order** no matter how the OS schedules the
//! workers, which is what lets `gcr-core`'s `RoutingSession` promise
//! byte-identical serial and parallel output.
//!
//! The environment has no crates.io access, so instead of rayon this is
//! a small self-scheduling executor on `std::thread::scope`: workers pull
//! the next unclaimed index from a shared atomic counter (work stealing
//! degenerates to work *sharing*, which is fine for coarse items like
//! whole nets) and write results into their own vectors; the caller
//! reassembles by index.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of worker threads a parallel call will use when the caller
/// does not pin one: the machine's available parallelism, capped so tiny
/// batches do not pay thread spawn cost for idle workers.
#[must_use]
pub fn default_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    hw.min(items).max(1)
}

/// The `GCR_THREADS` environment override, if set and parseable
/// (clamped to at least 1). Unset, empty or malformed values mean "no
/// override".
fn env_threads() -> Option<usize> {
    let raw = std::env::var("GCR_THREADS").ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse::<usize>().ok().map(|n| n.max(1))
}

/// The worker count [`parallel_map`] / [`parallel_map_with`] will
/// actually use for a request of `requested` threads: the `GCR_THREADS`
/// environment variable, when set, overrides the request (clamped ≥ 1),
/// so a deployed daemon's per-request parallelism is controllable
/// without a rebuild and tests can pin determinism-under-threads.
/// Because results are schedule-independent, the override is
/// output-invisible by contract.
#[must_use]
pub fn effective_threads(requested: usize) -> usize {
    env_threads().unwrap_or(requested).max(1)
}

/// Maps `f` over `items` on `threads` workers, returning results in input
/// order. `f` must be pure per item for the output to be schedule
/// independent (it receives the item index for seeding / labelling).
///
/// `threads <= 1` (or a batch of at most one item) degrades to a plain
/// serial loop with no thread machinery at all, so callers can use one
/// code path for both modes.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with(items, threads, || (), |(), i, t| f(i, t))
}

/// [`parallel_map`] with **worker-local state**: every worker thread
/// calls `init` exactly once and threads the resulting value, mutably,
/// through every item it claims. The serial path (`threads <= 1`) builds
/// one state for the whole loop.
///
/// This is the seam a routing session uses to keep one reusable search
/// arena per worker — allocation amortization without any cross-thread
/// sharing. The state must not influence results (`f` must still be pure
/// per item up to its scratch space), or the schedule becomes observable
/// and the serial ≡ parallel guarantee breaks; nothing enforces this, so
/// it is part of the caller's contract, asserted for the routing
/// pipeline by `tests/determinism.rs`.
///
/// # Panics
///
/// Propagates a panic from `init` or `f` (the scope joins all workers
/// first).
pub fn parallel_map_with<T, U, W, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize, &T) -> U + Sync,
{
    let threads = effective_threads(threads).min(items.len()).max(1);
    if threads <= 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, U)>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut state = init();
                let mut mine: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        return mine;
                    }
                    mine.push((i, f(&mut state, i, &items[i])));
                }
            }));
        }
        for h in handles {
            buckets.push(h.join().expect("parallel_map worker panicked"));
        }
    });
    let mut out: Vec<Option<U>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    for (i, v) in buckets.into_iter().flatten() {
        out[i] = Some(v);
    }
    out.into_iter()
        .map(|v| v.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let serial = parallel_map(&items, 1, f);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                parallel_map(&items, threads, f),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_single_item_batches() {
        let none: Vec<i32> = Vec::new();
        assert!(parallel_map(&none, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_and_without_state_agree() {
        let items: Vec<u64> = (0..257).collect();
        let pure = |x: u64| x.wrapping_mul(0x9e37_79b9).rotate_left(13);
        let base = parallel_map(&items, 4, |_, &x| pure(x));
        for threads in [1, 3, 8] {
            let with = parallel_map_with(&items, threads, Vec::<u64>::new, |scratch, _, &x| {
                scratch.push(x); // worker-local scratch must not leak
                pure(x)
            });
            assert_eq!(with, base, "{threads} threads");
        }
    }

    #[test]
    fn default_threads_is_capped_by_items() {
        assert_eq!(default_threads(0), 1);
        assert_eq!(default_threads(1), 1);
        assert!(default_threads(10_000) >= 1);
    }

    #[test]
    fn gcr_threads_env_override() {
        // One test owns every env scenario: env vars are process-global,
        // so scattering set_var calls across tests would race. Every
        // other test in this binary asserts only the map's *output*
        // (schedule-independent by contract) — any assertion that
        // observes worker-state scheduling lives HERE, inside the
        // env-controlled sections, never in a concurrently running test.
        let items: Vec<u64> = (0..97).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9e37_79b9).rotate_left(7);
        std::env::remove_var("GCR_THREADS");
        let baseline = parallel_map(&items, 1, f);
        assert_eq!(effective_threads(4), 4, "no override: request wins");

        // The serial path must thread ONE state through the whole loop
        // (the arena-reuse contract); outputs stay input-ordered. This
        // observes the schedule, so it runs with the override absent.
        let counted = parallel_map_with(
            &items,
            1,
            || 0u64,
            |seen, _, &x| {
                *seen += 1;
                (x, *seen)
            },
        );
        for (i, &(x, seen)) in counted.iter().enumerate() {
            assert_eq!(x, i as u64);
            assert_eq!(seen, i as u64 + 1, "one state threads the serial loop");
        }

        for (value, expect) in [("1", 1), ("3", 3), ("0", 1), ("  8 ", 8)] {
            std::env::set_var("GCR_THREADS", value);
            assert_eq!(effective_threads(4), expect, "GCR_THREADS={value:?}");
            // Output is identical whatever the override pins (1 vs N).
            assert_eq!(
                parallel_map(&items, 6, f),
                baseline,
                "GCR_THREADS={value:?}"
            );
            let with_state = parallel_map_with(&items, 6, Vec::<u64>::new, |scratch, _, &x| {
                scratch.push(x);
                f(0, &x)
            });
            assert_eq!(with_state, baseline, "GCR_THREADS={value:?} (with state)");
        }

        // Malformed and empty values fall back to the request.
        for junk in ["zebra", "", "-2", "1.5"] {
            std::env::set_var("GCR_THREADS", junk);
            assert_eq!(effective_threads(5), 5, "GCR_THREADS={junk:?}");
        }
        std::env::remove_var("GCR_THREADS");
    }
}
