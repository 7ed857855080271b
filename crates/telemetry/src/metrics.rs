//! The three metric primitives. All state is plain atomics: safe to
//! share across threads, exact under contention, no allocation after
//! construction.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing counter. Increment is one relaxed
/// `fetch_add`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depth, live sessions).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    #[inline]
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite with `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default latency bucket upper bounds, in microseconds: a 1-2.5-5
/// decade ladder from 1 µs to 5 s. The final implicit bucket is +Inf.
pub const LATENCY_BOUNDS_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
];

/// Default size bucket upper bounds (dirty-set sizes, queue lengths):
/// the same 1-2.5-5 ladder from 1 to 100 000.
pub const SIZE_BOUNDS: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// A fixed-bucket histogram: per-bucket atomic counts plus running sum
/// and count. Bucket bounds are chosen once at construction and are
/// *inclusive* upper bounds, Prometheus `le` style; one extra implicit
/// bucket catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly increasing upper bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// A histogram over [`LATENCY_BOUNDS_US`].
    pub fn latency_us() -> Self {
        Self::new(LATENCY_BOUNDS_US)
    }

    /// A histogram over [`SIZE_BOUNDS`].
    pub fn sizes() -> Self {
        Self::new(SIZE_BOUNDS)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the elapsed time since `start` in microseconds and
    /// return it.
    #[inline]
    pub fn observe_since(&self, start: Instant) -> u64 {
        let us = start.elapsed().as_micros() as u64;
        self.observe(us);
        us
    }

    /// The configured upper bounds (exclusive of the implicit +Inf).
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts; the final entry is the
    /// overflow (+Inf) bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Index of the bucket whose cumulative count first reaches
    /// quantile `q` (0.0..=1.0). `None` when empty. The index points
    /// into [`Self::bounds`]; an index of `bounds.len()` means the
    /// overflow bucket.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(i);
            }
        }
        Some(counts.len() - 1)
    }

    /// The upper bound (µs or unit) of the quantile bucket: a coarse
    /// but monotone quantile estimate. Overflow-bucket hits report the
    /// last finite bound.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q)
            .map(|i| self.bounds[i.min(self.bounds.len() - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_exact_under_contention() {
        let c = Counter::new();
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 800_000);
    }

    #[test]
    fn gauge_tracks_adds_and_sets() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_exact_under_contention() {
        let h = Histogram::latency_us();
        // Each of 8 threads observes the same deterministic ladder of
        // values; totals and per-bucket counts must be exact.
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        h.observe(i % 1_000);
                    }
                });
            }
        });
        assert_eq!(h.count(), 80_000);
        let per_thread_sum: u64 = (0..10_000u64).map(|i| i % 1_000).sum();
        assert_eq!(h.sum(), 8 * per_thread_sum);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn histogram_bucketing_is_le_style() {
        let h = Histogram::new(&[10, 100]);
        h.observe(0);
        h.observe(10); // le="10" is inclusive
        h.observe(11);
        h.observe(1_000); // overflow
        assert_eq!(h.bucket_counts(), vec![2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_021);
    }

    #[test]
    fn quantiles_are_monotone_bucket_bounds() {
        let h = Histogram::new(&[1, 10, 100, 1_000]);
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..10 {
            h.observe(500);
        }
        assert_eq!(h.quantile(0.50), Some(10));
        assert_eq!(h.quantile(0.90), Some(10));
        assert_eq!(h.quantile(0.99), Some(1_000));
        let empty = Histogram::new(&[1]);
        assert_eq!(empty.quantile(0.5), None);
    }
}
