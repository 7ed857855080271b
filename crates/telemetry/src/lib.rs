//! Process-global telemetry for the `gcr` stack.
//!
//! The design goal is a hot path that costs a single relaxed
//! `fetch_add`: every metric handle is `&'static` (leaked once at
//! registration, never freed, never reallocated), so instrumented code
//! holds plain references and touches no lock after start-up. The
//! pieces:
//!
//! - [`Counter`] / [`Gauge`] — one atomic word each.
//! - [`Histogram`] — fixed exponential bucket bounds chosen at
//!   registration; observation is two relaxed `fetch_add`s plus a
//!   branch-free bucket search over a tiny sorted slice.
//! - [`MetricsRegistry`] — get-or-register by `&'static` name (and an
//!   optional single label), Prometheus-style text exposition
//!   (`MetricsRegistry::expose`), and a matching [`parse_exposition`]
//!   used by the load generator to cross-check a server's view against
//!   its own.
//! - [`TraceId`] — cheap per-request identifiers from a global atomic.
//! - [`SlowLog`] — a bounded ring of slow or panicked requests, keyed
//!   by trace ID, each entry optionally retaining its rendered span
//!   tree.
//! - [`SpanRecorder`] / [`SpanTree`] — hierarchical per-request span
//!   trees (request → op → net → search) with attributed counters, a
//!   stable line grammar, and collapsed-stack rendering for flamegraph
//!   tooling (see [`trace`]).
//!
//! ## Kill switch
//!
//! [`enabled`] is a single relaxed atomic load. Instrumented crates
//! gate *expensive* work (clock reads, per-search stat flushes) on it;
//! raw counter bumps are cheap enough to leave unconditional. It is
//! controlled by [`set_enabled`] or by the `GCR_TELEMETRY` environment
//! variable (`off` / `0` / `false` disables), consulted once on first
//! use.
//!
//! ## Naming convention
//!
//! Series are named `gcr_<crate>_<name>[_total]` — e.g.
//! `gcr_search_expansions_total`, `gcr_service_request_us`. Counters
//! end in `_total`; histograms carry their unit as a suffix (`_us`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod slowlog;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, LATENCY_BOUNDS_US, SIZE_BOUNDS};
pub use registry::{
    global, histogram_buckets, parse_exposition, quantile_bucket_index, MetricKind,
    MetricsRegistry, Sample,
};
pub use slowlog::{init_slow_log, slow_log, SlowEntry, SlowLog, DEFAULT_SLOW_LOG_CAP};
pub use trace::{
    active_span, has_active_span, sample_trace, set_active_span, SpanHandle, SpanId, SpanNode,
    SpanRecorder, SpanTree,
};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

static ENABLED: AtomicBool = AtomicBool::new(true);
static ENV_CHECKED: Once = Once::new();

fn consult_env() {
    ENV_CHECKED.call_once(|| {
        if let Ok(v) = std::env::var("GCR_TELEMETRY") {
            let v = v.to_ascii_lowercase();
            if v == "off" || v == "0" || v == "false" {
                ENABLED.store(false, Ordering::SeqCst);
            }
        }
    });
}

/// Is telemetry collection enabled? A single relaxed load; the
/// `GCR_TELEMETRY` environment variable is consulted exactly once, on
/// the first call (or the first explicit [`set_enabled`], whichever
/// comes first).
#[inline]
pub fn enabled() -> bool {
    consult_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turn telemetry collection on or off at runtime. An explicit call
/// overrides (and permanently pre-empts) the environment variable.
pub fn set_enabled(on: bool) {
    ENV_CHECKED.call_once(|| {});
    ENABLED.store(on, Ordering::SeqCst);
}

/// A per-request trace identifier: unique within the process, cheap to
/// mint (one relaxed `fetch_add`), rendered as `t<hex>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

impl TraceId {
    /// Mint the next process-unique trace ID.
    pub fn next() -> Self {
        Self(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }

    /// Parse the `t<hex>` rendering back into an ID.
    pub fn parse(s: &str) -> Option<Self> {
        let hex = s.strip_prefix('t')?;
        u64::from_str_radix(hex, 16).ok().map(Self)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that flip the process-global switch.
    static SWITCH: Mutex<()> = Mutex::new(());

    #[test]
    fn trace_ids_are_unique_and_roundtrip() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        let shown = a.to_string();
        assert!(shown.starts_with('t'));
        assert_eq!(TraceId::parse(&shown), Some(a));
        assert_eq!(TraceId::parse("nope"), None);
        assert_eq!(TraceId::parse("tzz"), None);
    }

    #[test]
    fn kill_switch_toggles() {
        let _guard = SWITCH.lock().unwrap();
        assert!(enabled(), "tests run with telemetry on by default");
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
