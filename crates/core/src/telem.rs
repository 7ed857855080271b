//! Registry flush points for the routing session layer.
//!
//! The session's own bookkeeping (its slots, which `SessionStats` is
//! read from) stays untouched — these counters are the process-wide
//! aggregates the `METRICS` wire verb exposes. Every recording site is
//! gated on [`gcr_telemetry::enabled`] and amortized (per commit, per
//! reroute pass, per negotiation run — never per expansion).

use std::sync::OnceLock;

use gcr_telemetry::{global, Counter, Histogram, SIZE_BOUNDS};

pub(crate) struct CoreMetrics {
    /// Net commits that replaced an earlier attempt.
    pub reroutes: &'static Counter,
    /// Dirty-set size observed at each reroute pass.
    pub dirty_set_size: &'static Histogram,
    /// Reroute passes run (the `dirty_set_size` sample count).
    pub reroute_passes: &'static Counter,
    /// Negotiation loops completed.
    pub negotiation_runs: &'static Counter,
    /// Negotiation rounds summed over all loops.
    pub negotiation_rounds: &'static Counter,
    /// Negotiation loops that ended with residual overflow.
    pub negotiation_overflowed: &'static Counter,
    /// Checkpoint restores (budget cancellations rolled back).
    pub rollbacks: &'static Counter,
}

pub(crate) fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = global();
        CoreMetrics {
            reroutes: reg.counter(
                "gcr_core_session_reroutes_total",
                "Net commits that replaced an earlier routing attempt",
            ),
            dirty_set_size: reg.histogram(
                "gcr_core_dirty_set_size",
                "Number of dirty nets at each reroute pass",
                SIZE_BOUNDS,
            ),
            reroute_passes: reg.counter(
                "gcr_core_reroute_passes_total",
                "Dirty-net reroute passes run",
            ),
            negotiation_runs: reg.counter(
                "gcr_core_negotiation_runs_total",
                "Negotiated-congestion loops completed",
            ),
            negotiation_rounds: reg.counter(
                "gcr_core_negotiation_rounds_total",
                "Negotiation rounds summed over all loops",
            ),
            negotiation_overflowed: reg.counter(
                "gcr_core_negotiation_overflowed_total",
                "Negotiation loops that ended with residual overflow",
            ),
            rollbacks: reg.counter(
                "gcr_core_rollbacks_total",
                "Cancelled requests rolled back to their pre-request checkpoint",
            ),
        }
    })
}

/// `metrics()` behind the kill switch: `None` when telemetry is off, so
/// call sites stay one-liners.
#[inline]
pub(crate) fn live() -> Option<&'static CoreMetrics> {
    gcr_telemetry::enabled().then(metrics)
}
