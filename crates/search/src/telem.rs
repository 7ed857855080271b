//! Registry flush points for the search engines.
//!
//! Per-expansion work stays on thread-local [`SearchStats`]
//! (crate::SearchStats); the global registry is touched **once per
//! search**, when the outcome is known, so instrumentation adds a
//! handful of relaxed `fetch_add`s to a search that performs thousands
//! of expansions. Everything is gated on [`gcr_telemetry::enabled`].

use std::sync::OnceLock;

use gcr_telemetry::{global, Counter};

use crate::SearchOutcome;

struct SearchMetrics {
    searches: &'static Counter,
    expansions: &'static Counter,
    generated: &'static Counter,
    seeded: &'static Counter,
    budget_trips: &'static Counter,
    arena_resets: &'static Counter,
}

fn metrics() -> &'static SearchMetrics {
    static METRICS: OnceLock<SearchMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = global();
        SearchMetrics {
            searches: reg.counter("gcr_search_searches_total", "Searches run to any outcome"),
            expansions: reg.counter(
                "gcr_search_expansions_total",
                "Nodes removed from OPEN and expanded, across all searches",
            ),
            generated: reg.counter(
                "gcr_search_generated_total",
                "Successor edges generated, across all searches",
            ),
            seeded: reg.counter(
                "gcr_search_seeded_total",
                "Searches that began with an incumbent path's cost as their goal bound",
            ),
            budget_trips: reg.counter(
                "gcr_search_budget_trips_total",
                "Searches abandoned by a budget (cancel flag, deadline or expansion ceiling)",
            ),
            arena_resets: reg.counter(
                "gcr_search_arena_resets_total",
                "SearchArena resets (one per search entry plus explicit clears)",
            ),
        }
    })
}

/// Count one arena reset — into the registry, and onto the enclosing
/// net's span when this thread is routing a traced request.
pub(crate) fn note_arena_reset() {
    if gcr_telemetry::enabled() {
        metrics().arena_resets.inc();
    }
    if let Some(span) = gcr_telemetry::active_span() {
        span.add("arena-resets", 1);
    }
}

/// Clock capture for span attribution: `Some(now)` only when this
/// thread carries an active span (the session layer installs one around
/// each net of a traced request). Untraced searches pay one
/// thread-local probe and never read the clock.
pub(crate) fn trace_begin() -> Option<std::time::Instant> {
    gcr_telemetry::has_active_span().then(std::time::Instant::now)
}

/// Flush one finished search's thread-local stats into the registry,
/// and — when [`trace_begin`] captured a start — record the search as a
/// leaf span under the active net span, carrying the *same* stats. The
/// two sinks read one `SearchStats`, which is what makes a traced
/// request's attributed expansion total equal the registry delta
/// (asserted by `tests/telemetry.rs`).
pub(crate) fn flush_outcome<S, C>(
    outcome: &SearchOutcome<S, C>,
    trace_start: Option<std::time::Instant>,
) {
    let stats = outcome.stats();
    let cancelled = matches!(outcome, SearchOutcome::Cancelled(..));
    if let (Some(start), Some(span)) = (trace_start, gcr_telemetry::active_span()) {
        // `seeded` and `budget-trips` appear only when they are 1.
        let mut counters = [
            ("expanded", stats.expanded as u64),
            ("generated", stats.generated as u64),
            ("", 0),
            ("", 0),
        ];
        let mut len = 2;
        for (name, on) in [("seeded", stats.seeded > 0), ("budget-trips", cancelled)] {
            if on {
                counters[len] = (name, 1);
                len += 1;
            }
        }
        span.recorder()
            .leaf(span.parent(), "search", "", start, &counters[..len]);
    }
    if !gcr_telemetry::enabled() {
        return;
    }
    let m = metrics();
    m.searches.inc();
    m.expansions.add(stats.expanded as u64);
    m.generated.add(stats.generated as u64);
    m.seeded.add(stats.seeded as u64);
    if cancelled {
        m.budget_trips.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelReason, SearchStats};

    #[test]
    fn flush_accumulates_and_counts_trips() {
        let before_searches = metrics().searches.get();
        let before_exp = metrics().expansions.get();
        let before_trips = metrics().budget_trips.get();

        let before_seeded = metrics().seeded.get();
        let stats = SearchStats {
            expanded: 7,
            generated: 20,
            seeded: 1,
            ..SearchStats::default()
        };
        flush_outcome(&SearchOutcome::<u32, u32>::Exhausted(stats), None);
        flush_outcome(
            &SearchOutcome::<u32, u32>::Cancelled(CancelReason::Deadline, stats),
            None,
        );

        // Other tests in this process may flush concurrently, so the
        // deltas are lower bounds rather than exact.
        assert!(metrics().searches.get() >= before_searches + 2);
        assert!(metrics().expansions.get() >= before_exp + 14);
        assert!(metrics().budget_trips.get() > before_trips);
        assert!(metrics().seeded.get() >= before_seeded + 2);
    }
}
