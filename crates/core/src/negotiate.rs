//! PathFinder-style negotiated congestion over the session primitives.
//!
//! The paper's two-pass flow reroutes the nets through over-subscribed
//! passages exactly **once**, under one uniform surcharge — dense
//! instances keep residual overflow because a single push either fails
//! to move enough nets or moves them all into the next passage over.
//! The production-standard answer (McMurchie & Ebeling's PathFinder) is
//! to *negotiate*: reroute iteratively under a per-passage price that
//! combines
//!
//! * a **present cost** — proportional to the passage's overflow right
//!   now, so currently contended strips repel wire immediately, and
//! * a **history cost** — accumulated every iteration a passage has been
//!   over-subscribed, and *never forgiven*. History is what breaks
//!   oscillation: when two nets alternate between two passages, the
//!   prices of both strips ratchet up until one net finds a third path
//!   (or the cap ends the argument).
//!
//! [`NegotiationCost`] holds the per-passage history, [`negotiate`] is
//! the driver loop over the existing [`RoutingSession`] primitives
//! (dirty-marking + `reroute_dirty_with(penalty)`), and
//! [`NegotiationReport`] is the two-pass-shaped summary. The loop runs
//! until zero overflow or [`NegotiationConfig::max_iters`]; within each
//! round any net a *surcharged* search failed is retried at true cost,
//! so negotiation never ends with fewer routed nets than the plain
//! first pass. A capped run that ends mid-oscillation is rolled back to
//! the best state it visited (keep-best), so a bigger budget never buys
//! a worse answer.
//!
//! Determinism: every iteration reroutes its dirty set through the same
//! deterministic schedule as all other flows, so serial ≡ parallel and
//! flat ≡ sharded, byte-identical (`tests/negotiate.rs`).

use std::collections::BTreeSet;

use gcr_search::Budget;

use crate::congestion::{
    assert_non_negative, find_passages, CongestionAnalysis, CongestionPenalty, Passage,
};
use crate::engine::RoutingEngine;
use crate::session::RoutingSession;
use crate::{GlobalRouting, RouteError};

/// Tuning knobs for the negotiation loop (non-consuming builder, like
/// [`RouterConfig`](crate::RouterConfig)).
///
/// ```
/// use gcr_core::NegotiationConfig;
/// let mut config = NegotiationConfig::default();
/// config.max_iters(8).history_increment(2);
/// assert_eq!(config.max_iters, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NegotiationConfig {
    /// Iteration cap: reroute rounds before the loop gives up on the
    /// remaining overflow. Default 16.
    pub max_iters: usize,
    /// Present-cost weight: each unit of wire in a passage currently
    /// over capacity is surcharged `present_weight × overflow`.
    /// Default 1 — deliberately gentler than the two-pass
    /// `congestion_weight`, because negotiation gets to push again.
    pub present_weight: i64,
    /// History growth: every iteration a passage is over-subscribed adds
    /// `history_increment × overflow` to its permanent per-unit price.
    /// Default 1.
    pub history_increment: i64,
}

impl Default for NegotiationConfig {
    fn default() -> NegotiationConfig {
        NegotiationConfig {
            max_iters: 16,
            present_weight: 1,
            history_increment: 1,
        }
    }
}

impl NegotiationConfig {
    /// Sets the iteration cap.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a zero-round negotiation is
    /// [`RoutingSession::route_all`](crate::RoutingSession::route_all).
    pub fn max_iters(&mut self, n: usize) -> &mut NegotiationConfig {
        assert!(n >= 1, "negotiation needs at least one iteration");
        self.max_iters = n;
        self
    }

    /// Sets the present-cost weight. It must be non-negative: a
    /// negotiation round panics when it prices passages with a negative
    /// one (see [`NegotiationCost::penalty`]).
    pub fn present_weight(&mut self, weight: i64) -> &mut NegotiationConfig {
        self.present_weight = weight;
        self
    }

    /// Sets the history growth per over-subscribed iteration. It must be
    /// non-negative: a negotiation round panics when it grows history by
    /// a negative one (see [`NegotiationCost::absorb`]).
    pub fn history_increment(&mut self, increment: i64) -> &mut NegotiationConfig {
        self.history_increment = increment;
        self
    }
}

/// The negotiation state: one monotonically growing history price per
/// passage. Indices follow the passage list the analysis was built over.
#[derive(Debug, Clone, Default)]
pub struct NegotiationCost {
    history: Vec<i64>,
}

impl NegotiationCost {
    /// Fresh state (zero history) for `passages` passages.
    #[must_use]
    pub fn new(passages: usize) -> NegotiationCost {
        NegotiationCost {
            history: vec![0; passages],
        }
    }

    /// The accumulated history price of passage `i`.
    #[must_use]
    pub fn history(&self, i: usize) -> i64 {
        self.history[i]
    }

    /// Absorbs one iteration's analysis: every over-subscribed passage
    /// gains `increment × overflow` of permanent history. Passages that
    /// decongested keep their history — that is the anti-oscillation
    /// property.
    ///
    /// # Panics
    ///
    /// Panics if the analysis covers a different passage list, or if
    /// `increment` is negative.
    pub fn absorb(&mut self, analysis: &CongestionAnalysis, increment: i64) {
        assert_non_negative("history increment", increment);
        assert_eq!(
            analysis.passages.len(),
            self.history.len(),
            "analysis and history must cover the same passages"
        );
        for i in 0..self.history.len() {
            let over = analysis.overflow(i);
            if over > 0 {
                self.history[i] += increment * over;
            }
        }
    }

    /// Prices the current state: passage `i` is surcharged
    /// `present_weight × overflow(i) + history(i)` per unit of wire.
    /// Passages with zero total price produce no region.
    ///
    /// # Panics
    ///
    /// Panics if `present_weight` is negative.
    #[must_use]
    pub fn penalty(&self, analysis: &CongestionAnalysis, present_weight: i64) -> CongestionPenalty {
        assert_non_negative("present weight", present_weight);
        let regions = (0..self.history.len().min(analysis.passages.len()))
            .filter_map(|i| {
                let weight = present_weight * analysis.overflow(i) + self.history[i];
                (weight > 0).then(|| {
                    let p = &analysis.passages[i];
                    (p.rect, p.corridor_axis, weight)
                })
            })
            .collect();
        CongestionPenalty::from_weighted_regions(regions)
    }
}

/// What a negotiation run produced — the
/// [`TwoPassReport`](crate::TwoPassReport) shape plus the loop's own
/// telemetry.
#[derive(Debug, Clone)]
pub struct NegotiationReport {
    /// The final assembled routing.
    pub routing: GlobalRouting,
    /// Congestion after the plain first pass (same as two-pass
    /// `before`).
    pub before: CongestionAnalysis,
    /// Congestion of the final committed occupancy.
    pub after: CongestionAnalysis,
    /// Surcharged reroute rounds actually run (0 when the first pass
    /// had no overflow or the engine is congestion-blind).
    pub iterations: usize,
    /// Successful reroute commits across all rounds and the final
    /// repair pass.
    pub rerouted: usize,
    /// Did the loop reach zero overflow (rather than the iteration
    /// cap)?
    pub converged: bool,
    /// `Some(round)` when the run hit the cap mid-oscillation and the
    /// committed state was rolled back to the best round it had visited
    /// (0 = the plain first pass). `None` when the final state was
    /// already the best one seen.
    pub restored: Option<usize>,
}

impl NegotiationReport {
    /// `true` when the final occupancy has no over-subscribed passage.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.after.total_overflow() == 0
    }
}

/// The negotiation driver loop; see the [module docs](self).
///
/// Route everything, then while overflow remains and the cap allows:
/// grow history, price every passage (present + history), mark the nets
/// through over-subscribed passages dirty — plus any net a previous
/// surcharged round failed — and reroute exactly that set. Engines
/// without [`supports_congestion`](crate::EngineCaps::supports_congestion)
/// never iterate: the report is the plain first pass.
pub fn negotiate<E: RoutingEngine>(
    session: &mut RoutingSession<E>,
    config: &NegotiationConfig,
) -> NegotiationReport {
    negotiate_impl(session, config, None).expect("unbudgeted negotiation cannot be cancelled")
}

/// [`negotiate`] under a cooperative [`Budget`]. Commits happen between
/// rounds, so the caller
/// ([`RoutingSession::route_negotiated_budgeted`](crate::RoutingSession::route_negotiated_budgeted))
/// is responsible for checkpoint/rollback on error; this function only
/// guarantees that it stops promptly and reports why.
///
/// # Errors
///
/// [`RouteError::Cancelled`] when the budget expired or was cancelled.
pub(crate) fn negotiate_budgeted<E: RoutingEngine>(
    session: &mut RoutingSession<E>,
    config: &NegotiationConfig,
    budget: &Budget,
) -> Result<NegotiationReport, RouteError> {
    negotiate_impl(session, config, Some(budget))
}

fn negotiate_impl<E: RoutingEngine>(
    session: &mut RoutingSession<E>,
    config: &NegotiationConfig,
    budget: Option<&Budget>,
) -> Result<NegotiationReport, RouteError> {
    match budget {
        Some(b) => {
            let _ = session.route_all_budgeted(b)?;
        }
        None => {
            let _ = session.route_all();
        }
    }
    let passages = find_passages(session.plane());
    let before = session.analyze_committed(&passages);
    // Nets the plain pass could not route at all (geometric failures):
    // no surcharge schedule will change those, so the loop skips them.
    let baseline_failed: BTreeSet<usize> = session.failed_slot_indices().into_iter().collect();
    let mut current = before.clone();
    let mut cost = NegotiationCost::new(passages.len());
    let mut iterations = 0;
    let mut rerouted = 0;
    let mut restored = None;
    if session.engine().capabilities().supports_congestion {
        // (overflow, rounds) of the best state visited so far.
        let mut best = (current.total_overflow(), 0);
        while current.total_overflow() > 0 && iterations < config.max_iters {
            current = negotiation_round(
                session,
                config,
                &passages,
                &baseline_failed,
                &mut cost,
                &current,
                &mut rerouted,
                budget,
            )?;
            iterations += 1;
            if current.total_overflow() < best.0 {
                best = (current.total_overflow(), iterations);
            }
        }
        // Keep-best: a capped run ends wherever the oscillation happened
        // to stop, which can be *worse* than a state it already visited
        // (more budget must never buy a worse answer). Every search
        // depends only on geometry and the penalty schedule, so ripping
        // everything up and replaying `best.1` rounds reproduces that
        // state byte-for-byte.
        if current.total_overflow() > best.0 {
            session.mark_all_dirty();
            let outcome = session.reroute_dirty_inner(None, budget)?;
            rerouted += outcome.rerouted;
            current = session.analyze_committed(&passages);
            let mut replay_cost = NegotiationCost::new(passages.len());
            for _ in 0..best.1 {
                current = negotiation_round(
                    session,
                    config,
                    &passages,
                    &baseline_failed,
                    &mut replay_cost,
                    &current,
                    &mut rerouted,
                    budget,
                )?;
            }
            debug_assert_eq!(current.total_overflow(), best.0);
            restored = Some(best.1);
        }
    }
    if let Some(m) = crate::telem::live() {
        m.negotiation_runs.inc();
        m.negotiation_rounds.add(iterations as u64);
        if current.total_overflow() > 0 {
            m.negotiation_overflowed.inc();
        }
    }
    if let Some(span) = session.trace() {
        span.add("rounds", iterations as u64);
        if current.total_overflow() > 0 {
            span.add("overflowed", 1);
        }
    }
    Ok(NegotiationReport {
        converged: current.total_overflow() == 0,
        routing: session.routing(),
        before,
        after: current,
        iterations,
        rerouted,
        restored,
    })
}

/// One surcharged round of the loop: grow history, price every passage,
/// reroute the nets through over-subscribed passages, restore surcharge
/// casualties at true cost, and re-analyze.
#[allow(clippy::too_many_arguments)]
fn negotiation_round<E: RoutingEngine>(
    session: &mut RoutingSession<E>,
    config: &NegotiationConfig,
    passages: &[Passage],
    baseline_failed: &BTreeSet<usize>,
    cost: &mut NegotiationCost,
    current: &CongestionAnalysis,
    rerouted: &mut usize,
    budget: Option<&Budget>,
) -> Result<CongestionAnalysis, RouteError> {
    cost.absorb(current, config.history_increment);
    let penalty = cost.penalty(current, config.present_weight);
    for idx in current.affected_nets() {
        session.set_dirty_slot(idx);
    }
    let outcome = session.reroute_dirty_inner(Some(&penalty), budget)?;
    *rerouted += outcome.rerouted;
    // Surcharge casualties — nets whose expansion budget blew up under
    // the inflated costs — are restored at true cost right away
    // (identical conditions to the first pass, so this cannot fail for
    // a net the first pass routed). The analysis below then prices
    // every routable net's occupancy, and negotiation never ends with
    // fewer routed nets than the plain pass.
    let casualties: Vec<usize> = session
        .failed_slot_indices()
        .into_iter()
        .filter(|idx| !baseline_failed.contains(idx))
        .collect();
    if !casualties.is_empty() {
        for idx in casualties {
            session.set_dirty_slot(idx);
        }
        let repair = session.reroute_dirty_inner(None, budget)?;
        *rerouted += repair.rerouted;
    }
    Ok(session.analyze_committed(passages))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Axis, Rect, Segment};

    fn analysis_over(rect: Rect, users: &[&[usize]], pitch: i64) -> CongestionAnalysis {
        use crate::congestion::{Passage, PassageSide};
        let passages: Vec<Passage> = (0..users.len())
            .map(|_| Passage {
                a: PassageSide::Boundary,
                b: PassageSide::Boundary,
                rect,
                corridor_axis: Axis::Y,
                width: rect.width(),
            })
            .collect();
        CongestionAnalysis {
            passages,
            users: users.iter().map(|u| u.iter().copied().collect()).collect(),
            pitch,
        }
    }

    #[test]
    fn history_grows_monotonically_and_survives_decongestion() {
        let rect = Rect::new(40, 20, 50, 80).unwrap();
        // Width 10, pitch 10 → capacity 1; two users → overflow 1.
        let congested = analysis_over(rect, &[&[0, 1]], 10);
        let clean = analysis_over(rect, &[&[0]], 10);
        let mut cost = NegotiationCost::new(1);
        cost.absorb(&congested, 2);
        assert_eq!(cost.history(0), 2);
        cost.absorb(&congested, 2);
        assert_eq!(cost.history(0), 4);
        // Decongestion does not forgive.
        cost.absorb(&clean, 2);
        assert_eq!(cost.history(0), 4);
    }

    #[test]
    fn penalty_prices_present_plus_history() {
        let rect = Rect::new(40, 20, 50, 80).unwrap();
        let congested = analysis_over(rect, &[&[0, 1, 2]], 10); // overflow 2
        let mut cost = NegotiationCost::new(1);
        cost.absorb(&congested, 1); // history 2
        let penalty = cost.penalty(&congested, 3); // 3×2 + 2 = 8 per unit
        assert_eq!(penalty.region_count(), 1);
        assert_eq!(penalty.surcharge(&Segment::vertical(45, 20, 80)), 60 * 8);
        // A decongested passage with history still prices the history.
        let clean = analysis_over(rect, &[&[0]], 10);
        let lingering = cost.penalty(&clean, 3);
        assert_eq!(lingering.region_count(), 1);
        assert_eq!(lingering.surcharge(&Segment::vertical(45, 20, 80)), 60 * 2);
    }

    #[test]
    fn zero_priced_passages_produce_no_region() {
        let rect = Rect::new(40, 20, 50, 80).unwrap();
        let clean = analysis_over(rect, &[&[0]], 10);
        let cost = NegotiationCost::new(1);
        assert_eq!(cost.penalty(&clean, 5).region_count(), 0);
    }

    #[test]
    #[should_panic(expected = "same passages")]
    fn mismatched_analysis_is_rejected() {
        let rect = Rect::new(40, 20, 50, 80).unwrap();
        let a = analysis_over(rect, &[&[0, 1]], 10);
        NegotiationCost::new(3).absorb(&a, 1);
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iteration_cap_is_rejected() {
        NegotiationConfig::default().max_iters(0);
    }
}
