//! Router and scheduling configuration.

use std::fmt;

/// Tuning knobs for the gridless router (non-consuming builder).
///
/// ```
/// use gcr_core::RouterConfig;
/// let mut config = RouterConfig::default();
/// config.corner_penalty(false).congestion_weight(8);
/// assert_eq!(config.congestion_weight, 8);
/// ```
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Apply the inverted-corner ε penalty to bends that do not hug an
    /// obstacle or the plane boundary (paper Figure 2). Default `true`.
    pub corner_penalty: bool,
    /// Wire pitch: the width one wire consumes in a passage, used to turn
    /// passage gaps into capacities. Default 1 unit.
    pub wire_pitch: i64,
    /// Cost added per unit of wire inside an over-subscribed passage
    /// during a congestion-aware pass. Default 4 (i.e. crossing a
    /// congested strip costs 5× its length).
    pub congestion_weight: i64,
    /// Abort a single connection search after this many expansions
    /// (`None` = unlimited). A safety valve for adversarial inputs.
    pub max_expansions: Option<usize>,
    /// Ablation switch: replace the paper's ray jumps ("extend any path as
    /// far toward the goal as is feasible") with single steps to the next
    /// Hanan grid line — a coarse-grid search between Lee–Moore and the
    /// paper's router. Identical optima, more expansions; exists to
    /// quantify the value of maximal ray extension (experiment E9).
    /// Default `false`.
    pub hanan_walk: bool,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            corner_penalty: true,
            wire_pitch: 1,
            congestion_weight: 4,
            max_expansions: None,
            hanan_walk: false,
        }
    }
}

impl RouterConfig {
    /// Enables or disables the inverted-corner ε penalty.
    pub fn corner_penalty(&mut self, on: bool) -> &mut RouterConfig {
        self.corner_penalty = on;
        self
    }

    /// Sets the wire pitch used for passage capacities.
    ///
    /// # Panics
    ///
    /// Panics if `pitch < 1`.
    pub fn wire_pitch(&mut self, pitch: i64) -> &mut RouterConfig {
        assert!(pitch >= 1, "wire pitch must be at least 1");
        self.wire_pitch = pitch;
        self
    }

    /// Sets the congestion penalty weight. It must be non-negative: a
    /// congestion-aware pass panics when it builds a penalty from a
    /// negative weight (see
    /// [`CongestionPenalty::from_regions`](crate::congestion::CongestionPenalty::from_regions)).
    pub fn congestion_weight(&mut self, weight: i64) -> &mut RouterConfig {
        self.congestion_weight = weight;
        self
    }

    /// Sets the per-connection expansion limit.
    pub fn max_expansions(&mut self, limit: Option<usize>) -> &mut RouterConfig {
        self.max_expansions = limit;
        self
    }

    /// Enables the Hanan-walk successor ablation (see
    /// [`RouterConfig::hanan_walk`]).
    pub fn hanan_walk(&mut self, on: bool) -> &mut RouterConfig {
        self.hanan_walk = on;
        self
    }
}

/// Which spatial index backs a session's obstacle plane.
///
/// Both implementations answer every query bit-identically (asserted by
/// `tests/plane_equivalence.rs`); the knob only changes how the answers
/// are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlaneIndexKind {
    /// The flat ray-traced [`Plane`](gcr_geom::Plane) with its
    /// sorted-face topological index.
    #[default]
    Flat,
    /// The bucket-gridded [`ShardedPlane`](gcr_geom::ShardedPlane) with
    /// its perpendicular-pruned corner tables, shared across all nets of
    /// the session.
    Sharded,
}

/// How a [`RoutingSession`](crate::RoutingSession) schedules the nets of
/// one routing call, and which plane index it routes them over.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker count; `None` = the machine's available parallelism, capped
    /// by the number of nets in the call, and `Some(1)` a plain serial
    /// loop. Output is byte-identical at any count.
    pub threads: Option<usize>,
    /// The spatial index answering the engines' connection queries.
    /// Output is byte-identical either way.
    pub index: PlaneIndexKind,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            threads: None,
            index: PlaneIndexKind::Flat,
        }
    }
}

impl BatchConfig {
    /// A forced-serial configuration, one worker (useful for baselines
    /// and for verifying the parallel/serial equivalence).
    #[must_use]
    pub fn serial() -> BatchConfig {
        BatchConfig {
            threads: Some(1),
            ..BatchConfig::default()
        }
    }

    /// The default schedule over the sharded plane index.
    #[must_use]
    pub fn sharded() -> BatchConfig {
        BatchConfig::default().with_index(PlaneIndexKind::Sharded)
    }

    /// Replaces the spatial-index selection.
    #[must_use]
    pub fn with_index(mut self, index: PlaneIndexKind) -> BatchConfig {
        self.index = index;
        self
    }

    pub(crate) fn threads_for(&self, items: usize) -> usize {
        self.threads
            .unwrap_or_else(|| gcr_search::default_threads(items))
            .max(1)
    }
}

impl fmt::Display for RouterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "corner-penalty {} pitch {} congestion-weight {} max-expansions {:?}",
            self.corner_penalty, self.wire_pitch, self.congestion_weight, self.max_expansions
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_behaviour() {
        let c = RouterConfig::default();
        assert!(c.corner_penalty);
        assert_eq!(c.wire_pitch, 1);
        assert!(c.max_expansions.is_none());
    }

    #[test]
    fn builder_chains() {
        let mut c = RouterConfig::default();
        c.corner_penalty(false)
            .wire_pitch(3)
            .congestion_weight(10)
            .max_expansions(Some(500));
        assert!(!c.corner_penalty);
        assert_eq!(c.wire_pitch, 3);
        assert_eq!(c.congestion_weight, 10);
        assert_eq!(c.max_expansions, Some(500));
    }

    #[test]
    #[should_panic(expected = "wire pitch")]
    fn zero_pitch_rejected() {
        RouterConfig::default().wire_pitch(0);
    }
}
