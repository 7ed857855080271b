//! Instrumentation counters shared by every search engine.

use std::fmt;

/// Counters describing how much work a search performed.
///
/// These are the numbers behind the paper's efficiency argument:
/// "surprisingly few nodes are generated before an optimal path is found"
/// for the gridless successor generator, versus the "large amounts of
/// memory and processor time" of the grid-based approach. The reproduction
/// harness reports them for every router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes removed from OPEN and expanded.
    pub expanded: usize,
    /// Successors generated: every edge the space listed, and every ray
    /// stop A\* placed on a run after the cuts made as the ray was cast.
    pub generated: usize,
    /// Distinct states given a label. A\* labels only a state it expands
    /// or the goal it reaches: `expanded` plus one on success when no
    /// node is reopened (the blind engines: every state they reached).
    pub touched: usize,
    /// Nodes whose cost improved after they were closed and that were moved
    /// back to OPEN ("its pointers must be redirected").
    pub reopened: usize,
    /// The most entries queued at once: A\*'s run cursors (one per ray,
    /// edge or start on OPEN) plus the rays waiting uncast (the blind
    /// engines: queued states).
    pub max_open: usize,
    /// Searches that began with an incumbent: a caller-held path whose
    /// cost seeds the goal bound (see [`astar_in`](crate::astar_in)).
    /// 0 or 1 for one search; summed by [`SearchStats::absorb`].
    pub seeded: usize,
}

impl SearchStats {
    /// Accumulates another run's counters into this one (for suite totals).
    pub fn absorb(&mut self, other: &SearchStats) {
        self.expanded += other.expanded;
        self.generated += other.generated;
        self.touched += other.touched;
        self.reopened += other.reopened;
        self.max_open = self.max_open.max(other.max_open);
        self.seeded += other.seeded;
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expanded {} generated {} touched {} reopened {} max-open {} seeded {}",
            self.expanded, self.generated, self.touched, self.reopened, self.max_open, self.seeded
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = SearchStats {
            expanded: 1,
            generated: 2,
            touched: 3,
            reopened: 0,
            max_open: 5,
            seeded: 1,
        };
        let b = SearchStats {
            expanded: 10,
            generated: 20,
            touched: 30,
            reopened: 1,
            max_open: 3,
            seeded: 0,
        };
        a.absorb(&b);
        assert_eq!(a.expanded, 11);
        assert_eq!(a.generated, 22);
        assert_eq!(a.touched, 33);
        assert_eq!(a.reopened, 1);
        assert_eq!(a.max_open, 5);
        assert_eq!(a.seeded, 1);
    }

    #[test]
    fn display_labels_every_counter() {
        let s = SearchStats::default().to_string();
        for label in [
            "expanded",
            "generated",
            "touched",
            "reopened",
            "max-open",
            "seeded",
        ] {
            assert!(s.contains(label), "missing {label} in {s}");
        }
    }
}
