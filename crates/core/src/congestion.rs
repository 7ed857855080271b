//! Passage congestion: detection, accounting, and the two-pass penalty.
//!
//! The paper (Conclusions): *"a cost function may be associated with what
//! is called channel congestion. Since there are no channels the term is
//! slightly abused, but it refers here to congested passages between
//! adjacent cells. A first-pass route of all nets would reveal congested
//! areas … A second route of the affected nets could penalize those paths
//! which chose the congested area."*
//!
//! A **passage** is the free strip between two facing cell edges (or
//! between a cell edge and the plane boundary). Wires running along the
//! strip's corridor axis each consume one wire pitch of its width, so the
//! passage's capacity is `width / pitch`. After a first routing pass,
//! [`analyze`] counts the distinct nets running through each passage;
//! over-subscribed passages become [`CongestionPenalty`] regions that
//! surcharge wire length in the second pass.

use std::collections::BTreeSet;
use std::fmt;

use gcr_geom::{Axis, Coord, PlaneIndex, Rect, Segment};

/// One side of a passage: a cell (by obstacle id) or the plane boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassageSide {
    /// A cell, identified by its obstacle id in the plane.
    Cell(usize),
    /// The routing boundary.
    Boundary,
}

impl fmt::Display for PassageSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassageSide::Cell(id) => write!(f, "cell#{id}"),
            PassageSide::Boundary => write!(f, "boundary"),
        }
    }
}

/// A free strip between two facing edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Passage {
    /// One side of the strip.
    pub a: PassageSide,
    /// The other side.
    pub b: PassageSide,
    /// The strip itself (closed rectangle; wires may run on its edges).
    pub rect: Rect,
    /// The axis wires travel along when passing *through* the strip
    /// (the strip's long axis).
    pub corridor_axis: Axis,
    /// The clear width of the strip (perpendicular to `corridor_axis`).
    pub width: Coord,
}

impl Passage {
    /// How many wires of the given pitch fit side by side.
    #[must_use]
    pub fn capacity(&self, pitch: Coord) -> i64 {
        if pitch <= 0 {
            0
        } else {
            self.width / pitch
        }
    }
}

impl fmt::Display for Passage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "passage {} | {} at {} (width {}, corridor {})",
            self.a, self.b, self.rect, self.width, self.corridor_axis
        )
    }
}

/// Finds every clean passage in the plane: facing cell pairs and
/// cell-to-boundary strips with positive gap and no third cell intruding.
#[must_use]
pub fn find_passages(plane: &dyn PlaneIndex) -> Vec<Passage> {
    let rects = plane.rects();
    let bounds = plane.bounds();
    let mut out: Vec<Passage> = Vec::new();
    let intruded = |strip: &Rect, skip_a: usize, skip_b: Option<usize>| {
        rects
            .iter()
            .enumerate()
            .any(|(k, (r, _))| k != skip_a && Some(k) != skip_b && r.overlaps_open(strip))
    };
    // Cell-to-cell passages.
    for i in 0..rects.len() {
        for j in (i + 1)..rects.len() {
            let (ra, ia) = rects[i];
            let (rb, ib) = rects[j];
            if ia == ib {
                continue; // rectangles of one polygonal cell
            }
            for sep in Axis::ALL {
                let perp = sep.perpendicular();
                let (l, r) = if ra.span(sep).hi() <= rb.span(sep).lo() {
                    (ra, rb)
                } else if rb.span(sep).hi() <= ra.span(sep).lo() {
                    (rb, ra)
                } else {
                    continue;
                };
                let gap = r.span(sep).lo() - l.span(sep).hi();
                if gap <= 0 {
                    continue;
                }
                let Some(overlap) = ra.span(perp).intersect(&rb.span(perp)) else {
                    continue;
                };
                if overlap.is_degenerate() {
                    continue;
                }
                let strip_span =
                    gcr_geom::Interval::new(l.span(sep).hi(), r.span(sep).lo()).expect("gap > 0");
                let strip = match sep {
                    Axis::X => Rect::from_intervals(strip_span, overlap),
                    Axis::Y => Rect::from_intervals(overlap, strip_span),
                };
                if intruded(&strip, i, Some(j)) {
                    continue;
                }
                out.push(Passage {
                    a: PassageSide::Cell(ia),
                    b: PassageSide::Cell(ib),
                    rect: strip,
                    corridor_axis: perp,
                    width: gap,
                });
            }
        }
    }
    // Cell-to-boundary passages.
    for (i, (r, id)) in rects.iter().enumerate() {
        for sep in Axis::ALL {
            let perp = sep.perpendicular();
            let low_gap = r.span(sep).lo() - bounds.span(sep).lo();
            let high_gap = bounds.span(sep).hi() - r.span(sep).hi();
            for (gap, strip_span) in [
                (
                    low_gap,
                    gcr_geom::Interval::new(bounds.span(sep).lo(), r.span(sep).lo()),
                ),
                (
                    high_gap,
                    gcr_geom::Interval::new(r.span(sep).hi(), bounds.span(sep).hi()),
                ),
            ] {
                if gap <= 0 {
                    continue;
                }
                let strip_span = strip_span.expect("gap > 0 implies ordered bounds");
                let strip = match sep {
                    Axis::X => Rect::from_intervals(strip_span, r.span(perp)),
                    Axis::Y => Rect::from_intervals(r.span(perp), strip_span),
                };
                if intruded(&strip, i, None) {
                    continue;
                }
                out.push(Passage {
                    a: PassageSide::Cell(*id),
                    b: PassageSide::Boundary,
                    rect: strip,
                    corridor_axis: perp,
                    width: gap,
                });
            }
        }
    }
    out
}

/// Per-passage usage after a routing pass.
#[derive(Debug, Clone)]
pub struct CongestionAnalysis {
    /// The passages analyzed (same order as `users`).
    pub passages: Vec<Passage>,
    /// For each passage, the distinct net indices running through it.
    pub users: Vec<BTreeSet<usize>>,
    /// The wire pitch used for capacities.
    pub pitch: Coord,
}

impl CongestionAnalysis {
    /// Overflow of passage `i`: users beyond capacity (≥ 0).
    #[must_use]
    pub fn overflow(&self, i: usize) -> i64 {
        let used = self.users[i].len() as i64;
        (used - self.passages[i].capacity(self.pitch)).max(0)
    }

    /// Total overflow over all passages.
    #[must_use]
    pub fn total_overflow(&self) -> i64 {
        (0..self.passages.len()).map(|i| self.overflow(i)).sum()
    }

    /// Maximum single-passage overflow.
    #[must_use]
    pub fn max_overflow(&self) -> i64 {
        (0..self.passages.len())
            .map(|i| self.overflow(i))
            .max()
            .unwrap_or(0)
    }

    /// Indices of over-subscribed passages.
    #[must_use]
    pub fn congested(&self) -> Vec<usize> {
        (0..self.passages.len())
            .filter(|&i| self.overflow(i) > 0)
            .collect()
    }

    /// The union of nets using any over-subscribed passage — "the affected
    /// nets" the paper reroutes in the second pass.
    #[must_use]
    pub fn affected_nets(&self) -> BTreeSet<usize> {
        self.congested()
            .into_iter()
            .flat_map(|i| self.users[i].iter().copied())
            .collect()
    }

    /// Builds the penalty regions for the second pass.
    #[must_use]
    pub fn penalty(&self, weight: i64) -> CongestionPenalty {
        CongestionPenalty::from_regions(
            self.congested()
                .into_iter()
                .map(|i| (self.passages[i].rect, self.passages[i].corridor_axis))
                .collect(),
            weight,
        )
    }
}

/// Does a segment run through a passage? True when the segment travels
/// along the corridor axis, sits within the strip's width, and has
/// positive length inside the strip.
fn runs_through(seg: &Segment, p: &Passage) -> bool {
    if seg.is_degenerate() || seg.axis() != p.corridor_axis {
        return false;
    }
    let perp = p.corridor_axis.perpendicular();
    p.rect.span(perp).contains(seg.cross())
        && p.rect.span(p.corridor_axis).overlaps_open(&seg.span())
}

/// Counts distinct nets through each passage. `routes` yields
/// `(net_index, segments)` pairs.
#[must_use]
pub fn analyze<'a, I>(passages: &[Passage], routes: I, pitch: Coord) -> CongestionAnalysis
where
    I: IntoIterator<Item = (usize, &'a [Segment])>,
{
    let mut users: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); passages.len()];
    for (net, segments) in routes {
        for seg in segments {
            for (i, p) in passages.iter().enumerate() {
                if runs_through(seg, p) {
                    users[i].insert(net);
                }
            }
        }
    }
    CongestionAnalysis {
        passages: passages.to_vec(),
        users,
        pitch,
    }
}

/// Panics unless `weight` is non-negative. A negative congestion weight
/// would make a surcharge negative, and the search's edge costs must
/// never be.
fn assert_non_negative(weight: i64) {
    assert!(
        weight >= 0,
        "congestion weight {weight} is negative: congestion surcharges must not be"
    );
}

/// Penalty regions for a congestion-aware pass: wire running along a
/// region's corridor axis inside the region is surcharged
/// `weight × overlap-length`. Each region carries its own weight — the
/// two-pass flow uses one uniform weight, negotiation prices every
/// passage by its present overflow plus accumulated history.
#[derive(Debug, Clone, Default)]
pub struct CongestionPenalty {
    regions: Vec<(Rect, Axis, i64)>,
}

impl CongestionPenalty {
    /// Builds a penalty from explicit regions under one uniform weight
    /// (mostly for tests; normally produced by
    /// [`CongestionAnalysis::penalty`]).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is negative.
    #[must_use]
    pub fn from_regions(regions: Vec<(Rect, Axis)>, weight: i64) -> CongestionPenalty {
        assert_non_negative(weight);
        CongestionPenalty {
            regions: regions.into_iter().map(|(r, a)| (r, a, weight)).collect(),
        }
    }

    /// Builds a penalty with an explicit weight per region — the
    /// negotiated-congestion form ([`crate::NegotiationCost::penalty`]).
    ///
    /// # Panics
    ///
    /// Panics if any region's weight is negative.
    #[must_use]
    pub fn from_weighted_regions(regions: Vec<(Rect, Axis, i64)>) -> CongestionPenalty {
        for &(_, _, weight) in &regions {
            assert_non_negative(weight);
        }
        CongestionPenalty { regions }
    }

    /// Number of penalized regions.
    #[must_use]
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The surcharge for routing `seg`.
    #[must_use]
    pub fn surcharge(&self, seg: &Segment) -> i64 {
        if seg.is_degenerate() {
            return 0;
        }
        let mut total = 0;
        for (rect, corridor, weight) in &self.regions {
            if seg.axis() != *corridor {
                continue;
            }
            let perp = corridor.perpendicular();
            if !rect.span(perp).contains(seg.cross()) {
                continue;
            }
            if let Some(overlap) = rect.span(*corridor).intersect(&seg.span()) {
                total += overlap.len() * weight;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Point};

    /// Two cells side by side with a 10-wide alley, inside a 100² plane.
    fn alley_plane() -> Plane {
        let mut p = Plane::new(Rect::new(0, 0, 100, 100).unwrap());
        p.add_obstacle(Rect::new(10, 20, 40, 80).unwrap());
        p.add_obstacle(Rect::new(50, 20, 90, 80).unwrap());
        p
    }

    #[test]
    fn finds_cell_to_cell_passage() {
        let plane = alley_plane();
        let passages = find_passages(&plane);
        let alley = passages
            .iter()
            .find(|p| matches!((p.a, p.b), (PassageSide::Cell(_), PassageSide::Cell(_))))
            .expect("alley found");
        assert_eq!(alley.rect, Rect::new(40, 20, 50, 80).unwrap());
        assert_eq!(alley.corridor_axis, Axis::Y);
        assert_eq!(alley.width, 10);
        assert_eq!(alley.capacity(1), 10);
        assert_eq!(alley.capacity(3), 3);
    }

    #[test]
    fn finds_boundary_passages() {
        let plane = alley_plane();
        let passages = find_passages(&plane);
        let south = passages
            .iter()
            .filter(|p| p.b == PassageSide::Boundary)
            .find(|p| p.rect.ymax() == 20 && p.rect.xmin() == 10)
            .expect("south strip of the left cell");
        assert_eq!(south.width, 20);
        assert_eq!(south.corridor_axis, Axis::X);
    }

    #[test]
    fn intruded_strip_is_dropped() {
        let mut plane = alley_plane();
        // A post in the middle of the alley.
        plane.add_obstacle(Rect::new(43, 45, 47, 55).unwrap());
        let passages = find_passages(&plane);
        assert!(!passages
            .iter()
            .any(|p| p.rect == Rect::new(40, 20, 50, 80).unwrap()));
    }

    #[test]
    fn usage_counts_distinct_nets_running_through() {
        let plane = alley_plane();
        let passages = find_passages(&plane);
        // Net 0: vertical wire through the alley at x=45.
        let n0 = [Segment::vertical(45, 0, 100)];
        // Net 1: two vertical wires (still one net) through the alley.
        let n1 = [Segment::vertical(42, 10, 90), Segment::vertical(48, 10, 90)];
        // Net 2: horizontal wire crossing the alley (not along corridor).
        let n2 = [Segment::horizontal(50, 0, 100)];
        // Net 3: vertical wire elsewhere.
        let n3 = [Segment::vertical(5, 0, 100)];
        let analysis = analyze(
            &passages,
            [
                (0, n0.as_slice()),
                (1, n1.as_slice()),
                (2, n2.as_slice()),
                (3, n3.as_slice()),
            ],
            1,
        );
        let alley_idx = analysis
            .passages
            .iter()
            .position(|p| p.rect == Rect::new(40, 20, 50, 80).unwrap())
            .unwrap();
        assert_eq!(
            analysis.users[alley_idx]
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![0, 1]
        );
    }

    #[test]
    fn overflow_math() {
        let plane = alley_plane();
        let passages = find_passages(&plane);
        let alley_idx = passages
            .iter()
            .position(|p| p.rect == Rect::new(40, 20, 50, 80).unwrap())
            .unwrap();
        // Pitch 10 → capacity 1. Two nets → overflow 1.
        let n0 = [Segment::vertical(45, 0, 100)];
        let n1 = [Segment::vertical(42, 10, 90)];
        let analysis = analyze(&passages, [(0, n0.as_slice()), (1, n1.as_slice())], 10);
        assert_eq!(analysis.overflow(alley_idx), 1);
        assert!(analysis.total_overflow() >= 1);
        assert!(analysis.max_overflow() >= 1);
        assert!(analysis.congested().contains(&alley_idx));
        assert!(analysis.affected_nets().contains(&0));
        assert!(analysis.affected_nets().contains(&1));
    }

    #[test]
    fn penalty_surcharges_only_corridor_wire_inside() {
        let rect = Rect::new(40, 20, 50, 80).unwrap();
        let p = CongestionPenalty::from_regions(vec![(rect, Axis::Y)], 4);
        // 60 units inside the strip.
        assert_eq!(p.surcharge(&Segment::vertical(45, 0, 100)), 60 * 4);
        // Clipped overlap.
        assert_eq!(p.surcharge(&Segment::vertical(45, 50, 100)), 30 * 4);
        // Wrong axis: crossing the strip is not surcharged.
        assert_eq!(p.surcharge(&Segment::horizontal(50, 0, 100)), 0);
        // Outside the width.
        assert_eq!(p.surcharge(&Segment::vertical(55, 0, 100)), 0);
        // On the strip edge (hugging the cell face) counts: x=40.
        assert_eq!(p.surcharge(&Segment::vertical(40, 20, 80)), 60 * 4);
    }

    #[test]
    fn weighted_regions_price_each_region_by_its_own_weight() {
        let a = Rect::new(40, 20, 50, 80).unwrap();
        let b = Rect::new(60, 20, 70, 80).unwrap();
        let p = CongestionPenalty::from_weighted_regions(vec![(a, Axis::Y, 2), (b, Axis::Y, 7)]);
        assert_eq!(p.region_count(), 2);
        assert_eq!(p.surcharge(&Segment::vertical(45, 20, 80)), 60 * 2);
        assert_eq!(p.surcharge(&Segment::vertical(65, 20, 80)), 60 * 7);
        // A wire through both strips pays each region's own rate.
        assert_eq!(p.surcharge(&Segment::horizontal(50, 0, 100)), 0);
    }

    #[test]
    #[should_panic(expected = "congestion weight -1 is negative")]
    fn negative_uniform_weight_is_rejected() {
        let _ = CongestionPenalty::from_regions(vec![], -1);
    }

    #[test]
    #[should_panic(expected = "congestion weight -1 is negative")]
    fn negative_region_weight_is_rejected() {
        let a = Rect::new(40, 20, 50, 80).unwrap();
        let _ = CongestionPenalty::from_weighted_regions(vec![(a, Axis::Y, 2), (a, Axis::X, -1)]);
    }

    #[test]
    fn zero_weights_are_accepted() {
        let a = Rect::new(40, 20, 50, 80).unwrap();
        let uniform = CongestionPenalty::from_regions(vec![(a, Axis::Y)], 0);
        let weighted = CongestionPenalty::from_weighted_regions(vec![(a, Axis::Y, 0)]);
        for p in [uniform, weighted] {
            assert_eq!(p.surcharge(&Segment::vertical(45, 20, 80)), 0);
        }
    }

    /// Four nets squeezed through one alley between two cells: at pitch 5
    /// the first pass congests it.
    fn congested_session(config: &crate::RouterConfig) -> crate::RoutingSession {
        use gcr_layout::{Layout, Pin};
        let mut l = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
        l.add_cell("a", Rect::new(40, 20, 95, 100).unwrap())
            .unwrap();
        l.add_cell("b", Rect::new(105, 20, 160, 100).unwrap())
            .unwrap();
        for i in 0..4i64 {
            let x = 96 + i * 2;
            let id = l.add_net(format!("n{i}"));
            let t0 = l.add_terminal(id, "s");
            l.add_pin(t0, Pin::floating(Point::new(x, 0))).unwrap();
            let t1 = l.add_terminal(id, "t");
            l.add_pin(t1, Pin::floating(Point::new(x, 110))).unwrap();
        }
        crate::RoutingSession::builder(l)
            .config(config.clone())
            .build()
    }

    #[test]
    fn a_zero_weight_route_is_accepted() {
        let mut config = crate::RouterConfig::default();
        config.wire_pitch(5).congestion_weight(0);
        let report = congested_session(&config).route_two_pass();
        assert!(report.before.total_overflow() > 0, "scenario must congest");
    }

    #[test]
    #[should_panic(expected = "congestion weight -1 is negative")]
    fn a_negative_router_weight_panics_in_a_route() {
        let mut config = crate::RouterConfig::default();
        config.wire_pitch(5).congestion_weight(-1);
        let _ = congested_session(&config).route_two_pass();
    }

    #[test]
    fn empty_penalty_is_free() {
        let p = CongestionPenalty::default();
        assert_eq!(p.surcharge(&Segment::vertical(45, 0, 100)), 0);
        assert_eq!(p.region_count(), 0);
    }

    #[test]
    fn degenerate_segments_never_count() {
        let plane = alley_plane();
        let passages = find_passages(&plane);
        let dot = [Segment::new(Point::new(45, 50), Point::new(45, 50)).unwrap()];
        let analysis = analyze(&passages, [(0, dot.as_slice())], 1);
        assert_eq!(analysis.total_overflow(), 0);
        assert!(analysis.users.iter().all(BTreeSet::is_empty));
    }
}
