//! Dynamic channel assignment from net interference.
//!
//! The paper's detailed router "dynamically assigns channels based on net
//! interference rather than cell placement": the channels are wherever the
//! global routes actually run. This module derives one channel per
//! inter-cell passage that carries wire, clips each net's corridor extent
//! into the passage, and track-assigns every channel with the left-edge
//! algorithm.

use std::time::{Duration, Instant};

use gcr_core::congestion::{find_passages, Passage};
use gcr_core::GlobalRouting;
use gcr_geom::PlaneIndex;

use crate::leftedge::{left_edge, NetSpan, TrackAssignment};

/// One dynamically assigned channel: the passage it lives in and the net
/// spans that interfere there.
#[derive(Debug, Clone)]
pub struct ChannelInstance {
    /// The passage hosting the channel.
    pub passage: Passage,
    /// The interfering net spans (net index = position of the net's route
    /// in the `GlobalRouting`), clipped to the passage.
    pub spans: Vec<NetSpan>,
}

impl ChannelInstance {
    /// The channel's density (max simultaneous crossings): a lower bound
    /// on tracks.
    #[must_use]
    pub fn density(&self) -> usize {
        let mut events: Vec<(i64, i64)> = Vec::new();
        for s in &self.spans {
            events.push((s.span.lo(), 1));
            events.push((s.span.hi() + 1, -1));
        }
        events.sort_unstable();
        let mut cur = 0i64;
        let mut max = 0i64;
        for (_, d) in events {
            cur += d;
            max = max.max(cur);
        }
        max as usize
    }
}

/// The outcome of detailed-routing a global routing result.
#[derive(Debug, Clone)]
pub struct DetailReport {
    /// Per-channel track assignments, parallel to `channels`.
    pub assignments: Vec<TrackAssignment>,
    /// The channels that carried wire.
    pub channels: Vec<ChannelInstance>,
    /// Per-net HV layer assignments (same order as the routing's routes).
    pub layers: Vec<crate::NetLayers>,
    /// Wall-clock time spent in extraction + track assignment + layer
    /// assignment.
    pub elapsed: Duration,
}

impl DetailReport {
    /// Total tracks over all channels.
    #[must_use]
    pub fn total_tracks(&self) -> usize {
        self.assignments
            .iter()
            .map(TrackAssignment::track_count)
            .sum()
    }

    /// The widest channel (most tracks).
    #[must_use]
    pub fn max_tracks(&self) -> usize {
        self.assignments
            .iter()
            .map(TrackAssignment::track_count)
            .max()
            .unwrap_or(0)
    }

    /// Number of non-empty channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Total via count over all nets (two-layer HV discipline).
    #[must_use]
    pub fn total_vias(&self) -> usize {
        self.layers.iter().map(crate::NetLayers::via_count).sum()
    }
}

/// Extracts the dynamically assigned channels: for each passage of the
/// plane, every net with wire running along the passage corridor
/// contributes its clipped span. Passages without wire produce no channel.
#[must_use]
pub fn extract_channels(plane: &dyn PlaneIndex, routing: &GlobalRouting) -> Vec<ChannelInstance> {
    let passages = find_passages(plane);
    let mut out = Vec::new();
    for p in passages {
        let corridor = p.corridor_axis;
        let perp = corridor.perpendicular();
        let mut spans: Vec<NetSpan> = Vec::new();
        for (net_idx, route) in routing.routes.iter().enumerate() {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for seg in route.segments() {
                if seg.is_degenerate() || seg.axis() != corridor {
                    continue;
                }
                if !p.rect.span(perp).contains(seg.cross()) {
                    continue;
                }
                let Some(overlap) = p.rect.span(corridor).intersect(&seg.span()) else {
                    continue;
                };
                if overlap.is_degenerate() {
                    continue;
                }
                lo = lo.min(overlap.lo());
                hi = hi.max(overlap.hi());
            }
            if lo <= hi {
                spans.push(NetSpan {
                    net: net_idx,
                    span: gcr_geom::Interval::new(lo, hi).expect("lo <= hi"),
                });
            }
        }
        if !spans.is_empty() {
            out.push(ChannelInstance { passage: p, spans });
        }
    }
    out
}

/// Runs the full detailed-routing stage: channel extraction, left-edge
/// track assignment per channel, and two-layer assignment with via
/// extraction, timed (experiment E7 compares this to the global-routing
/// time).
#[must_use]
pub fn route_details(plane: &dyn PlaneIndex, routing: &GlobalRouting) -> DetailReport {
    let start = Instant::now();
    let channels = extract_channels(plane, routing);
    let assignments: Vec<TrackAssignment> = channels.iter().map(|c| left_edge(&c.spans)).collect();
    let layers: Vec<crate::NetLayers> = routing
        .routes
        .iter()
        .map(|r| crate::assign_layers(r.segments()))
        .collect();
    DetailReport {
        assignments,
        channels,
        layers,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_core::{RouterConfig, RoutingSession};
    use gcr_geom::{Point, Rect};
    use gcr_layout::{Layout, Pin};

    /// Two cells with a vertical alley; three nets routed through it.
    fn routed_layout() -> (Layout, GlobalRouting) {
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        l.add_cell("a", Rect::new(10, 20, 40, 80).unwrap()).unwrap();
        l.add_cell("b", Rect::new(50, 20, 90, 80).unwrap()).unwrap();
        for i in 0..3 {
            let x = 42 + i * 3;
            let id = l.add_net(format!("n{i}"));
            let t0 = l.add_terminal(id, "s");
            l.add_pin(t0, Pin::floating(Point::new(x, 0))).unwrap();
            let t1 = l.add_terminal(id, "t");
            l.add_pin(t1, Pin::floating(Point::new(x, 100))).unwrap();
        }
        let mut session = RoutingSession::gridless(l.clone(), RouterConfig::default());
        let routing = session.route_all();
        assert_eq!(routing.routed_count(), 3);
        (l, routing)
    }

    #[test]
    fn channels_carry_the_alley_nets() {
        let (l, routing) = routed_layout();
        let plane = l.to_plane();
        let channels = extract_channels(&plane, &routing);
        let alley = channels
            .iter()
            .find(|c| c.passage.rect == Rect::new(40, 20, 50, 80).unwrap())
            .expect("alley channel exists");
        assert_eq!(alley.spans.len(), 3);
        assert!(alley.density() >= 3);
    }

    #[test]
    fn detail_report_totals() {
        let (l, routing) = routed_layout();
        let plane = l.to_plane();
        let report = route_details(&plane, &routing);
        assert!(report.channel_count() >= 1);
        assert!(
            report.total_tracks() >= 3,
            "three parallel nets need tracks"
        );
        assert!(report.max_tracks() >= 3);
        assert!(report.elapsed.as_nanos() > 0);
    }

    #[test]
    fn empty_routing_produces_no_channels() {
        let l = Layout::new(Rect::new(0, 0, 50, 50).unwrap());
        let plane = l.to_plane();
        let routing = GlobalRouting::default();
        let report = route_details(&plane, &routing);
        assert_eq!(report.channel_count(), 0);
        assert_eq!(report.total_tracks(), 0);
    }

    #[test]
    fn crossing_wires_do_not_join_corridor_channels() {
        // A net crossing the alley horizontally is not *in* the vertical
        // corridor channel.
        let mut l = Layout::new(Rect::new(0, 0, 100, 100).unwrap());
        l.add_cell("a", Rect::new(10, 20, 40, 80).unwrap()).unwrap();
        l.add_cell("b", Rect::new(50, 20, 90, 80).unwrap()).unwrap();
        let id = l.add_net("across");
        let t0 = l.add_terminal(id, "w");
        l.add_pin(t0, Pin::floating(Point::new(0, 10))).unwrap();
        let t1 = l.add_terminal(id, "e");
        l.add_pin(t1, Pin::floating(Point::new(100, 10))).unwrap();
        let mut session = RoutingSession::gridless(l.clone(), RouterConfig::default());
        let routing = session.route_all();
        let plane = l.to_plane();
        let channels = extract_channels(&plane, &routing);
        let alley = channels
            .iter()
            .find(|c| c.passage.rect == Rect::new(40, 20, 50, 80).unwrap());
        assert!(
            alley.is_none(),
            "straight horizontal wire at y=10 avoids the alley"
        );
    }
}
