//! Placement feedback: widening congested passages and rerouting.
//!
//! From the paper's introduction: *"It is assumed during the global
//! routing phase that an unlimited number of wires may pass between any
//! two cells. With this assumption one is forced either to require the
//! designer to insure sufficient inter-cell spacing in the initial
//! placement or to require the routing system to provide feedback so that
//! the placement can be automatically adjusted. With the latter approach
//! one must be concerned about convergence. Placement adjustment can
//! alter the paths taken during global routing thereby creating
//! inter-cell spacing problems where they did not previously exist. …
//! It has not been shown that this approach is guaranteed to converge."*
//!
//! This module implements that feedback loop so the open question can be
//! *measured*: each iteration routes all nets on a fresh
//! [`RoutingSession`], finds the most
//! over-subscribed cell-to-cell passage, widens it by exactly the missing
//! capacity (shifting every cell beyond it and stretching the die), and
//! reroutes. The report records per-iteration overflow so convergence —
//! or the paper's feared churn — is visible (experiment E10).

use gcr_geom::{Axis, Coord, Point, Rect};
use gcr_layout::{CellOutline, Layout, Pin};

use crate::congestion::{Passage, PassageSide};
use crate::{RouterConfig, RoutingSession};

/// The loop stops after this many route-adjust iterations.
const MAX_ITERATIONS: usize = 10;

/// One iteration of the loop, as observed *before* any adjustment.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// Total passage overflow.
    pub total_overflow: i64,
    /// Worst single-passage overflow.
    pub max_overflow: i64,
    /// Total routed wire length.
    pub wire_length: i64,
    /// Gap widening applied after this measurement (0 on the final
    /// iteration).
    pub widened_by: Coord,
}

/// The outcome of the feedback loop.
#[derive(Debug, Clone)]
pub struct FeedbackReport {
    /// Per-iteration measurements, in order.
    pub iterations: Vec<IterationRecord>,
    /// `true` when the loop ended with zero overflow.
    pub converged: bool,
}

/// Runs the placement-feedback loop on `layout`, for at most ten
/// route-adjust iterations, and returns the adjusted layout plus the
/// convergence record.
///
/// Only cell-to-cell passages are widened (boundary strips can always be
/// escaped toward the die edge). Widening shifts every cell whose extent
/// lies beyond the passage and stretches the die; pins move with their
/// cells, floating pins move when they lie beyond the passage too.
#[must_use]
pub fn placement_feedback(layout: &Layout, config: &RouterConfig) -> (Layout, FeedbackReport) {
    let mut current = layout.clone();
    let mut iterations = Vec::new();
    let mut converged = false;
    for _ in 0..MAX_ITERATIONS {
        let mut session = RoutingSession::gridless(current, config.clone());
        session.route_all();
        let analysis = session.congestion();
        let mut record = IterationRecord {
            total_overflow: analysis.total_overflow(),
            max_overflow: analysis.max_overflow(),
            wire_length: session.stats().wire_length,
            widened_by: 0,
        };
        current = session.into_layout();
        if record.total_overflow == 0 {
            iterations.push(record);
            converged = true;
            break;
        }
        // Widen the worst cell-to-cell passage by the missing capacity.
        let worst = analysis
            .congested()
            .into_iter()
            .filter(|&i| {
                matches!(
                    (analysis.passages[i].a, analysis.passages[i].b),
                    (PassageSide::Cell(_), PassageSide::Cell(_))
                )
            })
            .max_by_key(|&i| analysis.overflow(i));
        let Some(worst) = worst else {
            // Only boundary passages overflow: widening cannot help them
            // (there is no far side to shift); report and stop.
            iterations.push(record);
            break;
        };
        let delta = analysis.overflow(worst) * config.wire_pitch;
        record.widened_by = delta;
        iterations.push(record);
        current = widen_passage(&current, &analysis.passages[worst], delta);
        debug_assert!(current.validate().is_ok(), "widening broke the layout");
    }
    (
        current,
        FeedbackReport {
            iterations,
            converged,
        },
    )
}

/// Returns a copy of `layout` with `passage` widened by `delta`: every
/// cell (and pin) at or beyond the passage's far edge on the separation
/// axis shifts outward, and the die stretches to match.
fn widen_passage(layout: &Layout, passage: &Passage, delta: Coord) -> Layout {
    let sep = passage.corridor_axis.perpendicular();
    let threshold = passage.rect.span(sep).hi();
    let shift_point = |p: Point| -> Point {
        if p.coord(sep) >= threshold {
            p.with_coord(sep, p.coord(sep) + delta)
        } else {
            p
        }
    };
    let shift_rect = |r: Rect| -> Rect {
        if r.span(sep).lo() >= threshold {
            match sep {
                Axis::X => Rect::new(r.xmin() + delta, r.ymin(), r.xmax() + delta, r.ymax()),
                Axis::Y => Rect::new(r.xmin(), r.ymin() + delta, r.xmax(), r.ymax() + delta),
            }
            .expect("shift preserves ordering")
        } else {
            r
        }
    };
    let old_bounds = layout.bounds();
    let bounds = match sep {
        Axis::X => Rect::new(
            old_bounds.xmin(),
            old_bounds.ymin(),
            old_bounds.xmax() + delta,
            old_bounds.ymax(),
        ),
        Axis::Y => Rect::new(
            old_bounds.xmin(),
            old_bounds.ymin(),
            old_bounds.xmax(),
            old_bounds.ymax() + delta,
        ),
    }
    .expect("stretch preserves ordering");

    let mut out = Layout::new(bounds);
    out.set_min_spacing(layout.min_spacing());
    for cell in layout.cells() {
        match cell.outline() {
            CellOutline::Rect(r) => {
                out.add_cell(cell.name(), shift_rect(*r))
                    .expect("names stay unique");
            }
            CellOutline::Polygon(p) => {
                // Polygons shift rigidly when their bounding box is beyond
                // the threshold (cells never straddle a passage they bound).
                let b = p.bounding_rect();
                let moved = if b.span(sep).lo() >= threshold {
                    let vertices = p
                        .vertices()
                        .iter()
                        .map(|v| v.with_coord(sep, v.coord(sep) + delta));
                    gcr_geom::RectilinearPolygon::new(vertices.collect())
                        .expect("rigid shift preserves validity")
                } else {
                    p.clone()
                };
                out.add_polygon_cell(cell.name(), moved)
                    .expect("names stay unique");
            }
        }
    }
    for net in layout.nets() {
        let id = out.add_net(net.name());
        for terminal in net.terminals() {
            let t = out.add_terminal(id, terminal.name());
            for pin in terminal.pins() {
                let new_pin = match pin.cell {
                    Some(cell_id) => {
                        let old_rect = layout
                            .cell(cell_id)
                            .expect("pin references its own layout")
                            .rect();
                        let moved = old_rect.span(sep).lo() >= threshold;
                        let position = if moved {
                            pin.position
                                .with_coord(sep, pin.position.coord(sep) + delta)
                        } else {
                            pin.position
                        };
                        Pin {
                            cell: out.cell_by_name(layout.cell(cell_id).expect("checked").name()),
                            position,
                        }
                    }
                    None => Pin::floating(shift_point(pin.position)),
                };
                out.add_pin(t, new_pin).expect("terminal was just created");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::Point;

    /// Two cells with a 10-wide alley; `nets` nets forced through it.
    fn congested(nets: usize) -> Layout {
        let mut l = Layout::new(Rect::new(0, 0, 200, 120).unwrap());
        l.add_cell("west", Rect::new(40, 20, 95, 100).unwrap())
            .unwrap();
        l.add_cell("east", Rect::new(105, 20, 160, 100).unwrap())
            .unwrap();
        for i in 0..nets {
            let x = 96 + (i as i64 % 4) * 2;
            let id = l.add_net(format!("n{i}"));
            let t0 = l.add_terminal(id, "s");
            l.add_pin(t0, Pin::floating(Point::new(x, 0))).unwrap();
            let t1 = l.add_terminal(id, "t");
            l.add_pin(t1, Pin::floating(Point::new(x, 110))).unwrap();
        }
        l
    }

    #[test]
    fn feedback_converges_by_widening_the_alley() {
        let layout = congested(4);
        let mut config = RouterConfig::default();
        config.wire_pitch(5);
        let (adjusted, report) = placement_feedback(&layout, &config);
        assert!(report.converged, "records: {:?}", report.iterations);
        assert!(report.iterations.len() >= 2, "needs at least one widening");
        assert!(report.iterations[0].total_overflow > 0);
        assert_eq!(report.iterations.last().unwrap().total_overflow, 0);
        // The die grew by the widening amount.
        assert!(adjusted.bounds().width() > layout.bounds().width());
        adjusted.validate().unwrap();
        // Everything still routes on the adjusted placement.
        let mut session = RoutingSession::gridless(adjusted, config);
        assert!(session.route_all().failures.is_empty());
    }

    #[test]
    fn already_clean_placement_converges_immediately() {
        let layout = congested(1);
        let config = RouterConfig::default(); // pitch 1: capacity 10
        let (adjusted, report) = placement_feedback(&layout, &config);
        assert!(report.converged);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(adjusted.bounds(), layout.bounds());
    }

    #[test]
    fn overflow_is_monotonically_relieved_here() {
        // The paper worries adjustment may create new problems; on this
        // single-alley instance it cannot, and the record shows it.
        let layout = congested(4);
        let mut config = RouterConfig::default();
        config.wire_pitch(5);
        let (_, report) = placement_feedback(&layout, &config);
        for w in report.iterations.windows(2) {
            assert!(
                w[1].total_overflow <= w[0].total_overflow,
                "overflow increased: {:?}",
                report.iterations
            );
        }
    }

    #[test]
    fn pins_move_with_their_cells() {
        let mut layout = congested(4);
        // A pin on the east cell's east face.
        let east = layout.cell_by_name("east").unwrap();
        let id = layout.add_net("probe");
        let t0 = layout.add_terminal(id, "on_cell");
        layout
            .add_pin(t0, Pin::on_cell(east, Point::new(160, 60)))
            .unwrap();
        let t1 = layout.add_terminal(id, "far");
        layout
            .add_pin(t1, Pin::floating(Point::new(199, 60)))
            .unwrap();
        let mut config = RouterConfig::default();
        config.wire_pitch(5);
        let (adjusted, report) = placement_feedback(&layout, &config);
        assert!(report.converged);
        adjusted.validate().unwrap();
        let east_rect = adjusted
            .cell(adjusted.cell_by_name("east").unwrap())
            .unwrap()
            .rect();
        let probe = adjusted.net_by_name("probe").unwrap();
        let pin = adjusted.net(probe).unwrap().terminals()[0].pins()[0];
        assert!(
            east_rect.on_boundary(pin.position),
            "pin left its cell face"
        );
    }
}
