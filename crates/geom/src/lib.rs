//! Rectilinear geometry kernel for general-cell routing.
//!
//! This crate provides the geometric substrate used by every router in the
//! workspace: integer fixed-point coordinates, axis/direction types, points,
//! closed intervals, rectangles, axis-aligned segments, rectilinear polylines
//! and polygons, and — most importantly — the [`Plane`]: an obstacle field
//! over which Sutherland-style ray tracing answers the queries needed by
//! Clow's gridless successor generator ("extend as far toward the goal as is
//! feasible in *x* and *y*" and "hug cells as they are encountered").
//!
//! All coordinates are `i64` in user-chosen units (for example 1 unit = 1 λ).
//! Nothing in this crate uses floating point, so geometric predicates are
//! exact and search states are hashable.
//!
//! # Example
//!
//! ```
//! use gcr_geom::{Plane, Point, Rect, Dir};
//!
//! # fn main() -> Result<(), gcr_geom::GeomError> {
//! let bounds = Rect::new(0, 0, 100, 100)?;
//! let mut plane = Plane::new(bounds);
//! plane.add_obstacle(Rect::new(40, 40, 60, 60)?);
//!
//! // A ray eastward at y=50 stops on the block's west face.
//! let hit = plane.ray_hit(Point::new(0, 50), Dir::East);
//! assert_eq!((hit.stop, hit.distance), (40, 40));
//!
//! // Eastward below the block, a path may turn to hug either x face.
//! let mut corners = Vec::new();
//! plane.corner_candidates_into(Point::new(0, 20), Dir::East, 100, &mut corners);
//! assert_eq!(corners, [40, 60]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coord;
mod corners;
mod dir;
mod error;
mod index;
mod interval;
mod plane;
mod point;
mod polyline;
mod rect;
mod rpolygon;
mod segment;
mod sharded;

pub use coord::{Coord, COORD_MAX, COORD_MIN};
pub use dir::{Axis, Dir};
pub use error::GeomError;
pub use index::PlaneIndex;
pub use interval::Interval;
pub use plane::{ObstacleId, Plane, RayHit};
pub use point::Point;
pub use polyline::Polyline;
pub use rect::Rect;
pub use rpolygon::RectilinearPolygon;
pub use segment::Segment;
pub use sharded::ShardedPlane;
