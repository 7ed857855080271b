//! Seeded workload generation and paper fixtures.
//!
//! The paper's evaluation is experiential ("actual experience using this
//! algorithm…") on layouts that no longer exist; this crate substitutes
//! deterministic synthetic instances. Everything is
//! seeded, so every number `gcrt repro` prints is reproducible bit for
//! bit.
//!
//! * [`placements`] — macro grids and pad rings of general cells,
//! * [`generator`] — the parametric large-die generator behind the
//!   scaling tier (`gcrt gen`, routebench's `cold-1k`),
//! * [`netlists`] — random 2-pin, k-terminal and multi-pin netlists with
//!   pins legally placed on cell boundaries,
//! * [`fixtures`] — hand-reconstructed Figure 1 / Figure 2 scenes and the
//!   Hightower-defeating spiral.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixtures;
pub mod netlists;
pub mod placements;

pub mod generator;

use gcr_geom::{Coord, PlaneIndex, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws a uniformly random legal wire position on `plane`.
///
/// Rejection sampling answers almost immediately on any plane with
/// routing space (and keeps historical draw sequences bit-identical);
/// when the plane is dense enough to exhaust the retries, the draw falls
/// back to an exact uniform sample over the actual free set (per-row
/// free intervals), so density knobs the generator itself exposes can
/// never abort a run.
///
/// # Panics
///
/// Panics only if the plane has **zero** free positions.
#[must_use]
pub fn random_free_point(plane: &dyn PlaneIndex, rng: &mut StdRng) -> Point {
    let b = plane.bounds();
    for _ in 0..10_000 {
        let p = Point::new(
            rng.gen_range(b.xmin()..=b.xmax()),
            rng.gen_range(b.ymin()..=b.ymax()),
        );
        if plane.point_free(p) {
            return p;
        }
    }
    uniform_free_point(plane, rng)
}

/// The merged, clamped, sorted list of blocked integer x-ranges
/// (inclusive) in row `y`. Only obstacle **interiors** block, so each
/// rectangle contributes `[xmin+1, xmax-1]` and only when `y` lies
/// strictly between its y-faces — wires on faces stay legal.
fn blocked_ranges_in_row(plane: &dyn PlaneIndex, y: Coord, out: &mut Vec<(Coord, Coord)>) {
    let b = plane.bounds();
    out.clear();
    for &(r, _) in plane.rects() {
        if r.ymin() < y && y < r.ymax() {
            let lo = (r.xmin() + 1).max(b.xmin());
            let hi = (r.xmax() - 1).min(b.xmax());
            if lo <= hi {
                out.push((lo, hi));
            }
        }
    }
    out.sort_unstable();
    // Merge overlapping / adjacent ranges in place.
    let mut merged = 0;
    for i in 0..out.len() {
        if merged > 0 && out[i].0 <= out[merged - 1].1 + 1 {
            out[merged - 1].1 = out[merged - 1].1.max(out[i].1);
        } else {
            out[merged] = out[i];
            merged += 1;
        }
    }
    out.truncate(merged);
}

/// Free positions in a row of `width` total positions, given its merged
/// blocked ranges.
fn free_in_row(width: i64, blocked: &[(Coord, Coord)]) -> i64 {
    width - blocked.iter().map(|&(lo, hi)| hi - lo + 1).sum::<i64>()
}

/// Exact uniform draw over the plane's free positions: count the free
/// positions per row, pick the k-th free position globally, and walk the
/// chosen row's free intervals to it. O(rows × rects) — the slow path
/// behind [`random_free_point`]'s rejection fast path.
fn uniform_free_point(plane: &dyn PlaneIndex, rng: &mut StdRng) -> Point {
    let b = plane.bounds();
    let width = b.xmax() - b.xmin() + 1;
    let mut blocked = Vec::new();
    let mut total: i64 = 0;
    for y in b.ymin()..=b.ymax() {
        blocked_ranges_in_row(plane, y, &mut blocked);
        total += free_in_row(width, &blocked);
    }
    assert!(total > 0, "plane has no free positions");
    let mut k = rng.gen_range(0..total);
    for y in b.ymin()..=b.ymax() {
        blocked_ranges_in_row(plane, y, &mut blocked);
        let free = free_in_row(width, &blocked);
        if k >= free {
            k -= free;
            continue;
        }
        // The k-th free x of this row: hop over the blocked ranges.
        let mut x = b.xmin();
        for &(lo, hi) in &blocked {
            let run = lo - x; // free positions in [x, lo-1]
            if k < run {
                return Point::new(x + k, y);
            }
            k -= run;
            x = hi + 1;
        }
        return Point::new(x + k, y);
    }
    unreachable!("k < total free positions");
}

/// A complete batch-routing instance: a `rows × cols` macro grid with
/// `two_pin` two-pin nets and `multi_term` three-terminal nets, fully
/// seeded by `case`. This is the standard workload for the batch
/// pipeline's scaling and parallel-speedup measurements — every consumer
/// (benches, determinism tests, examples) sees the same instance for the
/// same arguments.
#[must_use]
pub fn scaling_instance(
    rows: usize,
    cols: usize,
    two_pin: usize,
    multi_term: usize,
    case: u64,
) -> gcr_layout::Layout {
    let params = placements::MacroGridParams {
        rows,
        cols,
        ..Default::default()
    };
    let mut layout = placements::macro_grid(&params, &mut rng_for("scaling-place", case));
    let mut rng = rng_for("scaling-nets", case);
    netlists::add_two_pin_nets(&mut layout, two_pin, &mut rng);
    netlists::add_multi_terminal_nets(&mut layout, multi_term, 3, &mut rng);
    layout
}

/// A deterministic RNG for a named experiment and case index, so suites
/// can regenerate any single instance in isolation.
#[must_use]
pub fn rng_for(experiment: &str, case: u64) -> StdRng {
    // Stable, dependency-free string hash (FNV-1a).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in experiment.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_geom::{Plane, Rect};

    #[test]
    fn random_free_point_avoids_obstacles() {
        let mut plane = Plane::new(Rect::new(0, 0, 40, 40).unwrap());
        plane.add_obstacle(Rect::new(10, 10, 30, 30).unwrap());
        let mut rng = rng_for("test", 0);
        for _ in 0..200 {
            let p = random_free_point(&plane, &mut rng);
            assert!(plane.point_free(p));
        }
    }

    #[test]
    fn exact_fallback_samples_only_free_positions() {
        // One oversized obstacle whose interior covers every row except
        // y = 0 (its ymin face). The exact fallback — the path behind
        // the rejection loop when a dense plane exhausts its retries —
        // must answer from the single free row every time.
        let mut plane = Plane::new(Rect::new(0, 0, 40, 40).unwrap());
        plane.add_obstacle(Rect::new(-1, 0, 41, 41).unwrap());
        let mut rng = rng_for("dense", 0);
        for _ in 0..50 {
            let p = uniform_free_point(&plane, &mut rng);
            assert!(plane.point_free(p));
            assert_eq!(p.y, 0, "only the y=0 face row is free");
        }
    }

    #[test]
    fn exact_fallback_reaches_every_free_interval() {
        // The free set is a 3-wide channel (x in 4..=6: two obstacle
        // faces plus the gap between the interiors); the exact sampler
        // must reach all three columns and never leave the channel.
        let mut plane = Plane::new(Rect::new(0, 0, 10, 10).unwrap());
        plane.add_obstacle(Rect::new(-1, -1, 4, 11).unwrap());
        plane.add_obstacle(Rect::new(6, -1, 11, 11).unwrap());
        let mut rng = rng_for("dense", 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            let p = uniform_free_point(&plane, &mut rng);
            assert!(plane.point_free(p), "{p}");
            assert!((4..=6).contains(&p.x), "{p}");
            seen.insert(p.x);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "no free positions")]
    fn fully_sealed_plane_panics() {
        let mut plane = Plane::new(Rect::new(0, 0, 10, 10).unwrap());
        plane.add_obstacle(Rect::new(-1, -1, 11, 11).unwrap());
        let mut rng = rng_for("dense", 2);
        let _ = uniform_free_point(&plane, &mut rng);
    }

    #[test]
    fn rng_for_is_deterministic_and_case_sensitive() {
        let mut a = rng_for("e4", 1);
        let mut b = rng_for("e4", 1);
        let mut c = rng_for("e4", 2);
        let mut d = rng_for("e5", 1);
        let (ra, rb, rc, rd): (u64, u64, u64, u64) = (a.gen(), b.gen(), c.gen(), d.gen());
        assert_eq!(ra, rb);
        assert_ne!(ra, rc);
        assert_ne!(ra, rd);
    }
}
