//! Axes, cardinal directions and turns in the rectilinear plane.

use std::fmt;

/// One of the two rectilinear axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Axis {
    /// The horizontal axis.
    X,
    /// The vertical axis.
    Y,
}

impl Axis {
    /// Both axes, in a fixed order.
    pub const ALL: [Axis; 2] = [Axis::X, Axis::Y];

    /// Returns the other axis.
    ///
    /// ```
    /// use gcr_geom::Axis;
    /// assert_eq!(Axis::X.perpendicular(), Axis::Y);
    /// assert_eq!(Axis::Y.perpendicular(), Axis::X);
    /// ```
    #[inline]
    #[must_use]
    pub fn perpendicular(self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::X => write!(f, "x"),
            Axis::Y => write!(f, "y"),
        }
    }
}

/// A cardinal direction of travel in the routing plane.
///
/// `East`/`West` move along [`Axis::X`]; `North`/`South` along [`Axis::Y`].
/// North is the direction of increasing *y*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    /// Increasing *x*.
    East,
    /// Decreasing *x*.
    West,
    /// Increasing *y*.
    North,
    /// Decreasing *y*.
    South,
}

impl Dir {
    /// All four directions, in a fixed order (useful for successor loops).
    pub const ALL: [Dir; 4] = [Dir::East, Dir::West, Dir::North, Dir::South];

    /// The axis this direction travels along.
    ///
    /// ```
    /// use gcr_geom::{Axis, Dir};
    /// assert_eq!(Dir::East.axis(), Axis::X);
    /// assert_eq!(Dir::North.axis(), Axis::Y);
    /// ```
    #[inline]
    #[must_use]
    pub fn axis(self) -> Axis {
        match self {
            Dir::East | Dir::West => Axis::X,
            Dir::North | Dir::South => Axis::Y,
        }
    }

    /// `+1` for directions of increasing coordinate, `-1` otherwise.
    #[inline]
    #[must_use]
    pub fn sign(self) -> i64 {
        match self {
            Dir::East | Dir::North => 1,
            Dir::West | Dir::South => -1,
        }
    }

    /// The reverse direction.
    #[inline]
    #[must_use]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
        }
    }

    /// The two directions perpendicular to this one.
    #[inline]
    #[must_use]
    pub fn perpendicular(self) -> [Dir; 2] {
        match self.axis() {
            Axis::X => [Dir::North, Dir::South],
            Axis::Y => [Dir::East, Dir::West],
        }
    }

    /// The positive-coordinate direction on `axis`.
    #[inline]
    #[must_use]
    pub fn positive(axis: Axis) -> Dir {
        match axis {
            Axis::X => Dir::East,
            Axis::Y => Dir::North,
        }
    }

    /// The negative-coordinate direction on `axis`.
    #[inline]
    #[must_use]
    pub fn negative(axis: Axis) -> Dir {
        match axis {
            Axis::X => Dir::West,
            Axis::Y => Dir::South,
        }
    }

    /// The direction that moves from coordinate `from` toward `to` on
    /// `axis`, or `None` if they are equal.
    #[inline]
    #[must_use]
    pub fn toward(axis: Axis, from: i64, to: i64) -> Option<Dir> {
        use std::cmp::Ordering::*;
        match to.cmp(&from) {
            Greater => Some(Dir::positive(axis)),
            Less => Some(Dir::negative(axis)),
            Equal => None,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::East => "east",
            Dir::West => "west",
            Dir::North => "north",
            Dir::South => "south",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_perpendicular_is_involution() {
        for a in Axis::ALL {
            assert_eq!(a.perpendicular().perpendicular(), a);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in Dir::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
            assert_eq!(d.opposite().axis(), d.axis());
            assert_eq!(d.opposite().sign(), -d.sign());
        }
    }

    #[test]
    fn perpendicular_dirs_are_on_other_axis() {
        for d in Dir::ALL {
            for p in d.perpendicular() {
                assert_eq!(p.axis(), d.axis().perpendicular());
            }
        }
    }

    #[test]
    fn toward_matches_signs() {
        assert_eq!(Dir::toward(Axis::X, 0, 5), Some(Dir::East));
        assert_eq!(Dir::toward(Axis::X, 5, 0), Some(Dir::West));
        assert_eq!(Dir::toward(Axis::Y, -3, 9), Some(Dir::North));
        assert_eq!(Dir::toward(Axis::Y, 9, -3), Some(Dir::South));
        assert_eq!(Dir::toward(Axis::X, 7, 7), None);
        assert_eq!(Dir::toward(Axis::Y, 7, 7), None);
    }

    #[test]
    fn positive_negative_roundtrip() {
        for a in Axis::ALL {
            assert_eq!(Dir::positive(a).axis(), a);
            assert_eq!(Dir::negative(a).axis(), a);
            assert_eq!(Dir::positive(a).sign(), 1);
            assert_eq!(Dir::negative(a).sign(), -1);
        }
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(Dir::East.to_string(), "east");
        assert_eq!(Axis::Y.to_string(), "y");
    }
}
