//! Half-open time intervals.

use crate::clock::Timestamp;
use std::fmt;

/// A half-open time interval `[start, end)` on the integer-second timeline.
///
/// Used for event validity intervals, gaps, ground-truth occupancy records and
/// history windows. An interval with `end <= start` is considered empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Interval {
    /// Creates an interval `[start, end)`.
    #[inline]
    pub const fn new(start: Timestamp, end: Timestamp) -> Self {
        Self { start, end }
    }

    /// Length of the interval in seconds (0 for empty intervals).
    #[inline]
    pub fn duration(&self) -> Timestamp {
        (self.end - self.start).max(0)
    }

    /// `true` if the interval contains no instant.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// `true` if `t` lies in `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// `true` if the two intervals share at least one instant.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The overlapping portion of the two intervals, or `None` if disjoint.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(Interval::new(start, end))
        } else {
            None
        }
    }

    /// Number of seconds shared by the two intervals.
    pub fn overlap_duration(&self, other: &Interval) -> Timestamp {
        self.intersection(other).map_or(0, |i| i.duration())
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval::new(self.start.min(other.start), self.end.max(other.end))
    }

    /// Midpoint of the interval (integer division).
    pub fn midpoint(&self) -> Timestamp {
        self.start + (self.end - self.start) / 2
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let i = Interval::new(10, 20);
        assert_eq!(i.duration(), 10);
        assert!(!i.is_empty());
        assert!(i.contains(10));
        assert!(i.contains(19));
        assert!(!i.contains(20));
        assert!(!i.contains(9));
        assert_eq!(i.midpoint(), 15);
        assert_eq!(i.to_string(), "[10, 20)");
    }

    #[test]
    fn empty_intervals() {
        assert!(Interval::new(5, 5).is_empty());
        assert!(Interval::new(7, 3).is_empty());
        assert_eq!(Interval::new(7, 3).duration(), 0);
        assert!(!Interval::new(5, 5).contains(5));
    }

    #[test]
    fn overlap_and_intersection() {
        let a = Interval::new(0, 10);
        let b = Interval::new(5, 15);
        let c = Interval::new(10, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c)); // half-open: touching endpoints do not overlap
        assert_eq!(a.intersection(&b), Some(Interval::new(5, 10)));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.overlap_duration(&b), 5);
        assert_eq!(a.overlap_duration(&c), 0);
    }

    #[test]
    fn hull_contains_both() {
        let a = Interval::new(0, 5);
        let b = Interval::new(10, 12);
        assert_eq!(a.hull(&b), Interval::new(0, 12));
        assert_eq!(b.hull(&a), Interval::new(0, 12));
    }
}
