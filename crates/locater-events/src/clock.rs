//! Timeline arithmetic.
//!
//! LOCATER does not need a full civil calendar — the coarse-localization gap features
//! only use *time of day*, *day of week* and *duration* (paper §3). We therefore model
//! time as an integer number of seconds ([`Timestamp`]) since a **deployment epoch**
//! that is defined to fall on a Monday at 00:00. The paper's DBH-WIFI dataset starts
//! on Monday, Jan 22nd 2018, which is exactly such an epoch.

use std::fmt;

/// Seconds since the deployment epoch (Monday 00:00). Negative values are allowed for
/// interval arithmetic but never produced by ingestion.
pub type Timestamp = i64;

/// Number of seconds in a minute.
pub(crate) const SECONDS_PER_MINUTE: Timestamp = 60;
/// Number of seconds in an hour.
pub(crate) const SECONDS_PER_HOUR: Timestamp = 3_600;
/// Number of seconds in a day.
pub const SECONDS_PER_DAY: Timestamp = 86_400;
/// Number of seconds in a week.
pub const SECONDS_PER_WEEK: Timestamp = 7 * SECONDS_PER_DAY;

/// Day of the week. The deployment epoch (timestamp 0) is a Monday.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DayOfWeek {
    /// Monday (day index 0).
    Monday,
    /// Tuesday (day index 1).
    Tuesday,
    /// Wednesday (day index 2).
    Wednesday,
    /// Thursday (day index 3).
    Thursday,
    /// Friday (day index 4).
    Friday,
    /// Saturday (day index 5).
    Saturday,
    /// Sunday (day index 6).
    Sunday,
}

impl DayOfWeek {
    /// All days, Monday first.
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
        DayOfWeek::Sunday,
    ];

    /// Day index in `0..7`, Monday = 0.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Day from its index (`0` = Monday). Indices are taken modulo 7.
    pub(crate) fn from_index(index: usize) -> Self {
        Self::ALL[index % 7]
    }

    /// `true` for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, DayOfWeek::Saturday | DayOfWeek::Sunday)
    }
}

impl fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DayOfWeek::Monday => "Mon",
            DayOfWeek::Tuesday => "Tue",
            DayOfWeek::Wednesday => "Wed",
            DayOfWeek::Thursday => "Thu",
            DayOfWeek::Friday => "Fri",
            DayOfWeek::Saturday => "Sat",
            DayOfWeek::Sunday => "Sun",
        };
        write!(f, "{s}")
    }
}

/// Euclidean remainder that is always non-negative, so that pre-epoch timestamps still
/// map to sensible times of day.
#[inline]
fn rem_euclid(value: Timestamp, modulus: Timestamp) -> Timestamp {
    value.rem_euclid(modulus)
}

/// Index of the day this timestamp falls in (day 0 starts at the epoch).
#[inline]
pub fn day_index(t: Timestamp) -> i64 {
    t.div_euclid(SECONDS_PER_DAY)
}

/// Seconds elapsed since the last midnight.
#[inline]
pub fn seconds_of_day(t: Timestamp) -> Timestamp {
    rem_euclid(t, SECONDS_PER_DAY)
}

/// Day of week of a timestamp; the epoch is a Monday.
#[inline]
pub fn day_of_week(t: Timestamp) -> DayOfWeek {
    DayOfWeek::from_index(rem_euclid(day_index(t), 7) as usize)
}

/// Builds a timestamp from `(day, hour, minute, second)` where `day` counts from the
/// epoch (day 0 = first Monday).
#[inline]
pub fn at(day: i64, hour: i64, minute: i64, second: i64) -> Timestamp {
    day * SECONDS_PER_DAY + hour * SECONDS_PER_HOUR + minute * SECONDS_PER_MINUTE + second
}

/// Formats a timestamp as `day N (Dow) HH:MM:SS` for logs and reports.
pub fn format_timestamp(t: Timestamp) -> String {
    let day = day_index(t);
    let dow = day_of_week(t);
    let s = seconds_of_day(t);
    format!(
        "day {day} ({dow}) {:02}:{:02}:{:02}",
        s / SECONDS_PER_HOUR,
        (s % SECONDS_PER_HOUR) / SECONDS_PER_MINUTE,
        s % SECONDS_PER_MINUTE
    )
}

/// Converts minutes to seconds (convenience for threshold parameters such as τ_l/τ_h,
/// which the paper expresses in minutes).
#[inline]
pub const fn minutes(m: i64) -> Timestamp {
    m * 60
}

/// Converts hours to seconds.
#[inline]
pub const fn hours(h: i64) -> Timestamp {
    h * 3_600
}

/// Converts whole days to seconds.
#[inline]
pub const fn days(d: i64) -> Timestamp {
    d * SECONDS_PER_DAY
}

/// Converts whole weeks to seconds.
#[inline]
pub const fn weeks(w: i64) -> Timestamp {
    w * SECONDS_PER_WEEK
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_monday_midnight() {
        assert_eq!(day_of_week(0), DayOfWeek::Monday);
        assert_eq!(seconds_of_day(0), 0);
        assert_eq!(day_index(0), 0);
    }

    #[test]
    fn day_arithmetic() {
        let t = at(9, 13, 4, 35); // day 9 (second Wednesday), 13:04:35
        assert_eq!(day_index(t), 9);
        assert_eq!(day_of_week(t), DayOfWeek::Wednesday);
        assert_eq!(seconds_of_day(t), 13 * 3600 + 4 * 60 + 35);
    }

    #[test]
    fn negative_timestamps_wrap_correctly() {
        let t = -1; // one second before the epoch: Sunday 23:59:59
        assert_eq!(day_of_week(t), DayOfWeek::Sunday);
        assert_eq!(seconds_of_day(t), SECONDS_PER_DAY - 1);
        assert_eq!(day_index(t), -1);
    }

    #[test]
    fn weekend_detection() {
        assert!(day_of_week(at(5, 10, 0, 0)).is_weekend()); // Saturday
        assert!(day_of_week(at(6, 10, 0, 0)).is_weekend()); // Sunday
        assert!(!day_of_week(at(4, 10, 0, 0)).is_weekend()); // Friday
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(minutes(20), 1_200);
        assert_eq!(hours(3), 10_800);
        assert_eq!(days(2), 172_800);
        assert_eq!(weeks(1), SECONDS_PER_WEEK);
    }

    #[test]
    fn day_of_week_roundtrip_and_display() {
        for (i, d) in DayOfWeek::ALL.iter().enumerate() {
            assert_eq!(DayOfWeek::from_index(i), *d);
            assert_eq!(d.index(), i);
        }
        assert_eq!(DayOfWeek::from_index(8), DayOfWeek::Tuesday);
        assert_eq!(DayOfWeek::Monday.to_string(), "Mon");
        assert_eq!(DayOfWeek::Sunday.to_string(), "Sun");
    }

    #[test]
    fn formatting_is_stable() {
        assert_eq!(format_timestamp(at(1, 9, 5, 7)), "day 1 (Tue) 09:05:07");
    }
}
