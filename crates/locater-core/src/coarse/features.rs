//! Gap feature extraction (paper §3).
//!
//! For every gap the paper extracts: begin/end time of day, duration, begin/end day of
//! week, begin/end region, and the *connection density* ω — the average number of
//! events the device logs during the same time-of-day window on other days of the
//! history period.

use locater_events::clock;
use locater_events::{Gap, Interval, StoredEvent};

/// Number of numeric features produced per gap.
pub const NUM_GAP_FEATURES: usize = 8;

/// The feature vector of one gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapFeatures {
    /// Gap start, seconds since midnight (`gap.t_str.time`).
    pub start_time_of_day: f64,
    /// Gap end, seconds since midnight (`gap.t_end.time`).
    pub end_time_of_day: f64,
    /// Gap duration in seconds (`δ(gap)`).
    pub duration: f64,
    /// Day of week the gap starts in, 0 = Monday (`gap.t_str.day`).
    pub start_day: f64,
    /// Day of week the gap ends in (`gap.t_end.day`).
    pub end_day: f64,
    /// Raw region index the device was connected to before the gap (`gap.g_str`).
    pub start_region: f64,
    /// Raw region index the device connected to after the gap (`gap.g_end`).
    pub end_region: f64,
    /// Connection density ω.
    pub density: f64,
}

impl GapFeatures {
    /// Extracts features for `gap`, computing the connection density against the
    /// device's events over `history` (the `N`-day period `T` of the paper).
    /// `events` must already be restricted to the history window; the store's
    /// windowed accessor (`EventStore::events_of_in`) produces exactly that as
    /// a zero-copy iterator, without scanning older events.
    pub fn extract<'a>(
        gap: &Gap,
        events: impl IntoIterator<Item = &'a StoredEvent>,
        history: Interval,
    ) -> Self {
        Self::with_density(gap, connection_density(gap, events, history))
    }

    /// The features of `gap` given its connection density, however computed
    /// ([`connection_density`] for one gap, [`connection_densities`] for many).
    pub(crate) fn with_density(gap: &Gap, density: f64) -> Self {
        Self {
            start_time_of_day: clock::seconds_of_day(gap.start) as f64,
            end_time_of_day: clock::seconds_of_day(gap.end) as f64,
            duration: gap.duration() as f64,
            start_day: gap.start_day().index() as f64,
            end_day: gap.end_day().index() as f64,
            start_region: gap.start_region().raw() as f64,
            end_region: gap.end_region().raw() as f64,
            density,
        }
    }

    /// The features as a dense vector for the learning substrate.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.start_time_of_day,
            self.end_time_of_day,
            self.duration,
            self.start_day,
            self.end_day,
            self.start_region,
            self.end_region,
            self.density,
        ]
    }
}

/// Connection density ω of a gap: the average number of the device's connectivity
/// events per day of the history period whose time of day falls within the gap's
/// time-of-day window. `events` must already be restricted to `history`.
pub fn connection_density<'a>(
    gap: &Gap,
    events: impl IntoIterator<Item = &'a StoredEvent>,
    history: Interval,
) -> f64 {
    let days = days_of(history);
    let window_start = clock::seconds_of_day(gap.start);
    let window_end = clock::seconds_of_day(gap.end);
    let count = events
        .into_iter()
        .filter(|e| {
            let sod = clock::seconds_of_day(e.t());
            if window_start <= window_end {
                sod >= window_start && sod <= window_end
            } else {
                // Gap wraps past midnight.
                sod >= window_start || sod <= window_end
            }
        })
        .count();
    count as f64 / days as f64
}

/// Length of the history period in (started) days, at least one.
fn days_of(history: Interval) -> i64 {
    ((history.duration() + clock::SECONDS_PER_DAY - 1) / clock::SECONDS_PER_DAY).max(1)
}

/// [`connection_density`] of every gap in `gaps`: the events' seconds of day are
/// sorted once, and each gap then costs two binary searches instead of a scan.
pub fn connection_densities(gaps: &[Gap], events: &[StoredEvent], history: Interval) -> Vec<f64> {
    let mut sod: Vec<_> = events
        .iter()
        .map(|e| clock::seconds_of_day(e.t()))
        .collect();
    sod.sort_unstable();
    let days = days_of(history) as f64;
    let density = |gap: &Gap| {
        let start = clock::seconds_of_day(gap.start);
        let end = clock::seconds_of_day(gap.end);
        // A window wrapping past midnight holds all but the stretch in between.
        let wrapped = if start <= end { 0 } else { sod.len() };
        let in_window =
            wrapped + sod.partition_point(|&s| s <= end) - sod.partition_point(|&s| s < start);
        in_window as f64 / days
    };
    gaps.iter().map(density).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_events::clock::at;
    use locater_events::{gaps_in, EventSeq};

    fn gap_and_seq() -> (Gap, EventSeq) {
        // Events at 09:00 and 13:00 on day 3 create a gap; history contains events at
        // 10:00 and 11:00 on other days.
        let seq = EventSeq::from_pairs(&[
            (at(0, 10, 0, 0), 0),
            (at(1, 10, 30, 0), 1),
            (at(2, 20, 0, 0), 0),
            (at(3, 9, 0, 0), 2),
            (at(3, 13, 0, 0), 3),
        ]);
        let gaps = gaps_in(&seq, 600);
        let gap = *gaps
            .iter()
            .find(|g| g.prev_t == at(3, 9, 0, 0))
            .expect("gap between 09:00 and 13:00");
        (gap, seq)
    }

    #[test]
    fn features_reflect_gap_geometry() {
        let (gap, seq) = gap_and_seq();
        let history = Interval::new(0, at(4, 0, 0, 0));
        let f = GapFeatures::extract(&gap, seq.in_range(history), history);
        assert_eq!(f.start_time_of_day, (9 * 3600 + 600) as f64);
        assert_eq!(f.end_time_of_day, (13 * 3600 - 600) as f64);
        assert_eq!(f.duration, (4 * 3600 - 1200) as f64);
        assert_eq!(f.start_day, 3.0); // Thursday
        assert_eq!(f.end_day, 3.0);
        assert_eq!(f.start_region, 2.0);
        assert_eq!(f.end_region, 3.0);
        assert_eq!(f.to_vec().len(), NUM_GAP_FEATURES);
    }

    #[test]
    fn density_counts_events_in_time_window_across_days() {
        let (gap, seq) = gap_and_seq();
        // 4-day history: events at 10:00 (day 0) and 10:30 (day 1) fall in the gap's
        // 09:10–12:50 window; 20:00 (day 2) and the gap boundary events do not.
        let history = Interval::new(0, at(4, 0, 0, 0));
        let density = connection_density(&gap, seq.in_range(history), history);
        assert!((density - 2.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn density_handles_midnight_wrapping_gaps() {
        // Gap from 23:30 to 00:30 the next day.
        let seq = EventSeq::from_pairs(&[
            (at(0, 23, 45, 0), 0),
            (at(2, 23, 0, 0), 0),
            (at(3, 0, 50, 0), 1),
        ]);
        let gaps = gaps_in(&seq, 600);
        let gap = gaps.last().copied().unwrap();
        let history = Interval::new(0, at(4, 0, 0, 0));
        // Event at 23:45 on day 0 falls in the wrapped window (23:10 .. 00:40).
        let density = connection_density(&gap, seq.in_range(history), history);
        assert!(density > 0.0);
    }

    #[test]
    fn density_is_zero_with_no_matching_history() {
        let (gap, seq) = gap_and_seq();
        let history = Interval::new(at(2, 0, 0, 0), at(3, 0, 0, 0)); // only the 20:00 event
        assert_eq!(
            connection_density(&gap, seq.in_range(history), history),
            0.0
        );
    }
}
