//! Dataset statistics.
//!
//! The paper characterizes the DBH-WIFI dataset by its number of events, devices, APs,
//! rooms, time span and average daily event volume (§6.1). [`DatasetStatistics`]
//! computes the same summary for any [`EventStore`], and is used by the experiment
//! harness to document the synthetic datasets each experiment ran on.

use crate::store::EventStore;
use locater_events::clock;

/// Summary statistics of a connectivity dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStatistics {
    /// Building name.
    pub building: String,
    /// Number of access points in the space.
    pub access_points: usize,
    /// Number of rooms in the space.
    pub rooms: usize,
    /// Number of distinct devices observed.
    pub devices: usize,
    /// Total number of connectivity events.
    pub events: usize,
    /// Number of calendar days spanned by the data (0 for an empty store).
    pub span_days: i64,
    /// Average number of events per day (0 for an empty store).
    pub events_per_day: f64,
    /// Average number of events per device (0 for an empty store).
    pub events_per_device: f64,
    /// Mean validity period δ across devices, in seconds.
    pub mean_delta_seconds: f64,
}

impl DatasetStatistics {
    /// Computes statistics for a store.
    pub fn compute(store: &EventStore) -> Self {
        let events = store.num_events();
        let devices = store.num_devices();
        let span_days = store
            .time_span()
            .map(|span| clock::day_index(span.end - 1) - clock::day_index(span.start) + 1)
            .unwrap_or(0);
        let mean_delta = if devices == 0 {
            0.0
        } else {
            store.devices().iter().map(|d| d.delta as f64).sum::<f64>() / devices as f64
        };
        Self {
            building: store.space().name().to_string(),
            access_points: store.space().num_access_points(),
            rooms: store.space().num_rooms(),
            devices,
            events,
            span_days,
            events_per_day: if span_days > 0 {
                events as f64 / span_days as f64
            } else {
                0.0
            },
            events_per_device: if devices > 0 {
                events as f64 / devices as f64
            } else {
                0.0
            },
            mean_delta_seconds: mean_delta,
        }
    }

    /// Renders the statistics as a short human-readable report.
    pub fn to_report(&self) -> String {
        format!(
            "dataset {}: {} events, {} devices, {} APs, {} rooms, {} days ({:.0} events/day, {:.1} events/device, mean δ {:.0}s)",
            self.building,
            self.events,
            self.devices,
            self.access_points,
            self.rooms,
            self.span_days,
            self.events_per_day,
            self.events_per_device,
            self.mean_delta_seconds
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locater_space::SpaceBuilder;

    fn store() -> EventStore {
        let space = SpaceBuilder::new("demo")
            .add_access_point("wap1", &["r1", "r2"])
            .add_access_point("wap2", &["r2", "r3"])
            .build()
            .unwrap();
        let mut store = EventStore::new(space);
        let day = locater_events::SECONDS_PER_DAY;
        store.ingest_raw("d1", 100, "wap1").unwrap();
        store.ingest_raw("d1", day + 100, "wap2").unwrap();
        store.ingest_raw("d2", 2 * day + 100, "wap1").unwrap();
        store
    }

    #[test]
    fn statistics_reflect_contents() {
        let stats = store().stats();
        assert_eq!(stats.building, "demo");
        assert_eq!(stats.access_points, 2);
        assert_eq!(stats.rooms, 3);
        assert_eq!(stats.devices, 2);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.span_days, 3);
        assert!((stats.events_per_day - 1.0).abs() < 1e-9);
        assert!((stats.events_per_device - 1.5).abs() < 1e-9);
        assert!(stats.mean_delta_seconds > 0.0);
    }

    #[test]
    fn empty_store_has_zero_rates() {
        let space = SpaceBuilder::new("empty")
            .add_access_point("wap1", &["r1"])
            .build()
            .unwrap();
        let stats = EventStore::new(space).stats();
        assert_eq!(stats.events, 0);
        assert_eq!(stats.span_days, 0);
        assert_eq!(stats.events_per_day, 0.0);
        assert_eq!(stats.events_per_device, 0.0);
        assert_eq!(stats.mean_delta_seconds, 0.0);
    }

    #[test]
    fn report_is_single_line_and_mentions_key_numbers() {
        let report = store().stats().to_report();
        assert!(report.contains("3 events"));
        assert!(report.contains("2 devices"));
        assert!(!report.contains('\n'));
    }
}
