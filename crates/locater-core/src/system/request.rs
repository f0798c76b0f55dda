//! The typed request/response layer of the live service API.
//!
//! A [`LocateRequest`] names the target device (by MAC or by resolved
//! [`DeviceId`]), the query time, and optional *per-request overrides*: the
//! fine-grained mode, whether the caching engine may be consulted, and whether
//! per-query diagnostics should be returned. A [`LocateResponse`] carries the
//! cleaned [`Answer`] plus service-level observability: the device's ingest
//! epoch and the store size at answer time.
//!
//! ```
//! use locater_core::system::{LocateRequest, CacheMode, FineMode};
//!
//! let request = LocateRequest::by_mac("aa:bb:cc:dd:ee:01", 2_500)
//!     .with_fine_mode(FineMode::Dependent)
//!     .with_cache(CacheMode::Disabled)
//!     .with_diagnostics();
//! assert_eq!(request.t, 2_500);
//! assert!(request.diagnostics);
//! ```

use super::{Answer, CacheMode, QueryDiagnostics};
use crate::fine::FineMode;
use locater_events::clock::Timestamp;
use locater_events::DeviceId;

/// A location request `Q = (d_i, t_q)` with per-request overrides.
///
/// Build one with [`LocateRequest::by_mac`] / [`LocateRequest::by_device`] and
/// the `with_*` builder methods; fields left `None` inherit the service-level
/// [`LocaterConfig`](super::LocaterConfig).
#[derive(Debug, Clone, PartialEq)]
pub struct LocateRequest {
    /// Device MAC address / log identifier, if the caller knows it.
    pub mac: Option<String>,
    /// Already-resolved device id, if the caller has one.
    pub device: Option<DeviceId>,
    /// Query time.
    pub t: Timestamp,
    /// Per-request fine-grained mode (I-FINE / D-FINE); `None` inherits the
    /// service configuration.
    pub fine_mode: Option<FineMode>,
    /// Per-request caching engine mode; `None` inherits the service
    /// configuration. [`CacheMode::Disabled`] makes this request neither read
    /// nor warm the global affinity graph.
    pub cache: Option<CacheMode>,
    /// When `true`, the response carries [`QueryDiagnostics`].
    pub diagnostics: bool,
}

impl LocateRequest {
    /// Request by MAC address.
    pub fn by_mac(mac: impl Into<String>, t: Timestamp) -> Self {
        Self {
            mac: Some(mac.into()),
            device: None,
            t,
            fine_mode: None,
            cache: None,
            diagnostics: false,
        }
    }

    /// Request by device id.
    pub fn by_device(device: DeviceId, t: Timestamp) -> Self {
        Self {
            mac: None,
            device: Some(device),
            t,
            fine_mode: None,
            cache: None,
            diagnostics: false,
        }
    }

    /// Overrides the fine-grained mode for this request only.
    pub fn with_fine_mode(mut self, mode: FineMode) -> Self {
        self.fine_mode = Some(mode);
        self
    }

    /// Overrides the caching engine mode for this request only.
    pub fn with_cache(mut self, cache: CacheMode) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Shorthand for `with_cache(CacheMode::Disabled)`: answer without reading
    /// or warming the global affinity graph.
    pub fn bypass_cache(self) -> Self {
        self.with_cache(CacheMode::Disabled)
    }

    /// Opts this request into per-query diagnostics.
    pub fn with_diagnostics(mut self) -> Self {
        self.diagnostics = true;
        self
    }
}

/// The response to a [`LocateRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocateResponse {
    /// The cleaned answer.
    pub answer: Answer,
    /// The queried device's ingest epoch at answer time. Two responses for the
    /// same device with equal epochs were answered over the same device
    /// history; a higher epoch means events arrived in between (see
    /// [`super::epoch`]).
    pub device_epoch: u64,
    /// Total number of events in the store when the answer was computed.
    pub events_seen: usize,
    /// Per-query diagnostics, present iff the request opted in.
    pub diagnostics: Option<QueryDiagnostics>,
}

impl LocateResponse {
    /// The cleaned semantic location (shorthand for `self.answer.location`).
    pub fn location(&self) -> super::Location {
        self.answer.location
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_overrides() {
        let request = LocateRequest::by_mac("aa", 10)
            .with_fine_mode(FineMode::Dependent)
            .bypass_cache()
            .with_diagnostics();
        assert_eq!(request.mac.as_deref(), Some("aa"));
        assert_eq!(request.fine_mode, Some(FineMode::Dependent));
        assert_eq!(request.cache, Some(CacheMode::Disabled));
        assert!(request.diagnostics);

        let by_device = LocateRequest::by_device(DeviceId::new(3), 20);
        assert_eq!(by_device.device, Some(DeviceId::new(3)));
        assert_eq!(by_device.fine_mode, None);
        assert_eq!(by_device.cache, None);
        assert!(!by_device.diagnostics);
    }
}
