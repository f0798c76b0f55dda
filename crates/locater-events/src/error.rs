//! Error type for the connectivity data model.

use std::fmt;

/// Errors produced while parsing or validating connectivity data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventError {
    /// A device identifier was empty or a malformed hardware MAC address.
    InvalidMac(String),
    /// A timestamp was outside the acceptable range (e.g. negative at ingestion).
    InvalidTimestamp(i64),
    /// An event id was at or above [`crate::EVENT_ID_LIMIT`].
    InvalidEventId(u64),
    /// An access point id did not fit the 16 bits a stored event keeps.
    InvalidAccessPoint(u32),
    /// A validity period was non-positive.
    InvalidValidity(i64),
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::InvalidMac(raw) => write!(f, "invalid device identifier: {raw:?}"),
            EventError::InvalidTimestamp(t) => write!(f, "invalid timestamp: {t}"),
            EventError::InvalidEventId(id) => write!(f, "event id out of range: {id}"),
            EventError::InvalidAccessPoint(ap) => write!(f, "access point id out of range: {ap}"),
            EventError::InvalidValidity(d) => {
                write!(f, "invalid validity period (must be positive): {d}")
            }
        }
    }
}

impl std::error::Error for EventError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(EventError::InvalidMac("x:".into())
            .to_string()
            .contains("x:"));
        assert!(EventError::InvalidTimestamp(-5).to_string().contains("-5"));
        assert!(EventError::InvalidValidity(0)
            .to_string()
            .contains("positive"));
    }
}
