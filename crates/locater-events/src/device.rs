//! Devices and MAC addresses.

use crate::clock::Timestamp;
use crate::error::EventError;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// Dense identifier of a device (`d_i ∈ D` in the paper), assigned by the event store
/// in order of first appearance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DeviceId(pub u32);

impl DeviceId {
    /// Creates an id from its raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Raw index backing this id.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device#{}", self.0)
    }
}

/// A normalized MAC address (or, more generally, a device identifier string as it
/// appears in the connectivity log).
///
/// Real association logs identify devices by their 48-bit MAC address; anonymized
/// datasets (like the one used in the paper) may replace them with opaque hashes such
/// as `7fbh…`. `MacAddress` therefore accepts any non-empty identifier, normalizes it
/// to lowercase with trimmed whitespace, and validates proper `xx:xx:xx:xx:xx:xx`
/// syntax only when the string looks like a colon-separated hardware address.
///
/// It compares and hashes as its normalized string, so a map keyed by
/// `MacAddress` can be probed with a `&str` ([`Borrow<str>`]). A string in
/// normal form (no ASCII uppercase, no surrounding whitespace) is its own
/// parse, so it finds its key without one.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MacAddress(String);

impl MacAddress {
    /// Parses and normalizes a device identifier.
    pub fn parse(raw: &str) -> Result<Self, EventError> {
        let normalized = raw.trim().to_ascii_lowercase();
        if normalized.is_empty() {
            return Err(EventError::InvalidMac(raw.to_string()));
        }
        if normalized.contains(':') {
            let octets: Vec<&str> = normalized.split(':').collect();
            let valid = octets.len() == 6
                && octets
                    .iter()
                    .all(|o| o.len() == 2 && o.chars().all(|c| c.is_ascii_hexdigit()));
            if !valid {
                return Err(EventError::InvalidMac(raw.to_string()));
            }
        }
        Ok(Self(normalized))
    }

    /// The normalized identifier string.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for MacAddress {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::str::FromStr for MacAddress {
    type Err = EventError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// A device observed in the connectivity log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Device {
    /// Dense identifier assigned by the store.
    pub id: DeviceId,
    /// The device's MAC address / log identifier.
    pub mac: MacAddress,
    /// Validity period `δ(d)` in seconds: how long one connectivity event is taken as
    /// evidence of the device's location, on each side of the event timestamp.
    pub delta: Timestamp,
}

impl Device {
    /// Creates a device with the given validity period.
    pub fn new(id: DeviceId, mac: MacAddress, delta: Timestamp) -> Self {
        Self { id, mac, delta }
    }
}

impl fmt::Display for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.mac, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_normalizes_case_and_whitespace() {
        let mac = MacAddress::parse("  AA:BB:CC:DD:EE:0F ").unwrap();
        assert_eq!(mac.as_str(), "aa:bb:cc:dd:ee:0f");
    }

    #[test]
    fn parse_accepts_opaque_identifiers() {
        let mac = MacAddress::parse("7fbh-anon-123").unwrap();
        assert_eq!(mac.as_str(), "7fbh-anon-123");
    }

    #[test]
    fn parse_rejects_empty_and_malformed_hardware_macs() {
        assert!(MacAddress::parse("").is_err());
        assert!(MacAddress::parse("   ").is_err());
        assert!(MacAddress::parse("aa:bb:cc").is_err());
        assert!(MacAddress::parse("aa:bb:cc:dd:ee:gg").is_err());
        assert!(MacAddress::parse("aaa:bb:cc:dd:ee:ff").is_err());
    }

    #[test]
    fn from_str_matches_parse() {
        let a: MacAddress = "AA:BB:CC:DD:EE:FF".parse().unwrap();
        let b = MacAddress::parse("aa:bb:cc:dd:ee:ff").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn a_normal_form_string_is_its_own_parse() {
        for raw in ["aa:bb:cc:dd:ee:0f", "7fbh-anon-123", "d1", "é-device"] {
            assert_eq!(MacAddress::parse(raw).unwrap().as_str(), raw);
        }
        for raw in ["AA:bb:cc:dd:ee:0f", " d1", "d1\t", "\u{a0}d1", "D1"] {
            assert_ne!(MacAddress::parse(raw).unwrap().as_str(), raw);
        }
        // A map keyed by addresses answers a normal-form probe directly,
        // and misses every other spelling.
        let mac = MacAddress::parse(" AA:BB:CC:DD:EE:0F").unwrap();
        let map = std::collections::HashMap::from([(mac, 7)]);
        assert_eq!(map.get("aa:bb:cc:dd:ee:0f"), Some(&7));
        assert_eq!(map.get("AA:BB:CC:DD:EE:0F"), None);
        assert_eq!(map.get(" aa:bb:cc:dd:ee:0f"), None);
    }

    #[test]
    fn device_display_contains_mac_and_id() {
        let d = Device::new(
            DeviceId::new(3),
            MacAddress::parse("aa:bb:cc:dd:ee:ff").unwrap(),
            600,
        );
        assert_eq!(d.to_string(), "aa:bb:cc:dd:ee:ff (device#3)");
        assert_eq!(d.delta, 600);
    }

    #[test]
    fn device_id_display_and_index() {
        assert_eq!(DeviceId::new(9).to_string(), "device#9");
        assert_eq!(DeviceId::new(9).index(), 9);
    }
}
