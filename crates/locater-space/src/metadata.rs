//! Space metadata import/export and summary statistics.
//!
//! The paper (§5, §9.1) lists the metadata LOCATER needs in a deployment: the set of
//! access points, the rooms covered by each, room types (public/private), room owners
//! and preferred rooms. [`SpaceMetadata`] is a serde-friendly, file-oriented
//! representation of exactly that, convertible to and from a [`Space`].

use crate::builder::SpaceBuilder;
use crate::error::SpaceError;
use crate::room::RoomType;
use crate::space::Space;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Declarative description of a building's localization metadata, suitable for
/// storing as JSON next to a deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SpaceMetadata {
    /// Building name.
    pub name: String,
    /// AP name → covered room names.
    pub coverage: BTreeMap<String, Vec<String>>,
    /// Room names that are public/shared spaces; all other rooms are private.
    #[serde(default)]
    pub public_rooms: Vec<String>,
    /// Room name → owner MAC addresses.
    #[serde(default)]
    pub owners: BTreeMap<String, Vec<String>>,
    /// Device MAC → preferred room names (in addition to owned rooms).
    #[serde(default)]
    pub preferred: BTreeMap<String, Vec<String>>,
}

impl SpaceMetadata {
    /// Builds the immutable [`Space`] described by this metadata.
    pub fn build(&self) -> Result<Space, SpaceError> {
        let mut builder = SpaceBuilder::new(&self.name);
        for (ap, rooms) in &self.coverage {
            let refs: Vec<&str> = rooms.iter().map(String::as_str).collect();
            builder = builder.add_access_point(ap, &refs);
        }
        for room in &self.public_rooms {
            builder = builder.room_type(room, RoomType::Public);
        }
        for (room, macs) in &self.owners {
            for mac in macs {
                builder = builder.room_owner(room, mac);
            }
        }
        for (mac, rooms) in &self.preferred {
            for room in rooms {
                builder = builder.preferred_room(mac, room);
            }
        }
        builder.build()
    }

    /// Extracts metadata back out of a [`Space`] (inverse of [`SpaceMetadata::build`]).
    ///
    /// Room-name lists are emitted in lexicographic order, not intern order:
    /// [`RoomId`](crate::ids::RoomId) assignment depends on the order rooms
    /// were first mentioned during construction, which a
    /// metadata-build-metadata round trip does not preserve (APs rebuild in
    /// `BTreeMap` name order). Sorting by name makes the serialized form
    /// canonical, so two semantically equal spaces — e.g. an original and its
    /// snapshot-recovered copy — always produce byte-identical metadata.
    pub fn from_space(space: &Space) -> Self {
        let mut coverage = BTreeMap::new();
        for ap in space.access_points() {
            let mut rooms: Vec<String> = space
                .rooms_in_region(ap.region())
                .iter()
                .map(|&r| space.room(r).name.clone())
                .collect();
            rooms.sort_unstable();
            coverage.insert(ap.name.clone(), rooms);
        }
        let mut public_rooms: Vec<String> = space
            .rooms()
            .iter()
            .filter(|r| r.is_public())
            .map(|r| r.name.clone())
            .collect();
        public_rooms.sort_unstable();
        let mut owners = BTreeMap::new();
        for room in space.rooms() {
            if !room.owners.is_empty() {
                owners.insert(room.name.clone(), room.owners.clone());
            }
        }
        let mut preferred = BTreeMap::new();
        for (mac, rooms) in space.preferred_map() {
            let mut names: Vec<String> = rooms
                .iter()
                .map(|&r| space.room(r).name.clone())
                .filter(|name| {
                    // owned rooms are reconstructed through `owners`, keep only extras
                    !owners
                        .get(name)
                        .map(|macs: &Vec<String>| macs.iter().any(|m| m == mac))
                        .unwrap_or(false)
                })
                .collect();
            names.sort_unstable();
            if !names.is_empty() {
                preferred.insert(mac.clone(), names);
            }
        }
        Self {
            name: space.name().to_string(),
            coverage,
            public_rooms,
            owners,
            preferred,
        }
    }

    /// Serializes the metadata to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, SpaceError> {
        serde_json::to_string_pretty(self).map_err(|e| SpaceError::Metadata(e.to_string()))
    }

    /// Parses metadata from JSON.
    pub fn from_json(json: &str) -> Result<Self, SpaceError> {
        serde_json::from_str(json).map_err(|e| SpaceError::Metadata(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpaceBuilder;

    fn sample_metadata() -> SpaceMetadata {
        let mut coverage = BTreeMap::new();
        coverage.insert("wap1".to_string(), vec!["2002".into(), "2004".into()]);
        coverage.insert("wap2".to_string(), vec!["2004".into(), "2061".into()]);
        let mut owners = BTreeMap::new();
        owners.insert("2061".to_string(), vec!["d1".to_string()]);
        let mut preferred = BTreeMap::new();
        preferred.insert("d2".to_string(), vec!["2004".to_string()]);
        SpaceMetadata {
            name: "DBH".into(),
            coverage,
            public_rooms: vec!["2004".into()],
            owners,
            preferred,
        }
    }

    #[test]
    fn metadata_builds_space() {
        let meta = sample_metadata();
        let space = meta.build().unwrap();
        assert_eq!(space.num_access_points(), 2);
        assert_eq!(space.num_rooms(), 3);
        assert!(space.is_public(space.room_id("2004").unwrap()));
        assert_eq!(
            space.metadata_room("d1"),
            Some(space.room_id("2061").unwrap())
        );
        assert_eq!(
            space.metadata_room("d2"),
            Some(space.room_id("2004").unwrap())
        );
    }

    #[test]
    fn metadata_roundtrips_through_space() {
        let meta = sample_metadata();
        let space = meta.build().unwrap();
        let back = SpaceMetadata::from_space(&space);
        assert_eq!(back, meta);
    }

    #[test]
    fn metadata_roundtrips_through_json() {
        let meta = sample_metadata();
        let json = meta.to_json().unwrap();
        let back = SpaceMetadata::from_json(&json).unwrap();
        assert_eq!(back, meta);
    }

    /// The pretty form is pinned byte for byte, empty containers included:
    /// captured from the encoder this one replaced.
    #[test]
    fn to_json_emits_the_pinned_bytes() {
        assert_eq!(
            sample_metadata().to_json().unwrap(),
            r#"{
  "name": "DBH",
  "coverage": [
    [
      "wap1",
      [
        "2002",
        "2004"
      ]
    ],
    [
      "wap2",
      [
        "2004",
        "2061"
      ]
    ]
  ],
  "public_rooms": [
    "2004"
  ],
  "owners": [
    [
      "2061",
      [
        "d1"
      ]
    ]
  ],
  "preferred": [
    [
      "d2",
      [
        "2004"
      ]
    ]
  ]
}"#
        );
        assert_eq!(
            SpaceMetadata::default().to_json().unwrap(),
            r#"{
  "name": "",
  "coverage": [],
  "public_rooms": [],
  "owners": [],
  "preferred": []
}"#
        );
    }

    /// `RoomId` assignment depends on first-mention order, and rebuilding from
    /// metadata visits APs in `BTreeMap` name order — with ten or more APs,
    /// "wap10" rebuilds before "wap2", so intern order shifts. The canonical
    /// (name-sorted) serialization must hide that: a round-tripped space has
    /// to produce byte-identical metadata even though its ids were reassigned.
    #[test]
    fn metadata_is_canonical_across_id_reassignment() {
        let mut builder = SpaceBuilder::new("b");
        for ap in 0..12 {
            let rooms: Vec<String> = (0..3).map(|r| format!("{}", 2000 + ap * 3 + r)).collect();
            let refs: Vec<&str> = rooms.iter().map(String::as_str).collect();
            builder = builder.add_access_point(&format!("wap{ap}"), &refs);
        }
        let space = builder.build().unwrap();
        let meta = SpaceMetadata::from_space(&space);
        let rebuilt = meta.build().unwrap();
        let again = SpaceMetadata::from_space(&rebuilt);
        assert_eq!(again, meta);
        assert_eq!(again.to_json().unwrap(), meta.to_json().unwrap());
    }

    #[test]
    fn invalid_json_reports_metadata_error() {
        let err = SpaceMetadata::from_json("{not json").unwrap_err();
        matches!(err, SpaceError::Metadata(_));
    }
}
