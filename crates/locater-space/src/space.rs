//! The immutable space model: rooms, regions, access points and device metadata.

use crate::access_point::AccessPoint;
use crate::error::SpaceError;
use crate::ids::{AccessPointId, RegionId, RoomId};
use crate::region::Region;
use crate::room::Room;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The most access points one [`Space`] may hold: events store their access
/// point id in 16 bits.
pub const MAX_ACCESS_POINTS: usize = 1 << 16;

/// An immutable description of one building: its rooms, the WiFi access points
/// deployed in it, the coverage region of each access point, and the device metadata
/// (preferred rooms) used by LOCATER's fine-grained localization.
///
/// Built through [`crate::SpaceBuilder`]. Cloning a `Space` is a deep copy; wrap it in
/// an `Arc` for sharing across engines (the event store does this internally).
///
/// Deserialization routes through the same constructor the builder uses, so
/// derived state (`room_regions`, the region-overlap matrix) is always
/// recomputed from the authoritative fields — a foreign or stale document can
/// never smuggle in an inconsistent matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Space {
    name: String,
    rooms: Vec<Room>,
    room_names: HashMap<String, RoomId>,
    access_points: Vec<AccessPoint>,
    ap_names: HashMap<String, AccessPointId>,
    regions: Vec<Region>,
    /// For each room, the sorted list of regions whose coverage includes it.
    room_regions: Vec<Vec<RegionId>>,
    /// Row-major `num_regions × num_regions` overlap matrix: entry
    /// `a·n + b` is `true` iff regions `a` and `b` share a room. Derived in
    /// [`Space::from_parts`] (like `room_regions`), so region-overlap checks
    /// — the neighbor filter runs one per online device per query — are one
    /// indexed load instead of a room-list merge.
    region_overlap: Vec<bool>,
    /// Preferred rooms per device MAC address (`R_pf(d_i)` in the paper).
    preferred: HashMap<String, Vec<RoomId>>,
}

impl Deserialize for Space {
    fn from_value(v: &serde::Value<'_>) -> Result<Self, serde::Error> {
        /// The authoritative fields only; serialized derived fields
        /// (`room_regions`, `region_overlap`) are ignored and recomputed by
        /// [`Space::from_parts`].
        #[derive(Deserialize)]
        struct Parts {
            name: String,
            rooms: Vec<Room>,
            room_names: HashMap<String, RoomId>,
            access_points: Vec<AccessPoint>,
            ap_names: HashMap<String, AccessPointId>,
            regions: Vec<Region>,
            preferred: HashMap<String, Vec<RoomId>>,
        }
        let parts = Parts::from_value(v)?;
        Space::from_parts(
            parts.name,
            parts.rooms,
            parts.room_names,
            parts.access_points,
            parts.ap_names,
            parts.regions,
            parts.preferred,
        )
        .map_err(|err| serde::Error::custom(&err.to_string()))
    }
}

impl Space {
    pub(crate) fn from_parts(
        name: String,
        rooms: Vec<Room>,
        room_names: HashMap<String, RoomId>,
        access_points: Vec<AccessPoint>,
        ap_names: HashMap<String, AccessPointId>,
        regions: Vec<Region>,
        preferred: HashMap<String, Vec<RoomId>>,
    ) -> Result<Self, SpaceError> {
        if access_points.is_empty() {
            return Err(SpaceError::EmptySpace);
        }
        if access_points.len() > MAX_ACCESS_POINTS {
            return Err(SpaceError::TooManyAccessPoints(access_points.len()));
        }
        // Every id below is an index into its table: check them before any is
        // used as one, so a foreign document fails with an error, not a panic.
        let bad = |what: String| Err(SpaceError::Metadata(format!("inconsistent ids: {what}")));
        if regions.len() != access_points.len() {
            return bad(format!(
                "{} regions for {} access points",
                regions.len(),
                access_points.len()
            ));
        }
        for (idx, room) in rooms.iter().enumerate() {
            if room.id.index() != idx {
                return bad(format!("room {} at position {idx}", room.id));
            }
        }
        for (idx, (ap, region)) in access_points.iter().zip(&regions).enumerate() {
            if ap.id.index() != idx || region.id.index() != idx || region.access_point != ap.id {
                return bad(format!("access point or region at position {idx}"));
            }
            if let Some(room) = region.rooms.iter().find(|r| r.index() >= rooms.len()) {
                return bad(format!(
                    "region {} names room {room} of {}",
                    region.id,
                    rooms.len()
                ));
            }
        }
        for (name, id) in &room_names {
            if rooms.get(id.index()).is_none_or(|room| room.name != *name) {
                return bad(format!("room name {name:?} maps to {id}"));
            }
        }
        for (name, id) in &ap_names {
            if access_points
                .get(id.index())
                .is_none_or(|ap| ap.name != *name)
            {
                return bad(format!("access point name {name:?} maps to {id}"));
            }
        }
        for (mac, prefs) in &preferred {
            if let Some(room) = prefs.iter().find(|r| r.index() >= rooms.len()) {
                return bad(format!("device {mac:?} prefers room {room}"));
            }
        }
        for (ap, region) in access_points.iter().zip(regions.iter()) {
            if region.is_empty() {
                return Err(SpaceError::EmptyCoverage(ap.name.clone()));
            }
        }
        let mut room_regions = vec![Vec::new(); rooms.len()];
        for region in &regions {
            for &room in &region.rooms {
                room_regions[room.index()].push(region.id);
            }
        }
        for regions_of_room in &mut room_regions {
            regions_of_room.sort_unstable();
            regions_of_room.dedup();
        }
        let n = regions.len();
        let mut region_overlap = vec![false; n * n];
        for regions_of_room in &room_regions {
            for &a in regions_of_room {
                for &b in regions_of_room {
                    region_overlap[a.index() * n + b.index()] = true;
                }
            }
        }
        for (idx, row) in region_overlap.chunks_mut(n).enumerate() {
            row[idx] = true; // a region always overlaps itself
        }
        Ok(Self {
            name,
            rooms,
            room_names,
            access_points,
            ap_names,
            regions,
            room_regions,
            region_overlap,
            preferred,
        })
    }

    /// Name of the building this space describes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Serializes the full space — interned ids and all — to JSON.
    ///
    /// Unlike [`crate::SpaceMetadata`] (the human-editable, name-canonical
    /// form), this round-trips bit-for-bit: [`Space::from_json`] preserves
    /// every [`RoomId`]/[`AccessPointId`] assignment verbatim instead of
    /// re-interning names. Snapshots use it so stored per-event AP ids keep
    /// pointing at the same access points after a load.
    pub fn to_json(&self) -> Result<String, SpaceError> {
        serde_json::to_string(self).map_err(|e| SpaceError::Metadata(e.to_string()))
    }

    /// Parses a space serialized by [`Space::to_json`], preserving ids
    /// verbatim and recomputing only the derived indexes.
    pub fn from_json(json: &str) -> Result<Self, SpaceError> {
        serde_json::from_str(json).map_err(|e| SpaceError::Metadata(e.to_string()))
    }

    // ------------------------------------------------------------------
    // Rooms
    // ------------------------------------------------------------------

    /// Number of rooms in the building (`|R|`).
    pub fn num_rooms(&self) -> usize {
        self.rooms.len()
    }

    /// All rooms, indexable by [`RoomId::index`].
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// Looks up a room id by name.
    pub fn room_id(&self, name: &str) -> Option<RoomId> {
        self.room_names.get(name).copied()
    }

    /// Returns the room with the given id.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this space.
    pub fn room(&self, id: RoomId) -> &Room {
        &self.rooms[id.index()]
    }

    /// `true` if the room is a public/shared space.
    pub fn is_public(&self, id: RoomId) -> bool {
        self.room(id).is_public()
    }

    /// Regions whose coverage includes `room`, sorted by id.
    pub fn regions_of_room(&self, room: RoomId) -> &[RegionId] {
        &self.room_regions[room.index()]
    }

    // ------------------------------------------------------------------
    // Access points / regions
    // ------------------------------------------------------------------

    /// Number of access points (and therefore regions) in the building (`|WAP| = |G|`).
    pub fn num_access_points(&self) -> usize {
        self.access_points.len()
    }

    /// Number of regions; always equal to [`Space::num_access_points`].
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// All access points, indexable by [`AccessPointId::index`].
    pub fn access_points(&self) -> &[AccessPoint] {
        &self.access_points
    }

    /// All regions, indexable by [`RegionId::index`].
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up an access point id by name.
    pub fn ap_id(&self, name: &str) -> Option<AccessPointId> {
        self.ap_names.get(name).copied()
    }

    /// Returns the access point with the given id.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this space.
    pub fn access_point(&self, id: AccessPointId) -> &AccessPoint {
        &self.access_points[id.index()]
    }

    /// The access point whose coverage defines region `region`.
    pub fn ap_of_region(&self, region: RegionId) -> AccessPointId {
        region.access_point()
    }

    /// Returns the region with the given id.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this space.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Rooms covered by `region` (`R(g_x)` in the paper), sorted by id.
    pub fn rooms_in_region(&self, region: RegionId) -> &[RoomId] {
        &self.regions[region.index()].rooms
    }

    /// `true` if the two regions share at least one room — one load from the
    /// precomputed overlap matrix.
    pub fn regions_overlap(&self, a: RegionId, b: RegionId) -> bool {
        self.region_overlap[a.index() * self.regions.len() + b.index()]
    }

    /// Intersection of the candidate-room sets of several regions (`R_is` in §4.1),
    /// sorted by id. Returns the rooms of the single region when `regions` has one
    /// element, and an empty vector when `regions` is empty.
    pub fn intersect_regions(&self, regions: &[RegionId]) -> Vec<RoomId> {
        let mut iter = regions.iter();
        let Some(&first) = iter.next() else {
            return Vec::new();
        };
        let mut acc: Vec<RoomId> = self.regions[first.index()].rooms.clone();
        for &next in iter {
            let other = &self.regions[next.index()];
            acc.retain(|room| other.covers(*room));
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Average number of rooms covered per access point (reported as ≈11 for the
    /// paper's Donald Bren Hall deployment).
    pub fn avg_rooms_per_ap(&self) -> f64 {
        if self.regions.is_empty() {
            return 0.0;
        }
        let total: usize = self.regions.iter().map(Region::len).sum();
        total as f64 / self.regions.len() as f64
    }

    // ------------------------------------------------------------------
    // Device metadata (preferred rooms)
    // ------------------------------------------------------------------

    /// Preferred rooms (`R_pf`) registered for a device MAC address. Empty if none.
    pub fn preferred_rooms(&self, mac: &str) -> &[RoomId] {
        self.preferred.get(mac).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The "metadata room" of a device: its first registered preferred room, used by
    /// the metadata fine-grained baseline (Fine-Baseline2 in §6.1).
    pub fn metadata_room(&self, mac: &str) -> Option<RoomId> {
        self.preferred_rooms(mac).first().copied()
    }

    /// All (mac, preferred rooms) pairs registered in the space metadata.
    pub fn preferred_map(&self) -> &HashMap<String, Vec<RoomId>> {
        &self.preferred
    }

    /// Partitions the candidate rooms of `region` for device `mac` into
    /// (preferred, public, private) room sets, in the precedence order used by the
    /// room-affinity weights of §4.1: a candidate room that is preferred counts as
    /// preferred even if it is public; a non-preferred public room counts as public;
    /// everything else is private.
    pub fn partition_candidates(
        &self,
        mac: &str,
        region: RegionId,
    ) -> (Vec<RoomId>, Vec<RoomId>, Vec<RoomId>) {
        let preferred = self.preferred_rooms(mac);
        let mut pf = Vec::new();
        let mut pb = Vec::new();
        let mut pr = Vec::new();
        for &room in self.rooms_in_region(region) {
            if preferred.contains(&room) {
                pf.push(room);
            } else if self.is_public(room) {
                pb.push(room);
            } else {
                pr.push(room);
            }
        }
        (pf, pb, pr)
    }

    /// Counts rooms of each [`RoomType`](crate::room::RoomType): `(public, private)`.
    pub fn room_type_counts(&self) -> (usize, usize) {
        let public = self.rooms.iter().filter(|r| r.is_public()).count();
        (public, self.rooms.len() - public)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SpaceBuilder;
    use crate::room::RoomType;

    fn sample_space() -> Space {
        // Mirrors the motivating example of Fig. 1: four APs with overlapping coverage.
        SpaceBuilder::new("DBH-2F")
            .add_access_point("wap1", &["2002", "2004", "2019", "2026", "2028", "2032"])
            .add_access_point(
                "wap2",
                &["2004", "2057", "2059", "2061", "2064", "2066", "2068"],
            )
            .add_access_point(
                "wap3",
                &["2059", "2061", "2065", "2066", "2068", "2069", "2099"],
            )
            .add_access_point("wap4", &["2082", "2084", "2086", "2088", "2091", "2099"])
            .room_type("2065", RoomType::Public)
            .room_type("2004", RoomType::Public)
            .room_owner("2061", "d1")
            .preferred_room("d2", "2059")
            .build()
            .unwrap()
    }

    #[test]
    fn lookups_are_consistent() {
        let space = sample_space();
        assert_eq!(space.name(), "DBH-2F");
        assert_eq!(space.num_access_points(), 4);
        assert_eq!(space.num_regions(), 4);
        let wap3 = space.ap_id("wap3").unwrap();
        assert_eq!(space.access_point(wap3).name, "wap3");
        let g3 = wap3.region();
        assert_eq!(space.ap_of_region(g3), wap3);
        assert_eq!(space.rooms_in_region(g3).len(), 7);
        assert!(space.room_id("2065").is_some());
        assert!(space.room_id("9999").is_none());
        assert!(space.ap_id("wap9").is_none());
    }

    #[test]
    fn overlap_and_intersection_follow_shared_rooms() {
        let space = sample_space();
        let g1 = space.ap_id("wap1").unwrap().region();
        let g2 = space.ap_id("wap2").unwrap().region();
        let g3 = space.ap_id("wap3").unwrap().region();
        let g4 = space.ap_id("wap4").unwrap().region();
        assert!(space.regions_overlap(g1, g2)); // share 2004
        assert!(space.regions_overlap(g2, g3)); // share 2059, 2061, 2066, 2068
        assert!(space.regions_overlap(g3, g4)); // share 2099
        assert!(!space.regions_overlap(g1, g3));
        assert!(space.regions_overlap(g2, g2));

        let both = space.intersect_regions(&[g2, g3]);
        let names: Vec<&str> = both.iter().map(|&r| space.room(r).name.as_str()).collect();
        assert_eq!(names, vec!["2059", "2061", "2066", "2068"]);

        assert!(space.intersect_regions(&[g1, g3]).is_empty());
        assert!(space.intersect_regions(&[]).is_empty());
        assert_eq!(
            space.intersect_regions(&[g4]),
            space.rooms_in_region(g4).to_vec()
        );
    }

    #[test]
    fn regions_of_room_reflect_coverage() {
        let space = sample_space();
        let r2059 = space.room_id("2059").unwrap();
        let regions = space.regions_of_room(r2059);
        assert_eq!(regions.len(), 2); // wap2 and wap3
        let r2002 = space.room_id("2002").unwrap();
        assert_eq!(space.regions_of_room(r2002).len(), 1);
    }

    #[test]
    fn preferred_rooms_and_partition() {
        let space = sample_space();
        let d1_pref = space.preferred_rooms("d1");
        assert_eq!(d1_pref.len(), 1);
        assert_eq!(space.room(d1_pref[0]).name, "2061");
        assert_eq!(space.metadata_room("d1"), Some(d1_pref[0]));
        assert!(space.preferred_rooms("unknown").is_empty());
        assert_eq!(space.metadata_room("unknown"), None);

        let g3 = space.ap_id("wap3").unwrap().region();
        let (pf, pb, pr) = space.partition_candidates("d1", g3);
        assert_eq!(pf.len(), 1); // 2061
        assert_eq!(pb.len(), 1); // 2065 (public)
        assert_eq!(pr.len(), 5); // the rest
        assert_eq!(
            pf.len() + pb.len() + pr.len(),
            space.rooms_in_region(g3).len()
        );
    }

    #[test]
    fn public_room_helpers() {
        let space = sample_space();
        let g3 = space.ap_id("wap3").unwrap().region();
        let publics: Vec<RoomId> = space
            .rooms_in_region(g3)
            .iter()
            .copied()
            .filter(|&r| space.is_public(r))
            .collect();
        assert_eq!(publics.len(), 1);
        assert_eq!(space.room(publics[0]).name, "2065");
        let (public, private) = space.room_type_counts();
        assert_eq!(public, 2);
        assert_eq!(public + private, space.num_rooms());
    }

    #[test]
    fn avg_rooms_per_ap_is_mean_of_coverage_sizes() {
        let space = sample_space();
        let expected = (6 + 7 + 7 + 6) as f64 / 4.0;
        assert!((space.avg_rooms_per_ap() - expected).abs() < 1e-9);
    }

    /// Snapshots embed `Space::to_json`, so its bytes are pinned: captured
    /// from the encoder this one replaced, maps as `[key, value]` pairs in
    /// key order.
    #[test]
    fn to_json_emits_the_pinned_bytes() {
        let space = SpaceBuilder::new("B \"1\"")
            .add_access_point("wap1", &["r1", "r2"])
            .add_access_point("wap\\2", &["r2", "r3"])
            .room_type("r2", RoomType::Public)
            .room_owner("r3", "d1")
            .preferred_room("d2", "r1")
            .build()
            .unwrap();
        let json = space.to_json().unwrap();
        assert_eq!(
            json,
            r#"{"name":"B \"1\"","rooms":[{"id":0,"name":"r1","room_type":"Private","owners":[]},{"id":1,"name":"r2","room_type":"Public","owners":[]},{"id":2,"name":"r3","room_type":"Private","owners":["d1"]}],"room_names":[["r1",0],["r2",1],["r3",2]],"access_points":[{"id":0,"name":"wap1"},{"id":1,"name":"wap\\2"}],"ap_names":[["wap1",0],["wap\\2",1]],"regions":[{"id":0,"access_point":0,"rooms":[0,1]},{"id":1,"access_point":1,"rooms":[1,2]}],"room_regions":[[0],[0,1],[1]],"region_overlap":[true,true,true,true],"preferred":[["d1",[2]],["d2",[0]]]}"#
        );
        assert_eq!(Space::from_json(&json).unwrap(), space);
    }

    #[test]
    fn from_json_rejects_ids_out_of_range_or_out_of_place() {
        let space = SpaceBuilder::new("two-rooms")
            .add_access_point("wap0", &["r0", "r1"])
            .add_access_point("wap1", &["r1"])
            .room_owner("r1", "d1")
            .build()
            .unwrap();
        let json = space.to_json().unwrap();
        for (from, to) in [
            // A region naming room 99 of two.
            (r#""rooms":[0,1]"#, r#""rooms":[0,99]"#),
            // Room, access point and region ids that are not their position.
            (r#"{"id":1,"name":"r1""#, r#"{"id":7,"name":"r1""#),
            (r#"{"id":1,"name":"wap1"}"#, r#"{"id":5,"name":"wap1"}"#),
            (
                r#"{"id":1,"access_point":1,"#,
                r#"{"id":9,"access_point":1,"#,
            ),
            // Name tables pointing past the end or at another entry.
            (r#"["r1",1]"#, r#"["r1",99]"#),
            (r#"["wap1",1]"#, r#"["wap1",0]"#),
            // A preferred room past the end.
            (r#"["d1",[1]]"#, r#"["d1",[42]]"#),
            // One region for two access points.
            (r#",{"id":1,"access_point":1,"rooms":[1]}"#, ""),
        ] {
            assert!(json.contains(from), "{from} not in {json}");
            let bad = json.replace(from, to);
            assert!(
                matches!(Space::from_json(&bad), Err(SpaceError::Metadata(_))),
                "{from} -> {to:?} must be rejected"
            );
        }
    }

    #[test]
    fn more_access_points_than_an_event_can_name_are_refused() {
        let too_many = MAX_ACCESS_POINTS + 1;
        let err = (0..too_many)
            .fold(SpaceBuilder::new("wide"), |builder, i| {
                builder.add_access_point(&format!("w{i}"), &["r"])
            })
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::TooManyAccessPoints(too_many));
        assert_eq!(
            err.to_string(),
            "space has 65537 access points (limit 65536)"
        );
        // The JSON loader, on a hand-made document: one room, every access
        // point covering it.
        let aps: Vec<String> = (0..too_many)
            .map(|i| format!(r#"{{"id":{i},"name":"w{i}"}}"#))
            .collect();
        let regions: Vec<String> = (0..too_many)
            .map(|i| format!(r#"{{"id":{i},"access_point":{i},"rooms":[0]}}"#))
            .collect();
        let json = format!(
            r#"{{"name":"wide","rooms":[{{"id":0,"name":"r","room_type":"Private","owners":[]}}],"room_names":[["r",0]],"access_points":[{}],"ap_names":[],"regions":[{}],"preferred":[]}}"#,
            aps.join(","),
            regions.join(",")
        );
        match Space::from_json(&json) {
            Err(SpaceError::Metadata(msg)) => assert!(msg.contains("limit 65536"), "{msg}"),
            other => panic!("expected the access point limit, got {other:?}"),
        }
    }

    #[test]
    fn serde_roundtrip_preserves_space() {
        let space = sample_space();
        let json = serde_json::to_string(&space).unwrap();
        let back: Space = serde_json::from_str(&json).unwrap();
        assert_eq!(space, back);
    }
}
