//! Builder for [`Space`] (design-pattern guide: *builder*).

use crate::access_point::AccessPoint;
use crate::error::SpaceError;
use crate::ids::{AccessPointId, RoomId};
use crate::region::Region;
use crate::room::{Room, RoomType};
use crate::space::Space;
use std::collections::HashMap;

/// Incrementally constructs a [`Space`].
///
/// Rooms are created implicitly the first time they are referenced (defaulting to
/// [`RoomType::Private`] and no owner); access points must be added explicitly with
/// their coverage list. All mutators take and return `self` so a space can be defined
/// in one fluent expression; see the crate-level example.
#[derive(Debug, Clone, Default)]
pub struct SpaceBuilder {
    name: String,
    rooms: Vec<Room>,
    room_names: HashMap<String, RoomId>,
    access_points: Vec<AccessPoint>,
    ap_names: HashMap<String, AccessPointId>,
    coverage: Vec<Vec<RoomId>>,
    preferred: HashMap<String, Vec<RoomId>>,
    errors: Vec<SpaceError>,
}

impl SpaceBuilder {
    /// Starts a builder for a building called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    fn intern_room(&mut self, name: &str) -> RoomId {
        if let Some(&id) = self.room_names.get(name) {
            return id;
        }
        let id = RoomId::new(self.rooms.len() as u32);
        self.rooms.push(Room::new(id, name));
        self.room_names.insert(name.to_string(), id);
        id
    }

    /// Declares a room explicitly with a given type. Referencing the same name again
    /// (e.g. in an AP coverage list) reuses the same room.
    pub fn add_room(mut self, name: &str, room_type: RoomType) -> Self {
        let id = self.intern_room(name);
        self.rooms[id.index()].room_type = room_type;
        self
    }

    /// Adds an access point named `name` covering `rooms`. Rooms not seen before are
    /// created as private rooms.
    pub fn add_access_point(mut self, name: &str, rooms: &[&str]) -> Self {
        if self.ap_names.contains_key(name) {
            self.errors
                .push(SpaceError::DuplicateAccessPoint(name.to_string()));
            return self;
        }
        let id = AccessPointId::new(self.access_points.len() as u32);
        self.access_points.push(AccessPoint::new(id, name));
        self.ap_names.insert(name.to_string(), id);
        let cover: Vec<RoomId> = rooms.iter().map(|r| self.intern_room(r)).collect();
        self.coverage.push(cover);
        self
    }

    /// Sets the type of a room (creating it if necessary).
    pub fn room_type(mut self, name: &str, room_type: RoomType) -> Self {
        let id = self.intern_room(name);
        self.rooms[id.index()].room_type = room_type;
        self
    }

    /// Registers `mac` as an owner of room `name` (creating the room if necessary) and
    /// adds the room to the device's preferred rooms.
    pub fn room_owner(mut self, name: &str, mac: &str) -> Self {
        let id = self.intern_room(name);
        let room = &mut self.rooms[id.index()];
        if !room.owners.iter().any(|m| m == mac) {
            room.owners.push(mac.to_string());
        }
        let prefs = self.preferred.entry(mac.to_string()).or_default();
        if !prefs.contains(&id) {
            prefs.push(id);
        }
        self
    }

    /// Adds room `name` to the preferred rooms of device `mac` without registering
    /// ownership (e.g. the most frequently visited room obtained from background
    /// knowledge, paper §4.1).
    pub fn preferred_room(mut self, mac: &str, name: &str) -> Self {
        let id = self.intern_room(name);
        let prefs = self.preferred.entry(mac.to_string()).or_default();
        if !prefs.contains(&id) {
            prefs.push(id);
        }
        self
    }

    /// Number of access points added so far.
    pub fn num_access_points(&self) -> usize {
        self.access_points.len()
    }

    /// Number of rooms interned so far.
    pub fn num_rooms(&self) -> usize {
        self.rooms.len()
    }

    /// Finalizes the space, validating that it has at least one access point, that
    /// every access point covers at least one room, and that no duplicate definitions
    /// were recorded.
    pub fn build(self) -> Result<Space, SpaceError> {
        if let Some(err) = self.errors.into_iter().next() {
            return Err(err);
        }
        let regions: Vec<Region> = self
            .access_points
            .iter()
            .zip(self.coverage)
            .map(|(ap, rooms)| Region::new(ap.id, rooms))
            .collect();
        Space::from_parts(
            self.name,
            self.rooms,
            self.room_names,
            self.access_points,
            self.ap_names,
            regions,
            self.preferred,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_rooms_across_access_points() {
        let space = SpaceBuilder::new("b")
            .add_access_point("wap1", &["a", "b"])
            .add_access_point("wap2", &["b", "c"])
            .build()
            .unwrap();
        assert_eq!(space.num_rooms(), 3);
        assert_eq!(space.num_access_points(), 2);
        let b = space.room_id("b").unwrap();
        assert_eq!(space.regions_of_room(b).len(), 2);
    }

    #[test]
    fn duplicate_access_point_is_rejected() {
        let err = SpaceBuilder::new("b")
            .add_access_point("wap1", &["a"])
            .add_access_point("wap1", &["b"])
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::DuplicateAccessPoint("wap1".into()));
    }

    #[test]
    fn empty_space_is_rejected() {
        let err = SpaceBuilder::new("b").build().unwrap_err();
        assert_eq!(err, SpaceError::EmptySpace);
    }

    #[test]
    fn empty_coverage_is_rejected() {
        let err = SpaceBuilder::new("b")
            .add_access_point("wap1", &[])
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::EmptyCoverage("wap1".into()));
    }

    #[test]
    fn room_owner_registers_ownership_and_preference() {
        let space = SpaceBuilder::new("b")
            .add_access_point("wap1", &["office", "lab"])
            .room_owner("office", "aa:bb")
            .build()
            .unwrap();
        let office = space.room_id("office").unwrap();
        assert_eq!(space.room(office).owners, ["aa:bb"]);
        assert_eq!(space.preferred_rooms("aa:bb"), &[office]);
    }

    #[test]
    fn preferred_room_is_idempotent() {
        let space = SpaceBuilder::new("b")
            .add_access_point("wap1", &["office"])
            .preferred_room("aa:bb", "office")
            .preferred_room("aa:bb", "office")
            .build()
            .unwrap();
        assert_eq!(space.preferred_rooms("aa:bb").len(), 1);
    }

    #[test]
    fn room_types_can_be_set_before_or_after_coverage() {
        let space = SpaceBuilder::new("b")
            .room_type("kitchen", RoomType::Public)
            .add_access_point("wap1", &["kitchen", "office"])
            .room_type("office", RoomType::Private)
            .build()
            .unwrap();
        assert!(space.is_public(space.room_id("kitchen").unwrap()));
        assert!(!space.is_public(space.room_id("office").unwrap()));
    }

    #[test]
    fn counters_track_progress() {
        let builder = SpaceBuilder::new("b")
            .add_access_point("wap1", &["a", "b"])
            .add_access_point("wap2", &["c"]);
        assert_eq!(builder.num_access_points(), 2);
        assert_eq!(builder.num_rooms(), 3);
    }
}
