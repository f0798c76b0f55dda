//! Rooms and room metadata.

use crate::ids::RoomId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification of a room used by the fine-grained localization weights (paper §2).
///
/// * `Public` rooms (`R_pb`) are shared facilities — meeting rooms, lounges, kitchens,
///   food courts — accessible to many users, and receive the `w_pb` room-affinity
///   weight unless the room is one of the device's preferred rooms.
/// * `Private` rooms (`R_pr`) are restricted/owned spaces such as personal offices and
///   receive the lowest weight `w_pr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoomType {
    /// Shared facility accessible to multiple users.
    Public,
    /// Room restricted to / owned by specific users.
    #[default]
    Private,
}

impl RoomType {
    /// `true` for [`RoomType::Public`].
    #[inline]
    pub const fn is_public(self) -> bool {
        matches!(self, RoomType::Public)
    }
}

impl fmt::Display for RoomType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoomType::Public => write!(f, "public"),
            RoomType::Private => write!(f, "private"),
        }
    }
}

/// A room of the building (`r_j ∈ R` in the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Room {
    /// Dense identifier of the room.
    pub id: RoomId,
    /// Human-readable room name, e.g. `"2065"` or `"kitchen-2"`. Unique within a space.
    pub name: String,
    /// Whether the room is a shared (public) or restricted (private) space.
    pub room_type: RoomType,
    /// MAC addresses of devices whose owner "owns" this room (e.g. the occupant of a
    /// personal office). Used as space metadata for preferred rooms and for the
    /// metadata-based fine baseline.
    pub owners: Vec<String>,
}

impl Room {
    /// Creates a new private, unowned room.
    pub fn new(id: RoomId, name: impl Into<String>) -> Self {
        Self {
            id,
            name: name.into(),
            room_type: RoomType::Private,
            owners: Vec::new(),
        }
    }

    /// `true` if the room is a public/shared space.
    #[inline]
    pub fn is_public(&self) -> bool {
        self.room_type.is_public()
    }
}

impl fmt::Display for Room {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.room_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_room_defaults_to_private_and_unowned() {
        let room = Room::new(RoomId::new(0), "2065");
        assert_eq!(room.room_type, RoomType::Private);
        assert!(!room.is_public());
        assert!(room.owners.is_empty());
    }

    #[test]
    fn room_type_display_and_default() {
        assert_eq!(RoomType::Public.to_string(), "public");
        assert_eq!(RoomType::Private.to_string(), "private");
        assert_eq!(RoomType::default(), RoomType::Private);
        assert!(RoomType::Public.is_public());
        assert!(!RoomType::Private.is_public());
    }

    #[test]
    fn room_display_includes_type() {
        let room = Room::new(RoomId::new(2), "lounge");
        assert_eq!(room.to_string(), "lounge (private)");
    }
}
