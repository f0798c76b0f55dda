//! The hand-built space the directed tests share: three access points with
//! overlapping rooms, a public lounge and three owned offices.

use locater::prelude::*;

pub fn space() -> Space {
    SpaceBuilder::new("fixture")
        .add_access_point("wap0", &["office-a", "office-b", "lounge"])
        .add_access_point("wap1", &["lounge", "lab", "office-c"])
        .add_access_point("wap2", &["office-c", "office-d"])
        .room_type("lounge", RoomType::Public)
        .room_owner("office-a", "alice")
        .room_owner("office-b", "bob")
        .room_owner("office-c", "carol")
        .build()
        .unwrap()
}
