//! # locater-space
//!
//! The *space model* substrate of the LOCATER reproduction (paper §2, "Space Model").
//!
//! LOCATER localizes devices at three semantic granularities:
//!
//! * **Building** — inside (`b_in`) or outside (`b_out`) the building.
//! * **Region** — the area covered by the network connectivity of one WiFi access
//!   point. There is exactly one region per access point (`|G| = |WAP|`) and regions
//!   can (and usually do) overlap because several APs can cover the same room.
//! * **Room** — the finest granularity. A room can belong to several regions.
//!
//! Rooms carry metadata used by the fine-grained disambiguation step:
//!
//! * a [`RoomType`] — `Public` (conference rooms, lounges, kitchens, …) or `Private`
//!   (personal offices, restricted areas);
//! * optionally an *owner* and, per device, a set of *preferred rooms*
//!   (`R_pf(d)` in the paper) such as the office of a device's owner.
//!
//! The central type is [`Space`], an immutable, cheaply cloneable description of one
//! building, built through [`SpaceBuilder`]. All entities are interned to dense
//! integer ids ([`RoomId`], [`RegionId`], [`AccessPointId`]) so that the cleaning
//! algorithms never touch strings on their hot paths.
//!
//! ```
//! use locater_space::{SpaceBuilder, RoomType};
//!
//! let space = SpaceBuilder::new("DBH")
//!     .add_access_point("wap1", &["2002", "2004", "2019"])
//!     .add_access_point("wap2", &["2004", "2057", "2059", "2061"])
//!     .room_type("2004", RoomType::Public)
//!     .preferred_room("aa:bb:cc:00:00:01", "2061")
//!     .build()
//!     .unwrap();
//!
//! let wap2 = space.ap_id("wap2").unwrap();
//! let region = wap2.region();
//! assert_eq!(space.rooms_in_region(region).len(), 4);
//! // room 2004 is covered by both APs, i.e. it belongs to two overlapping regions.
//! let r2004 = space.room_id("2004").unwrap();
//! assert_eq!(space.regions_of_room(r2004).len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access_point;
mod builder;
mod error;
mod ids;
mod metadata;
mod region;
mod room;
mod space;

pub use access_point::AccessPoint;
pub use builder::SpaceBuilder;
pub use error::SpaceError;
pub use ids::{AccessPointId, RegionId, RoomId};
pub use metadata::SpaceMetadata;
pub use region::Region;
pub use room::{Room, RoomType};
pub use space::{Space, MAX_ACCESS_POINTS};
