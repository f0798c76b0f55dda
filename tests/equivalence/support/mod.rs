//! What the equivalence modules share: the hand-built space, a seeded LCG,
//! scratch directories, the naive §4 reference and the seeded twin harness.
//! The space and the scratch directories are also the chaos and stress
//! suites', so they stay in `tests/support/`.

#[path = "../../support/fixture.rs"]
pub mod fixture;
pub mod lcg;
pub mod paper;
#[path = "../../support/scratch.rs"]
pub mod scratch;
pub mod twin;

use locater::store::{Durability, FsyncPolicy};
use std::path::Path;

/// The devices of the directed compaction and WAL traces.
pub const MACS: [&str; 4] = [
    "aa:00:00:00:00:01",
    "aa:00:00:00:00:02",
    "aa:00:00:00:00:03",
    "aa:00:00:00:00:04",
];

/// A WAL in `dir` that syncs every append.
pub fn durability(dir: &Path) -> Durability {
    Durability::new(dir).with_fsync(FsyncPolicy::Always)
}
