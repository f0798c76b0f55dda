//! **A LOCATER answer is a pure function of the acked connectivity log.**
//! One test target holds every suite that proves a part of it, a module
//! each: [`shard`], [`service`], [`lazy_model`], [`compaction`],
//! [`wal_recovery`] and [`affinity_index`] (the fine step against the naive
//! §4 reference). `docs/ARCHITECTURE.md`, "One equivalence target", maps
//! each invariant to its module and covering rows.
//!
//! The seeded op generator and its two-part oracle are `support/twin.rs`.
//! Each row of its [`COVERING`](support::twin::COVERING) table, a point of
//! the shards × fine mode × cache × durability × entry point space, has one
//! row test below; each module holds the directed tests of its invariant
//! and twin tests that name the rows it rides on. A row runs once per test
//! process, however many tests check it.
//! Run one part with a filter, e.g.
//! `cargo test -q --test equivalence wal_recovery::`.

mod affinity_index;
mod compaction;
mod lazy_model;
mod service;
mod shard;
mod support;
mod wal_recovery;

use support::twin;

/// One test per [`COVERING`](twin::COVERING) row, `covering_row_n` for row
/// `Rn`: a row without its test, or a test without its row, fails the build.
macro_rules! row_tests {
    ($($test:ident)*) => { row_tests!(@ 0; $($test)*); };
    (@ $row:expr; $test:ident $($rest:ident)*) => {
        #[test]
        fn $test() {
            twin::check($row);
        }
        row_tests!(@ $row + 1; $($rest)*);
    };
    (@ $rows:expr;) => {
        const _: () = assert!(
            $rows == twin::COVERING.len(),
            "every COVERING row needs exactly one row test"
        );
    };
}

row_tests!(covering_row_0 covering_row_1 covering_row_2 covering_row_3 covering_row_4 covering_row_5);
