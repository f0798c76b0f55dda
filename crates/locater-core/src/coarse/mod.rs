//! Coarse-grained localization (paper §3): missing-value detection and repair.
//!
//! For a query `Q = (d_i, t_q)` whose time falls in a *gap* of the device's
//! connectivity log, the coarse localizer decides:
//!
//! 1. whether the device was **inside or outside** the building during the gap, and
//! 2. if inside, **which region** (AP coverage area) it was in,
//!
//! using only the device's own historical gaps from the last `N` weeks. Historical
//! gaps are first labelled by **bootstrapping heuristics** driven by the gap duration
//! thresholds `τ_l` / `τ_h` (and `τ'_l` / `τ'_h` at the region level); the remaining,
//! ambiguous gaps are labelled by the **semi-supervised self-training** loop of
//! Algorithm 1 ([`locater_learn::SelfTrainingClassifier`]); and the classifier trained
//! in the last round labels the query gap.

mod bootstrap;
mod features;
mod localizer;

pub use bootstrap::{bootstrap_labels, BootstrapLabel, BootstrapSummary};
pub use features::{connection_densities, connection_density, GapFeatures, NUM_GAP_FEATURES};
pub use localizer::{
    CoarseConfig, CoarseLabel, CoarseLocalizer, CoarseMethod, CoarseOutcome, DeviceCoarseModel,
};
