//! Adaptive data placement: online hot/cold migration.
//!
//! The paper's §5 layouts are computed offline from a frequency census
//! and never move data again. This module closes the observation→action
//! loop instead: [`AdaptiveDevice`] keeps exponentially-decayed
//! per-block access counters (with a max-heap yielding the hottest
//! blocks) and migrates hot blocks toward the cheap center cylinders
//! during idle windows, through a block-granular indirection table,
//! billing every migration I/O through the wrapped device's normal
//! service path.

mod adaptive;
mod frequency;

pub use adaptive::{AdaptiveDevice, MigrationStats, BLOCK_SECTORS};
