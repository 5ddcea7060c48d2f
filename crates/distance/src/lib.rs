//! Semantic distance — the paper's central concept (§3.1).
//!
//! Semantic distance quantifies the user's intuition about how related two
//! files are, inferred purely from reference behavior. This crate
//! implements:
//!
//! * the three distance definitions of §3.1.1 — temporal (Definition 1),
//!   sequence-based (Definition 2), and lifetime-based (Definition 3, the
//!   one SEER uses);
//! * data reduction from event distances to file distances via the
//!   geometric mean (§3.1.2; arithmetic mean available for ablation);
//! * the practical approximation heuristic (§3.1.3): only the `n = 20`
//!   closest neighbors per file are stored, updates are limited to files
//!   within a window of `M = 100` references, larger values are compensated
//!   by inserting `M`, and replacement follows the paper's priority rule
//!   (deletion-marked files, then the largest distance with random
//!   tie-breaking, then aging);
//! * per-process reference histories with fork inheritance and exit
//!   merging (§4.7), and delayed removal of deleted files (§4.8).
//!
//! The entry point is [`DistanceEngine`], a
//! [`seer_observer::ReferenceSink`] that consumes the observer's cleaned
//! reference stream and maintains a [`NeighborTable`].

#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod exact;
pub mod history;
pub mod reduction;
pub mod table;

pub use config::{DistanceConfig, DistanceKind, ReductionKind};
pub use engine::{DistanceEngine, EngineSnapshot as DistanceSnapshot};
pub use table::{NeighborEntry, NeighborTable, TableDirty, TableSnapshot};
