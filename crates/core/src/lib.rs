//! SEER's core: correlator, project ranking, and hoard management (§2).
//!
//! This crate assembles the pipeline the paper describes — observer →
//! correlator (semantic distance + clustering) → hoard selection — behind
//! one entry point, [`SeerEngine`]:
//!
//! ```text
//! TraceEvent → Observer → Reference → Correlator ─┬─ DistanceEngine → NeighborTable
//!                                                 └─ ActivityTracker
//!                       clustering (+ investigator relations)
//!                       → project ranking → whole-project hoard selection
//! ```
//!
//! The hoard managers live here too: SEER's cluster-based manager, the
//! strict-LRU baseline, and the CODA-inspired priority schemes the paper's
//! simulations compared against (§5.1.2).

#![warn(missing_docs)]

pub mod activity;
pub mod config;
pub mod correlator;
pub mod engine;
pub mod manager;
pub mod persist;
pub mod rankers;
pub mod replay;

pub use activity::ActivityTracker;
pub use config::SeerConfig;
pub use correlator::Correlator;
pub use engine::{EngineTelemetry, EvalInput, ReclusterInput, SeerEngine};
pub use manager::{select_hoard, HoardSelection};
pub use persist::{PersistError, SeerSnapshot};
pub use rankers::{CodaInspiredRanker, HoardRanker, LruRanker, RankContext, SeerRanker};
pub use replay::Replayer;
pub use seer_cluster::{ClusterRun, Clustering, PairCountCache};
pub use seer_distance::TableDirty;
