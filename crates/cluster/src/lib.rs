//! Project clustering — SEER's modified Jarvis–Patrick algorithm (§3.3).
//!
//! Pairwise semantic distances become *projects* through a shared-neighbor
//! clustering algorithm with the properties the problem demands (§3.3.1):
//! linear time and storage, tolerance of partial information, no reliance
//! on a metric, and — unusually — overlapping clusters, because a compiler
//! belongs to every project that uses it.
//!
//! The variation on Jarvis & Patrick (§3.3.2): candidate pairs come only
//! from the stored n-neighbor lists (O(N·n) instead of O(N²)), and two
//! thresholds govern the outcome for a pair sharing `x` neighbors:
//!
//! | relationship      | action                                   |
//! |-------------------|------------------------------------------|
//! | `kn ≤ x`          | clusters combined into one               |
//! | `kf ≤ x < kn`     | files inserted, but clusters not combined |
//! | `x < kf`          | no action                                |
//!
//! External information (§3.3.3) — directory distance and investigator
//! relations — adjusts the shared-neighbor count directly rather than the
//! distances, sidestepping semantic distance's asymmetry.

#![warn(missing_docs)]

pub mod algorithm;
pub mod config;
pub mod relation;
pub mod result;
pub mod shared;
pub mod unionfind;

pub use algorithm::{
    cluster_files, cluster_files_excluding, cluster_from_counts, cluster_sets, ClusterRun,
    PairCountCache,
};
pub use config::ClusterConfig;
pub use relation::ExternalRelation;
pub use result::{Cluster, ClusterId, Clustering};
pub use shared::SharedNeighborCounter;
pub use unionfind::UnionFind;
