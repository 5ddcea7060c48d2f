//! Clustering thresholds and weights.

use serde::{Deserialize, Serialize};

/// Configuration for the clustering algorithm (§3.3.2, §3.3.3).
///
/// The two thresholds satisfy `kn > kf`: smaller thresholds are more
/// lenient, so the lower `kf` lets more-distant relationships overlap
/// clusters without combining them. The paper defers concrete values to
/// the dissertation's parameter search (§4.9); the defaults here come from
/// our own search over the synthetic workloads (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Near threshold: pairs sharing at least this many neighbors have
    /// their clusters combined.
    pub kn: f64,
    /// Far threshold: pairs sharing at least this many (but fewer than
    /// `kn`) are inserted into each other's clusters.
    pub kf: f64,
    /// Weight applied to directory distance before subtracting it from the
    /// shared-neighbor count (§3.3.3).
    pub directory_weight: f64,
    /// Investigator relations at or above this strength force files into
    /// one cluster regardless of other evidence (§3.3.3).
    pub force_strength: f64,
    /// Whether files with no qualifying relationships appear as singleton
    /// clusters in the result.
    pub include_singletons: bool,
}

seer_trace::codec_struct!(ClusterConfig {
    kn,
    kf,
    directory_weight,
    force_strength,
    include_singletons,
});

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        // Chosen by the `tune_params` sweep over the calibrated machine
        // workloads (perfect purity and cohesion on both light and heavy
        // machines); see EXPERIMENTS.md.
        ClusterConfig {
            kn: 3.0,
            kf: 2.0,
            directory_weight: 2.0,
            force_strength: 100.0,
            include_singletons: true,
        }
    }
}

impl ClusterConfig {
    /// Validates the threshold ordering invariant `kn > kf > 0`.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.kn > self.kf && self.kf > 0.0 && self.directory_weight >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ClusterConfig::default().is_valid());
    }

    #[test]
    fn inverted_thresholds_are_invalid() {
        let c = ClusterConfig {
            kn: 1.0,
            kf: 5.0,
            ..ClusterConfig::default()
        };
        assert!(!c.is_valid());
        let c = ClusterConfig {
            kn: 5.0,
            kf: 0.0,
            ..ClusterConfig::default()
        };
        assert!(!c.is_valid());
    }

    #[test]
    fn serde_round_trip() {
        let c = ClusterConfig::default();
        let json = serde_json::to_string(&c).expect("serialize");
        let back: ClusterConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }
}
