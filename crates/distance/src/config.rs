//! Distance-engine configuration and the paper's constants.

use serde::{Deserialize, Serialize};

/// Which semantic-distance definition to use (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceKind {
    /// Definition 1: elapsed wall-clock time between references (in
    /// seconds). Flawed by the disparity between human and computer time
    /// scales; kept for ablation.
    Temporal,
    /// Definition 2: number of intervening references to other files.
    Sequence,
    /// Definition 3: zero while the earlier file is still open, otherwise
    /// the number of intervening opens including the later one. SEER's
    /// production measure.
    Lifetime,
}

/// How multiple event distances reduce to one file distance (§3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReductionKind {
    /// Arithmetic mean: simple but lets one large distance swamp small
    /// ones (1, 1, 1498 → 500); kept for ablation.
    Arithmetic,
    /// Geometric mean: gives small distances the significance they deserve.
    /// SEER's production reduction. Computed over `1 + d` so zero
    /// distances are well-defined.
    Geometric,
}

/// Configuration for a [`crate::DistanceEngine`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistanceConfig {
    /// Active distance definition.
    pub kind: DistanceKind,
    /// Active reduction.
    pub reduction: ReductionKind,
    /// Neighbors stored per file (`n = 20` in the paper, §3.1.3).
    pub n_neighbors: usize,
    /// Update window: only files within this many references of the
    /// current one have their distances updated (`M = 100`, §3.1.3).
    pub window_m: u64,
    /// Whether references are tracked per process (§4.7). Disabling merges
    /// all processes into one stream, reproducing the spurious-relationship
    /// problem the paper describes; for ablation.
    pub per_process: bool,
    /// The footnote-1 alternative: elide repeated references when counting
    /// intervening opens, so {A, C, C, C, B} puts A→B at distance 1 rather
    /// than 3. SEER "chose not to do this partly for efficiency, and partly
    /// to capture the phenomenon of intensive work on a single project";
    /// implemented for ablation.
    pub elide_repeats: bool,
    /// A neighbor not updated for this many engine references becomes
    /// replaceable by aging (§3.1.3).
    pub aging_refs: u64,
    /// Deleted files are purged only after this many further deletions
    /// (§4.8's delayed removal).
    pub deletion_delay: u64,
    /// Seed for random tie-breaking in the replacement policy.
    pub seed: u64,
}

seer_trace::codec_tags!(DistanceKind {
    Temporal = 0,
    Sequence = 1,
    Lifetime = 2,
});

seer_trace::codec_tags!(ReductionKind {
    Arithmetic = 0,
    Geometric = 1,
});

seer_trace::codec_struct!(DistanceConfig {
    kind,
    reduction,
    n_neighbors,
    window_m,
    per_process,
    elide_repeats,
    aging_refs,
    deletion_delay,
    seed,
});

impl Default for DistanceConfig {
    fn default() -> DistanceConfig {
        DistanceConfig {
            kind: DistanceKind::Lifetime,
            reduction: ReductionKind::Geometric,
            n_neighbors: 20,
            window_m: 100,
            per_process: true,
            elide_repeats: false,
            aging_refs: 20_000,
            deletion_delay: 50,
            seed: 0x5eed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = DistanceConfig::default();
        assert_eq!(c.kind, DistanceKind::Lifetime);
        assert_eq!(c.reduction, ReductionKind::Geometric);
        assert_eq!(c.n_neighbors, 20, "n = 20 (§3.1.3)");
        assert_eq!(c.window_m, 100, "M = 100 (§3.1.3)");
        assert!(c.per_process, "per-process streams are essential (§4.7)");
    }

    #[test]
    fn serde_round_trip() {
        let c = DistanceConfig::default();
        let json = serde_json::to_string(&c).expect("serialize");
        let back: DistanceConfig = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.n_neighbors, c.n_neighbors);
        assert_eq!(back.kind, c.kind);
    }
}
