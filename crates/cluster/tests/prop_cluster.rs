//! Property tests for the clustering algorithm's invariants.

use proptest::prelude::*;
use seer_cluster::{cluster_from_counts, ClusterConfig, UnionFind};
use seer_trace::FileId;

fn pairs_strategy(files: u32, len: usize) -> impl Strategy<Value = Vec<(FileId, FileId, f64)>> {
    prop::collection::vec((0..files, 0..files, 0.0f64..8.0), 0..len).prop_map(|v| {
        v.into_iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, c)| (FileId(a), FileId(b), c))
            .collect()
    })
}

proptest! {
    /// Every file in the universe appears in at least one cluster, and
    /// membership indexes are consistent with member lists.
    #[test]
    fn coverage_and_index_consistency(pairs in pairs_strategy(20, 40)) {
        let universe: Vec<FileId> = (0..20).map(FileId).collect();
        let config = ClusterConfig::default();
        let r = cluster_from_counts(&pairs, &universe, &config);
        for &f in &universe {
            prop_assert!(!r.clusters_of(f).is_empty(), "{f:?} lost");
            for &cid in r.clusters_of(f) {
                prop_assert!(r.cluster(cid).contains(f));
            }
        }
        for (i, c) in r.clusters.iter().enumerate() {
            for &f in &c.files {
                prop_assert!(
                    r.clusters_of(f).iter().any(|cid| cid.index() == i),
                    "member list and index disagree for {f:?}"
                );
            }
        }
    }

    /// Phase one respects union-find semantics: any two files connected by
    /// a chain of ≥ kn pairs share a cluster.
    #[test]
    fn strong_pairs_imply_shared_cluster(pairs in pairs_strategy(15, 30)) {
        let config = ClusterConfig::default();
        let r = cluster_from_counts(&pairs, &[], &config);
        let mut uf = UnionFind::new();
        for &(a, b, c) in &pairs {
            if c >= config.kn {
                uf.union(a, b);
            }
        }
        let mut files: Vec<FileId> = pairs.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        files.sort_unstable();
        files.dedup();
        for (i, &a) in files.iter().enumerate() {
            for &b in &files[i + 1..] {
                if uf.same(a, b) {
                    let ca = r.clusters_of(a);
                    let cb = r.clusters_of(b);
                    prop_assert!(
                        ca.iter().any(|x| cb.contains(x)),
                        "{a:?} and {b:?} chained by strong pairs but share no cluster"
                    );
                }
            }
        }
    }

    /// Weak pairs (below kf) in isolation never connect two files.
    #[test]
    fn weak_pairs_do_nothing(n in 2u32..10) {
        let config = ClusterConfig::default();
        let pairs: Vec<_> = (1..n)
            .map(|i| (FileId(0), FileId(i), config.kf - 0.5))
            .collect();
        let universe: Vec<FileId> = (0..n).map(FileId).collect();
        let r = cluster_from_counts(&pairs, &universe, &config);
        prop_assert_eq!(r.len(), n as usize, "all singletons");
    }

    /// Overlap insertions never *merge* clusters: the number of clusters
    /// is determined by phase one (plus dedup of identical member sets).
    #[test]
    fn overlap_never_reduces_below_phase_one_groups(pairs in pairs_strategy(12, 25)) {
        let config = ClusterConfig::default();
        let r = cluster_from_counts(&pairs, &[], &config);
        let mut uf = UnionFind::new();
        for &(a, b, c) in &pairs {
            uf.insert(a);
            uf.insert(b);
            if c >= config.kn {
                uf.union(a, b);
            }
        }
        let phase_one = uf.groups().len();
        prop_assert!(
            r.len() <= phase_one,
            "clusters {} exceed phase-one groups {phase_one}",
            r.len()
        );
    }
}
