//! Property tests for the clustering algorithm's invariants.

use proptest::prelude::*;
use seer_cluster::{
    cluster_from_counts, cluster_sets, ClusterConfig, Clustering, PairCountCache,
    SharedNeighborCounter, UnionFind,
};
use seer_distance::{NeighborTable, ReductionKind};
use seer_trace::{FileId, PathTable};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

fn pairs_strategy(files: u32, len: usize) -> impl Strategy<Value = Vec<(FileId, FileId, f64)>> {
    prop::collection::vec((0..files, 0..files, 0.0f64..8.0), 0..len).prop_map(|v| {
        v.into_iter()
            .filter(|(a, b, _)| a != b)
            .map(|(a, b, c)| (FileId(a), FileId(b), c))
            .collect()
    })
}

/// Files the table histories below draw from.
const FILES: u32 = 24;

/// One step of a random table history.
#[derive(Debug, Clone)]
enum Step {
    /// Fold these `from → to` observations, then tick the table clock.
    Observe(Vec<(u32, u32, f64)>),
    /// Delete a file; its mark comes due two deletions later.
    Delete(u32),
    /// Flip whether a file is excluded from clustering.
    Flip(u32),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let observe =
        || prop::collection::vec((0..FILES, 0..FILES, 0.0f64..8.0), 1..12).prop_map(Step::Observe);
    prop_oneof![
        observe(),
        observe(),
        observe(),
        (0..FILES).prop_map(Step::Delete),
        (0..FILES).prop_map(Step::Flip),
    ]
}

/// The neighbor set of every file, built naively from the table's
/// snapshot rows: the file itself plus its stored targets, less purged
/// and excluded files, sorted; `None` for a file with no row or one
/// that is excluded.
fn reference_sets(table: &NeighborTable, exclude: &HashSet<FileId>) -> Vec<Option<Vec<FileId>>> {
    let snap = table.snapshot();
    let mut sets = vec![None; FILES as usize];
    for (f, entries) in &snap.rows {
        if exclude.contains(f) {
            continue;
        }
        let mut set: Vec<FileId> = std::iter::once(*f)
            .chain(entries.iter().map(|e| e.to))
            .filter(|g| !exclude.contains(g) && !snap.dead.contains(g))
            .collect();
        set.sort_unstable();
        set.dedup();
        sets[f.index()] = Some(set);
    }
    sets
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Through observations, deletions past the delay (so files purge),
    /// and exclusion flips, the one-pass sets equal the naive reference
    /// at every step, and the incremental recluster — cache carried from
    /// step to step — equals a full recount of the same sets, pair count
    /// for pair count.
    #[test]
    fn incremental_sets_track_the_table(steps in prop::collection::vec(step_strategy(), 1..40)) {
        let mut table = NeighborTable::new(4, ReductionKind::Geometric, 16, 2, 7);
        let mut paths = PathTable::new();
        for f in 0..FILES {
            paths.intern(&format!("/p{}/f{f}.c", f % 3));
        }
        let config = ClusterConfig {
            directory_weight: 0.5,
            ..ClusterConfig::default()
        };
        let mut exclude: HashSet<FileId> = HashSet::new();
        let mut cache: Option<PairCountCache> = None;
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Observe(observations) => {
                    for (from, to, d) in observations {
                        table.observe(FileId(from), FileId(to), d);
                    }
                    table.tick();
                }
                Step::Delete(f) => {
                    table.note_deletion(FileId(f));
                }
                Step::Flip(f) => {
                    if !exclude.remove(&FileId(f)) {
                        exclude.insert(FileId(f));
                    }
                }
            }
            let dirty = table.take_dirty();
            let sets = Arc::new(SharedNeighborCounter::from_table_excluding(&table, &exclude));
            for (f, want) in reference_sets(&table, &exclude).iter().enumerate() {
                prop_assert_eq!(
                    sets.neighbors(FileId(f as u32)),
                    want.as_deref(),
                    "step {}: set of file {}",
                    i,
                    f
                );
            }
            let dirs = paths.directories();
            let inc = cluster_sets(Arc::clone(&sets), dirs, &[], &config, 1, Some(&dirty), &mut cache);
            let mut full_cache = None;
            let full = cluster_sets(sets, dirs, &[], &config, 1, None, &mut full_cache);
            prop_assert_eq!(inc.incremental, i > 0, "step {}", i);
            prop_assert_eq!(&cache, &full_cache, "step {}: pair counts diverged", i);
            prop_assert_eq!(inc.clustering.clusters, full.clustering.clusters, "step {}", i);
        }
    }
}

/// The churn definition `Clustering::churn_from` must reproduce: each
/// file gets a fingerprint hashing the member lists of every cluster
/// holding it, in cluster order, and counts as churned when its
/// fingerprint differs between the two clusterings or it is in only
/// one of them.
fn churn_by_fingerprint(new: &Clustering, old: &Clustering) -> usize {
    let fingerprints = |c: &Clustering| -> HashMap<FileId, u64> {
        (c.all_files().into_iter())
            .map(|f| {
                let mut h = DefaultHasher::new();
                for &id in c.clusters_of(f) {
                    c.cluster(id).files.hash(&mut h);
                }
                (f, h.finish())
            })
            .collect()
    };
    let (old, new) = (fingerprints(old), fingerprints(new));
    let changed_or_new = new.iter().filter(|(f, fp)| old.get(f) != Some(fp)).count();
    let departed = old.keys().filter(|f| !new.contains_key(f)).count();
    changed_or_new + departed
}

/// Up to nine member lists over files below `files`, each up to five
/// draws long: lists may be empty, repeat a file, or share files with
/// other lists (overlapping clusters).
fn member_lists(files: u32) -> impl Strategy<Value = Vec<Vec<FileId>>> {
    prop::collection::vec(
        prop::collection::vec((0..files).prop_map(FileId), 0..6),
        0..10,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The merge-based churn equals the fingerprint definition in both
    /// directions. The successor drops, keeps, or doubles each previous
    /// member list and adds lists of its own, some over files the
    /// previous clustering never held; files held only by dropped lists
    /// depart. An identical copy has no churn.
    #[test]
    fn churn_matches_the_fingerprint_definition(
        old in member_lists(16),
        copies in prop::collection::vec(0usize..3, 9..10),
        added in member_lists(24),
    ) {
        let mut new: Vec<Vec<FileId>> = (old.iter().zip(&copies))
            .flat_map(|(list, &n)| std::iter::repeat_n(list.clone(), n))
            .collect();
        new.extend(added);
        let before = Clustering::from_members(old.clone());
        let after = Clustering::from_members(new);
        prop_assert_eq!(after.churn_from(&before), churn_by_fingerprint(&after, &before));
        prop_assert_eq!(before.churn_from(&after), churn_by_fingerprint(&before, &after));
        prop_assert_eq!(Clustering::from_members(old).churn_from(&before), 0);
    }
}
