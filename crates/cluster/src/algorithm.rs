//! The two-phase combine/overlap clustering algorithm (§3.3.2, §3.3.3).
//!
//! One recluster runs over dense data throughout: the neighbor sets are
//! built from the distance table in one pass into one flat array
//! ([`SharedNeighborCounter`]), each row's shared counts come from
//! stamping its set once and counting every listed file's set against
//! the stamp, directory distance is an integer walk in the path table's
//! directory tree ([`DirTree`]), and the two phases run over dense file
//! indices. Pair counts are stored in one flat array aligned with the
//! sets, which is also the incremental baseline ([`PairCountCache`]).
//! Every entry point — [`cluster_files_excluding`], and the engine's
//! in-place and detached reclusters — reaches [`cluster_sets`].

use crate::config::ClusterConfig;
use crate::relation::ExternalRelation;
use crate::result::Clustering;
use crate::shared::{SharedNeighborCounter, Stamp};
use crate::unionfind::DenseUnionFind;
use seer_distance::{NeighborTable, TableDirty};
use seer_trace::{DirTree, FileId, PathTable};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-relation adjusted pair counts carried between consecutive
/// reclusterings, plus the neighbor sets and configuration they were
/// computed under.
///
/// The counts sit in one flat array aligned with the sets: slot `k` of
/// row `a` holds the count of pair `(a, b)` for the set's `k`-th member
/// `b` (a row's own slot is unused). [`cluster_sets`] reuses them when
/// the configuration still matches and the caller supplies the rows
/// whose neighbor membership changed since the cache was built; only
/// pairs touching a changed set are then recounted. The cache holds
/// *raw* adjusted counts — investigator relations are overlaid per run
/// and never persisted, so a relation added or removed between runs
/// cannot poison the baseline. The sets are shared, not copied, with the
/// input they came from.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PairCountCache {
    sets: Arc<SharedNeighborCounter>,
    counts: Vec<f64>,
    config: ClusterConfig,
}

impl PairCountCache {
    /// The cached count of pair `(a, b)`, if it is a candidate pair.
    fn get(&self, a: FileId, b: FileId) -> Option<f64> {
        self.sets.pair_slot(a, b).map(|k| self.counts[k])
    }
}

/// Clusters from explicit candidate pairs with precomputed (already
/// adjusted) shared-neighbor counts.
///
/// This is the algorithm core the clustering pipeline runs; it is public
/// so tests and benches can drive it with literal inputs such as the
/// paper's Table 2 example.
///
/// Phase one combines the clusters of every pair with `count ≥ kn`. Phase
/// two inserts the files of every pair with `kf ≤ count < kn` into each
/// other's clusters without combining them. `universe` supplies the files
/// that should appear even if no pair mentions them (singletons).
#[must_use]
pub fn cluster_from_counts(
    pairs: &[(FileId, FileId, f64)],
    universe: &[FileId],
    config: &ClusterConfig,
) -> Clustering {
    let mut files: Vec<FileId> = universe.to_vec();
    files.extend(pairs.iter().flat_map(|&(a, b, _)| [a, b]));
    files.sort_unstable();
    files.dedup();
    let index = |f: FileId| files.binary_search(&f).expect("every endpoint is listed") as u32;
    let dense: Vec<(u32, u32, f64)> = pairs
        .iter()
        .filter(|p| acts(p.2, config))
        .map(|&(a, b, count)| (index(a), index(b), count))
        .collect();
    combine_and_overlap(&files, &dense, config)
}

/// Whether a pair with `count` takes part in either phase.
fn acts(count: f64, config: &ClusterConfig) -> bool {
    count >= config.kn || count >= config.kf
}

/// Phases one and two over a dense universe: `files` ascending, and
/// each pair `(a, b, count)` naming its files by index into `files`.
/// Only pairs that [`acts`] accepts need be listed, in any order: the
/// phase-one partition and the phase-two insertions do not depend on
/// it, and [`Clustering::from_members`] sorts what they produce.
fn combine_and_overlap(
    files: &[FileId],
    pairs: &[(u32, u32, f64)],
    config: &ClusterConfig,
) -> Clustering {
    // Phase one: combine.
    let mut forest = DenseUnionFind::new(files.len());
    for &(a, b, count) in pairs {
        if count >= config.kn {
            forest.union(a, b);
        }
    }
    // Materialize phase-one groups.
    let mut group_of_root = vec![u32::MAX; files.len()];
    let mut group = vec![0u32; files.len()];
    let mut members: Vec<Vec<FileId>> = Vec::new();
    for (i, &f) in files.iter().enumerate() {
        let root = forest.find(i as u32) as usize;
        if group_of_root[root] == u32::MAX {
            group_of_root[root] = members.len() as u32;
            members.push(Vec::new());
        }
        group[i] = group_of_root[root];
        members[group[i] as usize].push(f);
    }
    // Phase two: overlap. Each file of a mid-strength pair joins the other
    // file's cluster, but the clusters stay distinct. Two mid-strength
    // pairs sharing a file may insert it into one group twice;
    // `Clustering::from_members` keeps each membership once.
    for &(a, b, count) in pairs {
        if count >= config.kf && count < config.kn {
            let (ga, gb) = (group[a as usize], group[b as usize]);
            if ga != gb {
                members[gb as usize].push(files[a as usize]);
                members[ga as usize].push(files[b as usize]);
            }
        }
    }
    if !config.include_singletons {
        members.retain(|m| m.len() > 1);
    }
    Clustering::from_members(members)
}

/// Full clustering pipeline: shared-neighbor counts from the distance
/// table, adjusted by directory distance and external relations (§3.3.3),
/// then the two-phase algorithm.
#[must_use]
pub fn cluster_files(
    table: &NeighborTable,
    paths: &PathTable,
    relations: &[ExternalRelation],
    config: &ClusterConfig,
) -> Clustering {
    cluster_files_excluding(table, paths, relations, &HashSet::new(), config)
}

/// [`cluster_files`] with an exclusion set: files in `exclude`
/// (frequently-referenced, critical — the always-hoard set) take no part
/// in clustering (§4.2).
#[must_use]
pub fn cluster_files_excluding(
    table: &NeighborTable,
    paths: &PathTable,
    relations: &[ExternalRelation],
    exclude: &HashSet<FileId>,
    config: &ClusterConfig,
) -> Clustering {
    let sets = SharedNeighborCounter::from_table_excluding(table, exclude);
    cluster_sets(
        Arc::new(sets),
        paths.directories(),
        relations,
        config,
        1,
        None,
        &mut None,
    )
    .clustering
}

/// Outcome of one clustering computation: the assignment plus the wall
/// time each count-phase shard spent, for telemetry.
#[derive(Debug, Clone)]
pub struct ClusterRun {
    /// The computed project assignment.
    pub clustering: Clustering,
    /// Wall time of each shared-neighbor counting shard (one entry per
    /// worker thread actually used).
    pub shard_count_seconds: Vec<Duration>,
    /// When each shard started, relative to entering the clustering
    /// computation — with [`ClusterRun::shard_count_seconds`], enough to
    /// place every shard on a trace timeline.
    pub shard_start_offsets: Vec<Duration>,
    /// Whether the counting phase reused a [`PairCountCache`] and only
    /// recounted dirty pairs (as opposed to a full recount).
    pub incremental: bool,
}

/// The clustering pipeline over flat neighbor sets (built with
/// [`SharedNeighborCounter::from_table_excluding`]): shared-neighbor
/// counts adjusted by directory distance, investigator relations
/// overlaid (§3.3.3), then the two phases. `dirs` is the directory tree
/// of the path table the sets' file ids come from.
///
/// `cache` carries the pre-relation pair counts from the previous call;
/// `dirty` lists the rows whose neighbor membership changed since that
/// call (from [`seer_distance::NeighborTable::take_dirty`], drained when
/// `sets` were built). When the cache is valid — same configuration, no
/// structural change (snapshot restore) — only pairs touching a changed
/// set are recounted: a changed *first* endpoint invalidates its whole
/// row (pairs may have appeared or vanished), a changed *second*
/// endpoint keeps the pair but refreshes its count. Besides the dirty
/// rows, the sets that changed are those holding a file whose exclusion
/// flipped between the cached sets and these, found by scanning both;
/// file deaths arrive pre-folded from the table's purge path. The
/// incremental recount runs on the calling thread.
///
/// Otherwise the counting phase is sharded across `threads` scoped
/// threads. Candidate pairs are directed — pair `(a, b)` originates from
/// `a`'s neighbor row and nowhere else — so partitioning the rows
/// partitions the pairs: each shard stamps into its own array and writes
/// its rows' counts into its own run of the flat count array, in row
/// order, so the counts and the [`Clustering`] are bit-identical
/// regardless of `threads`.
///
/// Either way the result is **bit-identical** to a full recount of the
/// same sets: an unchanged pair reuses a count that identical inputs
/// would reproduce exactly. On return `cache` holds the baseline for the
/// next call.
#[must_use]
pub fn cluster_sets(
    sets: Arc<SharedNeighborCounter>,
    dirs: &DirTree,
    relations: &[ExternalRelation],
    config: &ClusterConfig,
    threads: usize,
    dirty: Option<&TableDirty>,
    cache: &mut Option<PairCountCache>,
) -> ClusterRun {
    let previous = match (dirty, cache.take()) {
        (Some(d), Some(c)) if !d.structural && c.config == *config => Some((d, c)),
        _ => None,
    };
    let (counts, shard_count_seconds, shard_start_offsets, incremental) = match previous {
        Some((d, previous)) => {
            let started = Instant::now();
            let reuse = Reuse {
                dirty: dirty_files(&previous.sets, &sets, d),
                previous,
            };
            let mut counts = vec![0.0; sets.slot_count()];
            count_rows(
                &sets,
                0..sets.rows(),
                dirs,
                config,
                Some(&reuse),
                &mut counts,
            );
            (counts, vec![started.elapsed()], vec![Duration::ZERO], true)
        }
        None => {
            let (counts, secs, offsets) = count_sharded(&sets, dirs, config, threads);
            (counts, secs, offsets, false)
        }
    };
    let baseline = PairCountCache {
        sets,
        counts,
        config: *config,
    };
    let clustering = cluster_counted(&baseline, dirs, relations, config);
    *cache = Some(baseline);
    ClusterRun {
        clustering,
        shard_count_seconds,
        shard_start_offsets,
        incremental,
    }
}

/// The files whose neighbor sets may differ between `old` and `new`: the
/// rows `dirty` names, and every row whose set in `old` or in `new`
/// holds a file whose exclusion flipped between the two. A flipped file
/// leaves (or joins) exactly the sets of the rows listing it, its own
/// included: the old sets hold the newly excluded, the new sets the
/// newly included (§4.2 frequency threshold crossings move both ways).
/// Indexed by file id below `new`'s bound.
fn dirty_files(
    old: &SharedNeighborCounter,
    new: &SharedNeighborCounter,
    dirty: &TableDirty,
) -> Vec<bool> {
    let mut flags = vec![false; new.id_bound()];
    let mut flag = |f: FileId| {
        if let Some(x) = flags.get_mut(f.index()) {
            *x = true;
        }
    };
    for &f in &dirty.rows {
        flag(f);
    }
    let (was, is) = (old.excluded(), new.excluded());
    let (mut i, mut j) = (0usize, 0usize);
    let mut flipped: Vec<FileId> = Vec::new();
    while i < was.len() && j < is.len() {
        match was[i].cmp(&is[j]) {
            std::cmp::Ordering::Less => {
                flipped.push(was[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                flipped.push(is[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    flipped.extend_from_slice(&was[i..]);
    flipped.extend_from_slice(&is[j..]);
    if !flipped.is_empty() {
        for sets in [old, new] {
            for r in 0..sets.rows() {
                if sets.set(r).iter().any(|t| flipped.binary_search(t).is_ok()) {
                    flag(sets.row_file(r));
                }
            }
        }
    }
    flags
}

/// What an incremental run may reuse: the previous run's baseline and
/// the files whose sets may have changed since (see [`dirty_files`]).
struct Reuse {
    previous: PairCountCache,
    dirty: Vec<bool>,
}

impl Reuse {
    /// The previous counts of clean row `a`, whose set is `set`. Slots
    /// align only when the set is unchanged, which a clean row's is (see
    /// [`dirty_files`]; tests assert it); a row whose set moved anyway is
    /// recounted rather than misaligned.
    fn clean_row(&self, a: FileId, set: &[FileId]) -> Option<&[f64]> {
        if self.dirty[a.index()] {
            return None;
        }
        let r = self.previous.sets.row_index(a)?;
        let unchanged = self.previous.sets.set(r) == set;
        debug_assert!(unchanged, "clean row {a:?} moved");
        unchanged.then(|| &self.previous.counts[self.previous.sets.slots(r)])
    }
}

/// Shared-neighbor count of a pair, adjusted by weighted directory
/// distance (§3.3.3: widely-separated directories argue against
/// clustering, subtracted from the shared-neighbor count).
fn adjusted(shared: u32, directory_distance: Option<u32>, config: &ClusterConfig) -> f64 {
    let mut count = f64::from(shared);
    if let Some(dd) = directory_distance {
        count -= config.directory_weight * f64::from(dd);
    }
    count
}

/// Counts every candidate pair of rows `rows` into `out`, which holds
/// exactly those rows' slots. Each row's set is stamped once, then every
/// listed file's set is counted against it. With `reuse`, a clean row
/// keeps its previous count for every clean listed file.
fn count_rows(
    sets: &SharedNeighborCounter,
    rows: Range<usize>,
    dirs: &DirTree,
    config: &ClusterConfig,
    reuse: Option<&Reuse>,
    out: &mut [f64],
) {
    let mut stamp = Stamp::new(sets.id_bound());
    let base = if rows.is_empty() {
        0
    } else {
        sets.slots(rows.start).start
    };
    for r in rows {
        let a = sets.row_file(r);
        let set = sets.set(r);
        let slots = sets.slots(r);
        let out = &mut out[slots.start - base..slots.end - base];
        let previous = reuse.and_then(|re| re.clean_row(a, set));
        let mut stamped = false;
        for (k, &b) in set.iter().enumerate() {
            if b == a {
                continue;
            }
            if let (Some(re), Some(counts)) = (reuse, previous) {
                if !re.dirty[b.index()] {
                    out[k] = counts[k];
                    continue;
                }
            }
            if !stamped {
                stamp.mark(set);
                stamped = true;
            }
            out[k] = adjusted(sets.count_stamped(&stamp, b), dirs.distance(a, b), config);
        }
    }
}

/// The full counting phase, partitioned by candidate row across at most
/// `threads` scoped threads. Each shard counts a contiguous run of rows
/// into its own run of the flat count array, so the result is
/// independent of the schedule. Returns the counts, each shard's wall
/// time, and when each shard started relative to the phase entry.
fn count_sharded(
    sets: &SharedNeighborCounter,
    dirs: &DirTree,
    config: &ClusterConfig,
    threads: usize,
) -> (Vec<f64>, Vec<Duration>, Vec<Duration>) {
    let rows = sets.rows();
    let threads = threads.clamp(1, rows.max(1));
    let base = Instant::now();
    let mut counts = vec![0.0; sets.slot_count()];
    if threads == 1 {
        let started = Instant::now();
        count_rows(sets, 0..rows, dirs, config, None, &mut counts);
        return (
            counts,
            vec![started.elapsed()],
            vec![started.duration_since(base)],
        );
    }
    let chunk = rows.div_ceil(threads);
    let mut parts: Vec<(Range<usize>, &mut [f64])> = Vec::with_capacity(threads);
    let mut rest: &mut [f64] = &mut counts;
    for start in (0..rows).step_by(chunk) {
        let range = start..(start + chunk).min(rows);
        let len = sets.slots(range.end - 1).end - sets.slots(range.start).start;
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        parts.push((range, part));
        rest = tail;
    }
    let shards: Vec<(Duration, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|(range, part)| {
                s.spawn(move || {
                    let started = Instant::now();
                    count_rows(sets, range, dirs, config, None, part);
                    (started.elapsed(), started.duration_since(base))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("count shard panicked"))
            .collect()
    });
    let (timings, offsets) = shards.into_iter().unzip();
    (counts, timings, offsets)
}

/// Phases one and two over `counted`'s pair counts, with investigator
/// relations overlaid.
///
/// Relations are tested regardless of whether a semantic distance was
/// independently stored (§3.3.3). They overlay the raw counts rather
/// than mutating them, so the cached baseline stays relation-free;
/// chained relations on one pair compound through the overlay exactly as
/// sequential inserts would.
fn cluster_counted(
    counted: &PairCountCache,
    dirs: &DirTree,
    relations: &[ExternalRelation],
    config: &ClusterConfig,
) -> Clustering {
    let sets = &counted.sets;
    let mut overlay: HashMap<(FileId, FileId), f64> = HashMap::new();
    if !relations.is_empty() {
        let mut stamp = Stamp::new(sets.id_bound());
        for rel in relations {
            for (a, b) in rel.pairs() {
                let base = overlay
                    .get(&(a, b))
                    .copied()
                    .or_else(|| counted.get(a, b))
                    .unwrap_or_else(|| {
                        stamp.mark(sets.neighbors(a).unwrap_or(&[]));
                        adjusted(sets.count_stamped(&stamp, b), dirs.distance(a, b), config)
                    });
                let adjusted = base + rel.strength;
                // A sufficiently strong relation forces combination outright.
                let forced = rel.strength >= config.force_strength;
                overlay.insert((a, b), if forced { f64::INFINITY } else { adjusted });
            }
        }
    }
    // The universe: every row, every listed file, and every file of a
    // relation pair, indexed densely in ascending id order.
    let bound = overlay
        .keys()
        .map(|(a, b)| a.index().max(b.index()) + 1)
        .fold(sets.id_bound(), usize::max);
    let mut present = vec![false; bound];
    for r in 0..sets.rows() {
        present[sets.row_file(r).index()] = true;
        for &b in sets.set(r) {
            present[b.index()] = true;
        }
    }
    for &(a, b) in overlay.keys() {
        present[a.index()] = true;
        present[b.index()] = true;
    }
    let mut dense = vec![u32::MAX; bound];
    let mut files = Vec::new();
    for (i, _) in present.iter().enumerate().filter(|&(_, &p)| p) {
        dense[i] = files.len() as u32;
        files.push(FileId(i as u32));
    }
    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
    for r in 0..sets.rows() {
        let a = sets.row_file(r);
        for (&b, &count) in sets.set(r).iter().zip(&counted.counts[sets.slots(r)]) {
            if b == a {
                continue;
            }
            let count = overlay.get(&(a, b)).copied().unwrap_or(count);
            if acts(count, config) {
                pairs.push((dense[a.index()], dense[b.index()], count));
            }
        }
    }
    for (&(a, b), &count) in &overlay {
        if sets.pair_slot(a, b).is_none() && acts(count, config) {
            pairs.push((dense[a.index()], dense[b.index()], count));
        }
    }
    combine_and_overlap(&files, &pairs, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kn: f64, kf: f64) -> ClusterConfig {
        ClusterConfig {
            kn,
            kf,
            ..ClusterConfig::default()
        }
    }

    const KN: f64 = 4.0;
    const KF: f64 = 2.0;

    fn fid(c: char) -> FileId {
        FileId(c as u32 - 'A' as u32)
    }

    fn files(cluster: &crate::result::Cluster) -> String {
        cluster
            .files
            .iter()
            .map(|f| char::from(b'A' + f.0 as u8))
            .collect()
    }

    /// Table 1: the three regimes of the clustering rule.
    #[test]
    fn table1_regimes() {
        let c = cfg(KN, KF);
        let (a, b) = (FileId(0), FileId(1));
        // x ≥ kn: combined into one cluster.
        let r = cluster_from_counts(&[(a, b, KN)], &[], &c);
        assert_eq!(r.len(), 1);
        assert_eq!(r.clusters[0].files, vec![a, b]);
        // kf ≤ x < kn: inserted into each other's clusters, not combined.
        // Give each file its own companion so the two clusters remain
        // observably distinct after the mutual insertion.
        let (x, y) = (FileId(10), FileId(11));
        let r = cluster_from_counts(&[(a, x, KN), (b, y, KN), (a, b, KF)], &[], &c);
        assert_eq!(r.len(), 2, "two distinct clusters remain");
        assert!(r.clusters.iter().all(|cl| cl.contains(a) && cl.contains(b)));
        assert!(r
            .clusters
            .iter()
            .any(|cl| cl.contains(x) && !cl.contains(y)));
        // x < kf: no action.
        let r = cluster_from_counts(&[(a, b, KF - 1.0)], &[], &c);
        assert_eq!(r.len(), 2);
        assert!(r.clusters.iter().all(|cl| cl.len() == 1));
    }

    /// The paper's Table 2 worked example (§3.3.2): seven files whose
    /// final clusters are {A,B,C,D} and {C,D,E,F,G}.
    #[test]
    fn table2_worked_example() {
        let pairs = [
            (fid('A'), fid('B'), KN),
            (fid('A'), fid('C'), KF),
            (fid('B'), fid('C'), KN),
            (fid('C'), fid('D'), KF),
            (fid('D'), fid('E'), KN),
            (fid('F'), fid('G'), KN),
            (fid('G'), fid('D'), KN),
        ];
        let universe: Vec<FileId> = (0..7).map(FileId).collect();
        let r = cluster_from_counts(&pairs, &universe, &cfg(KN, KF));
        let mut names: Vec<String> = r.clusters.iter().map(files).collect();
        names.sort();
        assert_eq!(names, vec!["ABCD".to_owned(), "CDEFG".to_owned()]);
        // C and D belong to both projects; A only to the first.
        assert_eq!(r.clusters_of(fid('C')).len(), 2);
        assert_eq!(r.clusters_of(fid('D')).len(), 2);
        assert_eq!(r.clusters_of(fid('A')).len(), 1);
    }

    /// Phase one is transitive: A~B and B~C puts A and C together even
    /// with no direct relationship (the example's first step).
    #[test]
    fn phase_one_transitivity() {
        let pairs = [(fid('A'), fid('B'), KN), (fid('B'), fid('C'), KN)];
        let r = cluster_from_counts(&pairs, &[], &cfg(KN, KF));
        assert_eq!(r.len(), 1);
        assert_eq!(files(&r.clusters[0]), "ABC");
    }

    /// Overlap pairs already in the same cluster take no further action.
    #[test]
    fn overlap_within_one_cluster_is_noop() {
        let pairs = [
            (fid('A'), fid('B'), KN),
            (fid('B'), fid('C'), KN),
            (fid('A'), fid('C'), KF), // Same cluster already.
        ];
        let r = cluster_from_counts(&pairs, &[], &cfg(KN, KF));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn singletons_controlled_by_config() {
        let pairs = [(fid('A'), fid('B'), KN)];
        let universe = [fid('A'), fid('B'), fid('Z')];
        let with = cluster_from_counts(&pairs, &universe, &cfg(KN, KF));
        assert_eq!(with.len(), 2, "AB cluster plus singleton Z");
        let without = cluster_from_counts(
            &pairs,
            &universe,
            &ClusterConfig {
                include_singletons: false,
                ..cfg(KN, KF)
            },
        );
        assert_eq!(without.len(), 1);
    }

    /// Two mid-strength pairs (a,b) and (a,c) with b, c in one phase-one
    /// group insert `a` into that cluster once, not twice — and more
    /// broadly no cluster ever lists a file twice.
    #[test]
    fn overlap_membership_is_deduplicated() {
        let (a, b, c, x) = (fid('A'), fid('B'), fid('C'), fid('X'));
        // Phase one: {B, C} combine; A sits with companion X.
        let pairs = [
            (b, c, KN),
            (a, x, KN),
            (a, b, KF),
            (a, c, KF), // Second mid-strength route for A into {B, C}.
        ];
        let r = cluster_from_counts(&pairs, &[], &cfg(KN, KF));
        for cl in &r.clusters {
            let mut files = cl.files.clone();
            files.dedup();
            assert_eq!(files, cl.files, "no cluster lists a file twice: {cl:?}");
        }
        // A still overlaps into the {B, C} cluster exactly once.
        let bc = r
            .clusters
            .iter()
            .find(|cl| cl.contains(b))
            .expect("BC cluster");
        assert_eq!(bc.files.iter().filter(|&&f| f == a).count(), 1);
    }

    /// The sharded counting phase produces a bit-identical clustering to
    /// the serial path, for every shard width.
    #[test]
    fn parallel_clustering_matches_serial() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        // Three directory-separated pseudo-projects with cross traffic.
        for p in 0..3u32 {
            for i in 0..12u32 {
                paths.intern(&format!("/proj{p}/src/f{i}.c"));
            }
        }
        for p in 0..3u32 {
            let base = p * 12;
            for i in 0..12u32 {
                for j in 0..12u32 {
                    if i != j {
                        t.observe(
                            FileId(base + i),
                            FileId(base + j),
                            f64::from((i + j) % 5) + 0.5,
                        );
                    }
                }
            }
            // A little cross-project noise.
            t.observe(FileId(base), FileId((base + 13) % 36), 9.0);
        }
        let rel = ExternalRelation::new(vec![FileId(0), FileId(35)], 3.0);
        let exclude: HashSet<FileId> = [FileId(7)].into_iter().collect();
        let config = ClusterConfig::default();
        let sets = Arc::new(SharedNeighborCounter::from_table_excluding(&t, &exclude));
        let rels = std::slice::from_ref(&rel);
        let run = |threads| {
            let sets = Arc::clone(&sets);
            cluster_sets(
                sets,
                paths.directories(),
                rels,
                &config,
                threads,
                None,
                &mut None,
            )
        };
        let serial = run(1);
        assert_eq!(serial.shard_count_seconds.len(), 1);
        for threads in [2, 3, 8, 64] {
            let par = run(threads);
            assert_eq!(
                par.clustering.clusters, serial.clustering.clusters,
                "threads={threads} diverged from serial"
            );
            assert!(!par.shard_count_seconds.is_empty());
        }
        // The table-based entry point is the same computation.
        let table_path = cluster_files_excluding(&t, &paths, &[rel], &exclude, &config);
        assert_eq!(table_path.clusters, serial.clustering.clusters);
    }

    /// Incremental maintenance across a stream of table mutations is
    /// bit-identical to a full recount at every step, falls back to a
    /// full recount on structural change or a changed exclusion set,
    /// and actually takes the incremental path in between.
    #[test]
    fn incremental_maintenance_matches_full_recount() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        for p in 0..4u32 {
            for i in 0..10u32 {
                paths.intern(&format!("/proj{p}/f{i}.c"));
            }
        }
        let mut exclude: HashSet<FileId> = [FileId(3)].into_iter().collect();
        let config = ClusterConfig::default();
        let mut cache = None;
        let observe_round = |t: &mut NeighborTable, round: u32| {
            for p in 0..4u32 {
                let base = p * 10;
                for i in 0..10u32 {
                    let j = (i + round + 1) % 10;
                    if i != j {
                        t.observe(
                            FileId(base + i),
                            FileId(base + j),
                            f64::from((i + j + round) % 6) + 0.5,
                        );
                    }
                }
            }
            // Cross-project traffic so rows bridge partitions.
            t.observe(FileId(round % 40), FileId((round * 7 + 13) % 40), 8.0);
        };
        // One recluster of the table's current sets: incremental from
        // `cache` with `dirty`, or a full recount without either.
        let run = |t: &NeighborTable,
                   exclude: &HashSet<FileId>,
                   rels: &[ExternalRelation],
                   dirty: Option<&TableDirty>,
                   cache: &mut Option<PairCountCache>| {
            let sets = Arc::new(SharedNeighborCounter::from_table_excluding(t, exclude));
            cluster_sets(sets, paths.directories(), rels, &config, 1, dirty, cache)
        };
        // Establish a baseline (first call has no cache: full recount).
        observe_round(&mut t, 0);
        let d0 = t.take_dirty();
        let first = run(&t, &exclude, &[], Some(&d0), &mut cache);
        assert!(!first.incremental, "no cache yet: full recount");
        // Several incremental rounds, each checked against a full
        // recount of the same sets.
        for round in 1..5u32 {
            observe_round(&mut t, round);
            let dirty = t.take_dirty();
            let inc = run(&t, &exclude, &[], Some(&dirty), &mut cache);
            assert!(inc.incremental, "round {round} should reuse the cache");
            let full = run(&t, &exclude, &[], None, &mut None);
            assert_eq!(
                inc.clustering.clusters, full.clustering.clusters,
                "round {round} diverged from the full recount"
            );
        }
        // Relations overlay both paths identically and never poison the
        // cached baseline.
        let rel = ExternalRelation::new(vec![FileId(0), FileId(35)], 4.0);
        observe_round(&mut t, 5);
        let dirty = t.take_dirty();
        let rels = std::slice::from_ref(&rel);
        let inc = run(&t, &exclude, rels, Some(&dirty), &mut cache);
        assert!(inc.incremental);
        let full = run(&t, &exclude, rels, None, &mut None);
        assert_eq!(inc.clustering.clusters, full.clustering.clusters);
        let no_rel = run(&t, &exclude, &[], Some(&TableDirty::default()), &mut cache);
        assert!(no_rel.incremental, "relation overlay left the cache clean");
        // A changed exclusion set folds into the delta instead of
        // invalidating the cache.
        exclude.insert(FileId(5));
        let dirty = t.take_dirty();
        let inc = run(&t, &exclude, &[], Some(&dirty), &mut cache);
        assert!(
            inc.incremental,
            "exclusion change is absorbed incrementally"
        );
        let full = run(&t, &exclude, &[], None, &mut None);
        assert_eq!(inc.clustering.clusters, full.clustering.clusters);
        // Un-excluding restores the original pairs, still incrementally.
        exclude.remove(&FileId(5));
        let dirty = t.take_dirty();
        let inc = run(&t, &exclude, &[], Some(&dirty), &mut cache);
        assert!(inc.incremental, "un-exclusion is absorbed incrementally");
        let full = run(&t, &exclude, &[], None, &mut None);
        assert_eq!(inc.clustering.clusters, full.clustering.clusters);
        // A file death stays on the incremental path: the purge marks the
        // dead row plus every row that listed it, and the cached counts
        // absorb the delta. Mark once, then advance the deletion tick past
        // the delay with other names (re-marking 17 would only refresh its
        // own tick).
        t.note_deletion(FileId(17));
        for k in 0..=dc.deletion_delay {
            t.note_deletion(FileId(900 + u32::try_from(k).unwrap()));
        }
        let dirty = t.take_dirty();
        assert!(!dirty.structural, "a purge is a precise row delta");
        assert!(dirty.rows.contains(&FileId(17)), "the dead row goes dirty");
        let inc = run(&t, &exclude, &[], Some(&dirty), &mut cache);
        assert!(inc.incremental, "a purge is absorbed incrementally");
        let full = run(&t, &exclude, &[], None, &mut None);
        assert_eq!(inc.clustering.clusters, full.clustering.clusters);
    }

    #[test]
    fn cluster_files_uses_shared_neighbors() {
        use seer_distance::{DistanceConfig, NeighborTable};
        // Build a table where files 0 and 1 share neighbors 2..7, by
        // observing small distances from each to the common neighbors.
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        for i in 0..10u32 {
            paths.intern(&format!("/proj/f{i}"));
        }
        for target in 2..8u32 {
            t.observe(FileId(0), FileId(target), 1.0);
            t.observe(FileId(1), FileId(target), 1.0);
        }
        // 0 must list 1 (or vice versa) for the pair to be examined.
        t.observe(FileId(0), FileId(1), 1.0);
        let r = cluster_files(&t, &paths, &[], &ClusterConfig::default());
        let c0 = r.clusters_of(FileId(0));
        let c1 = r.clusters_of(FileId(1));
        assert!(
            !c0.is_empty() && c0 == c1,
            "0 and 1 share 6 ≥ kn neighbors: same cluster"
        );
    }

    #[test]
    fn directory_distance_discourages_clustering() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        // Files in wildly different trees.
        let a = paths.intern("/home/u/projects/alpha/src/deep/a.c");
        let b = paths.intern("/opt/data/archive/old/backup/b.c");
        assert_eq!(a, FileId(0));
        assert_eq!(b, FileId(1));
        for i in 2..8u32 {
            paths.intern(&format!("/x/f{i}"));
            t.observe(FileId(0), FileId(i), 1.0);
            t.observe(FileId(1), FileId(i), 1.0);
        }
        t.observe(FileId(0), FileId(1), 1.0);
        // Without directory weighting they share 6 ≥ kn neighbors…
        let loose = ClusterConfig {
            directory_weight: 0.0,
            ..ClusterConfig::default()
        };
        let r = cluster_files(&t, &paths, &[], &loose);
        assert_eq!(r.clusters_of(FileId(0)), r.clusters_of(FileId(1)));
        // …but a strong directory weight keeps the distant trees apart.
        let strict = ClusterConfig {
            directory_weight: 1.0,
            ..ClusterConfig::default()
        };
        let r = cluster_files(&t, &paths, &[], &strict);
        assert_ne!(r.clusters_of(FileId(0)), r.clusters_of(FileId(1)));
    }

    #[test]
    fn investigator_relation_bridges_unseen_pairs() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        let a = paths.intern("/p/a.c");
        let b = paths.intern("/p/a.h");
        // No distance data at all, but an investigator knows better.
        let rel = ExternalRelation::new(vec![a, b], 10.0);
        let r = cluster_files(&t, &paths, &[rel], &ClusterConfig::default());
        assert_eq!(r.clusters_of(a), r.clusters_of(b));
        assert!(!r.clusters_of(a).is_empty());
    }

    #[test]
    fn forced_relation_overrides_everything() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        let mut paths = PathTable::new();
        // Enormous directory distance would normally keep these apart.
        let a = paths.intern("/a/b/c/d/e/f/g/x.c");
        let b = paths.intern("/z/y/w/v/u/t/s/y.c");
        let rel = ExternalRelation::new(vec![a, b], 1000.0);
        let config = ClusterConfig {
            directory_weight: 50.0,
            ..ClusterConfig::default()
        };
        let r = cluster_files(&t, &paths, &[rel], &config);
        assert_eq!(
            r.clusters_of(a),
            r.clusters_of(b),
            "forced cluster (§3.3.3)"
        );
    }
}
