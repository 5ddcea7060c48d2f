//! The two-phase combine/overlap clustering algorithm (§3.3.2, §3.3.3).
//!
//! One recluster runs over dense data throughout: the neighbor sets sit
//! in fixed-size row blocks ([`SharedNeighborCounter`]), each row's
//! shared counts come from stamping its set once and counting every
//! listed file's set against the stamp, directory distance is an integer
//! walk in the path table's directory tree ([`DirTree`]), and the two
//! phases run over dense file indices. Pair counts sit in one flat array
//! aligned with the sets' slots; with the sets, they are the incremental
//! baseline ([`PairCountCache`]).
//!
//! A daemon tenant keeps its cache between reads. Its recluster rewrites
//! only the sets of the rows the table reports dirty or that hold a file
//! whose exclusion flipped ([`SetSource::Table`]), then recounts only
//! the pairs with a rewritten endpoint. Every entry point —
//! [`cluster_files_excluding`], the engine's in-place recluster, its
//! detached input, and a tenant's kept cache — reaches [`cluster_sets`].

use crate::config::ClusterConfig;
use crate::relation::ExternalRelation;
use crate::result::Clustering;
use crate::shared::{sorted, Changed, SharedNeighborCounter, Stamp};
use crate::unionfind::DenseUnionFind;
use seer_distance::{NeighborTable, TableDirty};
use seer_trace::{DirTree, FileId, PathTable};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-relation adjusted pair counts carried between consecutive
/// reclusterings, plus the neighbor sets and configuration they were
/// computed under, and the buffers every recluster reuses.
///
/// The counts sit in one flat array aligned with the sets: slot `k` of a
/// row `a`'s block holds the count of pair `(a, b)` for the set's `k`-th
/// member `b` (slot 0, `a`'s own, is unused). [`cluster_sets`] reuses
/// them when the configuration still matches and the caller supplies the
/// rows whose neighbor membership changed since the cache was built; only
/// pairs with an endpoint whose set changed are then recounted. The
/// cache holds *raw* adjusted counts — investigator relations are
/// overlaid per run and never persisted, so a relation added or removed
/// between runs cannot poison the baseline.
///
/// Equality compares the configuration, the sets as sets, and the count
/// of every candidate pair, not the layout or the buffers.
#[derive(Debug, Default, Clone)]
pub struct PairCountCache {
    sets: Arc<SharedNeighborCounter>,
    counts: Vec<f64>,
    config: ClusterConfig,
    /// The files whose sets the last update wrote or dropped.
    changed: Changed,
    buffers: Buffers,
}

impl PartialEq for PairCountCache {
    fn eq(&self, other: &PairCountCache) -> bool {
        self.config == other.config
            && self.sets == other.sets
            && self.pair_counts() == other.pair_counts()
    }
}

impl PairCountCache {
    /// The neighbor sets the counts were computed over.
    #[must_use]
    pub fn sets(&self) -> &SharedNeighborCounter {
        &self.sets
    }

    /// Every candidate pair with its count, sorted by pair.
    fn pair_counts(&self) -> Vec<(FileId, FileId, f64)> {
        let mut pairs = Vec::new();
        for r in 0..self.sets.blocks() {
            let a = self.sets.block_file(r);
            let slots = self.sets.slots(r);
            let members = self.sets.set(r).iter().zip(&self.counts[slots]);
            pairs.extend(members.skip(1).map(|(&b, &count)| (a, b, count)));
        }
        pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
        pairs
    }
}

/// Buffers a recluster reuses from one run to the next.
#[derive(Debug, Default, Clone)]
struct Buffers {
    stamp: Stamp,
    /// Each file's index in the universe, or [`ABSENT`].
    dense: Vec<u32>,
    /// The universe, ascending.
    files: Vec<FileId>,
    phases: Phases,
}

/// Marks a file outside the universe in [`Buffers::dense`].
const ABSENT: u32 = u32::MAX;

/// Marks a file of the universe before it is numbered.
const PRESENT: u32 = u32::MAX - 1;

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
        .map(|&(a, b, count)| (index(a), index(b), count))
        .collect();
    combine_and_overlap(&files, &Listed(&dense), config, &mut Phases::default())
}

/// Candidate pairs with their counts, naming files by index into the
/// ascending universe the phases run over.
trait Pairs {
    /// Calls `f(a, b, count)` for every pair, in any order.
    fn each(&self, f: impl FnMut(u32, u32, f64));
}

/// Pairs given as a list.
struct Listed<'a>(&'a [(u32, u32, f64)]);

impl Pairs for Listed<'_> {
    fn each(&self, mut f: impl FnMut(u32, u32, f64)) {
        for &(a, b, count) in self.0 {
            f(a, b, count);
        }
    }
}

/// Buffers for the two phases.
#[derive(Debug, Default, Clone)]
struct Phases {
    forest: DenseUnionFind,
    /// Group of each root, or `u32::MAX` before it has one.
    group_of_root: Vec<u32>,
    /// Group of each file.
    group: Vec<u32>,
    /// Phase-one members of group `g`: `members[start[g]..start[g + 1]]`,
    /// ascending.
    start: Vec<u32>,
    members: Vec<u32>,
    /// Mid-strength pairs, which phase two reads.
    mid: Vec<(u32, u32)>,
    /// Phase-two insertions as `(group, file)`.
    inserts: Vec<(u32, u32)>,
}

/// Phases one and two over a dense universe: `files` ascending, and
/// `pairs` naming their files by index into `files`, read once. Neither
/// phase depends on pair order. Phase-one groups are numbered by their
/// smallest file and list their members ascending, so each cluster's
/// member list comes out sorted with no sort of its own: the phase-two
/// insertions, sorted once for all groups, merge into it.
fn combine_and_overlap(
    files: &[FileId],
    pairs: &impl Pairs,
    config: &ClusterConfig,
    s: &mut Phases,
) -> Clustering {
    let n = files.len();
    // Phase one: combine, and set the mid-strength pairs aside. Pairs
    // arrive grouped by their first file, whose root stays known between
    // its own unions.
    s.forest.reset(n);
    s.mid.clear();
    let mut last = (u32::MAX, 0);
    pairs.each(|a, b, count| {
        if count >= config.kn {
            let ra = if last.0 == a {
                last.1
            } else {
                s.forest.find(a)
            };
            let rb = s.forest.find(b);
            last = (a, s.forest.link(ra, rb));
        } else if count >= config.kf {
            s.mid.push((a, b));
        }
    });
    // Materialize phase-one groups.
    s.group_of_root.clear();
    s.group_of_root.resize(n, u32::MAX);
    s.group.clear();
    s.start.clear();
    s.start.push(0);
    for i in 0..n as u32 {
        let root = s.forest.find(i) as usize;
        if s.group_of_root[root] == u32::MAX {
            s.group_of_root[root] = s.start.len() as u32 - 1;
            s.start.push(0);
        }
        let g = s.group_of_root[root];
        s.group.push(g);
        s.start[g as usize + 1] += 1;
    }
    let groups = s.start.len() - 1;
    for g in 0..groups {
        s.start[g + 1] += s.start[g];
    }
    s.members.clear();
    s.members.resize(n, 0);
    for (i, &g) in s.group.iter().enumerate() {
        let next = &mut s.start[g as usize];
        s.members[*next as usize] = i as u32;
        *next += 1;
    }
    // Filling advanced each start to the next group's; shift them back.
    s.start.copy_within(0..groups, 1);
    s.start[0] = 0;
    // Phase two: overlap. Each file of a mid-strength pair joins the other
    // file's cluster, but the clusters stay distinct. Two mid-strength
    // pairs sharing a file may insert it into one group twice; it is
    // kept once.
    s.inserts.clear();
    for &(a, b) in &s.mid {
        let (ga, gb) = (s.group[a as usize], s.group[b as usize]);
        if ga != gb {
            s.inserts.push((gb, a));
            s.inserts.push((ga, b));
        }
    }
    s.inserts.sort_unstable();
    s.inserts.dedup();
    // Each group's list: its phase-one members merged with the files
    // inserted into it, which are never among them.
    let mut lists = Vec::with_capacity(groups);
    let mut inserted = s.inserts.as_slice();
    for g in 0..groups {
        let own = &s.members[s.start[g] as usize..s.start[g + 1] as usize];
        let split = inserted.partition_point(|&(h, _)| h as usize == g);
        let (extra, rest) = inserted.split_at(split);
        inserted = rest;
        if !config.include_singletons && own.len() + extra.len() <= 1 {
            continue;
        }
        let mut list = Vec::with_capacity(own.len() + extra.len());
        let (mut i, mut j) = (0, 0);
        while i < own.len() || j < extra.len() {
            if j == extra.len() || (i < own.len() && own[i] < extra[j].1) {
                list.push(files[own[i] as usize]);
                i += 1;
            } else {
                list.push(files[extra[j].1 as usize]);
                j += 1;
            }
        }
        lists.push(list);
    }
    Clustering::from_sorted_members(lists)
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
    cluster_sets(
        SetSource::Table { table, exclude },
        paths.directories(),
        relations,
        config,
        1,
        None,
        &mut None,
    )
    .clustering
}

/// Outcome of one clustering computation: the assignment, the wall time
/// each count-phase shard spent, and the work the run did.
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
    /// The run's kind: whether the counting phase reused a
    /// [`PairCountCache`] and only recounted the pairs with a changed
    /// endpoint (as opposed to a full recount).
    pub incremental: bool,
    /// Rows whose neighbor sets the run rebuilt from the table: every
    /// row of a full build, and in an incremental run the dirty rows and
    /// those holding a file whose exclusion flipped.
    pub rows_rewritten: u64,
    /// Candidate pairs whose shared-neighbor count the run computed
    /// rather than kept.
    pub pairs_recounted: u64,
}

/// Where a recluster's neighbor sets come from.
#[derive(Debug, Clone)]
pub enum SetSource<'a> {
    /// Sets built in full with [`SharedNeighborCounter::from_table_excluding`].
    /// An incremental run copies the changed rows' sets into the cache's.
    Built(Arc<SharedNeighborCounter>),
    /// The distance table itself, under an exclusion set: an incremental
    /// run rewrites the cache's sets in place from the rows that changed,
    /// and a full run builds them from every row.
    Table {
        /// The neighbor table.
        table: &'a NeighborTable,
        /// Files that take no part in clustering (§4.2).
        exclude: &'a HashSet<FileId>,
    },
}

/// The clustering pipeline: neighbor sets from `source`, shared-neighbor
/// counts adjusted by directory distance, investigator relations
/// overlaid (§3.3.3), then the two phases. `dirs` is the directory tree
/// of the path table the file ids come from.
///
/// `cache` carries the sets and pre-relation pair counts of the previous
/// call; `dirty` lists the rows whose neighbor membership changed since
/// that call (from [`seer_distance::NeighborTable::take_dirty`], drained
/// when the table was read). When the cache is valid — same
/// configuration, no structural change (snapshot restore) — the run is
/// incremental. It rewrites the sets of the dirty rows and of every row
/// whose set in the cache or in `source` holds a file whose exclusion
/// flipped; file deaths arrive pre-folded from the table's purge path. A
/// row whose rewritten set equals its old one, as a set, counts as
/// unchanged. The run then recounts the pairs with an endpoint whose set
/// changed, on the calling thread, and keeps every other count.
///
/// Otherwise the sets are built in full and the counting phase is sharded
/// across `threads` scoped threads. Candidate pairs are directed — pair
/// `(a, b)` originates from `a`'s neighbor row and nowhere else — so
/// partitioning the rows partitions the pairs: each shard stamps into its
/// own array and writes its rows' counts into its own run of the flat
/// count array, so the counts and the [`Clustering`] are bit-identical
/// regardless of `threads`.
///
/// Either way the result is **bit-identical** to a full recount of the
/// same sets: an unchanged pair keeps a count that identical inputs would
/// reproduce exactly. On return `cache` holds the baseline for the next
/// call.
#[must_use]
pub fn cluster_sets(
    source: SetSource<'_>,
    dirs: &DirTree,
    relations: &[ExternalRelation],
    config: &ClusterConfig,
    threads: usize,
    dirty: Option<&TableDirty>,
    cache: &mut Option<PairCountCache>,
) -> ClusterRun {
    let started = Instant::now();
    let previous = cache.take();
    let dirty = match (&previous, dirty) {
        (Some(c), Some(d)) if !d.structural && c.config == *config => Some(d.rows.as_slice()),
        _ => None,
    };
    let mut c = previous.unwrap_or_default();
    c.config = *config;
    c.changed.clear();
    let cap = c.sets.cap();
    match (source, dirty) {
        (SetSource::Built(sets), Some(dirty)) => {
            Arc::make_mut(&mut c.sets).update_from_sets(&sets, dirty, &mut c.changed);
        }
        (SetSource::Built(sets), None) => {
            c.changed.rebuilt = sets.len() as u64;
            c.sets = sets;
            c.changed.all = true;
        }
        (SetSource::Table { table, exclude }, dirty) => {
            let excluded = sorted(exclude);
            Arc::make_mut(&mut c.sets).update_from_table(table, &excluded, dirty, &mut c.changed);
        }
    }
    let sets = &c.sets;
    let counting = Instant::now();
    let (pairs_recounted, shard_count_seconds, shard_start_offsets) = if c.changed.all {
        let (counts, pairs, seconds, offsets) = count_sharded(sets, dirs, config, threads);
        c.counts = counts;
        let offsets = offsets.iter().map(|&o| counting - started + o).collect();
        (pairs, seconds, offsets)
    } else {
        if sets.cap() != cap {
            c.counts = widen(&c.counts, cap, sets.cap());
        }
        c.counts.resize(sets.slot_count(), 0.0);
        let (blocks, changed) = (0..sets.blocks(), Some(&c.changed));
        let stamp = &mut c.buffers.stamp;
        let pairs = count_rows(sets, blocks, dirs, config, changed, stamp, &mut c.counts);
        let offset = counting - started;
        (pairs, vec![counting.elapsed()], vec![offset])
    };
    let (incremental, rows_rewritten) = (dirty.is_some(), c.changed.rebuilt);
    let clustering = cluster_counted(&mut c, dirs, relations, config);
    *cache = Some(c);
    ClusterRun {
        clustering,
        shard_count_seconds,
        shard_start_offsets,
        incremental,
        rows_rewritten,
        pairs_recounted,
    }
}

/// `counts` laid out for blocks of `from` slots, moved to blocks of `to`
/// (`to ≥ from`): each block's counts keep their slots.
fn widen(counts: &[f64], from: usize, to: usize) -> Vec<f64> {
    let mut out = vec![0.0; counts.len() / from.max(1) * to];
    if from > 0 {
        for (block, counts) in out.chunks_mut(to).zip(counts.chunks(from)) {
            block[..from].copy_from_slice(counts);
        }
    }
    out
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

/// The fewest shared neighbors with which a pair at `directory_distance`
/// reaches `kn`, or `u32::MAX` when no set is large enough. Phase one
/// asks only whether a pair reaches `kn`, so counting stops there: a
/// pair's count is capped at this many shared neighbors, which every
/// decision the phases make reads exactly as the whole count.
fn combine_cap(directory_distance: Option<u32>, config: &ClusterConfig) -> u32 {
    let reaches = |shared: u32| adjusted(shared, directory_distance, config) >= config.kn;
    let weight = config.directory_weight * f64::from(directory_distance.unwrap_or(0));
    let guess = (config.kn + weight).ceil();
    if guess.is_nan() || guess > f64::from(u16::MAX) {
        return u32::MAX;
    }
    // The guess may sit one off either way after rounding.
    let mut shared = guess.max(0.0) as u32;
    while shared > 0 && reaches(shared - 1) {
        shared -= 1;
    }
    while !reaches(shared) {
        if shared >= u32::from(u16::MAX) {
            return u32::MAX;
        }
        shared += 1;
    }
    shared
}

/// Counts the candidate pairs of blocks `blocks` into `out`, which holds
/// exactly those blocks' slots, and returns how many it counted. Each
/// row's set is stamped once, then every listed file's set is counted
/// against it. With `changed`, a row whose set is unchanged counts only
/// its pairs with a changed listed file and keeps the others.
fn count_rows(
    sets: &SharedNeighborCounter,
    blocks: Range<usize>,
    dirs: &DirTree,
    config: &ClusterConfig,
    changed: Option<&Changed>,
    stamp: &mut Stamp,
    out: &mut [f64],
) -> u64 {
    stamp.ensure(sets.id_bound());
    let cap = sets.cap();
    let base = blocks.start * cap;
    let mut caps = Caps::default();
    let mut counted = 0;
    for r in blocks {
        let a = sets.block_file(r);
        if a == FileId::NONE {
            continue;
        }
        let set = sets.set(r);
        let out = &mut out[r * cap - base..][..set.len()];
        let whole = changed.is_none_or(|c| c.has(a));
        let mut stamped = false;
        for (&b, count) in set.iter().zip(out.iter_mut()).skip(1) {
            if !whole && !changed.is_some_and(|c| c.has(b)) {
                continue;
            }
            if !stamped {
                stamp.mark(set);
                stamped = true;
            }
            let distance = dirs.distance(a, b);
            let cap = caps.get(distance, || combine_cap(distance, config));
            *count = adjusted(sets.count_stamped(stamp, b, cap), distance, config);
            counted += 1;
        }
    }
    counted
}

/// [`combine_cap`] by directory distance, computed once per count.
#[derive(Default)]
struct Caps([Option<u32>; 32]);

impl Caps {
    fn get(&mut self, distance: Option<u32>, cap: impl FnOnce() -> u32) -> u32 {
        match distance.and_then(|d| self.0.get_mut(d as usize)) {
            Some(known) => *known.get_or_insert_with(cap),
            None => cap(),
        }
    }
}

/// The full counting phase, partitioned by block across at most
/// `threads` scoped threads. Each shard counts a contiguous run of blocks
/// into its own run of the flat count array, so the result is
/// independent of the schedule. Returns the counts, the pairs counted,
/// each shard's wall time, and when each shard started relative to the
/// phase entry.
fn count_sharded(
    sets: &SharedNeighborCounter,
    dirs: &DirTree,
    config: &ClusterConfig,
    threads: usize,
) -> (Vec<f64>, u64, Vec<Duration>, Vec<Duration>) {
    let blocks = sets.blocks();
    let threads = threads.clamp(1, blocks.max(1));
    let base = Instant::now();
    let mut counts = vec![0.0; sets.slot_count()];
    let shard = |range: Range<usize>, part: &mut [f64]| {
        let started = Instant::now();
        let mut stamp = Stamp::new(sets.id_bound());
        let n = count_rows(sets, range, dirs, config, None, &mut stamp, part);
        (n, started.elapsed(), started.duration_since(base))
    };
    let shards: Vec<(u64, Duration, Duration)> = if threads == 1 {
        vec![shard(0..blocks, &mut counts)]
    } else {
        let chunk = blocks.div_ceil(threads);
        let parts = (0..blocks)
            .step_by(chunk)
            .zip(counts.chunks_mut(chunk * sets.cap()));
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .map(|(start, part)| {
                    let range = start..(start + chunk).min(blocks);
                    s.spawn(move || shard(range, part))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("count shard panicked"))
                .collect()
        })
    };
    let pairs = shards.iter().map(|s| s.0).sum();
    let (timings, offsets) = shards.into_iter().map(|(_, t, o)| (t, o)).unzip();
    (counts, pairs, timings, offsets)
}

/// The counted pairs of a cache, with investigator relations overlaid
/// when there are any.
struct Counted<'a> {
    sets: &'a SharedNeighborCounter,
    counts: &'a [f64],
    overlay: Option<&'a HashMap<(FileId, FileId), f64>>,
    dense: &'a [u32],
}

impl Pairs for Counted<'_> {
    fn each(&self, mut f: impl FnMut(u32, u32, f64)) {
        let dense = |x: FileId| self.dense[x.index()];
        for r in 0..self.sets.blocks() {
            let a = self.sets.block_file(r);
            if a == FileId::NONE {
                continue;
            }
            let da = dense(a);
            let counts = &self.counts[self.sets.slots(r)];
            let pairs = self.sets.set(r).iter().zip(counts).skip(1);
            match self.overlay {
                None => pairs.for_each(|(&b, &count)| f(da, dense(b), count)),
                Some(overlay) => pairs.for_each(|(&b, &count)| {
                    f(da, dense(b), overlay.get(&(a, b)).copied().unwrap_or(count));
                }),
            }
        }
        for (&(a, b), &count) in self.overlay.into_iter().flatten() {
            if self.sets.pair_slot(a, b).is_none() {
                f(dense(a), dense(b), count);
            }
        }
    }
}

/// Phases one and two over the cache's pair counts, with investigator
/// relations overlaid.
///
/// Relations are tested regardless of whether a semantic distance was
/// independently stored (§3.3.3). They overlay the raw counts rather
/// than mutating them, so the cached baseline stays relation-free;
/// chained relations on one pair compound through the overlay exactly as
/// sequential inserts would.
fn cluster_counted(
    counted: &mut PairCountCache,
    dirs: &DirTree,
    relations: &[ExternalRelation],
    config: &ClusterConfig,
) -> Clustering {
    let sets = &counted.sets;
    let s = &mut counted.buffers;
    let mut overlay: HashMap<(FileId, FileId), f64> = HashMap::new();
    for rel in relations {
        for (a, b) in rel.pairs() {
            // The whole count: a kept one may be capped at `kn`.
            let base = overlay.get(&(a, b)).copied().unwrap_or_else(|| {
                s.stamp.ensure(sets.id_bound());
                s.stamp.mark(sets.neighbors(a).unwrap_or(&[]));
                let shared = sets.count_stamped(&s.stamp, b, u32::MAX);
                adjusted(shared, dirs.distance(a, b), config)
            });
            let adjusted = base + rel.strength;
            // A sufficiently strong relation forces combination outright.
            let forced = rel.strength >= config.force_strength;
            overlay.insert((a, b), if forced { f64::INFINITY } else { adjusted });
        }
    }
    // The universe: every row, every listed file, and every file of a
    // relation pair, indexed densely in ascending id order.
    let bound = overlay
        .keys()
        .map(|(a, b)| a.index().max(b.index()) + 1)
        .fold(sets.id_bound(), usize::max);
    s.dense.clear();
    s.dense.resize(bound, ABSENT);
    for (_, set) in sets.rows() {
        for &b in set {
            s.dense[b.index()] = PRESENT;
        }
    }
    for &(a, b) in overlay.keys() {
        s.dense[a.index()] = PRESENT;
        s.dense[b.index()] = PRESENT;
    }
    s.files.clear();
    for (i, d) in s.dense.iter_mut().enumerate() {
        if *d == PRESENT {
            *d = s.files.len() as u32;
            s.files.push(FileId(i as u32));
        }
    }
    let pairs = Counted {
        sets,
        counts: &counted.counts,
        overlay: (!overlay.is_empty()).then_some(&overlay),
        dense: &s.dense,
    };
    combine_and_overlap(&s.files, &pairs, config, &mut s.phases)
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
                SetSource::Built(sets),
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
            let sets = SetSource::Built(sets);
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
