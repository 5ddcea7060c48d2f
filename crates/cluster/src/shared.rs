//! Neighbor sets in fixed-size row blocks, built from the distance table
//! and kept up to date row by row.
//!
//! A row's set is the file itself, first, then its live, non-excluded
//! targets in the table's slot order. Sets are not sorted: the counting
//! phase intersects two sets by stamping one and counting the other's
//! members against the stamp, which needs no order. Every row owns a
//! block of the same number of slots, so rewriting one row's set leaves
//! every other row, and the pair counts aligned with the slots, in
//! place.
//!
//! The sets are built one way. A daemon tenant keeps its sets between
//! reads and rewrites only the rows the table reports dirty
//! ([`seer_distance::NeighborTable::take_dirty`]) and those holding a
//! file whose exclusion flipped;
//! [`SharedNeighborCounter::from_table_excluding`] is the same update
//! run over every row with no previous sets.

use seer_distance::NeighborTable;
use seer_trace::FileId;
use std::collections::HashSet;
use std::ops::Range;

/// Marks a file with no neighbor set in [`SharedNeighborCounter`]'s
/// file-to-row map.
const NO_ROW: u32 = u32::MAX;

/// Unsorted neighbor sets in fixed-size row blocks, supporting O(n)
/// shared-neighbor counting between any candidate pair.
///
/// Block `r` holds one row's set in `members[r * cap..r * cap + len]`,
/// the row's file first; a free block, left by a row that lost its set,
/// is reused by the next new row. A dense file-to-row map finds the set
/// of any file without hashing. The sets keep the sorted list of files
/// they leave out, so an update can tell whose exclusion flipped.
///
/// Equality compares the sets as sets: which files have one, and what
/// each holds, whatever the block or slot order.
#[derive(Debug, Default, Clone)]
pub struct SharedNeighborCounter {
    /// Slots per row block: the longest set written since the last full
    /// build.
    cap: usize,
    /// The file of each block, or [`FileId::NONE`] for a free block.
    files: Vec<FileId>,
    /// The set length of each block.
    lens: Vec<u32>,
    members: Vec<FileId>,
    /// Block of each file, indexed by [`FileId`], or [`NO_ROW`]; covers
    /// every row and every member.
    row_of: Vec<u32>,
    /// Free blocks, reused before the block array grows.
    free: Vec<u32>,
    /// Rows with a set.
    live: usize,
    /// The excluded files, sorted.
    excluded: Vec<FileId>,
    /// Whether each file is excluded, indexed by [`FileId`].
    is_excluded: Vec<bool>,
    /// Reused by every update: marks for deduplicating and comparing a
    /// row's new set, and for finding the sets that hold a flipped file.
    marks: Stamp,
    /// Reused by every update: a row's new set, then the rows one update
    /// rewrites.
    set: Vec<FileId>,
    queue: Vec<FileId>,
}

/// The files whose sets one update wrote or dropped: what the counting
/// phase must recount pairs for.
#[derive(Debug, Default, Clone)]
pub(crate) struct Changed {
    flag: Vec<bool>,
    list: Vec<FileId>,
    /// Every set counts as changed: the sets were built in full.
    pub(crate) all: bool,
    /// Rows whose sets the update rebuilt from their rows, changed or
    /// not.
    pub(crate) rebuilt: u64,
}

impl Changed {
    /// Forgets every mark.
    pub(crate) fn clear(&mut self) {
        for f in &self.list {
            self.flag[f.index()] = false;
        }
        self.list.clear();
        self.all = false;
        self.rebuilt = 0;
    }

    fn mark(&mut self, f: FileId) {
        let i = f.index();
        if i >= self.flag.len() {
            self.flag.resize(i + 1, false);
        }
        if !self.flag[i] {
            self.flag[i] = true;
            self.list.push(f);
        }
    }

    /// Whether `f`'s set changed.
    #[inline]
    pub(crate) fn has(&self, f: FileId) -> bool {
        self.all || self.flag.get(f.index()).copied().unwrap_or(false)
    }
}

impl PartialEq for SharedNeighborCounter {
    fn eq(&self, other: &SharedNeighborCounter) -> bool {
        self.excluded == other.excluded && self.canonical() == other.canonical()
    }
}

impl SharedNeighborCounter {
    /// Builds the sets from every row of the table, dropping purged
    /// targets and ignoring `exclude`d files entirely — neither as rows
    /// nor as neighbor-set members. Nothing is allocated per row.
    ///
    /// As in Jarvis & Patrick's formulation, every file is a member of its
    /// own neighbor set, so two mutually-listed files share at least
    /// themselves. Frequently-referenced files are "eliminated from the
    /// calculation of semantic distances and file relationships" (§4.2);
    /// passing the always-hoard set as `exclude` removes the bridges that
    /// would otherwise fuse unrelated projects through shared libraries.
    #[must_use]
    pub fn from_table_excluding(
        table: &NeighborTable,
        exclude: &HashSet<FileId>,
    ) -> SharedNeighborCounter {
        let mut sets = SharedNeighborCounter::default();
        sets.update_from_table(table, &sorted(exclude), None, &mut Changed::default());
        sets
    }

    /// Brings the sets up to date with `table` under the sorted
    /// exclusion list `excluded`. With `dirty`, the rows whose membership
    /// changed since the sets were last brought up to date, only those
    /// rows and the rows holding a file whose exclusion flipped are
    /// rewritten; without, every row is built anew. `changed` receives
    /// the files whose sets were written or dropped.
    pub(crate) fn update_from_table(
        &mut self,
        table: &NeighborTable,
        excluded: &[FileId],
        dirty: Option<&[FileId]>,
        changed: &mut Changed,
    ) {
        self.update(
            |f| table.row(f),
            || table.rows(),
            |t| table.is_dead(t),
            excluded,
            dirty,
            changed,
        );
    }

    /// Brings the sets up to date with `source`, built in full from the
    /// same table: as [`SharedNeighborCounter::update_from_table`], with
    /// `source`'s sets standing in for the table's rows.
    pub(crate) fn update_from_sets(
        &mut self,
        source: &SharedNeighborCounter,
        dirty: &[FileId],
        changed: &mut Changed,
    ) {
        self.update(
            |f| source.neighbors(f).unwrap_or(&[]),
            || source.rows(),
            |_| false,
            &source.excluded,
            Some(dirty),
            changed,
        );
    }

    /// The one way the sets are built. `row` lends a file's row (its
    /// targets, or a built set), `all_rows` every row in id order, and
    /// `dead` says which targets were purged.
    fn update<'t, I: Iterator<Item = (FileId, &'t [FileId])>>(
        &mut self,
        row: impl Fn(FileId) -> &'t [FileId],
        all_rows: impl Fn() -> I,
        dead: impl Fn(FileId) -> bool,
        excluded: &[FileId],
        dirty: Option<&[FileId]>,
        changed: &mut Changed,
    ) {
        let Some(dirty) = dirty else {
            self.clear(excluded);
            self.cap = all_rows().map(|(_, r)| r.len() + 1).max().unwrap_or(0);
            for (f, targets) in all_rows() {
                self.write_row(f, targets, &dead, changed);
            }
            changed.all = true;
            return;
        };
        let mut queue = std::mem::take(&mut self.queue);
        queue.clear();
        queue.extend_from_slice(dirty);
        if self.excluded != excluded {
            // A file whose exclusion flipped leaves or joins exactly the
            // sets of the rows listing it, its own included: the old sets
            // hold the newly excluded, the new rows the newly included
            // (§4.2 frequency threshold crossings move both ways).
            self.marks.start();
            for &f in symmetric_difference(&self.excluded, excluded) {
                self.marks.insert(f);
                queue.push(f);
            }
            for r in 0..self.files.len() {
                if self.marks.count(self.set(r)) > 0 {
                    queue.push(self.files[r]);
                }
            }
            queue.extend(
                (all_rows())
                    .filter(|&(_, targets)| self.marks.count(targets) > 0)
                    .map(|(f, _)| f),
            );
            self.set_excluded(excluded);
        }
        // Each row is rewritten once, in file order.
        queue.sort_unstable();
        queue.dedup();
        for &f in &queue {
            self.write_row(f, row(f), &dead, changed);
        }
        self.queue = queue;
    }

    /// Empties the sets, keeping their allocations, under a new exclusion
    /// list.
    fn clear(&mut self, excluded: &[FileId]) {
        for &f in &self.files {
            if f != FileId::NONE {
                self.row_of[f.index()] = NO_ROW;
            }
        }
        self.files.clear();
        self.lens.clear();
        self.members.clear();
        self.free.clear();
        self.live = 0;
        self.set_excluded(excluded);
    }

    /// Replaces the exclusion list, and the flags that mirror it.
    fn set_excluded(&mut self, excluded: &[FileId]) {
        for f in std::mem::take(&mut self.excluded) {
            self.is_excluded[f.index()] = false;
        }
        for &f in excluded {
            if f.index() >= self.is_excluded.len() {
                self.is_excluded.resize(f.index() + 1, false);
            }
            self.is_excluded[f.index()] = true;
        }
        self.excluded = excluded.to_vec();
    }

    #[inline]
    fn excludes(&self, f: FileId) -> bool {
        self.is_excluded.get(f.index()).copied().unwrap_or(false)
    }

    /// Writes `f`'s set from its row: `f` itself, then each live,
    /// non-excluded target once; no set when the row is empty or `f` is
    /// excluded. A set equal to the stored one, as a set, stays as it is;
    /// any other outcome marks `f` in `changed`.
    fn write_row(
        &mut self,
        f: FileId,
        targets: &[FileId],
        dead: &impl Fn(FileId) -> bool,
        changed: &mut Changed,
    ) {
        changed.rebuilt += 1;
        let mut set = std::mem::take(&mut self.set);
        set.clear();
        self.marks.start();
        if !targets.is_empty() && !self.excludes(f) {
            self.marks.insert(f);
            set.push(f);
            for &t in targets {
                if !dead(t) && !self.excludes(t) && self.marks.insert(t) {
                    set.push(t);
                }
            }
        }
        let old = self.row_index(f);
        match old {
            Some(r)
                if set.len() == self.set(r).len()
                    && self.marks.count(self.set(r)) == set.len() as u32 => {}
            Some(r) if set.is_empty() => {
                self.files[r] = FileId::NONE;
                self.lens[r] = 0;
                self.row_of[f.index()] = NO_ROW;
                self.free.push(r as u32);
                self.live -= 1;
                changed.mark(f);
            }
            None if set.is_empty() => {}
            _ => {
                if set.len() > self.cap {
                    self.relayout(set.len());
                }
                let r = old.unwrap_or_else(|| self.new_block(f));
                let start = r * self.cap;
                self.members[start..start + set.len()].copy_from_slice(&set);
                self.lens[r] = set.len() as u32;
                let bound = set.iter().map(|m| m.index() + 1).max().unwrap_or(0);
                if bound > self.row_of.len() {
                    self.row_of.resize(bound, NO_ROW);
                }
                changed.mark(f);
            }
        }
        self.set = set;
    }

    /// A block for `f`'s new set: a free one, else a new one at the end.
    fn new_block(&mut self, f: FileId) -> usize {
        let r = match self.free.pop() {
            Some(r) => r as usize,
            None => {
                self.files.push(FileId::NONE);
                self.lens.push(0);
                self.members
                    .resize(self.members.len() + self.cap, FileId::NONE);
                self.files.len() - 1
            }
        };
        self.files[r] = f;
        if f.index() >= self.row_of.len() {
            self.row_of.resize(f.index() + 1, NO_ROW);
        }
        self.row_of[f.index()] = r as u32;
        self.live += 1;
        r
    }

    /// Widens every block to `cap` slots, keeping each set in its block.
    fn relayout(&mut self, cap: usize) {
        let mut members = vec![FileId::NONE; self.files.len() * cap];
        for r in 0..self.files.len() {
            members[r * cap..][..self.lens[r] as usize].copy_from_slice(self.set(r));
        }
        self.members = members;
        self.cap = cap;
    }

    /// Every row with a set, sorted by file, each with its members
    /// sorted: the sets as sets.
    fn canonical(&self) -> Vec<(FileId, Vec<FileId>)> {
        let mut rows: Vec<(FileId, Vec<FileId>)> = (self.rows())
            .map(|(f, set)| {
                let mut set = set.to_vec();
                set.sort_unstable();
                (f, set)
            })
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Members of `b`'s set stamped in `stamp` — the neighbors `b` shares
    /// with the set stamped last (none if `b` has no set) — counted up to
    /// `cap`.
    #[inline]
    pub(crate) fn count_stamped(&self, stamp: &Stamp, b: FileId, cap: u32) -> u32 {
        self.neighbors(b).map_or(0, |set| stamp.count_to(set, cap))
    }

    /// The neighbor set of `file`, if stored: `file` itself first.
    #[must_use]
    pub fn neighbors(&self, file: FileId) -> Option<&[FileId]> {
        self.row_index(file).map(|r| self.set(r))
    }

    /// Every row with a set, in block order, as `(file, set)`.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (FileId, &[FileId])> + '_ {
        (0..self.files.len())
            .filter(|&r| self.files[r] != FileId::NONE)
            .map(|r| (self.files[r], self.set(r)))
    }

    /// Number of rows with a set.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Slots per block.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Number of blocks, free ones included.
    pub(crate) fn blocks(&self) -> usize {
        self.files.len()
    }

    /// The file of block `r`, or [`FileId::NONE`] when it is free.
    #[inline]
    pub(crate) fn block_file(&self, r: usize) -> FileId {
        self.files[r]
    }

    /// Block `r`'s set's slots in the member array.
    #[inline]
    pub(crate) fn slots(&self, r: usize) -> Range<usize> {
        let start = r * self.cap;
        start..start + self.lens[r] as usize
    }

    /// Block `r`'s set (empty when the block is free).
    #[inline]
    pub(crate) fn set(&self, r: usize) -> &[FileId] {
        &self.members[self.slots(r)]
    }

    /// Slots over all blocks: the length of an array aligned with them.
    pub(crate) fn slot_count(&self) -> usize {
        self.members.len()
    }

    /// The block of `file`, if it has a set.
    #[inline]
    pub(crate) fn row_index(&self, file: FileId) -> Option<usize> {
        match self.row_of.get(file.index()) {
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }

    /// One past the largest file id in any row or set.
    pub(crate) fn id_bound(&self) -> usize {
        self.row_of.len()
    }

    /// The slot of pair `(a, b)` when `b` is in `a`'s set and is not `a`.
    pub(crate) fn pair_slot(&self, a: FileId, b: FileId) -> Option<usize> {
        let r = self.row_index(a)?;
        let k = self.set(r).iter().skip(1).position(|&m| m == b)?;
        Some(self.slots(r).start + 1 + k)
    }
}

/// `exclude`, sorted.
pub(crate) fn sorted(exclude: &HashSet<FileId>) -> Vec<FileId> {
    let mut v: Vec<FileId> = exclude.iter().copied().collect();
    v.sort_unstable();
    v
}

/// The files in exactly one of two sorted lists.
fn symmetric_difference<'a>(a: &'a [FileId], b: &'a [FileId]) -> impl Iterator<Item = &'a FileId> {
    let in_a = a.iter().filter(|f| b.binary_search(f).is_err());
    in_a.chain(b.iter().filter(|f| a.binary_search(f).is_err()))
}

/// Per-file marks for intersecting one neighbor set with many: stamping
/// a set writes the current epoch at each member's index, and counting
/// another set sums its members that carry the epoch — no hashing and no
/// merge branches. A new epoch forgets the old marks without clearing.
#[derive(Debug, Default, Clone)]
pub(crate) struct Stamp {
    marks: Vec<u32>,
    epoch: u32,
}

impl Stamp {
    /// Marks for file ids below `bound`.
    pub(crate) fn new(bound: usize) -> Stamp {
        Stamp {
            marks: vec![0; bound],
            epoch: 0,
        }
    }

    /// Covers file ids below `bound`.
    pub(crate) fn ensure(&mut self, bound: usize) {
        if bound > self.marks.len() {
            self.marks.resize(bound, 0);
        }
    }

    /// Forgets every mark.
    pub(crate) fn start(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `f`; whether it was unmarked.
    #[inline]
    pub(crate) fn insert(&mut self, f: FileId) -> bool {
        self.ensure(f.index() + 1);
        let m = &mut self.marks[f.index()];
        let fresh = *m != self.epoch;
        *m = self.epoch;
        fresh
    }

    /// Stamps `set`, forgetting the previous one. Its members must lie
    /// below the bound.
    pub(crate) fn mark(&mut self, set: &[FileId]) {
        self.start();
        for f in set {
            self.marks[f.index()] = self.epoch;
        }
    }

    /// Members of `set` in the stamped set, counted up to `cap`.
    #[inline]
    pub(crate) fn count_to(&self, set: &[FileId], cap: u32) -> u32 {
        let mut n = 0;
        for f in set {
            if n == cap {
                break;
            }
            n += u32::from(self.marks.get(f.index()) == Some(&self.epoch));
        }
        n
    }

    /// Members of `set` in the stamped set.
    #[inline]
    pub(crate) fn count(&self, set: &[FileId]) -> u32 {
        set.iter()
            .map(|f| u32::from(self.marks.get(f.index()) == Some(&self.epoch)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_distance::DistanceConfig;

    /// A table whose rows list `targets` in the given order.
    fn table(rows: &[(u32, &[u32])]) -> NeighborTable {
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        for &(from, targets) in rows {
            for &to in targets {
                t.observe(FileId(from), FileId(to), 1.0);
            }
        }
        t
    }

    fn counter() -> SharedNeighborCounter {
        let t = table(&[(1, &[10, 11, 12]), (2, &[11, 12, 13]), (3, &[20])]);
        SharedNeighborCounter::from_table_excluding(&t, &HashSet::new())
    }

    /// Neighbors `a` and `b` share, counted as the recount does.
    fn shared(c: &SharedNeighborCounter, a: FileId, b: FileId) -> u32 {
        let mut stamp = Stamp::new(c.id_bound());
        stamp.mark(c.neighbors(a).unwrap_or(&[]));
        c.count_stamped(&stamp, b, u32::MAX)
    }

    /// `file`'s set, sorted.
    fn members(c: &SharedNeighborCounter, file: u32) -> Option<Vec<FileId>> {
        c.neighbors(FileId(file)).map(|set| {
            let mut set = set.to_vec();
            set.sort_unstable();
            set
        })
    }

    #[test]
    fn shared_counts_intersection() {
        let c = counter();
        // {1, 10, 11, 12} and {2, 11, 12, 13} share 11 and 12.
        assert_eq!(shared(&c, FileId(1), FileId(2)), 2);
        assert_eq!(shared(&c, FileId(1), FileId(3)), 0);
        assert_eq!(
            shared(&c, FileId(1), FileId(99)),
            0,
            "unknown file shares nothing"
        );
    }

    #[test]
    fn candidate_pairs_are_directed_by_listing() {
        let c = counter();
        assert!(c.pair_slot(FileId(1), FileId(10)).is_some());
        assert!(
            c.pair_slot(FileId(10), FileId(1)).is_none(),
            "10 has no list"
        );
        assert!(c.pair_slot(FileId(1), FileId(1)).is_none(), "no self pair");
    }

    /// The sets equal a reference built from the table's snapshot rows,
    /// as sets: each row's file plus its targets, less purged and
    /// excluded files.
    #[test]
    fn sets_match_the_table_snapshot() {
        let mut t = table(&[]);
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i != j {
                    t.observe(FileId(i), FileId(j), f64::from(i + j));
                }
            }
        }
        // Purge 4 once its mark comes due.
        t.note_deletion(FileId(4));
        for k in 0..DistanceConfig::default().deletion_delay {
            t.note_deletion(FileId(100 + k as u32));
        }
        assert!(t.is_dead(FileId(4)));
        let exclude: HashSet<FileId> = [FileId(2)].into_iter().collect();
        let c = SharedNeighborCounter::from_table_excluding(&t, &exclude);
        let snap = t.snapshot();
        let mut rows = 0;
        for (f, entries) in &snap.rows {
            let mut want: Vec<FileId> = std::iter::once(*f)
                .chain(entries.iter().map(|e| e.to))
                .filter(|g| !exclude.contains(g) && !snap.dead.contains(g))
                .collect();
            want.sort_unstable();
            want.dedup();
            if exclude.contains(f) {
                assert_eq!(c.neighbors(*f), None, "{f:?} is excluded");
            } else {
                assert_eq!(members(&c, f.0), Some(want), "row {f:?}");
                rows += 1;
            }
        }
        assert_eq!(c.len(), rows);
        assert_eq!(c.excluded, vec![FileId(2)]);
    }

    /// Every file mentioned anywhere, as a row or only as a neighbor, is
    /// indexed, so a stamp can mark any set.
    #[test]
    fn all_files_includes_targets() {
        let c = counter();
        assert_eq!(c.id_bound(), 21, "target 20 is covered");
        assert_eq!(c.row_index(FileId(20)), None, "20 has no set of its own");
        assert_eq!(c.row_index(FileId(3)), Some(2));
        let mut stamp = Stamp::new(c.id_bound());
        stamp.mark(c.neighbors(FileId(3)).expect("3 has a set"));
        assert_eq!(c.count_stamped(&stamp, FileId(3), u32::MAX), 2);
    }

    /// Each set holds its file, first, and the file's live targets once
    /// each; excluded files are dropped as rows and as members, and every
    /// listed pair has a slot of its own.
    #[test]
    fn row_blocks_are_self_inclusive_and_drop_excluded() {
        let t = table(&[(5, &[9, 1, 7]), (1, &[5, 7]), (7, &[5])]);
        let exclude: HashSet<FileId> = [FileId(7)].into_iter().collect();
        let c = SharedNeighborCounter::from_table_excluding(&t, &exclude);
        let files: Vec<FileId> = c.rows().map(|(f, _)| f).collect();
        assert_eq!(files, vec![FileId(1), FileId(5)]);
        assert_eq!(members(&c, 1), Some(vec![FileId(1), FileId(5)]));
        assert_eq!(members(&c, 5), Some(vec![FileId(1), FileId(5), FileId(9)]));
        for (f, set) in c.rows() {
            assert_eq!(set[0], f, "{f:?} leads its own set");
        }
        assert_eq!(c.neighbors(FileId(7)), None);
        let mut slots: Vec<usize> = [(1, 5), (5, 1), (5, 9)]
            .into_iter()
            .map(|(a, b)| c.pair_slot(FileId(a), FileId(b)).expect("listed"))
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 3, "three pairs, three slots");
        assert_eq!(shared(&c, FileId(1), FileId(5)), 2);
    }

    /// An update rewrites exactly the rows whose sets changed — the dirty
    /// rows and the rows holding a file whose exclusion flipped, both
    /// ways — leaves every other row in its block, and ends equal to a
    /// fresh build.
    #[test]
    fn updates_rewrite_only_changed_rows() {
        let mut t = table(&[(1, &[2, 3]), (2, &[3]), (4, &[5]), (6, &[1])]);
        let mut sets = SharedNeighborCounter::from_table_excluding(&t, &HashSet::new());
        t.take_dirty();
        let update = |sets: &mut SharedNeighborCounter, t: &mut NeighborTable, exclude: &[u32]| {
            let excluded: Vec<FileId> = exclude.iter().map(|&f| FileId(f)).collect();
            let mut changed = Changed::default();
            let dirty = t.take_dirty();
            sets.update_from_table(t, &excluded, Some(&dirty.rows), &mut changed);
            let fresh =
                SharedNeighborCounter::from_table_excluding(t, &excluded.iter().copied().collect());
            assert_eq!(*sets, fresh);
            let mut files = changed.list.clone();
            files.sort_unstable();
            files.into_iter().map(|f| f.0).collect::<Vec<u32>>()
        };
        let block_of_4 = sets.row_index(FileId(4));
        // A new target dirties one row; a repeat observation dirties none.
        t.observe(FileId(2), FileId(7), 1.0);
        t.observe(FileId(1), FileId(2), 1.0);
        assert_eq!(update(&mut sets, &mut t, &[]), vec![2]);
        assert_eq!(sets.row_index(FileId(4)), block_of_4, "clean rows stay put");
        // Excluding 3 rewrites its own row (none) and the rows listing it.
        assert_eq!(update(&mut sets, &mut t, &[3]), vec![1, 2]);
        // Excluding 1 drops its row and rewrites 6's; 3 comes back.
        assert_eq!(update(&mut sets, &mut t, &[1]), vec![1, 2, 6]);
        assert_eq!(sets.neighbors(FileId(1)), None);
        // A dropped row's block goes to the next new row.
        let freed = sets.blocks();
        t.observe(FileId(8), FileId(4), 1.0);
        assert_eq!(update(&mut sets, &mut t, &[1]), vec![8]);
        assert_eq!(sets.blocks(), freed, "8 reuses 1's block");
    }

    /// A stamp counts intersections across many sets and survives its
    /// epoch wrapping.
    #[test]
    fn stamp_counts_intersections_across_epochs() {
        let mut s = Stamp::new(8);
        s.epoch = u32::MAX - 1;
        let a = [FileId(1), FileId(3), FileId(5)];
        let b = [FileId(3), FileId(4), FileId(5)];
        for _ in 0..4 {
            s.mark(&a);
            assert_eq!(s.count(&b), 2);
            s.mark(&b);
            assert_eq!(s.count(&[FileId(1)]), 0);
        }
    }
}
