//! Flat shared-neighbor sets, built from the distance table in one pass.
//!
//! A recluster reads the table's rows in place (see
//! [`NeighborTable::rows`]) and writes each surviving row's set straight
//! into one flat array; the counting phase then intersects sets by
//! stamping each row's set once and counting every listed file's set
//! against the stamp.

use seer_distance::NeighborTable;
use seer_trace::FileId;
use std::collections::HashSet;
use std::ops::Range;

/// Marks a file with no neighbor set in [`SharedNeighborCounter`]'s
/// file-to-row map.
const NO_ROW: u32 = u32::MAX;

/// Sorted neighbor sets in one flat array, supporting O(n)
/// shared-neighbor counting between any candidate pair.
///
/// Rows are the files with a set, ascending; row `r`'s set is
/// `members[offsets[r]..offsets[r + 1]]`, sorted ascending. A dense
/// file-to-row map finds the set of any file without hashing. The sets
/// keep the sorted list of files they leave out, so an incremental
/// recluster can tell whose exclusion flipped since the previous sets.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SharedNeighborCounter {
    files: Vec<FileId>,
    offsets: Vec<u32>,
    members: Vec<FileId>,
    /// Row of each file, indexed by [`FileId`], or [`NO_ROW`]; covers every
    /// row and every member.
    row_of: Vec<u32>,
    /// The excluded files, sorted.
    excluded: Vec<FileId>,
}

impl SharedNeighborCounter {
    /// Builds the sets in one pass over the table's rows, dropping
    /// purged targets and ignoring `exclude`d files entirely — neither as
    /// rows nor as neighbor-set members. Nothing is allocated per row.
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
        let mut excluded: Vec<FileId> = exclude.iter().copied().collect();
        excluded.sort_unstable();
        let mut flags = vec![false; excluded.last().map_or(0, |f| f.index() + 1)];
        for f in &excluded {
            flags[f.index()] = true;
        }
        let is_excluded = |f: FileId| flags.get(f.index()).copied().unwrap_or(false);
        let mut counter = SharedNeighborCounter::default();
        let mut set = Vec::new();
        for (f, targets) in table.rows() {
            if is_excluded(f) {
                continue;
            }
            set.clear();
            set.push(f);
            set.extend(
                targets
                    .iter()
                    .copied()
                    .filter(|&t| !table.is_dead(t) && !is_excluded(t)),
            );
            counter.push_row(f, &mut set);
        }
        counter.index_rows();
        counter.excluded = excluded;
        counter
    }

    /// Appends `file`'s row; rows arrive in ascending file order.
    fn push_row(&mut self, file: FileId, set: &mut Vec<FileId>) {
        set.sort_unstable();
        set.dedup();
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.files.push(file);
        self.members.extend_from_slice(set);
        self.offsets.push(self.members.len() as u32);
    }

    /// Builds the file-to-row map once every row is in.
    fn index_rows(&mut self) {
        let bound = self
            .files
            .iter()
            .chain(&self.members)
            .map(|f| f.index() + 1)
            .max()
            .unwrap_or(0);
        self.row_of = vec![NO_ROW; bound];
        for (r, f) in self.files.iter().enumerate() {
            self.row_of[f.index()] = r as u32;
        }
    }

    /// Members of `b`'s set stamped in `stamp` — the neighbors `b` shares
    /// with the set stamped last (none if `b` has no set).
    pub(crate) fn count_stamped(&self, stamp: &Stamp, b: FileId) -> u32 {
        self.neighbors(b).map_or(0, |set| stamp.count(set))
    }

    /// The neighbor set of `file`, if stored.
    #[must_use]
    pub fn neighbors(&self, file: FileId) -> Option<&[FileId]> {
        self.row_index(file).map(|r| self.set(r))
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.files.len()
    }

    /// The file of row `r`.
    pub(crate) fn row_file(&self, r: usize) -> FileId {
        self.files[r]
    }

    /// Row `r`'s slots in the flat member array.
    pub(crate) fn slots(&self, r: usize) -> Range<usize> {
        self.offsets[r] as usize..self.offsets[r + 1] as usize
    }

    /// Row `r`'s set.
    pub(crate) fn set(&self, r: usize) -> &[FileId] {
        &self.members[self.slots(r)]
    }

    /// Total member slots over all rows.
    pub(crate) fn slot_count(&self) -> usize {
        self.members.len()
    }

    /// The row of `file`, if it has a set.
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

    /// The excluded files, sorted.
    pub(crate) fn excluded(&self) -> &[FileId] {
        &self.excluded
    }

    /// The slot of pair `(a, b)` when `b` is in `a`'s set and is not `a`.
    pub(crate) fn pair_slot(&self, a: FileId, b: FileId) -> Option<usize> {
        if a == b {
            return None;
        }
        let r = self.row_index(a)?;
        let k = self.set(r).binary_search(&b).ok()?;
        Some(self.slots(r).start + k)
    }
}

/// Per-file marks for intersecting one neighbor set with many: stamping
/// a set writes the current epoch at each member's index, and counting
/// another set sums its members that carry the epoch — no hashing and no
/// merge branches. A new epoch forgets the old marks without clearing.
#[derive(Debug)]
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

    /// Stamps `set`, forgetting the previous one.
    pub(crate) fn mark(&mut self, set: &[FileId]) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        for f in set {
            self.marks[f.index()] = self.epoch;
        }
    }

    /// Members of `set` in the stamped set.
    pub(crate) fn count(&self, set: &[FileId]) -> u32 {
        set.iter()
            .map(|f| u32::from(self.marks[f.index()] == self.epoch))
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
        c.count_stamped(&stamp, b)
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

    /// The one-pass sets equal a reference built from the table's
    /// snapshot rows: each row's file plus its targets, less purged and
    /// excluded files, sorted.
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
                assert_eq!(c.neighbors(*f), Some(&want[..]), "row {f:?}");
                rows += 1;
            }
        }
        assert_eq!(c.rows(), rows);
        assert_eq!(c.excluded(), &[FileId(2)]);
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
        assert_eq!(c.count_stamped(&stamp, FileId(3)), 2);
    }

    /// The flat layout keeps every set sorted with the file itself in it,
    /// drops excluded files as rows and as members, and lays candidate
    /// pairs out in `(a, b)` order.
    #[test]
    fn flat_sets_are_sorted_self_inclusive_and_ordered() {
        let t = table(&[(5, &[9, 1, 7]), (1, &[5, 7]), (7, &[5])]);
        let exclude: HashSet<FileId> = [FileId(7)].into_iter().collect();
        let c = SharedNeighborCounter::from_table_excluding(&t, &exclude);
        let files: Vec<FileId> = (0..c.rows()).map(|r| c.row_file(r)).collect();
        assert_eq!(files, vec![FileId(1), FileId(5)]);
        assert_eq!(c.neighbors(FileId(1)), Some(&[FileId(1), FileId(5)][..]));
        assert_eq!(
            c.neighbors(FileId(5)),
            Some(&[FileId(1), FileId(5), FileId(9)][..])
        );
        assert_eq!(c.neighbors(FileId(7)), None);
        let slots: Vec<Option<usize>> = [(1, 5), (5, 1), (5, 9)]
            .into_iter()
            .map(|(a, b)| c.pair_slot(FileId(a), FileId(b)))
            .collect();
        assert!(slots.iter().all(Option::is_some), "{slots:?}");
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
        assert_eq!(c.slot_count(), 5, "three pairs plus two own slots");
        assert_eq!(shared(&c, FileId(1), FileId(5)), 2);
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
