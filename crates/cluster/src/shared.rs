//! Shared-neighbor counting from the stored n-neighbor lists.

use seer_distance::{ClusterView, NeighborTable};
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
/// file-to-row map finds the set of any file without hashing.
#[derive(Debug, Default, Clone)]
pub struct SharedNeighborCounter {
    files: Vec<FileId>,
    offsets: Vec<u32>,
    members: Vec<FileId>,
    /// Row of each file, indexed by [`FileId`], or [`NO_ROW`]; covers every
    /// row and every member.
    row_of: Vec<u32>,
}

impl SharedNeighborCounter {
    /// Builds the counter from a distance table.
    ///
    /// As in Jarvis & Patrick's formulation, every file is a member of its
    /// own neighbor set, so two mutually-listed files share at least
    /// themselves.
    #[must_use]
    pub fn from_table(table: &NeighborTable) -> SharedNeighborCounter {
        SharedNeighborCounter::from_table_excluding(table, &HashSet::new())
    }

    /// Builds the counter, ignoring `exclude`d files entirely — neither as
    /// rows nor as neighbor-set members.
    ///
    /// Frequently-referenced files are "eliminated from the calculation of
    /// semantic distances and file relationships" (§4.2); passing the
    /// always-hoard set here removes the bridges that would otherwise fuse
    /// unrelated projects through shared libraries.
    #[must_use]
    pub fn from_table_excluding(
        table: &NeighborTable,
        exclude: &HashSet<FileId>,
    ) -> SharedNeighborCounter {
        SharedNeighborCounter::from_view_excluding(&table.cluster_view(), exclude)
    }

    /// Builds the counter from a frozen [`ClusterView`], applying the same
    /// exclusion rule as [`SharedNeighborCounter::from_table_excluding`].
    ///
    /// A view taken with [`seer_distance::NeighborTable::cluster_view`]
    /// yields exactly the counter the live table would, so a clustering
    /// computed off-thread from the view is identical to one computed
    /// in place.
    #[must_use]
    pub fn from_view_excluding(
        view: &ClusterView,
        exclude: &HashSet<FileId>,
    ) -> SharedNeighborCounter {
        let mut excluded = vec![false; exclude.iter().map(|f| f.index() + 1).max().unwrap_or(0)];
        for f in exclude {
            excluded[f.index()] = true;
        }
        let is_excluded = |f: FileId| excluded.get(f.index()).copied().unwrap_or(false);
        let mut counter = SharedNeighborCounter::default();
        let mut set = Vec::new();
        for (f, targets) in view.rows() {
            if is_excluded(*f) {
                continue;
            }
            set.clear();
            set.push(*f);
            set.extend(targets.iter().copied().filter(|&t| !is_excluded(t)));
            counter.push_row(*f, &mut set);
        }
        counter.index_rows();
        counter
    }

    /// Builds the counter directly from neighbor lists (for tests and
    /// synthetic inputs). A file listed twice keeps its last list.
    #[must_use]
    pub fn from_lists(mut lists: Vec<(FileId, Vec<FileId>)>) -> SharedNeighborCounter {
        lists.reverse();
        lists.sort_by_key(|(f, _)| *f);
        lists.dedup_by_key(|(f, _)| *f);
        let mut counter = SharedNeighborCounter::default();
        for (f, mut targets) in lists {
            counter.push_row(f, &mut targets);
        }
        counter.index_rows();
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

    /// Number of neighbors `a` and `b` share.
    #[must_use]
    pub fn shared(&self, a: FileId, b: FileId) -> u32 {
        let mut stamp = Stamp::new(self.id_bound());
        stamp.mark(self.neighbors(a).unwrap_or(&[]));
        self.count_stamped(&stamp, b)
    }

    /// Members of `b`'s set stamped in `stamp` — the neighbors `b` shares
    /// with the set stamped last (none if `b` has no set).
    pub(crate) fn count_stamped(&self, stamp: &Stamp, b: FileId) -> u32 {
        self.neighbors(b).map_or(0, |set| stamp.count(set))
    }

    /// The directed candidate pairs `(A, B)` where `B` appears in `A`'s
    /// neighbor list — the only pairs the O(N) variation examines
    /// (§3.3.2) — in `(A, B)` order.
    pub fn candidate_pairs(&self) -> impl Iterator<Item = (FileId, FileId)> + '_ {
        (0..self.rows())
            .flat_map(move |r| self.set(r).iter().map(move |&b| (self.files[r], b)))
            .filter(|(a, b)| a != b)
    }

    /// All files with a stored neighbor set, sorted.
    #[must_use]
    pub fn files_sorted(&self) -> Vec<FileId> {
        self.files.clone()
    }

    /// Every file mentioned anywhere (as a row or as a neighbor).
    #[must_use]
    pub fn all_files(&self) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.files.iter().chain(&self.members).copied().collect();
        v.sort_unstable();
        v.dedup();
        v
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

    /// The slot of pair `(a, b)` when `b` is in `a`'s set and is not `a`.
    pub(crate) fn pair_slot(&self, a: FileId, b: FileId) -> Option<usize> {
        if a == b {
            return None;
        }
        let r = self.row_index(a)?;
        let k = self.set(r).binary_search(&b).ok()?;
        Some(self.slots(r).start + k)
    }

    /// Number of directed candidate pairs.
    pub(crate) fn pair_count(&self) -> usize {
        (0..self.rows())
            .map(|r| {
                let own = usize::from(self.set(r).binary_search(&self.files[r]).is_ok());
                self.set(r).len() - own
            })
            .sum()
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

    fn counter() -> SharedNeighborCounter {
        SharedNeighborCounter::from_lists(vec![
            (FileId(1), vec![FileId(10), FileId(11), FileId(12)]),
            (FileId(2), vec![FileId(11), FileId(12), FileId(13)]),
            (FileId(3), vec![FileId(20)]),
        ])
    }

    #[test]
    fn shared_counts_intersection() {
        let c = counter();
        assert_eq!(c.shared(FileId(1), FileId(2)), 2);
        assert_eq!(c.shared(FileId(1), FileId(3)), 0);
        assert_eq!(
            c.shared(FileId(1), FileId(99)),
            0,
            "unknown file shares nothing"
        );
    }

    #[test]
    fn candidate_pairs_are_directed_by_listing() {
        let c = counter();
        let pairs: Vec<_> = c.candidate_pairs().collect();
        assert!(pairs.contains(&(FileId(1), FileId(10))));
        assert!(!pairs.contains(&(FileId(10), FileId(1))), "10 has no list");
    }

    #[test]
    fn view_counter_matches_table_counter() {
        use seer_distance::{DistanceConfig, NeighborTable};
        let dc = DistanceConfig::default();
        let mut t = NeighborTable::new(
            dc.n_neighbors,
            dc.reduction,
            dc.aging_refs,
            dc.deletion_delay,
            dc.seed,
        );
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i != j {
                    t.observe(FileId(i), FileId(j), f64::from(i + j));
                }
            }
        }
        let exclude: std::collections::HashSet<FileId> = [FileId(2)].into_iter().collect();
        let from_table = SharedNeighborCounter::from_table_excluding(&t, &exclude);
        let from_view = SharedNeighborCounter::from_view_excluding(&t.cluster_view(), &exclude);
        assert_eq!(from_table.files_sorted(), from_view.files_sorted());
        for f in from_table.files_sorted() {
            assert_eq!(from_table.neighbors(f), from_view.neighbors(f));
        }
    }

    #[test]
    fn all_files_includes_targets() {
        let c = counter();
        let all = c.all_files();
        assert!(all.contains(&FileId(1)));
        assert!(all.contains(&FileId(20)));
        assert_eq!(all.len(), 8);
    }

    /// The flat layout keeps every set sorted with the file itself in it,
    /// drops excluded files as rows and as members, and lists candidate
    /// pairs in `(a, b)` order.
    #[test]
    fn flat_sets_are_sorted_self_inclusive_and_ordered() {
        let view = ClusterView::from_rows(vec![
            (FileId(5), vec![FileId(9), FileId(1), FileId(7)]),
            (FileId(1), vec![FileId(5), FileId(7)]),
            (FileId(7), vec![FileId(5)]),
        ]);
        let exclude: HashSet<FileId> = [FileId(7)].into_iter().collect();
        let c = SharedNeighborCounter::from_view_excluding(&view, &exclude);
        assert_eq!(c.files_sorted(), vec![FileId(1), FileId(5)]);
        assert_eq!(c.neighbors(FileId(1)), Some(&[FileId(1), FileId(5)][..]));
        assert_eq!(
            c.neighbors(FileId(5)),
            Some(&[FileId(1), FileId(5), FileId(9)][..])
        );
        assert_eq!(c.neighbors(FileId(7)), None);
        let pairs: Vec<_> = c.candidate_pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (FileId(1), FileId(5)),
                (FileId(5), FileId(1)),
                (FileId(5), FileId(9))
            ]
        );
        assert_eq!(c.pair_count(), 3);
        assert_eq!(c.shared(FileId(1), FileId(5)), 2);
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
