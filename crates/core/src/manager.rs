//! Whole-project hoard selection (§2).
//!
//! "The correlator examines the projects to find those that are currently
//! active, and selects the highest-priority projects until the maximum
//! hoard size is reached. Only complete projects are hoarded, under the
//! assumption that partial projects are not sufficient to make progress."

use crate::activity::ActivityTracker;
use crate::rankers::clusters_by_priority;
use seer_cluster::Clustering;
use seer_trace::FileId;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The outcome of a hoard selection.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HoardSelection {
    /// Chosen files in selection order (always-hoard set first, then
    /// projects by priority).
    pub files: Vec<FileId>,
    /// Total bytes selected.
    pub bytes: u64,
    /// Whole projects taken.
    pub clusters_taken: usize,
    /// Projects skipped because their remaining members did not fit.
    pub clusters_skipped: usize,
    /// Bytes reserved up front for directories, under §4.6's conservative
    /// assumption that every known directory is hoarded.
    pub directory_reserve: u64,
}

impl HoardSelection {
    /// Whether `file` was selected.
    #[must_use]
    pub fn contains(&self, file: FileId) -> bool {
        self.files.contains(&file)
    }

    /// `(file, size)` pairs ready for
    /// [`seer_replication::ReplicationSystem::fill_hoard`].
    #[must_use]
    pub fn as_fill_list(&self, sizes: &dyn Fn(FileId) -> u64) -> Vec<(FileId, u64)> {
        self.files.iter().map(|&f| (f, sizes(f))).collect()
    }
}

/// A set of files as dense flags indexed by [`FileId`]: no hashing, and
/// one allocation that grows to the largest id inserted.
#[derive(Debug, Default)]
pub(crate) struct FileFlags(Vec<bool>);

impl FileFlags {
    /// Whether `f` is in the set.
    pub(crate) fn contains(&self, f: FileId) -> bool {
        self.0.get(f.index()).copied().unwrap_or(false)
    }

    /// Adds `f`; whether it was absent.
    pub(crate) fn insert(&mut self, f: FileId) -> bool {
        let i = f.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, false);
        }
        !std::mem::replace(&mut self.0[i], true)
    }
}

/// Selects hoard contents: the always-hoard set unconditionally, then
/// complete projects in priority order while they fit within `budget`
/// bytes.
#[must_use]
pub fn select_hoard(
    clustering: &Clustering,
    activity: &ActivityTracker,
    always_hoard: &HashSet<FileId>,
    sizes: &dyn Fn(FileId) -> u64,
    budget: u64,
) -> HoardSelection {
    let mut sel = HoardSelection::default();
    let mut chosen = FileFlags::default();
    // Critical, frequently-referenced, and non-file objects are always
    // included, regardless of reference history (§4.2, §4.3, §4.6).
    let mut always: Vec<FileId> = always_hoard.iter().copied().collect();
    always.sort_unstable();
    for f in always {
        if chosen.insert(f) {
            sel.bytes += sizes(f);
            sel.files.push(f);
        }
    }
    for cid in clusters_by_priority(clustering, activity) {
        let files = &clustering.cluster(cid).files;
        let extra: u64 = (files.iter())
            .filter(|&&f| !chosen.contains(f))
            .map(|&f| sizes(f))
            .sum();
        if sel.bytes + extra > budget {
            sel.clusters_skipped += 1;
            continue;
        }
        // Whole project or nothing.
        for &f in files {
            if chosen.insert(f) {
                sel.files.push(f);
            }
        }
        sel.bytes += extra;
        sel.clusters_taken += 1;
    }
    // Top up leftover space with known-but-unclustered files in recency
    // order; the whole-project rule governs projects, not stragglers.
    for f in activity.lru_order() {
        if chosen.contains(f) {
            continue;
        }
        let s = sizes(f);
        if sel.bytes + s <= budget {
            chosen.insert(f);
            sel.files.push(f);
            sel.bytes += s;
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{Seq, Timestamp};

    fn activity(entries: &[(u32, u64)]) -> ActivityTracker {
        let mut t = ActivityTracker::new();
        for &(f, seq) in entries {
            t.record(FileId(f), Seq(seq), Timestamp::from_secs(seq));
        }
        t
    }

    fn unit_sizes(_: FileId) -> u64 {
        10
    }

    #[test]
    fn takes_whole_projects_in_priority_order() {
        let clustering = Clustering::from_members(vec![
            vec![FileId(1), FileId(2)], // Recent project.
            vec![FileId(3), FileId(4)], // Older project.
        ]);
        let act = activity(&[(1, 100), (3, 50)]);
        let sel = select_hoard(&clustering, &act, &HashSet::new(), &unit_sizes, 25);
        // Budget 25 fits one project of 20 but not both.
        assert_eq!(sel.clusters_taken, 1);
        assert_eq!(sel.clusters_skipped, 1);
        assert!(sel.contains(FileId(1)) && sel.contains(FileId(2)));
        assert!(!sel.contains(FileId(3)));
        assert_eq!(sel.bytes, 20);
    }

    #[test]
    fn partial_projects_are_never_hoarded() {
        let clustering = Clustering::from_members(vec![vec![FileId(1), FileId(2), FileId(3)]]);
        let act = activity(&[(1, 10)]);
        let sel = select_hoard(&clustering, &act, &HashSet::new(), &unit_sizes, 25);
        assert_eq!(
            sel.clusters_taken, 0,
            "project of 30 bytes cannot fit in 25"
        );
        // The skipped project's *referenced* member still arrives via the
        // recency top-up — as an individual file, not as a project.
        assert_eq!(sel.files, vec![FileId(1)]);
    }

    #[test]
    fn smaller_later_project_still_fits() {
        let clustering = Clustering::from_members(vec![
            vec![FileId(1), FileId(2), FileId(3)], // 30 bytes, recent.
            vec![FileId(4)],                       // 10 bytes, older.
        ]);
        let act = activity(&[(1, 100), (4, 5)]);
        let sel = select_hoard(&clustering, &act, &HashSet::new(), &unit_sizes, 15);
        assert_eq!(sel.clusters_taken, 1);
        assert!(
            sel.contains(FileId(4)),
            "selection continues past an oversized project"
        );
    }

    #[test]
    fn always_hoard_charges_against_budget_but_never_drops() {
        let clustering = Clustering::from_members(vec![vec![FileId(1)]]);
        let act = activity(&[(1, 10)]);
        let always: HashSet<FileId> = [FileId(50), FileId(51)].into_iter().collect();
        // Budget 25: the 20 bytes of always-hoard files leave no room for
        // the 10-byte project.
        let sel = select_hoard(&clustering, &act, &always, &unit_sizes, 25);
        assert!(sel.contains(FileId(50)) && sel.contains(FileId(51)));
        assert!(!sel.contains(FileId(1)));
        assert_eq!(sel.clusters_skipped, 1);
        // Budget 30 fits both.
        let sel = select_hoard(&clustering, &act, &always, &unit_sizes, 30);
        assert!(sel.contains(FileId(1)));
    }

    #[test]
    fn overlapping_members_counted_once() {
        let clustering =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(2), FileId(3)]]);
        let act = activity(&[(1, 100), (3, 90)]);
        let sel = select_hoard(&clustering, &act, &HashSet::new(), &unit_sizes, 30);
        // First project costs 20; second costs only 10 more (2 is shared).
        assert_eq!(sel.clusters_taken, 2);
        assert_eq!(sel.bytes, 30);
        assert_eq!(sel.files.len(), 3);
    }

    #[test]
    fn fill_list_pairs_sizes() {
        let sel = HoardSelection {
            files: vec![FileId(1), FileId(2)],
            bytes: 20,
            clusters_taken: 1,
            clusters_skipped: 0,
            directory_reserve: 0,
        };
        let list = sel.as_fill_list(&|f| u64::from(f.0) * 100);
        assert_eq!(list, vec![(FileId(1), 100), (FileId(2), 200)]);
    }
}
