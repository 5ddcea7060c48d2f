//! Clustering results: overlapping file-to-project assignments.

use seer_trace::FileId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Identifier of a cluster within one [`Clustering`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Returns the id as an index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One project: a set of files. Files may belong to several clusters
/// (§3.3.1's overlapping-clusters requirement).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Member files, sorted and deduplicated.
    pub files: Vec<FileId>,
}

impl Cluster {
    /// Number of member files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the cluster has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Whether `file` is a member.
    #[must_use]
    pub fn contains(&self, file: FileId) -> bool {
        self.files.binary_search(&file).is_ok()
    }
}

/// A complete cluster assignment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Clustering {
    /// All clusters, sorted by member list and free of duplicates
    /// ([`Clustering::from_members`]); [`Clustering::churn_from`] relies
    /// on the order.
    pub clusters: Vec<Cluster>,
    membership: HashMap<FileId, Vec<ClusterId>>,
}

impl Clustering {
    /// Builds a clustering from member lists, deriving the reverse index.
    #[must_use]
    pub fn from_members(mut members: Vec<Vec<FileId>>) -> Clustering {
        for m in &mut members {
            m.sort_unstable();
            m.dedup();
        }
        members.retain(|m| !m.is_empty());
        members.sort();
        members.dedup();
        let mut membership: HashMap<FileId, Vec<ClusterId>> = HashMap::new();
        let clusters: Vec<Cluster> = members
            .into_iter()
            .enumerate()
            .map(|(i, files)| {
                for &f in &files {
                    membership.entry(f).or_default().push(ClusterId(i as u32));
                }
                Cluster { files }
            })
            .collect();
        Clustering {
            clusters,
            membership,
        }
    }

    /// The clusters containing `file` (empty if unknown).
    #[must_use]
    pub fn clusters_of(&self, file: FileId) -> &[ClusterId] {
        self.membership.get(&file).map_or(&[], Vec::as_slice)
    }

    /// The cluster with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this clustering.
    #[must_use]
    pub fn cluster(&self, id: ClusterId) -> &Cluster {
        &self.clusters[id.index()]
    }

    /// `file`'s memberships with context: `(cluster id, member count)`
    /// per containing cluster, in membership order. Empty if the file is
    /// unclustered — exactly what an explanation wants to show.
    #[must_use]
    pub fn membership_summary(&self, file: FileId) -> Vec<(u32, usize)> {
        self.clusters_of(file)
            .iter()
            .map(|&id| (id.0, self.cluster(id).len()))
            .collect()
    }

    /// Number of clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether there are no clusters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// All distinct files appearing in any cluster.
    #[must_use]
    pub fn all_files(&self) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.membership.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Number of files whose cluster membership differs between `previous`
    /// and `self` — files that joined, left, or whose project's member set
    /// changed. This is the churn a reclustering introduced; telemetry
    /// tracks its running total to show how unstable project boundaries
    /// are under a given workload.
    ///
    /// A file is unchanged when the clusters holding it have the same
    /// member lists before and after. Both cluster lists are sorted and
    /// deduplicated ([`Clustering::from_members`]), so one merge pairs
    /// each previous cluster with its identical successor, if it has one.
    /// A file's old cluster ids map one to one onto its new ones exactly
    /// when every cluster holding it, on either side, is paired, so the
    /// churn is the number of files held by an unpaired cluster. That
    /// takes O(clusters + memberships), with a map lookup only for the
    /// files of unpaired new clusters.
    #[must_use]
    pub fn churn_from(&self, previous: &Clustering) -> usize {
        let (old, new) = (&previous.clusters, &self.clusters);
        let sorted = |cs: &[Cluster]| cs.windows(2).all(|w| w[0].files < w[1].files);
        debug_assert!(sorted(old) && sorted(new), "built by from_members");
        let mut old_paired = vec![false; old.len()];
        let mut new_paired = vec![false; new.len()];
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match old[i].files.cmp(&new[j].files) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    old_paired[i] = true;
                    new_paired[j] = true;
                    i += 1;
                    j += 1;
                }
            }
        }
        let unpaired = |paired: &[bool], ids: &[ClusterId]| ids.iter().any(|c| !paired[c.index()]);
        // Files that left a cluster with no successor, departed files
        // included, then the rest of those that joined one with no
        // predecessor, new files included.
        let left = (previous.membership.values())
            .filter(|ids| unpaired(&old_paired, ids))
            .count();
        let joined = (self.membership.iter())
            .filter(|&(&f, ids)| {
                unpaired(&new_paired, ids) && !unpaired(&old_paired, previous.clusters_of(f))
            })
            .count();
        left + joined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_members_sorts_dedups_and_indexes() {
        let c = Clustering::from_members(vec![
            vec![FileId(3), FileId(1), FileId(3)],
            vec![FileId(2)],
            vec![],
        ]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.clusters[0].files, vec![FileId(1), FileId(3)]);
        assert_eq!(c.clusters_of(FileId(1)), &[ClusterId(0)]);
        assert_eq!(c.clusters_of(FileId(2)), &[ClusterId(1)]);
        assert!(c.clusters_of(FileId(99)).is_empty());
    }

    #[test]
    fn overlapping_membership() {
        let c =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(2), FileId(3)]]);
        assert_eq!(c.clusters_of(FileId(2)).len(), 2);
        assert!(c.cluster(ClusterId(0)).contains(FileId(2)));
        assert!(c.cluster(ClusterId(1)).contains(FileId(2)));
    }

    #[test]
    fn duplicate_clusters_collapse() {
        let c =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(2), FileId(1)]]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn churn_counts_membership_changes() {
        let a =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(3), FileId(4)]]);
        // Identical clustering: no churn either way.
        let same =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(3), FileId(4)]]);
        assert_eq!(same.churn_from(&a), 0);
        // File 4 moves into the first project: 1, 2, and 4 all see their
        // co-member sets change; 3 is now alone so it changes too.
        let b =
            Clustering::from_members(vec![vec![FileId(1), FileId(2), FileId(4)], vec![FileId(3)]]);
        assert_eq!(b.churn_from(&a), 4);
        // A file disappearing entirely is churn as well.
        let c = Clustering::from_members(vec![vec![FileId(1), FileId(2)]]);
        assert_eq!(c.churn_from(&same), 2, "3 and 4 departed");
    }

    #[test]
    fn all_files_is_sorted_union() {
        let c =
            Clustering::from_members(vec![vec![FileId(5), FileId(1)], vec![FileId(3), FileId(1)]]);
        assert_eq!(c.all_files(), vec![FileId(1), FileId(3), FileId(5)]);
    }
}
