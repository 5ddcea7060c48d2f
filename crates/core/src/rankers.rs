//! Hoard rankers: SEER's cluster-based manager and the baselines.
//!
//! A ranker produces a full priority ordering of known files, best first.
//! The miss-free hoard size metric (§5.1.2) is defined over such an
//! ordering: the hoard size needed to avoid misses is the cumulative size
//! of the ranking prefix ending at the worst-ranked referenced file.

use crate::activity::ActivityTracker;
use crate::manager::FileFlags;
use seer_cluster::{ClusterId, Clustering};
use seer_trace::{FileId, Seq};
use std::cmp::Reverse;
use std::collections::HashSet;

/// Everything a ranker may consult.
#[derive(Debug, Clone, Copy)]
pub struct RankContext<'a> {
    /// Per-file recency (from the correlator, or a raw tracker for the
    /// baselines).
    pub activity: &'a ActivityTracker,
    /// Current project assignment (SEER only).
    pub clustering: Option<&'a Clustering>,
    /// Files SEER always hoards (frequent, critical, dot, devices).
    pub always_hoard: &'a HashSet<FileId>,
}

/// A hoard-priority policy.
pub trait HoardRanker {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Ranks all known files, highest priority first.
    fn rank(&self, ctx: &RankContext<'_>) -> Vec<FileId>;
}

/// Clusters ordered by priority: most recently active project first.
///
/// Priority is the maximum member recency, so one touch of any member
/// brings the whole project forward — this is what lets SEER survive
/// attention shifts that defeat LRU (§6.1).
#[must_use]
pub fn clusters_by_priority(clustering: &Clustering, activity: &ActivityTracker) -> Vec<ClusterId> {
    let mut prio: Vec<(ClusterId, Seq, u64)> = clustering
        .clusters
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let max_seq = c
                .files
                .iter()
                .filter_map(|&f| activity.last_ref(f))
                .map(|r| r.seq)
                .max()
                .unwrap_or(Seq::ZERO);
            let total_refs: u64 = c
                .files
                .iter()
                .filter_map(|&f| activity.last_ref(f))
                .map(|r| r.count)
                .sum();
            (ClusterId(i as u32), max_seq, total_refs)
        })
        .collect();
    prio.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
    prio.into_iter().map(|(id, _, _)| id).collect()
}

/// SEER's cluster-based ranking: always-hoard files, then whole projects
/// in priority order (members most-recent first), then any stragglers in
/// LRU order.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeerRanker;

impl HoardRanker for SeerRanker {
    fn name(&self) -> &'static str {
        "seer"
    }

    fn rank(&self, ctx: &RankContext<'_>) -> Vec<FileId> {
        let mut out = Vec::new();
        let mut seen = FileFlags::default();
        let mut push = |f: FileId| {
            if seen.insert(f) {
                out.push(f);
            }
        };
        // Always-hoard files lead unconditionally (§4.2, §4.3, §4.6).
        let mut always: Vec<FileId> = ctx.always_hoard.iter().copied().collect();
        always.sort_unstable();
        always.into_iter().for_each(&mut push);
        if let Some(clustering) = ctx.clustering {
            let seq = |f: FileId| ctx.activity.last_ref(f).map_or(Seq::ZERO, |r| r.seq);
            let mut members: Vec<(Reverse<Seq>, FileId)> = Vec::new();
            for cid in clusters_by_priority(clustering, ctx.activity) {
                let files = &clustering.cluster(cid).files;
                members.clear();
                members.extend(files.iter().map(|&f| (Reverse(seq(f)), f)));
                // Members most recent first, ties by id: the key is
                // unique, so an unstable sort gives this order.
                members.sort_unstable();
                members.iter().for_each(|&(_, f)| push(f));
            }
        }
        ctx.activity.lru_order().into_iter().for_each(push);
        out
    }
}

/// Strict LRU: most recently referenced files first (§5.1.2's baseline).
#[derive(Debug, Default, Clone, Copy)]
pub struct LruRanker;

impl HoardRanker for LruRanker {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn rank(&self, ctx: &RankContext<'_>) -> Vec<FileId> {
        ctx.activity.lru_order()
    }
}

/// A CODA-inspired priority scheme (§5.1.2, §6.2): LRU age plus a
/// user-assigned offset, with a global bound beyond which the offset alone
/// decides.
///
/// Run without the ongoing hand management it was designed for (no hoard
/// profiles, all offsets zero), files older than the bound collapse into
/// one equivalence class ordered arbitrarily — which is why these schemes
/// measured *worse* than plain LRU in the paper's simulations.
#[derive(Debug, Clone, Copy)]
pub struct CodaInspiredRanker {
    /// Recency horizon in references: files referenced within this many
    /// references of the newest keep their LRU order.
    pub horizon_refs: u64,
}

impl HoardRanker for CodaInspiredRanker {
    fn name(&self) -> &'static str {
        "coda-inspired"
    }

    fn rank(&self, ctx: &RankContext<'_>) -> Vec<FileId> {
        let order = ctx.activity.lru_order();
        let newest = order
            .first()
            .and_then(|&f| ctx.activity.last_ref(f))
            .map(|r| r.seq.0)
            .unwrap_or(0);
        let (mut recent, mut old): (Vec<FileId>, Vec<FileId>) = order.into_iter().partition(|&f| {
            ctx.activity
                .last_ref(f)
                .is_some_and(|r| newest.saturating_sub(r.seq.0) <= self.horizon_refs)
        });
        // Beyond the bound the (all-zero) offsets control: arbitrary,
        // deterministic order.
        old.sort_unstable();
        recent.extend(old);
        recent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::Timestamp;

    fn activity(entries: &[(u32, u64)]) -> ActivityTracker {
        let mut t = ActivityTracker::new();
        for &(f, seq) in entries {
            t.record(FileId(f), Seq(seq), Timestamp::from_secs(seq));
        }
        t
    }

    #[test]
    fn lru_ranker_orders_by_recency() {
        let act = activity(&[(1, 10), (2, 30), (3, 20)]);
        let ctx = RankContext {
            activity: &act,
            clustering: None,
            always_hoard: &HashSet::new(),
        };
        assert_eq!(LruRanker.rank(&ctx), vec![FileId(2), FileId(3), FileId(1)]);
    }

    #[test]
    fn seer_ranker_keeps_projects_whole() {
        // Project {1, 2} was touched most recently through file 1; project
        // {3, 4} is older. File 2 itself is the *oldest* file — LRU would
        // rank it last, SEER keeps it with its project.
        let act = activity(&[(1, 100), (2, 1), (3, 50), (4, 40)]);
        let clustering =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(3), FileId(4)]]);
        let ctx = RankContext {
            activity: &act,
            clustering: Some(&clustering),
            always_hoard: &HashSet::new(),
        };
        let rank = SeerRanker.rank(&ctx);
        assert_eq!(rank, vec![FileId(1), FileId(2), FileId(3), FileId(4)]);
        let lru = LruRanker.rank(&ctx);
        assert_eq!(
            lru.last(),
            Some(&FileId(2)),
            "LRU exiles the project member"
        );
    }

    #[test]
    fn always_hoard_files_lead() {
        let act = activity(&[(1, 100), (9, 1)]);
        let always: HashSet<FileId> = [FileId(9)].into_iter().collect();
        let ctx = RankContext {
            activity: &act,
            clustering: None,
            always_hoard: &always,
        };
        let rank = SeerRanker.rank(&ctx);
        assert_eq!(rank[0], FileId(9));
    }

    #[test]
    fn unclustered_stragglers_still_ranked() {
        let act = activity(&[(1, 10), (7, 99)]);
        let clustering = Clustering::from_members(vec![vec![FileId(1)]]);
        let ctx = RankContext {
            activity: &act,
            clustering: Some(&clustering),
            always_hoard: &HashSet::new(),
        };
        let rank = SeerRanker.rank(&ctx);
        assert!(rank.contains(&FileId(7)), "activity-only file included");
    }

    #[test]
    fn cluster_priority_prefers_recent_then_busier() {
        let act = activity(&[(1, 10), (2, 10), (3, 10)]);
        let mut act = act;
        // Cluster of {1,2}: two refs at seq 10; cluster {3}: one ref.
        act.record(FileId(2), Seq(10), Timestamp::from_secs(10));
        let clustering =
            Clustering::from_members(vec![vec![FileId(1), FileId(2)], vec![FileId(3)]]);
        let order = clusters_by_priority(&clustering, &act);
        assert_eq!(
            order[0],
            ClusterId(0),
            "equal recency, more total refs wins"
        );
    }

    #[test]
    fn coda_ranker_degrades_old_files_to_id_order() {
        let act = activity(&[(5, 100), (9, 99), (1, 10), (8, 5)]);
        let ranker = CodaInspiredRanker { horizon_refs: 10 };
        let ctx = RankContext {
            activity: &act,
            clustering: None,
            always_hoard: &HashSet::new(),
        };
        let rank = ranker.rank(&ctx);
        // Recent: 5 (seq 100), 9 (seq 99). Old: 1, 8 in id order.
        assert_eq!(rank, vec![FileId(5), FileId(9), FileId(1), FileId(8)]);
    }
}
