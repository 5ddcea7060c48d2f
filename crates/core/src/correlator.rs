//! The correlator: distance maintenance plus activity and miss tracking.

use crate::activity::ActivityTracker;
use seer_distance::{DistanceConfig, DistanceEngine};
use seer_observer::{RefKind, Reference, ReferenceSink};
use seer_trace::{FileId, PathTable};

/// SEER's correlator (§2): "evaluates the file references, calculating the
/// semantic distances among various files", while also tracking per-file
/// recency for project priorities and collecting automatically detected
/// hoard misses for reload.
#[derive(Debug)]
pub struct Correlator {
    distance: DistanceEngine,
    activity: ActivityTracker,
    misses: Vec<FileId>,
}

impl Correlator {
    /// Creates a correlator with the given distance configuration.
    #[must_use]
    pub fn new(config: DistanceConfig) -> Correlator {
        Correlator {
            distance: DistanceEngine::new(config),
            activity: ActivityTracker::new(),
            misses: Vec::new(),
        }
    }

    /// The distance engine.
    #[must_use]
    pub fn distance(&self) -> &DistanceEngine {
        &self.distance
    }

    /// The activity tracker.
    #[must_use]
    pub fn activity(&self) -> &ActivityTracker {
        &self.activity
    }

    /// Hoard misses observed since the last [`Correlator::take_misses`].
    #[must_use]
    pub fn pending_misses(&self) -> &[FileId] {
        &self.misses
    }

    /// Takes and clears the pending hoard misses.
    pub fn take_misses(&mut self) -> Vec<FileId> {
        std::mem::take(&mut self.misses)
    }

    /// Takes the neighbor-table rows whose membership changed since the
    /// previous call (see [`seer_distance::NeighborTable::take_dirty`]),
    /// for incremental shared-neighbor maintenance.
    pub fn take_dirty(&mut self) -> seer_distance::TableDirty {
        self.distance.take_dirty()
    }

    /// Captures the correlator's persistent state.
    #[must_use]
    pub fn snapshot(&self) -> CorrelatorSnapshot {
        CorrelatorSnapshot {
            distance: self.distance.snapshot(),
            activity: self.activity.export(),
        }
    }

    /// Restores a correlator from a snapshot.
    #[must_use]
    pub fn from_snapshot(snap: CorrelatorSnapshot) -> Correlator {
        let mut activity = ActivityTracker::new();
        activity.restore(snap.activity);
        Correlator {
            distance: DistanceEngine::from_snapshot(snap.distance),
            activity,
            misses: Vec::new(),
        }
    }
}

/// Persistent state of a [`Correlator`].
#[derive(Debug, Clone)]
pub struct CorrelatorSnapshot {
    /// Distance-engine state.
    pub distance: seer_distance::DistanceSnapshot,
    /// Per-file recency records.
    pub activity: Vec<(FileId, crate::activity::LastRef)>,
}

seer_trace::codec_struct!(CorrelatorSnapshot { distance, activity });

impl ReferenceSink for Correlator {
    fn on_reference(&mut self, r: &Reference, paths: &PathTable) {
        if let RefKind::HoardMiss = r.kind {
            self.misses.push(r.file);
            // A missed file is wanted *now*: count it as activity so its
            // project rises to the top of the next hoard selection (§4.4).
            self.activity.record(r.file, r.seq, r.time);
            return;
        }
        self.activity.on_reference(r, paths);
        self.distance.on_reference(r, paths);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{Pid, Seq, Timestamp};

    fn r(seq: u64, file: u32, kind: RefKind) -> Reference {
        Reference {
            seq: Seq(seq),
            time: Timestamp::from_secs(seq),
            pid: Pid(1),
            file: FileId(file),
            kind,
        }
    }

    #[test]
    fn forwards_to_both_distance_and_activity() {
        let paths = PathTable::new();
        let mut c = Correlator::new(DistanceConfig::default());
        c.on_reference(
            &r(
                0,
                1,
                RefKind::Open {
                    read: true,
                    write: false,
                    exec: false,
                },
            ),
            &paths,
        );
        c.on_reference(
            &r(
                1,
                2,
                RefKind::Open {
                    read: true,
                    write: false,
                    exec: false,
                },
            ),
            &paths,
        );
        assert_eq!(c.activity().len(), 2);
        assert!(c
            .distance()
            .table()
            .distance(FileId(1), FileId(2))
            .is_some());
    }

    #[test]
    fn misses_are_collected_and_boost_activity() {
        let paths = PathTable::new();
        let mut c = Correlator::new(DistanceConfig::default());
        c.on_reference(&r(5, 9, RefKind::HoardMiss), &paths);
        assert_eq!(c.pending_misses(), &[FileId(9)]);
        assert!(c.activity().last_ref(FileId(9)).is_some());
        assert_eq!(c.take_misses(), vec![FileId(9)]);
        assert!(c.pending_misses().is_empty());
    }
}
