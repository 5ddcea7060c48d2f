//! The distance engine: from references to the neighbor table.

use crate::config::DistanceConfig;
use crate::history::{Observation, ProcessHistory};
use crate::table::NeighborTable;
use seer_observer::{RefKind, Reference, ReferenceSink};
use seer_trace::codec::{Codec, DecodeError, Reader};
use seer_trace::{FileId, IdHashMap, PathTable, Pid};

/// Counters describing distance-engine activity.
#[derive(Debug, Default, Clone, Copy)]
pub struct DistanceStats {
    /// Whole-file opening references processed.
    pub opens: u64,
    /// Pairwise observations folded into the table.
    pub observations: u64,
    /// Observations capped to the window bound `M` (§3.1.3).
    pub compensated: u64,
    /// Live neighbors displaced from full rows by closer or fresher
    /// candidates (the O(n) approximation's forgetting, §3.1.3). Not
    /// persisted: a restored engine counts from zero.
    pub evictions: u64,
    /// Misses on full rows that read the row's slots because its bound
    /// did not refuse them ([`NeighborTable::scans`]). Not persisted.
    pub scans: u64,
    /// Distances those scans' tie chains computed, one `exp` each under
    /// the geometric reduction ([`NeighborTable::exps`]). Not persisted.
    pub exps: u64,
    /// Files purged after delayed deletion (§4.8).
    pub purged: u64,
    /// Child histories merged into parents (§4.7).
    pub merges: u64,
}

/// Encoded as its counters, varints in declaration order, except the
/// table's work counts: `evictions`, `scans` and `exps`.
impl Codec for DistanceStats {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.opens.encode(buf);
        self.observations.encode(buf);
        self.compensated.encode(buf);
        self.purged.encode(buf);
        self.merges.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<DistanceStats, DecodeError> {
        Ok(DistanceStats {
            opens: Codec::decode(r)?,
            observations: Codec::decode(r)?,
            compensated: Codec::decode(r)?,
            evictions: 0,
            scans: 0,
            exps: 0,
            purged: Codec::decode(r)?,
            merges: Codec::decode(r)?,
        })
    }
}

/// Persistent state of a [`DistanceEngine`].
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Distance configuration.
    pub config: DistanceConfig,
    /// The neighbor table.
    pub table: crate::table::TableSnapshot,
    /// Accumulated statistics.
    pub stats: DistanceStats,
}

seer_trace::codec_struct!(EngineSnapshot {
    config,
    table,
    stats,
});

/// The correlator's first half: consumes the observer's [`Reference`]
/// stream and maintains the semantic-distance [`NeighborTable`].
#[derive(Debug)]
pub struct DistanceEngine {
    config: DistanceConfig,
    table: NeighborTable,
    histories: IdHashMap<Pid, ProcessHistory>,
    stats: DistanceStats,
    obs_buf: Vec<Observation>,
}

impl DistanceEngine {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: DistanceConfig) -> DistanceEngine {
        let table = NeighborTable::new(
            config.n_neighbors,
            config.reduction,
            config.aging_refs,
            config.deletion_delay,
            config.seed,
        );
        DistanceEngine {
            config,
            table,
            histories: IdHashMap::default(),
            stats: DistanceStats::default(),
            obs_buf: Vec::with_capacity(128),
        }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DistanceConfig {
        &self.config
    }

    /// The semantic-distance table.
    #[must_use]
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// Engine statistics, with the table's own work counts.
    #[must_use]
    pub fn stats(&self) -> DistanceStats {
        DistanceStats {
            scans: self.table.scans(),
            exps: self.table.exps(),
            ..self.stats
        }
    }

    /// Takes the neighbor-table rows whose membership changed since the
    /// previous call (see [`NeighborTable::take_dirty`]), for incremental
    /// shared-neighbor maintenance.
    pub fn take_dirty(&mut self) -> crate::table::TableDirty {
        self.table.take_dirty()
    }

    /// Captures the engine's persistent state (configuration, table, and
    /// statistics). Per-process reference histories are transient — the
    /// processes they describe do not survive a restart — and are not
    /// included.
    #[must_use]
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            config: self.config.clone(),
            table: self.table.snapshot(),
            stats: self.stats(),
        }
    }

    /// Restores an engine from a snapshot; process histories start empty.
    #[must_use]
    pub fn from_snapshot(snap: EngineSnapshot) -> DistanceEngine {
        let seed = snap.config.seed;
        DistanceEngine {
            table: crate::table::NeighborTable::from_snapshot(snap.table, seed),
            config: snap.config,
            histories: IdHashMap::default(),
            stats: snap.stats,
            obs_buf: Vec::with_capacity(128),
        }
    }

    fn stream_key(&self, pid: Pid) -> Pid {
        if self.config.per_process {
            pid
        } else {
            Pid(0)
        }
    }

    fn record_open(&mut self, pid: Pid, file: FileId, time: seer_trace::Timestamp) {
        self.stats.opens += 1;
        let key = self.stream_key(pid);
        let mut obs = std::mem::take(&mut self.obs_buf);
        obs.clear();
        let history = self.histories.entry(key).or_default();
        history.record_open_with(
            self.config.kind,
            self.config.window_m,
            self.config.elide_repeats,
            file,
            time,
            &mut obs,
        );
        self.stats.evictions += self.table.observe_window(&obs, file);
        self.stats.observations += obs.len() as u64;
        self.stats.compensated += obs.iter().filter(|o| o.compensated).count() as u64;
        self.obs_buf = obs;
    }

    fn record_close(&mut self, pid: Pid, file: FileId) {
        let key = self.stream_key(pid);
        if let Some(h) = self.histories.get_mut(&key) {
            h.record_close(file);
        }
    }
}

impl ReferenceSink for DistanceEngine {
    fn on_reference(&mut self, r: &Reference, _paths: &PathTable) {
        self.table.tick();
        match r.kind {
            RefKind::Open { .. } => self.record_open(r.pid, r.file, r.time),
            RefKind::Close => self.record_close(r.pid, r.file),
            RefKind::Point { .. } => {
                // An open immediately followed by a close (§3.1).
                self.record_open(r.pid, r.file, r.time);
                self.record_close(r.pid, r.file);
            }
            RefKind::Delete => {
                // The reference itself is semantically meaningful (§4.8) …
                self.record_open(r.pid, r.file, r.time);
                self.record_close(r.pid, r.file);
                // … and the name is marked for delayed removal.
                let purged = self.table.note_deletion(r.file);
                self.stats.purged += purged.len() as u64;
                for f in purged {
                    for h in self.histories.values_mut() {
                        h.forget_file(f);
                    }
                }
            }
            RefKind::Fork { child } => {
                if self.config.per_process {
                    let parent_hist = self.histories.get(&r.pid).cloned().unwrap_or_default();
                    self.histories.insert(child, parent_hist);
                }
            }
            RefKind::Exit { parent } => {
                if self.config.per_process {
                    if let Some(child_hist) = self.histories.remove(&r.pid) {
                        if let Some(p) = parent {
                            self.stats.merges += 1;
                            self.histories
                                .entry(p)
                                .or_default()
                                .merge_child(&child_hist, self.config.window_m);
                        }
                    }
                }
            }
            RefKind::HoardMiss | RefKind::DirList => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DistanceKind, ReductionKind};
    use seer_trace::{Seq, Timestamp};

    fn mk_ref(seq: u64, pid: u32, file: u32, kind: RefKind) -> Reference {
        Reference {
            seq: Seq(seq),
            time: Timestamp::from_secs(seq),
            pid: Pid(pid),
            file: FileId(file),
            kind,
        }
    }

    fn open(e: &mut DistanceEngine, seq: u64, pid: u32, file: u32) {
        let paths = PathTable::new();
        e.on_reference(
            &mk_ref(
                seq,
                pid,
                file,
                RefKind::Open {
                    read: true,
                    write: false,
                    exec: false,
                },
            ),
            &paths,
        );
    }

    fn close(e: &mut DistanceEngine, seq: u64, pid: u32, file: u32) {
        let paths = PathTable::new();
        e.on_reference(&mk_ref(seq, pid, file, RefKind::Close), &paths);
    }

    /// Figure 1 end-to-end through the engine: Ao Bo Bc Co Cc Ac Do Dc.
    #[test]
    fn figure1_through_engine() {
        let mut e = DistanceEngine::new(DistanceConfig::default());
        let (a, b, c, d) = (0, 1, 2, 3);
        open(&mut e, 0, 1, a);
        open(&mut e, 1, 1, b);
        close(&mut e, 2, 1, b);
        open(&mut e, 3, 1, c);
        close(&mut e, 4, 1, c);
        close(&mut e, 5, 1, a);
        open(&mut e, 6, 1, d);
        close(&mut e, 7, 1, d);

        let t = e.table();
        let dist = |x: u32, y: u32| t.distance(FileId(x), FileId(y)).expect("stored");
        assert!(dist(a, b).abs() < 1e-9, "A→B = 0");
        assert!(dist(a, c).abs() < 1e-9, "A→C = 0");
        assert!((dist(a, d) - 3.0).abs() < 1e-9, "A→D = 3");
        assert!((dist(b, c) - 1.0).abs() < 1e-9, "B→C = 1");
        assert!((dist(b, d) - 2.0).abs() < 1e-9, "B→D = 2");
        assert!((dist(c, d) - 1.0).abs() < 1e-9, "C→D = 1");
        // Backward distances are undefined (never observed).
        assert_eq!(t.distance(FileId(d), FileId(a)), None);
    }

    #[test]
    fn per_process_streams_stay_separate() {
        let mut e = DistanceEngine::new(DistanceConfig::default());
        // Two interleaved processes touching unrelated files.
        open(&mut e, 0, 1, 10);
        open(&mut e, 1, 2, 20);
        close(&mut e, 2, 1, 10);
        close(&mut e, 3, 2, 20);
        open(&mut e, 4, 1, 11);
        open(&mut e, 5, 2, 21);
        let t = e.table();
        assert!(
            t.distance(FileId(10), FileId(11)).is_some(),
            "same-process pair stored"
        );
        assert!(t.distance(FileId(20), FileId(21)).is_some());
        assert!(
            t.distance(FileId(10), FileId(20)).is_none(),
            "cross-process pair must not exist (§4.7)"
        );
        assert!(t.distance(FileId(10), FileId(21)).is_none());
    }

    #[test]
    fn merged_streams_create_spurious_relationships() {
        // Ablation: without per-process separation the same interleaving
        // links unrelated files — the problem §4.7 describes.
        let cfg = DistanceConfig {
            per_process: false,
            ..DistanceConfig::default()
        };
        let mut e = DistanceEngine::new(cfg);
        open(&mut e, 0, 1, 10);
        open(&mut e, 1, 2, 20);
        close(&mut e, 2, 1, 10);
        close(&mut e, 3, 2, 20);
        open(&mut e, 4, 1, 11);
        let t = e.table();
        assert!(
            t.distance(FileId(20), FileId(11)).is_some(),
            "spurious pair appears"
        );
    }

    #[test]
    fn fork_and_exit_merge_histories() {
        let mut e = DistanceEngine::new(DistanceConfig::default());
        let paths = PathTable::new();
        open(&mut e, 0, 1, 10);
        close(&mut e, 1, 1, 10);
        e.on_reference(
            &mk_ref(2, 1, u32::MAX, RefKind::Fork { child: Pid(2) }),
            &paths,
        );
        // The child inherits the parent's history: its open relates to 10.
        open(&mut e, 3, 2, 30);
        assert!(
            e.table().distance(FileId(10), FileId(30)).is_some(),
            "inherited history"
        );
        close(&mut e, 4, 2, 30);
        e.on_reference(
            &mk_ref(
                5,
                2,
                u32::MAX,
                RefKind::Exit {
                    parent: Some(Pid(1)),
                },
            ),
            &paths,
        );
        assert_eq!(e.stats().merges, 1);
        // After the merge, the parent's next open relates to the child's
        // file (§4.7 extended relationships).
        open(&mut e, 6, 1, 40);
        assert!(
            e.table().distance(FileId(30), FileId(40)).is_some(),
            "merged history"
        );
    }

    #[test]
    fn deletes_eventually_purge_files() {
        let cfg = DistanceConfig {
            deletion_delay: 2,
            ..DistanceConfig::default()
        };
        let mut e = DistanceEngine::new(cfg);
        let paths = PathTable::new();
        open(&mut e, 0, 1, 10);
        close(&mut e, 1, 1, 10);
        open(&mut e, 2, 1, 11);
        close(&mut e, 3, 1, 11);
        e.on_reference(&mk_ref(4, 1, 10, RefKind::Delete), &paths);
        assert!(e.table().is_marked_deleted(FileId(10)));
        e.on_reference(&mk_ref(5, 1, 99, RefKind::Delete), &paths);
        e.on_reference(&mk_ref(6, 1, 98, RefKind::Delete), &paths);
        assert!(e.stats().purged >= 1);
        assert!(e.table().distance(FileId(10), FileId(11)).is_none());
    }

    #[test]
    fn point_references_participate_in_distance() {
        let mut e = DistanceEngine::new(DistanceConfig::default());
        let paths = PathTable::new();
        open(&mut e, 0, 1, 10);
        e.on_reference(&mk_ref(1, 1, 20, RefKind::Point { write: false }), &paths);
        assert!(
            e.table()
                .distance(FileId(10), FileId(20))
                .is_some_and(|d| d.abs() < 1e-9),
            "stat while 10 is open → lifetime distance 0"
        );
    }

    #[test]
    fn temporal_kind_uses_wall_clock() {
        let cfg = DistanceConfig {
            kind: DistanceKind::Temporal,
            ..DistanceConfig::default()
        };
        let mut e = DistanceEngine::new(cfg);
        open(&mut e, 0, 1, 10); // t = 0 s
        close(&mut e, 1, 1, 10);
        open(&mut e, 30, 1, 11); // t = 30 s
        let d = e.table().distance(FileId(10), FileId(11)).expect("stored");
        assert!((d - 30.0).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_reduction_ablation() {
        let cfg = DistanceConfig {
            reduction: ReductionKind::Arithmetic,
            ..DistanceConfig::default()
        };
        let mut e = DistanceEngine::new(cfg);
        // Two observations: distances 1 and 3 → arithmetic mean 2.
        open(&mut e, 0, 1, 10);
        close(&mut e, 1, 1, 10);
        open(&mut e, 2, 1, 11); // 10→11 = 1
        close(&mut e, 3, 1, 11);
        open(&mut e, 4, 1, 10);
        close(&mut e, 5, 1, 10);
        open(&mut e, 6, 1, 99);
        close(&mut e, 7, 1, 99);
        open(&mut e, 8, 1, 98);
        close(&mut e, 9, 1, 98);
        open(&mut e, 10, 1, 11); // 10→11 = 3
        let d = e.table().distance(FileId(10), FileId(11)).expect("stored");
        assert!(
            (d - 2.0).abs() < 1e-9,
            "arithmetic mean of 1 and 3, got {d}"
        );
    }

    #[test]
    fn stats_track_activity() {
        let mut e = DistanceEngine::new(DistanceConfig::default());
        open(&mut e, 0, 1, 1);
        open(&mut e, 1, 1, 2);
        assert_eq!(e.stats().opens, 2);
        assert_eq!(e.stats().observations, 1);
        assert_eq!(e.stats().evictions, 0);
    }

    #[test]
    fn stats_count_evictions_from_full_rows() {
        // One-neighbor rows with temporal distance: a later, closer pair
        // displaces the stored one.
        let cfg = DistanceConfig {
            kind: DistanceKind::Temporal,
            n_neighbors: 1,
            ..DistanceConfig::default()
        };
        let mut e = DistanceEngine::new(cfg);
        open(&mut e, 0, 1, 10);
        close(&mut e, 1, 1, 10);
        open(&mut e, 100, 1, 11); // 10→11 at temporal distance ~100.
        close(&mut e, 101, 1, 11);
        open(&mut e, 200, 1, 10); // Re-reference 10.
        close(&mut e, 201, 1, 10);
        open(&mut e, 210, 1, 12); // 10→12 at distance ~10 < 100: evicts 11.
        assert!(
            e.stats().evictions >= 1,
            "full row displaced: {:?}",
            e.stats()
        );
        assert!(e.table().distance(FileId(10), FileId(12)).is_some());
    }
}
