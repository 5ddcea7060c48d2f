//! The assembled SEER engine.
//!
//! A recluster builds flat neighbor sets from the distance table in one
//! pass and clusters them: in place ([`SeerEngine::recluster`]), or
//! through a [`ReclusterInput`] for a caller that carries a pair-count
//! cache between runs. A quality evaluation borrows the engine
//! ([`SeerEngine::eval_input`]) and copies nothing.

use crate::config::SeerConfig;
use crate::correlator::Correlator;
use crate::manager::{select_hoard, HoardSelection};
use crate::rankers::{HoardRanker, RankContext, SeerRanker};
use seer_cluster::{
    cluster_sets, ClusterRun, Clustering, ExternalRelation, PairCountCache, SharedNeighborCounter,
};
use seer_distance::TableDirty;
use seer_observer::Observer;
use seer_telemetry::{Counter, Gauge, Histogram, Registry};
use seer_trace::{DirTree, EventKind, EventSink, FileId, PathTable, StringTable, TraceEvent};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Registry handles the engine updates while processing events, attached
/// with [`SeerEngine::attach_telemetry`]. Counting is lock-free, so the
/// unattached and attached hot paths differ by a few relaxed atomic adds
/// per batch. Cloning shares the same atomics.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// Ingested events by syscall kind, indexed by [`EventKind::index`].
    events_by_kind: Vec<Counter>,
    files_known: Gauge,
    activity_tracked: Gauge,
    distance_opens: Counter,
    distance_observations: Counter,
    distance_evictions: Counter,
    distance_purged: Counter,
    recluster_seconds: Histogram,
    shard_count_seconds: Histogram,
    hoard_select_seconds: Histogram,
    cluster_count: Gauge,
    cluster_churn: Counter,
}

impl EngineTelemetry {
    /// Registers one engine's series in `registry`, each carrying
    /// `labels` (none for a lone engine; a daemon labels each tenant's).
    #[must_use]
    pub fn register(registry: &Registry, labels: &[(&str, &str)]) -> EngineTelemetry {
        let counter = |name: &str, help: &str| registry.counter_with(name, help, labels);
        let gauge = |name: &str, help: &str| registry.gauge_with(name, help, labels);
        let histogram = |name: &str, help: &str| registry.histogram_with(name, help, labels);
        EngineTelemetry {
            events_by_kind: EventKind::NAMES
                .iter()
                .map(|kind| {
                    let mut kind_labels = vec![("kind", *kind)];
                    kind_labels.extend_from_slice(labels);
                    registry.counter_with(
                        "seer_engine_events_total",
                        "Trace events ingested by the engine, by syscall kind.",
                        &kind_labels,
                    )
                })
                .collect(),
            files_known: gauge(
                "seer_engine_files_known",
                "Canonical paths known to the engine.",
            ),
            activity_tracked: gauge(
                "seer_engine_activity_tracked",
                "Files with recorded reference activity.",
            ),
            distance_opens: counter(
                "seer_distance_opens_total",
                "Whole-file opening references processed by the distance engine.",
            ),
            distance_observations: counter(
                "seer_distance_observations_total",
                "Pairwise distance observations folded into the neighbor table.",
            ),
            distance_evictions: counter(
                "seer_distance_evictions_total",
                "Live neighbors displaced from full neighbor-table rows.",
            ),
            distance_purged: counter(
                "seer_distance_purged_total",
                "Files purged from the neighbor table after delayed deletion.",
            ),
            recluster_seconds: histogram(
                "seer_cluster_recluster_seconds",
                "Wall time of full reclusterings.",
            ),
            shard_count_seconds: histogram(
                "seer_cluster_shard_count_seconds",
                "Wall time of each shared-neighbor counting shard within a reclustering.",
            ),
            hoard_select_seconds: histogram(
                "seer_engine_hoard_select_seconds",
                "Wall time of hoard selection (excluding any recluster it triggers).",
            ),
            cluster_count: gauge(
                "seer_cluster_count",
                "Clusters in the current project assignment.",
            ),
            cluster_churn: counter(
                "seer_cluster_churn_total",
                "Files whose cluster membership changed across reclusterings.",
            ),
        }
    }
}

/// The complete SEER pipeline: feed it raw [`TraceEvent`]s, then ask for
/// hoard contents before a disconnection.
///
/// # Examples
///
/// ```
/// use seer_core::SeerEngine;
/// use seer_trace::{OpenMode, Pid, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// let pid = Pid(1);
/// for _ in 0..3 {
///     let f1 = b.open(pid, "/home/user/proj/main.c", OpenMode::Read);
///     let f2 = b.open(pid, "/home/user/proj/defs.h", OpenMode::Read);
///     b.close(pid, f2);
///     b.close(pid, f1);
/// }
/// let trace = b.build();
///
/// let mut engine = SeerEngine::default();
/// trace.replay(&mut engine);
/// engine.recluster();
/// let hoard = engine.choose_hoard(1 << 20, &|_| 1024);
/// assert!(!hoard.files.is_empty());
/// ```
#[derive(Debug)]
pub struct SeerEngine {
    observer: Observer<Correlator>,
    cluster_config: seer_cluster::ClusterConfig,
    relations: Vec<ExternalRelation>,
    clustering: Option<Clustering>,
    telemetry: Option<EngineTelemetry>,
}

impl Default for SeerEngine {
    fn default() -> SeerEngine {
        SeerEngine::new(SeerConfig::default())
    }
}

impl SeerEngine {
    /// Creates an engine from a configuration.
    #[must_use]
    pub fn new(config: SeerConfig) -> SeerEngine {
        let correlator = Correlator::new(config.distance.clone());
        SeerEngine {
            observer: Observer::new(config.observer, correlator),
            cluster_config: config.cluster,
            relations: Vec::new(),
            clustering: None,
            telemetry: None,
        }
    }

    /// Starts updating `telemetry`'s series (ingest counters by event
    /// kind, table and activity gauges, recluster timings and churn) as
    /// events flow. Gauges and mirrored counters are synced immediately,
    /// so attaching to a recovered engine reports its restored state.
    pub fn attach_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = Some(telemetry);
        self.sync_telemetry();
    }

    /// Refreshes gauges and mirrored counters from component stats.
    fn sync_telemetry(&self) {
        if let Some(t) = &self.telemetry {
            t.files_known.set(self.observer.paths().len() as i64);
            t.activity_tracked
                .set(self.correlator().activity().len() as i64);
            let d = self.correlator().distance().stats();
            t.distance_opens.set_total(d.opens);
            t.distance_observations.set_total(d.observations);
            t.distance_evictions.set_total(d.evictions);
            t.distance_purged.set_total(d.purged);
        }
    }

    /// The canonical path table (owned by the observer).
    #[must_use]
    pub fn paths(&self) -> &PathTable {
        self.observer.paths()
    }

    /// Mutable path-table access for investigators that intern new paths
    /// (§3.2).
    pub fn paths_mut(&mut self) -> &mut PathTable {
        self.observer.paths_mut()
    }

    /// Observer statistics (filter counters).
    #[must_use]
    pub fn observer_stats(&self) -> &seer_observer::ObserverStats {
        self.observer.stats()
    }

    /// The correlator (distance table and activity).
    #[must_use]
    pub fn correlator(&self) -> &Correlator {
        self.observer.sink()
    }

    /// Files SEER will hoard unconditionally.
    #[must_use]
    pub fn always_hoard(&self) -> &HashSet<FileId> {
        self.observer.always_hoard()
    }

    /// Installs investigator relations to be used at the next reclustering
    /// (§3.3.3).
    pub fn set_relations(&mut self, relations: Vec<ExternalRelation>) {
        self.relations = relations;
        self.clustering = None;
    }

    /// Runs the clustering algorithm over the current distance table,
    /// replacing any previous project assignment.
    pub fn recluster(&mut self) -> &Clustering {
        let started = std::time::Instant::now();
        let run = cluster_sets(
            self.neighbor_sets(),
            self.observer.paths().directories(),
            &self.relations,
            &self.cluster_config,
            1,
            None,
            &mut None,
        );
        self.install_clustering(run.clustering, started.elapsed(), &run.shard_count_seconds)
    }

    /// The flat neighbor sets a recluster counts over, built from the
    /// distance table in one pass with the always-hoard set left out
    /// (§4.2).
    fn neighbor_sets(&self) -> Arc<SharedNeighborCounter> {
        Arc::new(SharedNeighborCounter::from_table_excluding(
            self.correlator().distance().table(),
            self.observer.always_hoard(),
        ))
    }

    /// Captures what a clustering equivalent to [`SeerEngine::recluster`]
    /// reads, detached from the engine: the flat neighbor sets (with the
    /// sorted list of files they leave out), the path table's directory
    /// tree, investigator relations, and the configuration.
    ///
    /// Building the sets is the only O(files × n) step, and it is the
    /// step every recluster takes; the directory tree (one node per file,
    /// a parent and depth per directory) and the relations are copied,
    /// path strings and distances are not. The engine can keep applying
    /// events while [`ReclusterInput::compute`] runs, and the finished
    /// [`Clustering`] is folded back in with
    /// [`SeerEngine::install_clustering`].
    #[must_use]
    pub fn recluster_input(&self) -> ReclusterInput {
        ReclusterInput {
            sets: self.neighbor_sets(),
            dirs: self.observer.paths().directories().clone(),
            relations: self.relations.clone(),
            config: self.cluster_config,
        }
    }

    /// The state a quality evaluation reads — the activity tracker, and
    /// SEER's ranking of it under the installed clustering and the
    /// always-hoard pins — borrowed from the engine: nothing is copied.
    #[must_use]
    pub fn eval_input(&self) -> EvalInput<'_> {
        EvalInput { engine: self }
    }

    /// Installs a clustering computed from a [`ReclusterInput`] (the
    /// daemon's incremental runs, on the thread that applies batches),
    /// updating recluster telemetry exactly as [`SeerEngine::recluster`]
    /// would:
    /// `wall` is the computation's wall time and `shard_seconds` the
    /// per-shard count-phase timings.
    pub fn install_clustering(
        &mut self,
        clustering: Clustering,
        wall: Duration,
        shard_seconds: &[Duration],
    ) -> &Clustering {
        if let Some(t) = &self.telemetry {
            t.recluster_seconds.observe(wall);
            for &s in shard_seconds {
                t.shard_count_seconds.observe(s);
            }
            t.cluster_count.set(clustering.len() as i64);
            if let Some(prev) = &self.clustering {
                t.cluster_churn.add(clustering.churn_from(prev) as u64);
            }
        }
        self.clustering = Some(clustering);
        self.clustering.as_ref().expect("just set")
    }

    /// The current project assignment, if one has been computed.
    #[must_use]
    pub fn clustering(&self) -> Option<&Clustering> {
        self.clustering.as_ref()
    }

    /// Full SEER priority ranking of all known files (most important
    /// first). Requires a prior [`SeerEngine::recluster`] for project
    /// structure; without one it degrades to always-hoard + LRU.
    #[must_use]
    pub fn rank(&self) -> Vec<FileId> {
        let ctx = RankContext {
            activity: self.correlator().activity(),
            clustering: self.clustering.as_ref(),
            always_hoard: self.observer.always_hoard(),
        };
        SeerRanker.rank(&ctx)
    }

    /// Bytes conservatively reserved for directories: SEER "leaves
    /// hoarding decisions regarding directories up to the replication
    /// substrate … \[but\] makes the conservative assumption that all
    /// directories are hoarded" (§4.6). One nominal KiB per known
    /// directory.
    #[must_use]
    pub fn directory_reserve(&self) -> u64 {
        self.observer.known_dirs().len() as u64 * 1024
    }

    /// Selects hoard contents for a disconnection: whole projects by
    /// priority within `budget` bytes (less the §4.6 directory reserve),
    /// always-hoard files included unconditionally. Reclusters if no
    /// clustering is current.
    pub fn choose_hoard(&mut self, budget: u64, sizes: &dyn Fn(FileId) -> u64) -> HoardSelection {
        if self.clustering.is_none() {
            self.recluster();
        }
        let started = std::time::Instant::now();
        let reserve = self.directory_reserve();
        let clustering = self.clustering.as_ref().expect("reclustered above");
        let mut sel = select_hoard(
            clustering,
            self.observer.sink().activity(),
            self.observer.always_hoard(),
            sizes,
            budget.saturating_sub(reserve),
        );
        sel.directory_reserve = reserve;
        if let Some(t) = &self.telemetry {
            t.hoard_select_seconds.observe(started.elapsed());
        }
        sel
    }

    /// Takes the automatically detected hoard misses accumulated since the
    /// last call; each missed file's project should be added to the next
    /// hoard (§4.4), which happens naturally because the miss counts as
    /// fresh activity.
    pub fn take_misses(&mut self) -> Vec<FileId> {
        self.observer.sink_mut().take_misses()
    }

    /// Takes the neighbor-table rows whose membership changed since the
    /// previous call — the delta incremental recluster maintenance
    /// consumes (see [`ReclusterInput::compute_incremental`]). Drain it
    /// at the same moment as [`SeerEngine::recluster_input`] so the
    /// delta describes exactly what changed between consecutive inputs.
    pub fn take_dirty(&mut self) -> TableDirty {
        self.observer.sink_mut().take_dirty()
    }

    /// The clustering configuration in use.
    #[must_use]
    pub fn cluster_config(&self) -> &seer_cluster::ClusterConfig {
        &self.cluster_config
    }

    /// The observer's persistent state (used by [`crate::persist`]).
    #[must_use]
    pub fn observer_snapshot(&self) -> seer_observer::ObserverSnapshot {
        self.observer.snapshot()
    }

    /// Rebuilds an engine from restored components (used by
    /// [`crate::persist`]).
    #[must_use]
    pub(crate) fn from_restored_parts(
        observer_snap: seer_observer::ObserverSnapshot,
        correlator: Correlator,
        cluster_config: seer_cluster::ClusterConfig,
    ) -> SeerEngine {
        SeerEngine {
            observer: seer_observer::Observer::from_snapshot(observer_snap, correlator),
            cluster_config,
            relations: Vec::new(),
            clustering: None,
            telemetry: None,
        }
    }
}

/// The engine state a reclustering reads, detached from the engine (see
/// [`SeerEngine::recluster_input`]): the flat neighbor sets with their
/// exclusion list, the path table's directory tree (what directory
/// distance reads; no path strings), the relations, and the
/// configuration.
#[derive(Debug, Clone)]
pub struct ReclusterInput {
    sets: Arc<SharedNeighborCounter>,
    dirs: DirTree,
    relations: Vec<ExternalRelation>,
    config: seer_cluster::ClusterConfig,
}

impl ReclusterInput {
    /// Computes the clustering this input describes, sharding the
    /// counting phase across `threads` threads. Bit-identical to what
    /// [`SeerEngine::recluster`] would have produced when the input was
    /// captured, for any `threads`.
    #[must_use]
    pub fn compute(&self, threads: usize) -> ClusterRun {
        self.compute_incremental(threads, None, &mut None)
    }

    /// Like [`ReclusterInput::compute`], but maintains `cache` across
    /// consecutive inputs: when `dirty` lists the rows whose neighbor
    /// membership changed since the cache's baseline (drained with
    /// [`SeerEngine::take_dirty`] at the moment this input was captured)
    /// and nothing structural happened, only affected pair counts are
    /// recomputed. Bit-identical to [`ReclusterInput::compute`] either
    /// way (see [`seer_cluster::cluster_sets`]).
    #[must_use]
    pub fn compute_incremental(
        &self,
        threads: usize,
        dirty: Option<&TableDirty>,
        cache: &mut Option<PairCountCache>,
    ) -> ClusterRun {
        cluster_sets(
            Arc::clone(&self.sets),
            &self.dirs,
            &self.relations,
            &self.config,
            threads,
            dirty,
            cache,
        )
    }
}

/// The ranking state a quality evaluation reads, borrowed from the
/// engine (see [`SeerEngine::eval_input`]).
#[derive(Debug, Clone, Copy)]
pub struct EvalInput<'a> {
    engine: &'a SeerEngine,
}

impl<'a> EvalInput<'a> {
    /// The activity tracker (drives the needed-set derivation).
    #[must_use]
    pub fn activity(&self) -> &'a crate::activity::ActivityTracker {
        self.engine.correlator().activity()
    }

    /// SEER's full priority ranking — [`SeerEngine::rank`].
    #[must_use]
    pub fn rank(&self) -> Vec<FileId> {
        self.engine.rank()
    }
}

impl EventSink for SeerEngine {
    fn on_event(&mut self, ev: &TraceEvent, strings: &StringTable) {
        if let Some(t) = &self.telemetry {
            t.events_by_kind[ev.kind.index()].inc();
        }
        self.observer.on_event(ev, strings);
        self.sync_telemetry();
    }

    fn on_batch(&mut self, events: &[TraceEvent], strings: &StringTable) {
        if let Some(t) = &self.telemetry {
            let mut by_kind = [0u64; EventKind::COUNT];
            for ev in events {
                by_kind[ev.kind.index()] += 1;
            }
            for (counter, n) in t.events_by_kind.iter().zip(by_kind) {
                if n > 0 {
                    counter.add(n);
                }
            }
        }
        self.observer.on_batch(events, strings);
        self.sync_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{OpenMode, Pid, TraceBuilder};

    /// Builds a trace with two separate projects worked in distinct
    /// processes and phases, with realistic variation in access order.
    fn two_project_trace() -> seer_trace::Trace {
        let alpha = [
            "/home/user/alpha/main.c",
            "/home/user/alpha/defs.h",
            "/home/user/alpha/util.c",
            "/home/user/alpha/types.h",
        ];
        let mut b = TraceBuilder::new();
        for round in 0..8u32 {
            let pid = Pid(10 + round);
            b.exec(pid, "/usr/bin/cc");
            // Rotate the access order across rounds, as edits and
            // compiles do in real life.
            let first = b.open(pid, alpha[round as usize % 4], OpenMode::Read);
            for k in 1..4 {
                b.touch(pid, alpha[(round as usize + k) % 4], OpenMode::Read);
            }
            b.close(pid, first);
            b.exit(pid);
        }
        for round in 0..5u32 {
            let pid = Pid(50 + round);
            b.exec(pid, "/usr/bin/latex");
            let doc = b.open(pid, "/home/user/beta/paper.tex", OpenMode::ReadWrite);
            b.touch(pid, "/home/user/beta/refs.bib", OpenMode::Read);
            b.close(pid, doc);
            b.exit(pid);
        }
        b.build()
    }

    #[test]
    fn end_to_end_projects_form_and_hoard_selects() {
        let mut engine = SeerEngine::default();
        two_project_trace().replay(&mut engine);
        let clustering = engine.recluster().clone();
        let paths = engine.paths();
        let main = paths.get("/home/user/alpha/main.c").expect("seen");
        let defs = paths.get("/home/user/alpha/defs.h").expect("seen");
        let tex = paths.get("/home/user/beta/paper.tex").expect("seen");
        let bib = paths.get("/home/user/beta/refs.bib").expect("seen");
        // Same-project files share a cluster; cross-project files do not.
        let c_main = clustering.clusters_of(main).to_vec();
        let c_defs = clustering.clusters_of(defs).to_vec();
        let c_tex = clustering.clusters_of(tex).to_vec();
        assert!(
            c_main.iter().any(|c| c_defs.contains(c)),
            "alpha files cluster together"
        );
        assert!(
            !c_main.iter().any(|c| c_tex.contains(c)),
            "projects stay apart"
        );

        // Hoard selection: beta was touched last, so with a budget for one
        // project beta wins.
        let sel = engine.choose_hoard(3000, &|_| 1000);
        assert!(
            sel.contains(tex) && sel.contains(bib),
            "most recent project hoarded"
        );
    }

    #[test]
    fn rank_covers_all_activity() {
        let mut engine = SeerEngine::default();
        two_project_trace().replay(&mut engine);
        engine.recluster();
        let rank = engine.rank();
        let activity_files = engine.correlator().activity().len();
        assert!(
            rank.len() >= activity_files,
            "ranking covers every tracked file"
        );
        let mut dedup = rank.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), rank.len(), "no duplicates in ranking");
    }

    #[test]
    fn telemetry_tracks_engine_activity() {
        let registry = Registry::new();
        let mut engine = SeerEngine::default();
        engine.attach_telemetry(EngineTelemetry::register(&registry, &[]));
        two_project_trace().replay(&mut engine);
        engine.recluster();
        engine.recluster(); // A no-op repeat: zero churn, but timed.
        let snap = registry.snapshot();
        let opens = snap
            .find_with("seer_engine_events_total", &[("kind", "open")])
            .expect("per-kind counter registered");
        assert!(
            matches!(opens.value, seer_telemetry::MetricValue::Counter { total } if total > 0),
            "opens counted: {opens:?}"
        );
        assert!(snap.gauge("seer_engine_files_known").expect("gauge") > 0);
        assert!(snap.gauge("seer_cluster_count").expect("gauge") > 0);
        assert!(
            snap.counter("seer_distance_observations_total")
                .expect("counter")
                > 0
        );
        let recluster = snap
            .find("seer_cluster_recluster_seconds")
            .expect("histogram");
        assert!(
            matches!(
                recluster.value,
                seer_telemetry::MetricValue::Histogram { count: 2, .. }
            ),
            "two reclusterings timed: {recluster:?}"
        );
        assert_eq!(
            snap.counter("seer_cluster_churn_total"),
            Some(0),
            "identical reclustering produces no churn"
        );
    }

    /// A clustering computed off-engine from a [`ReclusterInput`] and
    /// installed back is indistinguishable — same member lists, same
    /// telemetry effects — from an in-place recluster, serial or sharded.
    #[test]
    fn recluster_input_round_trips_through_worker() {
        let trace = two_project_trace();
        let mut serial = SeerEngine::default();
        trace.replay(&mut serial);
        serial.recluster();
        let want = serial.clustering().expect("clustered").clone();

        let registry = Registry::new();
        let mut engine = SeerEngine::default();
        engine.attach_telemetry(EngineTelemetry::register(&registry, &[]));
        trace.replay(&mut engine);
        let input = engine.recluster_input();
        for threads in [1, 4] {
            let started = std::time::Instant::now();
            let run = input.compute(threads);
            assert_eq!(run.clustering.clusters, want.clusters, "threads={threads}");
            engine.install_clustering(run.clustering, started.elapsed(), &run.shard_count_seconds);
        }
        let snap = registry.snapshot();
        assert!(snap.gauge("seer_cluster_count").expect("gauge") > 0);
        let recluster = snap
            .find("seer_cluster_recluster_seconds")
            .expect("histogram");
        assert!(
            matches!(
                recluster.value,
                seer_telemetry::MetricValue::Histogram { count: 2, .. }
            ),
            "both installs timed: {recluster:?}"
        );
        let shards = snap
            .find("seer_cluster_shard_count_seconds")
            .expect("histogram");
        assert!(
            matches!(
                shards.value,
                // 1 serial shard + up to 4 parallel shards.
                seer_telemetry::MetricValue::Histogram { count, .. } if count >= 2
            ),
            "shard timings recorded: {shards:?}"
        );
    }

    #[test]
    fn miss_boosts_project_priority() {
        let mut b = TraceBuilder::new();
        // Alpha project used heavily, beta project barely.
        for i in 0..5u32 {
            let pid = Pid(i + 1);
            b.touch(pid, "/home/user/alpha/a.c", OpenMode::Read);
            b.touch(pid, "/home/user/alpha/b.c", OpenMode::Read);
        }
        b.touch(Pid(99), "/home/user/beta/x.tex", OpenMode::Read);
        b.touch(Pid(99), "/home/user/beta/y.bib", OpenMode::Read);
        // Later, disconnected, the user misses a beta file.
        b.open_err(
            Pid(100),
            "/home/user/beta/x.tex",
            OpenMode::Read,
            seer_trace::ErrorKind::NotHoarded,
        );
        let trace = b.build();
        let mut engine = SeerEngine::default();
        trace.replay(&mut engine);
        let misses = engine.take_misses();
        assert_eq!(misses.len(), 1);
        engine.recluster();
        let x = engine.paths().get("/home/user/beta/x.tex").expect("seen");
        let rank = engine.rank();
        let pos_x = rank.iter().position(|&f| f == x).expect("ranked");
        assert!(
            pos_x <= 2,
            "missed file's project now leads the ranking: pos {pos_x}"
        );
    }
}
