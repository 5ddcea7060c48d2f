//! Pipeline metrics: registry-backed counters, gauges, and stage timers.
//!
//! The registry is the single source of truth. Each apply-path
//! measurement is recorded once, for its tenant ([`TenantMetrics`]);
//! [`PipelineMetrics::snapshot`] derives the daemon-wide series as sums
//! of the tenant families ([`DERIVED`]). [`DaemonStats`] survives only as
//! a *view* of that snapshot, keeping the wire protocol's `stats` answer
//! and the [`crate::DaemonHandle`] API stable while the hot path records
//! through lock-free atomics instead of a shared mutex.

use seer_telemetry::{
    AlertCenter, AlertTransition, Counter, Gauge, Histogram, MetricSnapshot, MetricValue, Registry,
    RegistrySnapshot, Tracer,
};
use std::sync::Arc;
use std::time::Instant;

/// Records the alert ring retains, firing and resolved; resolved ones
/// are evicted first.
const ALERT_RING: usize = 256;

/// Counters describing the daemon's ingestion pipeline.
///
/// `max_queue_depth` is the backpressure witness: it records the deepest
/// the bounded ingest queue ever got, and can never exceed the configured
/// channel capacity because producers block instead of growing the queue.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Events accepted off client sockets.
    pub events_received: u64,
    /// Events applied to the engine.
    pub events_applied: u64,
    /// Batches applied to the engine.
    pub batches_applied: u64,
    /// Deepest observed ingest-queue depth (messages).
    pub max_queue_depth: usize,
    /// Reclusterings performed.
    pub reclusters: u64,
    /// Snapshots written to disk.
    pub snapshots: u64,
    /// Client connections accepted.
    pub connections: u64,
}

/// Registry handles for every pipeline metric. Connection readers and
/// the engine actors share one instance; all recording is lock-free.
pub(crate) struct PipelineMetrics {
    /// The registry the handles live in, for `metrics` query snapshots.
    pub registry: Arc<Registry>,
    /// The causal-span tracer / flight recorder every pipeline stage
    /// records into. Disabled (`trace_capacity: 0`) it costs one branch.
    pub tracer: Tracer,
    pub events_received: Counter,
    /// Tenants the engine shards currently hold state for.
    pub tenants: Gauge,
    pub reclusters: Counter,
    /// Reclusterings whose counting phase ran incrementally off the
    /// tenant's pair-count cache (a subset of `reclusters`).
    pub reclusters_incremental: Counter,
    pub snapshots: Counter,
    pub connections: Counter,
    /// Recluster jobs queued or running on the background worker.
    pub recluster_inflight: Gauge,
    /// Hoard/cluster queries answered from a clustering older than the
    /// applied event count (non-fresh queries during a recluster).
    pub stale_queries: Counter,
    /// Events applied since the installed clustering was computed — how
    /// far the hoard's view of the project structure lags reality.
    pub generation_lag: Gauge,
    /// Ingest-queue depth sampled at each event send.
    pub queue_depth: Gauge,
    /// High-water mark of `queue_depth` over the daemon's lifetime.
    pub queue_depth_max: Gauge,
    /// Seconds since the daemon started, refreshed on metrics queries so
    /// scrapers can derive events/sec without wall-clock access.
    uptime_seconds: Gauge,
    /// WAL bytes appended, framing included.
    pub wal_appended_bytes: Counter,
    /// WAL appends that failed (logged, never fatal to ingest).
    pub wal_append_errors: Counter,
    /// WAL segment rotations.
    pub wal_rotations: Counter,
    /// WAL segments deleted by snapshot-driven compaction.
    pub wal_segments_compacted: Counter,
    /// WAL segment files currently on disk.
    pub wal_segments: Gauge,
    /// Total bytes across WAL segment files.
    pub wal_disk_bytes: Gauge,
    /// Per-stage latency histograms (`seer_daemon_stage_seconds`).
    pub stage_socket_read: Histogram,
    pub stage_decode: Histogram,
    pub stage_recluster: Histogram,
    pub stage_snapshot_write: Histogram,
    pub stage_wal_fsync: Histogram,
    pub stage_evaluate: Histogram,
    /// Quality evaluations completed (background + inline query-driven).
    pub quality_evals: Counter,
    /// The fleet alert ring: SLO burn, WAL fault, and watchdog alerts
    /// with firing/resolved transitions, shared by every shard actor,
    /// the hub, and the watchdog thread.
    pub alerts: AlertCenter,
    /// Alerts ever fired (including since-evicted and resolved ones).
    pub alerts_fired: Counter,
    /// Alerts currently firing across all tenants and `_self`.
    pub alerts_firing: Gauge,
    started: Instant,
}

/// Per-tenant instrument handles, resolved once per tenant at state
/// creation so the apply path never re-interns a label set. Cloning is
/// cheap (each handle is an `Arc` around its atomics).
///
/// Per-tenant stage histograms live under their own metric name
/// (`seer_daemon_tenant_stage_seconds`); their daemon-wide sums appear
/// under `seer_daemon_stage_seconds` only in [`PipelineMetrics::snapshot`].
#[derive(Debug, Clone)]
pub(crate) struct TenantMetrics {
    /// Events applied for this tenant.
    pub events_applied: Counter,
    /// Batches applied for this tenant.
    pub batches_applied: Counter,
    /// Flush acknowledgements answered for this tenant's connections.
    pub flushes: Counter,
    /// Hoard misses (real + auto-detected), mirrored from the quality
    /// plane's miss log at health-sampling cadence.
    pub misses: Counter,
    /// WAL records appended for this tenant (interns + batches).
    pub wal_records: Counter,
    /// Batches dropped unacknowledged under this tenant's WAL fault.
    pub wal_dropped_batches: Counter,
    /// Engine-apply latency for this tenant's batches, dropped ones too.
    pub stage_engine_apply: Histogram,
    /// WAL-append latency for this tenant's batches.
    pub stage_wal_append: Histogram,
    /// The folded 0–100 health score.
    pub health_score: Gauge,
    /// The tenant's latest SEER miss-free hoard size in bytes.
    pub quality_seer_missfree_bytes: Gauge,
    /// The tenant's latest shadow-LRU miss-free hoard size in bytes.
    pub quality_lru_missfree_bytes: Gauge,
    /// The tenant's latest simulated-disconnection working-set size.
    pub quality_working_set_bytes: Gauge,
    /// Files the tenant's latest evaluation's needed set contained.
    pub quality_needed_files: Gauge,
}

impl PipelineMetrics {
    fn new(registry: Arc<Registry>, tracer: Tracer) -> PipelineMetrics {
        let stage = |name: &str, help: &str| {
            registry.histogram_with("seer_daemon_stage_seconds", help, &[("stage", name)])
        };
        PipelineMetrics {
            events_received: registry.counter(
                "seer_daemon_events_received_total",
                "Events accepted off client sockets.",
            ),
            reclusters: registry
                .counter("seer_daemon_reclusters_total", "Reclusterings performed."),
            reclusters_incremental: registry.counter(
                "seer_daemon_reclusters_incremental_total",
                "Reclusterings served by incremental shared-neighbor maintenance.",
            ),
            snapshots: registry
                .counter("seer_daemon_snapshots_total", "Snapshots written to disk."),
            connections: registry.counter(
                "seer_daemon_connections_total",
                "Client connections accepted.",
            ),
            tenants: registry.gauge(
                "seer_daemon_tenants",
                "Tenants the engine shards currently hold state for.",
            ),
            recluster_inflight: registry.gauge(
                "seer_daemon_recluster_inflight",
                "Recluster jobs queued or running on the background worker.",
            ),
            stale_queries: registry.counter(
                "seer_daemon_stale_queries_total",
                "Queries answered from a cached clustering older than the applied event count.",
            ),
            generation_lag: registry.gauge(
                "seer_daemon_generation_lag",
                "Events applied since the installed clustering's generation.",
            ),
            queue_depth: registry.gauge(
                "seer_daemon_queue_depth",
                "Ingest-queue depth at the last event send.",
            ),
            queue_depth_max: registry.gauge(
                "seer_daemon_queue_depth_max",
                "Deepest observed ingest-queue depth (bounded by channel capacity).",
            ),
            uptime_seconds: registry.gauge(
                "seer_daemon_uptime_seconds",
                "Seconds since the daemon started.",
            ),
            stage_socket_read: stage(
                "socket_read",
                "Pipeline stage latency: reading one frame line off a client socket.",
            ),
            stage_decode: stage(
                "decode",
                "Pipeline stage latency: decoding one frame (binary events or a JSON control line).",
            ),
            stage_recluster: stage(
                "recluster",
                "Pipeline stage latency: one full reclustering in the engine actor.",
            ),
            stage_snapshot_write: stage(
                "snapshot_write",
                "Pipeline stage latency: writing one snapshot atomically to disk.",
            ),
            wal_appended_bytes: registry.counter(
                "seer_wal_appended_bytes_total",
                "Bytes appended to the WAL, record framing included.",
            ),
            wal_append_errors: registry.counter(
                "seer_wal_append_errors_total",
                "WAL appends that failed (logged and skipped, never fatal).",
            ),
            wal_rotations: registry.counter(
                "seer_wal_rotations_total",
                "WAL segments sealed and rotated at the size threshold.",
            ),
            wal_segments_compacted: registry.counter(
                "seer_wal_segments_compacted_total",
                "WAL segments deleted by snapshot-driven compaction.",
            ),
            wal_segments: registry
                .gauge("seer_wal_segments", "WAL segment files currently on disk."),
            wal_disk_bytes: registry.gauge(
                "seer_wal_disk_bytes",
                "Total bytes across WAL segment files.",
            ),
            stage_wal_fsync: stage(
                "wal_fsync",
                "Pipeline stage latency: the fsync portion of WAL appends, when \
                 the policy synced.",
            ),
            stage_evaluate: stage(
                "evaluate",
                "Pipeline stage latency: one quality evaluation (miss-free hoard \
                 size, SEER vs shadow-LRU) on the background worker or inline.",
            ),
            quality_evals: registry.counter(
                "seer_daemon_quality_evals_total",
                "Quality evaluations completed (background and query-driven).",
            ),
            alerts: AlertCenter::new(ALERT_RING),
            alerts_fired: registry.counter(
                "seer_daemon_alerts_fired_total",
                "Alerts ever fired (SLO burn, WAL fault, watchdog).",
            ),
            alerts_firing: registry.gauge(
                "seer_daemon_alerts_firing",
                "Alerts currently firing across all tenants and _self.",
            ),
            started: Instant::now(),
            registry,
            tracer,
        }
    }

    /// Resolves the per-tenant handle bundle, interning each label set
    /// exactly once. Called at tenant-state creation, never on the
    /// apply path.
    pub(crate) fn tenant(&self, tenant: &str) -> TenantMetrics {
        let t = &[("tenant", tenant)];
        let stage = |name: &str, help: &str| {
            self.registry.histogram_with(
                "seer_daemon_tenant_stage_seconds",
                help,
                &[("tenant", tenant), ("stage", name)],
            )
        };
        TenantMetrics {
            events_applied: self.registry.counter_with(
                "seer_daemon_tenant_events_total",
                "Events applied, per tenant.",
                t,
            ),
            batches_applied: self.registry.counter_with(
                "seer_daemon_tenant_batches_total",
                "Batches applied, per tenant.",
                t,
            ),
            flushes: self.registry.counter_with(
                "seer_daemon_tenant_flushes_total",
                "Flush acknowledgements answered, per tenant.",
                t,
            ),
            misses: self.registry.counter_with(
                "seer_daemon_tenant_misses_total",
                "Hoard misses (real + auto-detected), per tenant.",
                t,
            ),
            wal_records: self.registry.counter_with(
                "seer_daemon_tenant_wal_records_total",
                "WAL records appended, per tenant.",
                t,
            ),
            wal_dropped_batches: self.registry.counter_with(
                "seer_daemon_tenant_wal_dropped_batches_total",
                "Batches dropped unacknowledged under a WAL fault, per tenant.",
                t,
            ),
            stage_engine_apply: stage(
                "engine_apply",
                "Per-tenant engine-apply latency (twin of the global stage).",
            ),
            stage_wal_append: stage(
                "wal_append",
                "Per-tenant WAL-append latency (twin of the global stage).",
            ),
            health_score: self.registry.gauge_with(
                "seer_daemon_tenant_health_score",
                "Folded 0-100 per-tenant health score (100 = healthy).",
                t,
            ),
            quality_seer_missfree_bytes: self.registry.gauge_with(
                "seer_daemon_quality_seer_missfree_bytes",
                "Latest SEER miss-free hoard size for the simulated disconnection window.",
                t,
            ),
            quality_lru_missfree_bytes: self.registry.gauge_with(
                "seer_daemon_quality_lru_missfree_bytes",
                "Latest shadow-LRU miss-free hoard size for the same window.",
                t,
            ),
            quality_working_set_bytes: self.registry.gauge_with(
                "seer_daemon_quality_working_set_bytes",
                "Latest simulated-disconnection working-set size (the optimal floor).",
                t,
            ),
            quality_needed_files: self.registry.gauge_with(
                "seer_daemon_quality_needed_files",
                "Files referenced inside the latest simulated disconnection window.",
                t,
            ),
        }
    }

    /// A tenant's connection-error counter alone, resolved by the hub
    /// when a protocol violation or mid-frame I/O failure kills one of
    /// its connections (and only that one): the blast-radius witness.
    pub(crate) fn tenant_connection_errors(&self, tenant: &str) -> Counter {
        self.registry.counter_with(
            "seer_daemon_tenant_connection_errors_total",
            "Connections torn down by protocol violations or I/O failures, per tenant.",
            &[("tenant", tenant)],
        )
    }

    /// Drives the (tenant, kind) alert from its condition, keeping the
    /// fired counter and firing gauge in step with the ring.
    pub(crate) fn alert(
        &self,
        tenant: &str,
        kind: &str,
        firing: bool,
        message: impl FnOnce() -> String,
    ) {
        match self.alerts.observe(tenant, kind, firing, message) {
            Some(AlertTransition::Fired) => self.alerts_fired.inc(),
            Some(AlertTransition::Resolved) | None => {}
        }
        self.alerts_firing
            .set(i64::try_from(self.alerts.firing_count()).unwrap_or(i64::MAX));
    }

    /// Refreshes the generation-lag gauge from the live counters.
    pub(crate) fn observe_generation_lag(&self, events_applied: u64, generation: u64) {
        let lag = events_applied.saturating_sub(generation);
        self.generation_lag
            .set(i64::try_from(lag).unwrap_or(i64::MAX));
    }

    /// Records a queue-depth observation (live value + high-water mark).
    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        let d = i64::try_from(depth).unwrap_or(i64::MAX);
        self.queue_depth.set(d);
        self.queue_depth_max.set_max(d);
    }

    /// Every metric now, uptime refreshed, plus each [`DERIVED`] series as
    /// the sum of its tenant family (zero before any tenant exists). The
    /// `Metrics` query, [`crate::DaemonHandle::metrics`], and
    /// [`Self::snapshot_view`] all read through here.
    pub(crate) fn snapshot(&self) -> RegistrySnapshot {
        let secs = i64::try_from(self.started.elapsed().as_secs()).unwrap_or(i64::MAX);
        self.uptime_seconds.set(secs);
        let mut snap = self.registry.snapshot();
        for d in &DERIVED {
            let labels: Vec<(String, String)> = d
                .stage
                .iter()
                .map(|s| ("stage".into(), (*s).into()))
                .collect();
            let mut value = d.zero();
            for m in &snap.metrics {
                if m.name == d.family && labels.iter().all(|l| m.labels.contains(l)) {
                    value.accumulate(&m.value);
                }
            }
            snap.insert(MetricSnapshot {
                name: d.name.into(),
                help: d.help.into(),
                labels,
                value,
            });
        }
        snap
    }

    /// The legacy counters view, read off [`Self::snapshot`].
    pub(crate) fn snapshot_view(&self) -> DaemonStats {
        let snap = self.snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let max_queue_depth = snap.gauge("seer_daemon_queue_depth_max").unwrap_or(0);
        DaemonStats {
            events_received: counter("seer_daemon_events_received_total"),
            events_applied: counter("seer_daemon_events_applied_total"),
            batches_applied: counter("seer_daemon_batches_applied_total"),
            max_queue_depth: usize::try_from(max_queue_depth).unwrap_or(0),
            reclusters: counter("seer_daemon_reclusters_total"),
            snapshots: counter("seer_daemon_snapshots_total"),
            connections: counter("seer_daemon_connections_total"),
        }
    }
}

/// A daemon-wide series never recorded itself: the sum of a per-tenant
/// family, counters by total and histograms by count, sum, and bucket.
struct Derived {
    name: &'static str,
    /// The `stage` label of a stage histogram (its family carries it too).
    stage: Option<&'static str>,
    help: &'static str,
    family: &'static str,
}

impl Derived {
    /// The series' value with no tenant: a stage histogram or a counter.
    fn zero(&self) -> MetricValue {
        match self.stage {
            Some(_) => Histogram::default().snapshot(),
            None => MetricValue::Counter { total: 0 },
        }
    }
}

/// Every daemon-wide series derived from a tenant family.
const DERIVED: [Derived; 7] = [
    Derived {
        name: "seer_daemon_events_applied_total",
        stage: None,
        help: "Events applied to the engine.",
        family: "seer_daemon_tenant_events_total",
    },
    Derived {
        name: "seer_daemon_batches_applied_total",
        stage: None,
        help: "Batches applied to the engine.",
        family: "seer_daemon_tenant_batches_total",
    },
    Derived {
        name: "seer_daemon_connection_errors_total",
        stage: None,
        help: "Connections torn down by a protocol violation or mid-frame I/O failure.",
        family: "seer_daemon_tenant_connection_errors_total",
    },
    Derived {
        name: "seer_daemon_wal_dropped_batches_total",
        stage: None,
        help: "Batches dropped unacknowledged because the tenant's WAL has faulted.",
        family: "seer_daemon_tenant_wal_dropped_batches_total",
    },
    Derived {
        name: "seer_wal_records_total",
        stage: None,
        help: "WAL records appended (intern declarations and event batches).",
        family: "seer_daemon_tenant_wal_records_total",
    },
    Derived {
        name: "seer_daemon_stage_seconds",
        stage: Some("engine_apply"),
        help: "Pipeline stage latency: remapping and applying one batch to the engine.",
        family: "seer_daemon_tenant_stage_seconds",
    },
    Derived {
        name: "seer_daemon_stage_seconds",
        stage: Some("wal_append"),
        help: "Pipeline stage latency: appending one batch (plus intern deltas) \
               to the write-ahead log, fsync included when the policy syncs.",
        family: "seer_daemon_tenant_stage_seconds",
    },
];

/// Metrics handle shared between server, pipeline, and callers.
pub(crate) type SharedMetrics = Arc<PipelineMetrics>;

pub(crate) fn new_shared(tracer: Tracer) -> SharedMetrics {
    Arc::new(PipelineMetrics::new(Arc::new(Registry::new()), tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_view_mirrors_registry() {
        let m = new_shared(Tracer::disabled());
        let t = m.tenant("a");
        m.events_received.add(10);
        t.events_applied.add(8);
        t.batches_applied.inc();
        m.observe_queue_depth(5);
        m.observe_queue_depth(2); // live drops, high-water holds
        m.connections.inc();
        let view = m.snapshot_view();
        assert_eq!(view.events_received, 10);
        assert_eq!(view.events_applied, 8);
        assert_eq!(view.batches_applied, 1);
        assert_eq!(view.max_queue_depth, 5);
        assert_eq!(view.connections, 1);
        let snap = m.registry.snapshot();
        assert_eq!(snap.gauge("seer_daemon_queue_depth"), Some(2));
        assert_eq!(snap.gauge("seer_daemon_queue_depth_max"), Some(5));
    }

    #[test]
    fn tenant_bundle_interns_once_and_stays_off_the_global_stage_name() {
        let m = new_shared(Tracer::disabled());
        let a = m.tenant("machine-a");
        let again = m.tenant("machine-a");
        a.events_applied.add(5);
        again.events_applied.add(2);
        let snap = m.snapshot();
        assert_eq!(
            snap.find_with(
                "seer_daemon_tenant_events_total",
                &[("tenant", "machine-a")]
            )
            .and_then(|ms| match ms.value {
                seer_telemetry::MetricValue::Counter { total } => Some(total),
                _ => None,
            }),
            Some(7),
            "re-resolving the bundle shares the same atomics"
        );
        a.stage_engine_apply.observe_nanos(1_000);
        let global_stages = snap
            .metrics
            .iter()
            .filter(|ms| ms.name == "seer_daemon_stage_seconds")
            .count();
        assert_eq!(
            global_stages, 8,
            "tenant stages don't pollute the global name"
        );
        assert!(m
            .registry
            .snapshot()
            .find_with(
                "seer_daemon_tenant_stage_seconds",
                &[("tenant", "machine-a"), ("stage", "engine_apply")]
            )
            .is_some());
    }

    #[test]
    fn alert_helper_tracks_fired_and_firing() {
        let m = new_shared(Tracer::disabled());
        m.alert("a", "slo-burn", true, || "burning".into());
        m.alert("a", "slo-burn", true, || "still".into());
        assert_eq!(m.alerts_fired.get(), 1, "one edge, one fired");
        let snap = m.registry.snapshot();
        assert_eq!(snap.gauge("seer_daemon_alerts_firing"), Some(1));
        m.alert("a", "slo-burn", false, || unreachable!());
        assert_eq!(
            m.registry.snapshot().gauge("seer_daemon_alerts_firing"),
            Some(0)
        );
        assert_eq!(m.alerts.snapshot(Some("a")).len(), 1);
    }

    #[test]
    fn stage_histograms_share_one_metric_name() {
        let m = new_shared(Tracer::disabled());
        m.stage_decode.observe_nanos(1_000);
        m.tenant("a").stage_engine_apply.observe_nanos(2_000);
        let snap = m.snapshot();
        let stages: Vec<_> = snap
            .metrics
            .iter()
            .filter(|ms| ms.name == "seer_daemon_stage_seconds")
            .collect();
        assert_eq!(stages.len(), 8, "eight instrumented stages");
        assert!(snap
            .find_with("seer_daemon_stage_seconds", &[("stage", "decode")])
            .is_some());
        assert!(snap.gauge("seer_daemon_uptime_seconds").is_some());
    }

    /// Every daemon-wide series is exactly the sum of its tenant family,
    /// and reads zero before any tenant exists.
    #[test]
    fn daemon_wide_series_are_tenant_sums() {
        let m = new_shared(Tracer::disabled());
        let empty = m.snapshot();
        for d in &DERIVED {
            let labels: Vec<_> = d.stage.iter().map(|s| ("stage", *s)).collect();
            let series = empty.find_with(d.name, &labels).expect("present at zero");
            assert_eq!(series.value, d.zero(), "{} {labels:?}", d.name);
        }
        // Tenant a observes 2^-9 s, tenant b 2^-3 s: different buckets,
        // and seconds that add without rounding.
        let expected = Histogram::default();
        for (k, tenant, nanos) in [(1, "a", 1_953_125), (2, "b", 125_000_000)] {
            let t = m.tenant(tenant);
            t.events_applied.add(100 * k);
            t.batches_applied.add(10 * k);
            t.wal_records.add(20 * k);
            t.wal_dropped_batches.add(k);
            m.tenant_connection_errors(tenant).add(3 * k);
            t.stage_engine_apply.observe_nanos(nanos);
            t.stage_wal_append.observe_nanos(nanos);
            expected.observe_nanos(nanos);
        }
        let snap = m.snapshot();
        assert!(snap
            .metrics
            .is_sorted_by(|x, y| (&x.name, &x.labels) < (&y.name, &y.labels)));
        for (name, total) in [
            ("seer_daemon_events_applied_total", 300),
            ("seer_daemon_batches_applied_total", 30),
            ("seer_wal_records_total", 60),
            ("seer_daemon_wal_dropped_batches_total", 3),
            ("seer_daemon_connection_errors_total", 9),
        ] {
            assert_eq!(snap.counter(name), Some(total), "{name}");
        }
        for stage in ["engine_apply", "wal_append"] {
            let series = snap.find_with("seer_daemon_stage_seconds", &[("stage", stage)]);
            assert_eq!(series.expect(stage).value, expected.snapshot(), "{stage}");
        }
        let view = m.snapshot_view();
        assert_eq!((view.events_applied, view.batches_applied), (300, 30));
    }
}
