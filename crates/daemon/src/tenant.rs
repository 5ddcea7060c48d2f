//! One tenant: a full SEER instance with its string table,
//! per-connection id tables and ack counts, write-ahead log, snapshot
//! bookkeeping, quality plane, and health score, and every transition
//! on it.
//!
//! ```text
//!   recover / open ──► TenantState ◄── apply_batch · answer · housekeep · close
//!                        │      ▲
//!          snapshot_job ─┘      └─ finish_snapshot
//!         (a frozen Job)           (the written Job's Done)
//! ```
//!
//! A shard's actor (`crate::pipeline`) owns one [`TenantState`] per
//! tenant routed to it and calls these transitions between messages.
//! Nothing here starts a thread, waits on a channel, or reads a clock to
//! decide anything: the transitions that depend on time (the evaluation
//! cadence, the health sampler and its staleness check) take `now` from
//! their caller, so one thread can drive a tenant through chosen times.
//! A snapshot leaves the tenant as a frozen [`Job`]; whoever writes it
//! (the shard's worker, or the caller inline) folds the [`Done`] back in
//! with [`TenantState::finish_snapshot`].
//!
//! A tenant clusters on read: whatever reads the clustering reclusters
//! first when it lags the applied events
//! ([`TenantState::prepare_clustering`]), and nothing else reclusters.
//!
//! One recovery sequence, [`TenantState::recover`], rebuilds a tenant
//! from its snapshot and log for both of its callers: daemon startup
//! (the default tenant; a failure refuses the start, and `restore_to` is
//! honoured) and a tenant met for the first time since
//! ([`TenantState::open`]; a failure faults the tenant's log and keeps
//! whatever replayed). Tenants are isolated: a log fault or a hostile
//! client on one never reaches into another's state.

use crate::health::{HealthSignals, TenantHealth, BURN_THRESHOLD, SELF_TENANT};
use crate::quality::{self, QualityState};
use crate::snapshot::{self, DaemonSnapshot};
use crate::stats::{SharedMetrics, TenantMetrics};
use crate::worker::{Done, Job};
use crate::{DaemonConfig, DaemonError};
use seer_core::{PairCountCache, Replayer, SeerEngine};
use seer_telemetry::{tlog, Level, Span, SpanContext};
use seer_trace::wire::{
    ExplainNeighbor, MissPostmortem, QueryRequest, QueryResponse, TenantFleetStat,
};
use seer_trace::{EventSink, FileId, RawPathId, StringTable, TraceEvent};
use seer_wal::{AppendOutcome, Wal, WalConfig, WalError};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A tenant id as routed by the hub. `Arc<str>` so every message clones
/// a pointer, not a string.
pub(crate) type Tenant = Arc<str>;

/// The tenant a connection lands on when its `Hello` names none.
pub(crate) const DEFAULT_TENANT: &str = "default";

/// The default tenant id, ready to stamp on messages.
pub(crate) fn default_tenant() -> Tenant {
    Arc::from(DEFAULT_TENANT)
}

/// Names a tenant may not take: the default tenant's snapshot writes
/// `<path>.tmp` and keeps `<path>.prev` beside `<path>`, where tenants
/// `tmp` and `prev` would snapshot, and `_self` is the watchdog's
/// pseudo-tenant in alerts.
const RESERVED_TENANTS: [&str; 3] = ["tmp", "prev", SELF_TENANT];

/// The rule every tenant name a `Hello` carries must pass before it
/// names a file, a directory, or a metric label: 1–64 bytes of
/// `[A-Za-z0-9_-]`, and none of [`RESERVED_TENANTS`]. With no `.` or
/// `/` allowed, distinct names map to distinct snapshot paths and WAL
/// directories, none of them a file the default tenant writes.
pub(crate) fn check_tenant_name(name: &str) -> Result<(), String> {
    let allowed = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    if name.is_empty() || name.len() > 64 || !name.bytes().all(allowed) {
        return Err("a tenant name must be 1-64 bytes of [A-Za-z0-9_-]".into());
    }
    if RESERVED_TENANTS.contains(&name) {
        return Err(format!("tenant name {name} is reserved"));
    }
    Ok(())
}

/// The snapshot path for a tenant. The default tenant keeps the
/// configured path exactly (compatibility with every pre-hub daemon on
/// disk); other tenants get a `.<tenant>` suffixed sibling.
pub(crate) fn tenant_snapshot_path(base: &Path, tenant: &str) -> PathBuf {
    if tenant == DEFAULT_TENANT {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}.{tenant}", base.display()))
    }
}

/// The WAL directory for a tenant. The default tenant keeps the
/// configured directory; other tenants get a `-<tenant>` suffixed
/// sibling directory (a sibling, not a subdirectory, so the log's own
/// segment scan never sees foreign entries).
pub(crate) fn tenant_wal_dir(base: &Path, tenant: &str) -> PathBuf {
    if tenant == DEFAULT_TENANT {
        base.to_path_buf()
    } else {
        PathBuf::from(format!("{}-{tenant}", base.display()))
    }
}

/// Consecutive incremental reclusterings after which a tenant's
/// pair-count cache is dropped to force a full shared-neighbor recount
/// (defense in depth against cache drift; incremental maintenance is
/// exact either way and falls back to a full recount on structural
/// change by itself).
const RECLUSTER_FULL_EVERY: u64 = 16;

/// What a tenant holds for one live connection.
#[derive(Default)]
struct Conn {
    /// Translation from the connection's wire-local ids (dense from
    /// zero) to the tenant's global ids.
    ids: Vec<RawPathId>,
    /// Events of the connection's batches applied so far (for flush
    /// acks).
    applied: u64,
}

/// One tenant's complete state and the daemon-wide context its
/// transitions read: the configuration and the metrics registry.
pub(crate) struct TenantState {
    name: Tenant,
    cfg: Arc<DaemonConfig>,
    metrics: SharedMetrics,
    /// Where the tenant's snapshots go; `None` when the daemon keeps none.
    snapshot_path: Option<PathBuf>,
    engine: SeerEngine,
    strings: StringTable,
    /// Each live connection's state, by connection id; dropped whole
    /// when the connection hangs up.
    conns: HashMap<u64, Conn>,
    events_applied: u64,
    since_snapshot: u64,
    /// `events_applied` when the installed clustering was computed. It
    /// lags the live counter between reads, never inside one.
    clustering_generation: u64,
    /// Pre-relation pair counts as of the previous recluster's view,
    /// which the next run updates from the engine's dirty delta instead
    /// of recounting. `None` before the first run.
    cache: Option<PairCountCache>,
    /// Incremental runs since the last full recount.
    since_full: u64,
    /// Generation of the snapshot job in flight, if any. A tenant has at
    /// most one.
    snapshot_job: Option<u64>,
    /// The write-ahead log, when the daemon runs with one. Appended
    /// before each batch reaches the engine; compacted after each
    /// written snapshot, through that snapshot's generation.
    wal: Option<Wal>,
    /// Set when the log faults (see [`TenantState::fault_log`]).
    wal_fault: Option<String>,
    /// The quality plane: evaluation cadence, shadow LRU, series rings,
    /// miss log, and retained postmortems.
    quality: QualityState,
    /// Per-tenant instrument handles, resolved (label sets interned)
    /// exactly once here so the apply path only touches atomics.
    tm: TenantMetrics,
    /// Health scorer state: burn gauge, current score, sparkline.
    health: TenantHealth,
    /// Events inside batches dropped unacknowledged under a log fault;
    /// they count as "bad ops" against the SLO burn budget alongside
    /// hoard misses.
    dropped_events: u64,
}

impl TenantState {
    /// Recovers the tenant from disk: the newest snapshot that loads (a
    /// damaged one falls back to the previous, then to a cold engine with
    /// the default configuration), with the tenant's log replayed on top.
    /// With `restore_to`, the log is first truncated after that
    /// generation, a snapshot above it does not count as a base, and the
    /// restored state is published as the snapshot at once, so no newer
    /// file on disk can resurrect the discarded history.
    ///
    /// The tenant comes back whatever happens, holding everything that
    /// replayed and registered with the metrics (its recovered history
    /// counts toward the fleet totals, so a restart does not appear to
    /// reset progress). A log that could not be opened, restored, or
    /// replayed comes back beside it as the error, and the tenant then
    /// runs without one: startup refuses to start on it, and
    /// [`TenantState::open`] faults the tenant's log with it.
    pub(crate) fn recover(
        name: Tenant,
        cfg: &Arc<DaemonConfig>,
        metrics: &SharedMetrics,
        restore_to: Option<u64>,
    ) -> (TenantState, Result<(), DaemonError>) {
        let snapshot_path = (cfg.snapshot_path.as_deref()).map(|p| tenant_snapshot_path(p, &name));
        if let Some(path) = &snapshot_path {
            snapshot::clean_stale(path);
        }
        let at_most = restore_to.unwrap_or(u64::MAX);
        let mut rep = snapshot::load_base(snapshot_path.as_deref(), at_most, &name);
        let (wal, mut recovered) = match open_log(&name, cfg, &mut rep, restore_to) {
            Ok(wal) => (wal, Ok(())),
            Err(e) => (None, Err(e)),
        };
        let (mut engine, strings, events_applied) = rep.into_parts();
        let tm = metrics.tenant(&name);
        engine.attach_telemetry(tm.engine.clone());
        tm.events_applied.set_total(events_applied);
        metrics.tenants.add(1);
        let mut ts = TenantState {
            quality: QualityState::new(cfg.eval_every, cfg.eval_window_secs, metrics),
            health: TenantHealth::new(cfg),
            name,
            cfg: Arc::clone(cfg),
            metrics: Arc::clone(metrics),
            snapshot_path,
            engine,
            strings,
            conns: HashMap::new(),
            events_applied,
            since_snapshot: 0,
            clustering_generation: 0,
            cache: None,
            since_full: 0,
            snapshot_job: None,
            wal,
            wal_fault: None,
            tm,
            dropped_events: 0,
        };
        ts.update_wal_gauges();
        if restore_to.is_some() && recovered.is_ok() {
            if let Some(job) = ts.freeze_snapshot() {
                recovered = job.run().result.map_err(DaemonError::from);
            }
        }
        (ts, recovered)
    }

    /// A tenant met for the first time since startup, recovered from
    /// disk. A log that fails recovery faults this tenant, not the
    /// daemon: it keeps whatever replayed, runs without the log, and
    /// never acknowledges a batch it could not make durable.
    pub(crate) fn open(name: Tenant, cfg: &Arc<DaemonConfig>, metrics: &SharedMetrics) -> Self {
        tlog!(
            Level::Info,
            "seer_daemon::tenant",
            "tenant created",
            tenant = name.as_ref(),
        );
        let (mut ts, recovered) = TenantState::recover(name, cfg, metrics, None);
        if let Err(e) = recovered {
            ts.fault_log(format!("wal recovery failed: {e}"));
        }
        ts
    }

    /// Events applied so far, recovered history included.
    pub(crate) fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Whether the tenant holds events no snapshot covers yet.
    pub(crate) fn unsnapshotted(&self) -> bool {
        self.since_snapshot > 0
    }

    /// Whether a snapshot job of this tenant's is being written.
    pub(crate) fn snapshot_in_flight(&self) -> bool {
        self.snapshot_job.is_some()
    }

    /// Answers a flush from connection `conn`: the events of its batches
    /// applied so far.
    pub(crate) fn flushed(&self, conn: u64) -> u64 {
        self.tm.flushes.inc();
        self.conns.get(&conn).map_or(0, |c| c.applied)
    }

    /// Forgets a connection that hung up: its id table and its count.
    pub(crate) fn conn_closed(&mut self, conn: u64) {
        self.conns.remove(&conn);
    }

    /// Applies one events frame from connection `conn`, preceded by the
    /// paths it declared since its previous frame: the ids are remapped
    /// into the tenant's space, the batch is appended to the log, then
    /// applied to the engine and the quality plane. Whatever it makes
    /// due follows: postmortems for new misses and an evaluation, each
    /// of which reclusters first. Under a log fault, or when this append
    /// faults the log, the batch is dropped unacknowledged. Either way a
    /// health sample is offered. `depth` is the inbox depth behind the
    /// batch.
    pub(crate) fn apply_batch(
        &mut self,
        conn: u64,
        interns: &[String],
        mut events: Vec<TraceEvent>,
        ctx: Option<SpanContext>,
        depth: usize,
        now: Instant,
    ) {
        // One lookup serves the declarations, the remap and the count.
        // Declarations count even when a fault drops the batch below:
        // this connection's later batches name these ids too.
        let c = self.conns.entry(conn).or_default();
        for path in interns {
            c.ids.push(self.strings.intern(path));
        }
        // Times the whole stage, batches dropped under a log fault too.
        let apply_timer = self.tm.stage_engine_apply.start_timer();
        let mut span = ctx.map(|c| self.metrics.tracer.child("engine_apply", c));
        let n = events.len() as u64;
        let durable = self.wal_fault.is_none() && {
            // The reader refused every frame naming an undeclared id, so
            // each id has an entry.
            for ev in &mut events {
                ev.kind = ev.kind.map_paths(&mut |p| c.ids[p.index()]);
            }
            // The log records the remapped batch before the engine sees
            // it, so an acknowledged batch is replayable.
            let started = Instant::now();
            let appended = (self.wal.as_mut())
                .map(|wal| wal.append_batch(&self.strings, self.events_applied + n, &events));
            if !matches!(appended, Some(Err(_))) {
                c.applied += n;
            }
            self.finish_append(appended, started, span.as_ref())
        };
        if !durable {
            // A faulted log can no longer record this batch; applying it
            // would hand out state a restart cannot reproduce. The
            // client's flush count stops advancing and Health carries
            // the fault.
            self.tm.wal_dropped_batches.inc();
            self.dropped_events += n;
            self.observe_health(depth, now);
            return;
        }
        self.engine.on_batch(&events, &self.strings);
        self.quality_ingest(&events);
        self.events_applied += n;
        self.since_snapshot += n;
        self.tm.events_applied.add(n);
        self.tm.batches_applied.inc();
        if let Some(s) = &mut span {
            s.attr("events", n);
            s.attr("events_applied", self.events_applied);
        }
        drop(span);
        drop(apply_timer);
        self.observe_generation_lag();
        self.observe_health(depth, now);
        self.capture_postmortems();
        self.maybe_eval(now);
    }

    /// Accounts for a batch's log append (the batch and the intern
    /// deltas that make its ids meaningful), started at `started`, and
    /// faults the log when it failed; `false` then. `None`: the tenant
    /// runs without a log. The append's time stays inside the
    /// `engine_apply` stage: the ingest latency clients see includes it.
    fn finish_append(
        &mut self,
        appended: Option<Result<AppendOutcome, WalError>>,
        started: Instant,
        span: Option<&Span>,
    ) -> bool {
        let Some(result) = appended else {
            return true;
        };
        let elapsed = started.elapsed();
        self.tm.stage_wal_append.observe(elapsed);
        let out = match result {
            Ok(out) => out,
            Err(err) => {
                self.fault_log(format!("wal append failed: {err}"));
                return false;
            }
        };
        self.tm.wal_records.add(u64::from(out.records));
        self.metrics.wal_appended_bytes.add(out.bytes);
        if let Some(d) = out.fsync {
            self.metrics.stage_wal_fsync.observe(d);
        }
        if let Some(c) = span.map(Span::context) {
            self.metrics.tracer.record_complete(
                "wal_append",
                c.trace_id,
                Some(c.span_id),
                started,
                elapsed,
                &[("bytes", out.bytes.to_string())],
            );
        }
        if out.rotated {
            self.metrics.wal_rotations.inc();
        }
        // A new segment re-reads the log's accounting; any other append
        // grew the active segment by exactly its bytes.
        if out.rotated || self.tm.wal_segments.get() == 0 {
            self.update_wal_gauges();
        } else {
            self.tm.wal_disk_bytes.add(clamp(out.bytes));
        }
        true
    }

    /// Faults the tenant's log: the one path for a failed append, a
    /// failed idle sync, and a log that failed recovery. A faulted
    /// tenant stops applying (and acknowledging) batches, since
    /// acknowledged state must stay replayable, and reports the fault
    /// in Health answers and its `wal-fault` alert.
    fn fault_log(&mut self, fault: String) {
        self.metrics.wal_append_errors.inc();
        tlog!(
            Level::Warn,
            "seer_daemon::tenant",
            "wal fault; tenant faulted",
            tenant = self.name.as_ref(),
            error = fault.as_str(),
        );
        self.wal_fault = Some(fault);
    }

    /// Reclusters at the current generation, for a reader of the
    /// clustering ([`TenantState::prepare_clustering`] is the only
    /// caller). The run is incremental off the pair-count cache, draining
    /// the engine's dirty delta, so the delta spans everything applied
    /// since the previous read; every `RECLUSTER_FULL_EVERY`-th run
    /// recounts in full. It installs the clustering and records its
    /// `recluster` span (with `shard_count` children) retroactively:
    /// under `ctx` for a query, else under a fresh root trace (the
    /// cadence evaluation and miss postmortems). The span and the
    /// `recluster` stage cover building the neighbor sets as well as
    /// clustering them, as [`SeerEngine::recluster`]'s timing does.
    fn recluster(&mut self, ctx: Option<SpanContext>) {
        let started = Instant::now();
        let input = self.engine.recluster_input();
        if self.since_full >= RECLUSTER_FULL_EVERY {
            self.cache = None;
        }
        let dirty = self.engine.take_dirty();
        let built = started.elapsed();
        let run = input.compute_incremental(1, Some(&dirty), &mut self.cache);
        let wall = started.elapsed();
        self.since_full = if run.incremental {
            self.since_full + 1
        } else {
            0
        };
        let generation = self.events_applied;
        let clusters = (self.engine)
            .install_clustering(run.clustering, wall, &run.shard_count_seconds)
            .len();
        let (trace, parent) = match ctx {
            Some(c) => (c.trace_id, Some(c.span_id)),
            None => (seer_telemetry::new_trace_id(), None),
        };
        let tracer = &self.metrics.tracer;
        let recluster_ctx = tracer.record_complete(
            "recluster",
            trace,
            parent,
            started,
            wall,
            &[
                ("generation", generation.to_string()),
                ("clusters", clusters.to_string()),
                ("incremental", run.incremental.to_string()),
            ],
        );
        let shards = run.shard_count_seconds.iter().zip(&run.shard_start_offsets);
        for (i, (&shard_wall, &offset)) in shards.enumerate() {
            if let Some(shard_start) = started.checked_add(built + offset) {
                tracer.record_complete(
                    "shard_count",
                    trace,
                    Some(recluster_ctx.span_id),
                    shard_start,
                    shard_wall,
                    &[("shard", i.to_string())],
                );
            }
        }
        self.clustering_generation = generation;
        self.metrics.reclusters.inc();
        if run.incremental {
            self.metrics.reclusters_incremental.inc();
        }
        self.metrics.stage_recluster.observe(wall);
        self.observe_generation_lag();
        tlog!(
            Level::Debug,
            "seer_daemon::tenant",
            "reclustered",
            tenant = self.name.as_ref(),
            clusters = clusters,
            generation = generation,
        );
    }

    /// Idle housekeeping, after a full tick with no ingest message: keep
    /// the evaluation cadence alive (it evaluates only once events were
    /// applied since its last report), sample health so burn windows
    /// decay (and alerts resolve) while the tenant is quiet, and, under
    /// an interval fsync policy, sync the log if its window elapsed with
    /// appends outstanding, so a quiet daemon still bounds its loss
    /// window. A failed sync faults the log like a failed append. The
    /// caller then offers an idle snapshot ([`TenantState::snapshot_job`]).
    pub(crate) fn housekeep(&mut self, depth: usize, now: Instant) {
        self.maybe_eval(now);
        self.observe_health(depth, now);
        if self.wal_fault.is_some() {
            return;
        }
        if let Some(wal) = &mut self.wal {
            match wal.maybe_sync() {
                Ok(Some(d)) => self.metrics.stage_wal_fsync.observe(d),
                Ok(None) => {}
                Err(e) => self.fault_log(format!("wal sync failed: {e}")),
            }
        }
    }

    /// The tenant frozen into a snapshot job when one is due and none is
    /// in flight: `snapshot_every` events after the last one, or any
    /// event at all when `idle`. The job's generation stays in flight
    /// until its [`Done`] comes back through
    /// [`TenantState::finish_snapshot`].
    pub(crate) fn snapshot_job(&mut self, idle: bool) -> Option<Job> {
        let every = self.cfg.snapshot_every;
        let due = self.since_snapshot >= if idle { 1 } else { every };
        if every == 0 || !due || self.snapshot_job.is_some() {
            return None;
        }
        let job = self.freeze_snapshot()?;
        self.snapshot_job = Some(job.generation);
        Some(job)
    }

    /// The tenant frozen into a snapshot file's bytes at its current
    /// generation. `None`, and nothing pending any more, when the daemon
    /// keeps no snapshots.
    fn freeze_snapshot(&mut self) -> Option<Job> {
        self.since_snapshot = 0;
        let path = self.snapshot_path.clone()?;
        let snap = DaemonSnapshot {
            engine: self.engine.snapshot(),
            events_applied: self.events_applied,
        };
        Some(Job {
            tenant: self.name.clone(),
            generation: self.events_applied,
            path,
            bytes: snap.to_bytes(),
        })
    }

    /// Folds in a written snapshot at its generation. A durable snapshot
    /// covers every batch at or below its generation, so sealed log
    /// segments entirely below it are dead weight; compaction runs
    /// through that generation, never the live count, and never after a
    /// *failed* write — the log must keep covering whatever the last
    /// good snapshot missed.
    pub(crate) fn finish_snapshot(&mut self, done: Done) {
        let Done {
            generation,
            result,
            wall,
            ..
        } = done;
        self.metrics.stage_snapshot_write.observe(wall);
        self.snapshot_job = None;
        let tenant = self.name.as_ref();
        if let Err(e) = result {
            tlog!(
                Level::Warn,
                "seer_daemon::tenant",
                "snapshot write failed",
                tenant = tenant,
                generation = generation,
                error = e.to_string(),
            );
            return;
        }
        self.metrics.snapshots.inc();
        tlog!(
            Level::Info,
            "seer_daemon::tenant",
            "snapshot written",
            tenant = tenant,
            events_applied = generation,
        );
        let Some(wal) = &mut self.wal else {
            return;
        };
        match wal.compact(generation) {
            Ok(report) if report.segments_dropped > 0 => {
                let dropped = report.segments_dropped as u64;
                self.metrics.wal_segments_compacted.add(dropped);
                tlog!(
                    Level::Debug,
                    "seer_daemon::tenant",
                    "wal compacted",
                    tenant = tenant,
                    segments_dropped = dropped,
                    bytes_dropped = report.bytes_dropped,
                );
            }
            Ok(_) => {}
            Err(e) => tlog!(
                Level::Warn,
                "seer_daemon::tenant",
                "wal compaction failed",
                tenant = tenant,
                error = e.to_string(),
            ),
        }
        self.update_wal_gauges();
    }

    /// The graceful-shutdown epilogue, once no snapshot is in flight. A
    /// tenant that applied events writes its final snapshot inline and
    /// syncs its log's tail, which an interval policy may have left
    /// unsynced; a snapshot holds no clustering, so none is computed.
    /// One that only answered queries has nothing to persist and leaves
    /// no file.
    pub(crate) fn close(&mut self) {
        if self.events_applied == 0 {
            return;
        }
        if let Some(job) = self.freeze_snapshot() {
            self.finish_snapshot(job.run());
        }
        if let Some(Err(e)) = self.wal.as_mut().map(Wal::sync) {
            tlog!(
                Level::Warn,
                "seer_daemon::tenant",
                "wal final sync failed",
                tenant = self.name.as_ref(),
                error = e.to_string(),
            );
        }
    }

    /// Answers a tenant-scoped query, in order behind everything the
    /// asking connection sent before it. A query that reads the
    /// clustering (`Hoard`, `Clusters`, `Explain`, `Quality`) answers at
    /// the applied count; its `fresh` flag is ignored and its `stale`
    /// flag is always `false`. `ctx` is the actor's `engine_answer` span,
    /// under which a recluster the query forces records; `depth` is the
    /// inbox depth behind the query.
    pub(crate) fn answer(
        &mut self,
        query: QueryRequest,
        ctx: Option<SpanContext>,
        depth: usize,
    ) -> QueryResponse {
        match query {
            QueryRequest::Hoard { budget, .. } => {
                let generation = self.prepare_clustering(ctx);
                let file_size = self.cfg.file_size;
                let sel = self.engine.choose_hoard(budget, &|_| file_size);
                let paths = self.engine.paths();
                QueryResponse::Hoard {
                    files: (sel.files.iter())
                        .filter_map(|&f| paths.resolve(f).map(str::to_owned))
                        .collect(),
                    bytes: sel.bytes,
                    clusters_taken: sel.clusters_taken,
                    clusters_skipped: sel.clusters_skipped,
                    generation,
                    stale: false,
                }
            }
            QueryRequest::Clusters { .. } => {
                let generation = self.prepare_clustering(ctx);
                let clustering = self.engine.clustering().expect("prepared above");
                let mut largest: Vec<usize> = clustering.clusters.iter().map(|c| c.len()).collect();
                largest.sort_unstable_by(|a, b| b.cmp(a));
                largest.truncate(8);
                QueryResponse::Clusters {
                    count: clustering.len(),
                    largest,
                    files_known: self.engine.paths().len(),
                    generation,
                    stale: false,
                }
            }
            QueryRequest::Health => QueryResponse::Health {
                healthy: self.wal_fault.is_none(),
                events_applied: self.events_applied,
                queue_depth: depth,
                wal_fault: self.wal_fault.clone(),
            },
            QueryRequest::History { generation, budget } => self.answer_history(generation, budget),
            QueryRequest::Explain { path } => self.answer_explain(&path, ctx),
            QueryRequest::Quality => {
                // After a flush an online quality answer equals an
                // offline evaluation of the same events (the equivalence
                // tests pin this).
                self.evaluate(ctx);
                let q = &self.quality;
                QueryResponse::Quality {
                    report: q.latest.clone().expect("evaluated above"),
                    series: q.series.snapshot(),
                }
            }
            QueryRequest::Miss { id } => self.answer_miss(id),
            QueryRequest::Stats
            | QueryRequest::Metrics
            | QueryRequest::Dump
            | QueryRequest::Fleet { .. }
            | QueryRequest::Alerts { .. } => QueryResponse::Error {
                message: format!("{} is answered for the whole shard", query.name()),
            },
        }
    }

    /// The one recluster rule. Whatever reads the clustering calls this
    /// first: `Hoard`, `Clusters`, `Explain` and `Quality` answers, the
    /// cadence evaluation, and miss postmortems. It reclusters in place
    /// when there is no clustering yet or when the installed one lags
    /// `events_applied`, so every reader sees a clustering of everything
    /// applied, and every answer equals an offline replay of the same
    /// events plus a recluster. `ctx` parents the recluster's span (a
    /// query's `engine_answer`; `None` starts a root trace). Returns the
    /// clustering's generation, which is then `events_applied`.
    fn prepare_clustering(&mut self, ctx: Option<SpanContext>) -> u64 {
        if self.engine.clustering().is_none() || self.clustering_generation < self.events_applied {
            self.recluster(ctx);
        }
        self.clustering_generation
    }

    /// Answers a `History` query: replay the tenant's log (from its
    /// newest snapshot at or below `target`, else from generation zero)
    /// into a fresh engine, stop after the last batch at or below
    /// `target`, recluster, and select a hoard — exactly what the live
    /// daemon would have answered at that generation.
    ///
    /// Reading the live log is safe because no append can race the
    /// replay: both happen between the same actor's messages. The query
    /// arrived behind this connection's events, so the log already
    /// contains everything it sent.
    fn answer_history(&mut self, target: u64, budget: u64) -> QueryResponse {
        let err = |message: String| QueryResponse::Error { message };
        let Some(wal) = &mut self.wal else {
            return err("history unavailable: daemon is running without a WAL".into());
        };
        if target > self.events_applied {
            return err(format!(
                "generation {target} is in the future (events applied: {})",
                self.events_applied
            ));
        }
        if let Err(e) = wal.sync() {
            return err(format!("history unavailable: wal sync failed: {e}"));
        }
        // Base state: the newest on-disk snapshot at or below the target
        // (fewer batches to replay), else a cold engine, which needs the
        // log to reach all the way back to generation zero.
        let path = self.snapshot_path.as_deref();
        let mut rep = snapshot::load_base(path, target, &self.name);
        let base_gen = rep.events_applied();
        if let Err(message) = snapshot::reachable(base_gen, wal.compacted_through(), target) {
            return err(message);
        }
        let stats = match snapshot::replay_wal(wal, &mut rep, target) {
            Ok(stats) => stats,
            Err(e) => return err(format!("history replay failed: {e}")),
        };
        if stats.damaged && rep.events_applied() < target {
            return err(format!(
                "history incomplete: log damage stopped replay at generation {}",
                rep.events_applied()
            ));
        }
        if rep.gaps() > 0 {
            return err(format!(
                "history incomplete: log does not connect to the base state \
                 ({} generation gaps; the log may not reach back to generation {base_gen})",
                rep.gaps()
            ));
        }
        let (mut engine, _strings, achieved) = rep.into_parts();
        let clusters = engine.recluster().len();
        let file_size = self.cfg.file_size;
        let sel = engine.choose_hoard(budget, &|_| file_size);
        let files = (sel.files.iter())
            .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
            .collect();
        QueryResponse::History {
            generation: achieved,
            files,
            bytes: sel.bytes,
            clusters_taken: sel.clusters_taken,
            clusters_skipped: sel.clusters_skipped,
            clusters,
            files_known: engine.paths().len(),
        }
    }

    /// Answers an `Explain` query: the file's decision provenance.
    fn answer_explain(&mut self, path: &str, ctx: Option<SpanContext>) -> QueryResponse {
        let Some(file) = self.engine.paths().get(path) else {
            return QueryResponse::Error {
                message: format!("unknown path: {path} (never observed by the daemon)"),
            };
        };
        let generation = self.prepare_clustering(ctx);
        let engine = &self.engine;
        let rank_vec = engine.rank();
        let last = engine.correlator().activity().last_ref(file);
        QueryResponse::Explain {
            path: path.to_owned(),
            rank: rank_vec.iter().position(|&f| f == file),
            ranked: rank_vec.len(),
            always_hoard: engine.always_hoard().contains(&file),
            last_ref_secs: last.map(|r| r.time.as_secs()),
            ref_count: last.map_or(0, |r| r.count),
            clusters: (engine.clustering())
                .map(|c| c.membership_summary(file))
                .unwrap_or_default(),
            neighbors: neighbor_evidence(engine, file, 8),
            generation,
            stale: false,
        }
    }

    /// Answers a `Miss` query from the retained postmortems.
    fn answer_miss(&self, id: Option<u64>) -> QueryResponse {
        let q = &self.quality;
        let Some(want) = id else {
            return QueryResponse::Misses {
                postmortems: q.postmortems.iter().cloned().collect(),
            };
        };
        match q.postmortems.iter().find(|p| p.id == want) {
            Some(p) => QueryResponse::Misses {
                postmortems: vec![p.clone()],
            },
            None => QueryResponse::Error {
                message: format!(
                    "no postmortem with id {want} (retaining {} of {} recorded)",
                    q.postmortems.len(),
                    q.next_miss_id
                ),
            },
        }
    }

    /// Quality-plane work on the ingest path: advance trace time and feed
    /// every referenced path into the shadow-LRU comparator.
    ///
    /// Paths resolve through the *canonical* table, so references the
    /// observer filtered out (or paths it rewrote during canonicalization)
    /// are skipped — the shadow only ranks files SEER itself could have
    /// hoarded, keeping the comparison fair. The tenant's memo of raw to
    /// canonical ids spares each reference the string lookups.
    fn quality_ingest(&mut self, events: &[TraceEvent]) {
        let q = &mut self.quality;
        let paths = self.engine.paths();
        for ev in events {
            if ev.time > q.last_event_time {
                q.last_event_time = ev.time;
            }
            let _ = ev.kind.map_paths(&mut |p| {
                if let Some(f) = q.canonical.resolve(p, &self.strings, paths) {
                    q.shadow.touch(f);
                }
                p
            });
        }
    }

    /// Drains newly detected hoard misses into the miss log and captures
    /// a provenance postmortem for each: rank, clusters, and strongest
    /// neighbors *as they are right now*, reclustered first, plus the log
    /// generation so `History` can replay the hoard as of the miss.
    fn capture_postmortems(&mut self) {
        let q = &mut self.quality;
        for f in self.engine.take_misses() {
            q.miss_log.record_auto(f, q.last_event_time);
        }
        // The daemon has no reconnection cycle to consume the
        // hoard-next queue; drain it so it cannot grow without bound.
        let _ = q.miss_log.take_pending();
        let recent: Vec<seer_replication::MissRecord> = q.miss_log.take_recent().to_vec();
        if recent.is_empty() {
            return;
        }
        let generation = self.prepare_clustering(None);
        let (engine, q) = (&self.engine, &mut self.quality);
        let rank = engine.rank();
        let pos: HashMap<FileId, usize> = rank.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        for rec in recent {
            let path = engine.paths().resolve(rec.file).unwrap_or("<unknown>");
            let pm = MissPostmortem {
                id: q.next_miss_id,
                path: path.to_owned(),
                generation,
                clustering_generation: generation,
                time_secs: rec.time.as_secs(),
                severity: rec.severity.map(seer_replication::Severity::code),
                auto: rec.severity.is_none(),
                rank: pos.get(&rec.file).copied(),
                ranked: rank.len(),
                clusters: (engine.clustering())
                    .map(|c| c.membership_summary(rec.file))
                    .unwrap_or_default(),
                neighbors: neighbor_evidence(engine, rec.file, 5),
            };
            q.next_miss_id += 1;
            q.retain_postmortem(pm);
        }
    }

    /// Evaluates once the cadence is due at `now` and events were applied
    /// since the last report. A report depends only on the applied events
    /// (its `evals` index aside), so a quiet tenant's next one would only
    /// repeat its last into the series rings.
    fn maybe_eval(&mut self, now: Instant) {
        if self.events_applied > self.quality.reported() && self.quality.due(now) {
            self.quality.last_eval = Some(now);
            self.evaluate(None);
        }
    }

    /// Evaluates the hoard quality against a clustering of everything
    /// applied, reclustering first under `ctx` when it lags, and records
    /// the report: stage timer, the tenant's gauges, and the series rings
    /// backing `seer top` sparklines. A `Quality` query and the cadence
    /// both land here.
    fn evaluate(&mut self, ctx: Option<SpanContext>) {
        let generation = self.prepare_clustering(ctx);
        let q = &self.quality;
        let job = quality::EvalJob {
            window_secs: q.window_secs,
            budget: quality::EVAL_BUDGET,
            file_size: self.cfg.file_size,
            generation,
            misses_by_severity: q.miss_log.severity_histogram(),
            auto_misses: q.miss_log.auto_count() as u64,
            eval_index: q.evals + 1,
        };
        let shadow = q.shadow.order();
        let started = Instant::now();
        let report = quality::evaluate(&self.engine, &shadow, &job);
        self.metrics.stage_evaluate.observe(started.elapsed());
        self.metrics.quality_evals.inc();
        let tm = &self.tm;
        tm.quality_seer_missfree_bytes
            .set(clamp(report.seer_missfree_bytes));
        tm.quality_lru_missfree_bytes
            .set(clamp(report.lru_missfree_bytes));
        tm.quality_working_set_bytes
            .set(clamp(report.working_set_bytes));
        tm.quality_needed_files
            .set(clamp(report.needed_files as u64));
        self.quality.install(report);
    }

    /// Cumulative hoard misses (real + auto-detected) from the miss log.
    fn misses(&self) -> u64 {
        let log = &self.quality.miss_log;
        log.severity_histogram().iter().sum::<u64>() + log.auto_count() as u64
    }

    /// Folds the live signals into the health score at `now` and drives
    /// the `slo-burn` and `wal-fault` alerts. Called on the apply path
    /// (both success and drop) and from housekeeping; the scorer samples
    /// at most once per gap, so most calls return at once.
    fn observe_health(&mut self, depth: usize, now: Instant) {
        let misses = self.misses();
        let (cfg, q) = (&self.cfg, &self.quality);
        // A quiet tenant's last report stays current however old it is:
        // only an evaluator behind the applied events can be stale.
        let eval_stale = q.reported() < self.events_applied
            && (q.last_eval).is_some_and(|t| now.saturating_duration_since(t) > cfg.eval_every * 4);
        let queue_frac = if cfg.channel_capacity > 0 {
            depth as f64 / cfg.channel_capacity as f64
        } else {
            0.0
        };
        let sig = HealthSignals {
            total_ops: self.events_applied + self.dropped_events,
            bad_ops: misses + self.dropped_events,
            wal_fault: self.wal_fault.is_some(),
            queue_frac,
            eval_stale,
        };
        let Some(verdict) = self.health.observe(cfg, &sig, now) else {
            return;
        };
        // Mirror the miss log into the per-tenant counter at sampling
        // cadence (the log is the source of truth; the counter is its
        // scrapeable twin).
        self.tm.misses.set_total(misses);
        self.tm.health_score.set(verdict.score.round() as i64);
        let (name, metrics) = (self.name.as_ref(), &self.metrics);
        // Multi-window burn rule with hysteresis: fire only when both
        // the fast and slow windows burn above threshold, resolve once
        // the fast window cools; in between, leave the alert as is.
        if verdict.burn_fast > BURN_THRESHOLD && verdict.burn_slow > BURN_THRESHOLD {
            metrics.alert(name, "slo-burn", true, || {
                format!(
                    "error budget burning at {:.1}x (fast) / {:.1}x (slow) the SLO rate \
                     (threshold {BURN_THRESHOLD:.1}x)",
                    verdict.burn_fast, verdict.burn_slow
                )
            });
        } else if verdict.burn_fast < BURN_THRESHOLD {
            metrics.alert(name, "slo-burn", false, String::new);
        }
        let fault = &self.wal_fault;
        metrics.alert(name, "wal-fault", fault.is_some(), || {
            fault.clone().unwrap_or_default()
        });
    }

    /// Refreshes the generation-lag gauge: events applied since the
    /// installed clustering's generation.
    fn observe_generation_lag(&self) {
        let lag = self
            .events_applied
            .saturating_sub(self.clustering_generation);
        self.tm.generation_lag.set(clamp(lag));
    }

    /// Refreshes the log's size gauges from its accounting.
    fn update_wal_gauges(&self) {
        if let Some(wal) = &self.wal {
            let status = wal.status();
            self.tm.wal_segments.set(clamp(status.segments as u64));
            self.tm.wal_disk_bytes.set(clamp(status.disk_bytes));
        }
    }

    /// The tenant's row in a fleet answer.
    pub(crate) fn fleet_stat(&self) -> TenantFleetStat {
        let misses = self.misses();
        let miss_rate = if self.events_applied > 0 {
            misses as f64 / self.events_applied as f64
        } else {
            0.0
        };
        TenantFleetStat {
            tenant: self.name.to_string(),
            events_applied: self.events_applied,
            files_known: self.engine.paths().len(),
            misses,
            miss_rate,
            wal_fault: self.wal_fault.clone(),
            health_score: self.health.score(),
            alerts_firing: self.metrics.alerts.firing_count_for(&self.name) as u64,
            score_spark: self.health.spark(),
        }
    }
}

/// Ranks fleet rows worst first — by miss rate, then by tenant name —
/// and keeps the first `top_k`. A shard ranks its own tenants and the
/// hub re-ranks the merged rows; cutting per shard is sound because a
/// tenant lives on exactly one shard, so the global top-k is a subset
/// of the shard top-ks.
pub(crate) fn rank_fleet(rows: &mut Vec<TenantFleetStat>, top_k: Option<usize>) {
    rows.sort_by(|a, b| {
        b.miss_rate
            .total_cmp(&a.miss_rate)
            .then_with(|| a.tenant.cmp(&b.tenant))
    });
    if let Some(k) = top_k {
        rows.truncate(k);
    }
}

/// Opens the tenant's log, if the daemon keeps one, and replays it into
/// `rep`, truncating it after `restore_to` first when one is given.
fn open_log(
    tenant: &str,
    cfg: &DaemonConfig,
    rep: &mut Replayer,
    restore_to: Option<u64>,
) -> Result<Option<Wal>, DaemonError> {
    let Some(base) = &cfg.wal_dir else {
        return Ok(None);
    };
    let (mut wal, report) = Wal::open(WalConfig {
        dir: tenant_wal_dir(base, tenant),
        fsync: cfg.wal_fsync,
        segment_max_bytes: cfg.wal_segment_bytes,
    })?;
    tlog!(
        Level::Info,
        "seer_daemon::tenant",
        "wal recovered",
        tenant = tenant,
        segments = report.segments as u64,
        records = report.records,
        last_generation = report.last_generation,
        truncated_bytes = report.truncated_bytes,
        dropped_segments = report.dropped_segments as u64,
    );
    if let Some(target) = restore_to {
        snapshot::reachable(rep.events_applied(), wal.compacted_through(), target)
            .map_err(DaemonError::Restore)?;
        let achieved = wal.truncate_after(target)?;
        tlog!(
            Level::Info,
            "seer_daemon::tenant",
            "wal truncated for restore",
            target = target,
            achieved = achieved,
        );
    }
    snapshot::replay_wal(&wal, rep, u64::MAX)?;
    if rep.gaps() > 0 {
        let message = format!(
            "wal does not connect to the recovered snapshot ({} generation gaps)",
            rep.gaps()
        );
        if restore_to.is_some() {
            return Err(DaemonError::Restore(message));
        }
        tlog!(
            Level::Warn,
            "seer_daemon::tenant",
            "wal replay incomplete",
            tenant = tenant,
            detail = message.as_str(),
        );
    }
    Ok(Some(wal))
}

/// The strongest semantic-distance neighbors of `file`, resolved to
/// canonical paths with their evidence counts — the shared provenance
/// payload of `Explain` answers and miss postmortems.
fn neighbor_evidence(engine: &SeerEngine, file: FileId, k: usize) -> Vec<ExplainNeighbor> {
    let table = engine.correlator().distance().table();
    (table.strongest_neighbors(file, k).into_iter())
        .filter_map(|(to, distance, evidence)| {
            engine.paths().resolve(to).map(|p| ExplainNeighbor {
                path: p.to_owned(),
                distance,
                evidence,
            })
        })
        .collect()
}

/// A count as a gauge value, saturating.
fn clamp(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_telemetry::Tracer;
    use seer_trace::wire::QualityReport;
    use std::time::Duration;

    /// Tenant names pass one rule before they name anything: names
    /// that could escape into path tricks, alias a file of the default
    /// tenant, or pose as the watchdog are refused. Accepted names map
    /// to distinct files, none of them one the default tenant writes,
    /// and the default tenant keeps the exact legacy paths.
    #[test]
    fn tenant_paths_are_sanitized_and_default_preserves_legacy() {
        let long = "x".repeat(65);
        for bad in [
            "",
            "a b",
            "a.b",
            "..",
            "../../etc/passwd",
            "é",
            "tmp",
            "prev",
            "_self",
            &long,
        ] {
            assert!(check_tenant_name(bad).is_err(), "{bad:?} accepted");
        }
        let (base, wal) = (Path::new("/tmp/db.json"), Path::new("/tmp/wal"));
        assert_eq!(tenant_snapshot_path(base, DEFAULT_TENANT), base);
        assert_eq!(tenant_wal_dir(wal, DEFAULT_TENANT), wal);
        let files = |snap: PathBuf, wal: PathBuf| {
            let sibling = |suffix: &str| PathBuf::from(format!("{}{suffix}", snap.display()));
            [sibling(".tmp"), sibling(".prev"), snap, wal]
        };
        let mut seen: std::collections::HashSet<PathBuf> =
            files(base.to_path_buf(), wal.to_path_buf()).into();
        let longest = "x".repeat(64);
        for name in [
            "a", "a_b", "a-b", "A", "0", "tmp-", "prev_", "self", &longest,
        ] {
            assert_eq!(check_tenant_name(name), Ok(()), "{name}");
            let paths = files(tenant_snapshot_path(base, name), tenant_wal_dir(wal, name));
            for path in paths {
                assert!(
                    seen.insert(path.clone()),
                    "{name} reuses {}",
                    path.display()
                );
            }
        }
    }

    /// A connection that hangs up leaves nothing behind: its id table
    /// and its flush count go together.
    #[test]
    fn a_closed_connection_is_forgotten_whole() {
        use seer_trace::{EventKind, Pid, Seq, Timestamp};
        let cfg = Arc::new(DaemonConfig::new("unused.sock"));
        let metrics = crate::stats::new_shared(Tracer::disabled());
        let (mut ts, recovered) = TenantState::recover(default_tenant(), &cfg, &metrics, None);
        recovered.expect("a cold start without files recovers");
        let batch: Vec<TraceEvent> = [
            EventKind::Exec { path: RawPathId(0) },
            EventKind::Stat { path: RawPathId(1) },
            EventKind::Exit,
        ]
        .into_iter()
        .zip(0..)
        .map(|(kind, seq)| TraceEvent {
            seq: Seq(seq),
            time: Timestamp(seq),
            pid: Pid(1),
            root: false,
            kind,
            error: None,
        })
        .collect();
        let paths = ["/bin/cc".to_owned(), "/home/u/a.c".to_owned()];
        ts.apply_batch(1, &paths, batch, None, 0, Instant::now());
        assert_eq!(ts.flushed(1), 3);
        ts.conn_closed(1);
        assert_eq!(ts.flushed(1), 0);
        assert!(ts.conns.is_empty());
        assert_eq!(ts.events_applied(), 3, "the tenant keeps what it applied");
    }

    /// Machine A's trace over `days`, and its paths in id order, as a
    /// first batch declares them.
    fn machine_a(days: u32, seed: u64) -> (seer_trace::Trace, Vec<String>) {
        let profile = seer_workload::MachineProfile::by_name("A")
            .expect("machine A is built in")
            .scaled_to_days(days);
        let trace = seer_workload::generate(&profile, seed).trace;
        let interns = (0..trace.strings.len())
            .map(|i| {
                let id = RawPathId(u32::try_from(i).expect("few paths"));
                trace.strings.resolve(id).expect("dense ids").to_owned()
            })
            .collect();
        (trace, interns)
    }

    /// A quiet tenant keeps its report: one depends only on the applied
    /// events, so after a batch and its evaluation, idle housekeeping
    /// long past the cadence neither evaluates again nor counts the
    /// evaluator stale against health. Once events arrive the cadence
    /// evaluates again when due, reclustering first, and its report
    /// equals a `Quality` answer at the same generation, `evals` aside.
    #[test]
    fn quiet_tenant_keeps_its_report_and_its_health() {
        let cfg = Arc::new(DaemonConfig::new("unused.sock"));
        assert_eq!(cfg.eval_every, Duration::from_secs(2));
        let metrics = crate::stats::new_shared(Tracer::disabled());
        let (mut ts, recovered) = TenantState::recover(default_tenant(), &cfg, &metrics, None);
        recovered.expect("a cold start recovers");
        let (trace, interns) = machine_a(3, 5);
        let batches: Vec<&[TraceEvent]> = trace.events.chunks(trace.len().div_ceil(3)).collect();
        let t0 = Instant::now();
        let at = |secs: u64| t0 + Duration::from_secs(secs);
        let evals = || metrics.quality_evals.get();

        ts.apply_batch(1, &interns, batches[0].to_vec(), None, 0, at(0));
        assert_eq!(evals(), 1, "the first batch evaluates");
        for secs in [3, 6, 60] {
            ts.housekeep(0, at(secs));
            assert_eq!(evals(), 1, "nothing new to evaluate at +{secs} s");
            assert_eq!(ts.health.score(), 100.0, "healthy at +{secs} s");
        }

        // The cadence has long been due: the next batch evaluates at once,
        // the one after waits a full cadence, which idle time then fills.
        ts.apply_batch(1, &[], batches[1].to_vec(), None, 0, at(61));
        assert_eq!(evals(), 2);
        ts.apply_batch(1, &[], batches[2].to_vec(), None, 0, at(62));
        assert_eq!(evals(), 2, "not due a second after the last");
        ts.housekeep(0, at(63));
        assert_eq!(evals(), 3, "due, and events arrived since");
        let cadence = ts.quality.latest.clone().expect("evaluated");
        assert_eq!(cadence.generation, trace.len() as u64);
        assert_eq!(cadence.clustering_generation, cadence.generation);
        match ts.answer(QueryRequest::Quality, None, 0) {
            QueryResponse::Quality { report, .. } => {
                assert_eq!(report.evals, cadence.evals + 1);
                let evals = cadence.evals;
                assert_eq!(QualityReport { evals, ..report }, cadence);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    /// One tenant, driven on this thread with chosen times and no
    /// sockets, threads, or sleeps, through every transition that
    /// touches its log: batches applied and acknowledged, an evaluation
    /// cadence that follows `now`, a snapshot job written inline whose
    /// completion compacts the log through the job's generation (not the
    /// live count), a real failed append that drops its batch and faults
    /// the tenant, and recovery from the directory. The recovered tenant
    /// holds exactly the acknowledged prefix, and its fresh hoard equals
    /// an offline replay round-tripped through a snapshot at the
    /// snapshot's generation.
    #[test]
    fn tenant_transitions_follow_chosen_times_and_recover_the_acked_prefix() {
        let dir = std::env::temp_dir().join(format!("seer-tenant-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = DaemonConfig::new("unused.sock");
        cfg.snapshot_path = Some(dir.join("db"));
        cfg.wal_dir = Some(dir.join("wal"));
        // Every append after the first rotates: one batch per segment.
        cfg.wal_segment_bytes = 1;
        // Only the idle offer below snapshots.
        cfg.snapshot_every = u64::MAX;
        cfg.eval_every = Duration::from_secs(1);
        let cfg = Arc::new(cfg);
        let metrics = crate::stats::new_shared(Tracer::disabled());

        let (trace, interns) = machine_a(6, 43);
        let batches: Vec<&[TraceEvent]> = trace.events.chunks(trace.len().div_ceil(5)).collect();

        let (mut ts, recovered) = TenantState::recover(default_tenant(), &cfg, &metrics, None);
        recovered.expect("a cold start recovers");
        let t0 = Instant::now();
        let mut acked = 0;
        let apply = |ts: &mut TenantState, i: usize, at: Duration| {
            let declared = if i == 0 { &interns[..] } else { &[] };
            ts.apply_batch(1, declared, batches[i].to_vec(), None, 0, t0 + at);
            ts.flushed(1)
        };

        // The first batch evaluates (none has run); the cadence then
        // holds off until `now` is a full `eval_every` past it.
        for (i, at, evals_after) in [(0, 0, 1), (1, 600, 1), (2, 1000, 2)] {
            acked += batches[i].len() as u64;
            assert_eq!(apply(&mut ts, i, Duration::from_millis(at)), acked);
            assert_eq!(metrics.quality_evals.get(), evals_after, "after batch {i}");
        }

        // A snapshot frozen at the live count, written while a fourth
        // batch lands, compacts the log through its own generation.
        let job = ts.snapshot_job(true).expect("an idle snapshot is due");
        let generation = job.generation;
        assert_eq!(generation, acked);
        assert!(ts.snapshot_job(true).is_none(), "one job in flight");
        acked += batches[3].len() as u64;
        assert_eq!(apply(&mut ts, 3, Duration::from_millis(1200)), acked);
        ts.finish_snapshot(job.run());
        assert!(!ts.snapshot_in_flight());
        assert_eq!(metrics.snapshots.get(), 1);
        let wal = ts.wal.as_ref().expect("the log is open");
        assert_eq!(wal.compacted_through(), generation);
        assert_eq!(wal.status().segments, 1, "only the fourth batch's segment");

        // A directory at the next segment's name fails the next append
        // for real: the batch is dropped, the acknowledged count holds,
        // and Health reports the fault.
        let blocker = dir.join("wal").join("wal-00000004.seg");
        std::fs::create_dir_all(&blocker).expect("mkdir");
        assert_eq!(apply(&mut ts, 4, Duration::from_millis(1300)), acked);
        assert_eq!(ts.events_applied(), acked);
        match ts.answer(QueryRequest::Health, None, 0) {
            QueryResponse::Health {
                healthy, wal_fault, ..
            } => {
                assert!(!healthy);
                let fault = wal_fault.expect("the fault is reported");
                assert!(fault.contains("append"), "{fault}");
            }
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(metrics.wal_append_errors.get(), 1);
        drop(ts);

        // Recovery, once the blocker is gone: the snapshot at the
        // generation plus the log's tail.
        std::fs::remove_dir(&blocker).expect("rmdir");
        let (mut back, recovered) = TenantState::recover(default_tenant(), &cfg, &metrics, None);
        recovered.expect("the directory recovers");
        assert_eq!(back.events_applied(), acked, "exactly the acked prefix");
        let budget = 200 * 1024;
        let fresh = QueryRequest::Hoard {
            budget,
            fresh: true,
        };
        let hoard = match back.answer(fresh, None, 0) {
            QueryResponse::Hoard { files, .. } => files,
            other => panic!("unexpected response: {other:?}"),
        };
        let mut engine = SeerEngine::default();
        let prefix = usize::try_from(acked).expect("small trace");
        let cut = usize::try_from(generation).expect("small trace");
        engine.on_batch(&trace.events[..cut], &trace.strings);
        let mut engine = SeerEngine::from_snapshot(engine.snapshot());
        engine.on_batch(&trace.events[cut..prefix], &trace.strings);
        engine.recluster();
        let sel = engine.choose_hoard(budget, &|_| cfg.file_size);
        let offline: Vec<String> = (sel.files.iter())
            .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
            .collect();
        assert!(!offline.is_empty());
        assert_eq!(hoard, offline, "online equals the offline oracle");
        std::fs::remove_dir_all(&dir).ok();
    }
}
