//! One shard of the daemon's ingestion pipeline: a bounded inbox and the
//! engine actor that drains it.
//!
//! ```text
//! conn readers ──► inbox (bounded: Batch | Flush | Query | ConnClosed) ──► engine actor
//! ```
//!
//! The hub (`crate::hub`) routes every connection to one shard by tenant
//! id. A connection reader posts each decoded binary events frame as one
//! [`Msg::Batch`], together with the paths it declared since its previous
//! batch; flushes, queries, and hang-ups travel the same inbox. The actor
//! drains it in order, so a query lands behind its own connection's
//! events without a separate flush round trip.
//!
//! The inbox is bounded: when the engine falls behind it fills and the
//! readers block in `send` — backpressure propagates all the way to the
//! client sockets instead of growing an unbounded queue. A full `tick`
//! with no ingest message is the actor's idle time, when it reclusters
//! stale tenants, syncs the WAL, and snapshots; queries neither wait for
//! it nor defer it.
//!
//! The actor is the only thread that computes on a tenant's engine:
//! every recluster (fresh query, `recluster_every` threshold, idle tick,
//! shutdown) runs in place between messages (see
//! [`Actor::recluster_fresh`]), and so does every quality evaluation.
//! The inbox is its only blocking receive. Snapshot files are written
//! by the shard's one background worker (`crate::worker`): the actor
//! only freezes the tenant into the file's bytes, and drains finished
//! writes without blocking at the top of every loop iteration.
//!
//! A shard's engine actor owns one [`TenantState`] per tenant routed to
//! it: a full SEER instance with its own string table, WAL, snapshot
//! path, and quality plane. Tenants other than the default are created
//! lazily on first contact, restoring from their own snapshot + WAL.

use crate::health::{
    HealthConfig, HealthSignals, ShardBeat, TenantHealth, BURN_THRESHOLD, SELF_TENANT,
};
use crate::quality::{self, QualityState};
use crate::snapshot::{self, DaemonSnapshot};
use crate::stats::{SharedMetrics, TenantMetrics};
use crate::worker::{Done, Job, Worker};
use crate::DaemonConfig;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use seer_core::{PairCountCache, SeerEngine};
use seer_telemetry::{tlog, Level, SpanContext};
use seer_trace::wire::{
    ExplainNeighbor, MissPostmortem, QueryRequest, QueryResponse, TenantFleetStat,
};
use seer_trace::{EventSink, FileId, RawPathId, StringTable, TraceEvent};
use seer_wal::{Wal, WalConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Messages into a shard's inbox, drained in order by its engine actor.
pub(crate) enum Msg {
    /// One decoded events frame, ids in the connection's local space,
    /// preceded by the paths the connection declared since its previous
    /// batch (the next local ids, in order). The reader has checked that
    /// every id is declared. `ctx` is the decode span of a traced frame;
    /// `engine_apply` parents under it, extending the causal chain.
    Batch {
        conn: u64,
        tenant: Tenant,
        interns: Vec<String>,
        events: Vec<TraceEvent>,
        ctx: Option<SpanContext>,
    },
    /// Everything this connection sent before it is applied by the time
    /// the actor reaches it; `ack` fires with the connection's applied
    /// count.
    Flush {
        conn: u64,
        tenant: Tenant,
        ack: Sender<u64>,
    },
    /// A query, answered in order behind the connection's own events.
    Query {
        query: QueryRequest,
        tenant: Tenant,
        /// The connection's `query` root span; the actor's `engine_answer`
        /// span (and any recluster it triggers) parents under it.
        ctx: Option<SpanContext>,
        reply: Sender<QueryResponse>,
    },
    /// The connection hung up; its remap table can be dropped.
    ConnClosed { conn: u64, tenant: Tenant },
}

/// Consecutive incremental reclusterings after which a tenant's
/// pair-count cache is dropped to force a full shared-neighbor recount
/// (defense in depth against cache drift; incremental maintenance is
/// exact either way and falls back to a full recount on structural
/// change by itself).
const RECLUSTER_FULL_EVERY: u64 = 16;

/// One tenant's complete engine state: a full SEER instance plus its
/// string table, per-connection remaps, WAL, and quality plane. Each
/// tenant is isolated — a WAL fault or hostile client on one can never
/// reach into another's state.
pub(crate) struct TenantState {
    name: Tenant,
    engine: SeerEngine,
    strings: StringTable,
    /// Per-connection translation from wire-local ids (dense from zero)
    /// to global ids.
    remap: HashMap<u64, Vec<RawPathId>>,
    /// Per-connection count of events applied (for flush acks).
    per_conn: HashMap<u64, u64>,
    events_applied: u64,
    since_recluster: u64,
    since_snapshot: u64,
    /// `events_applied` when the installed clustering was snapshotted;
    /// a query is *stale* when this lags the live counter.
    clustering_generation: u64,
    /// Pre-relation pair counts as of the previous recluster's view,
    /// which the next run updates from the engine's dirty delta instead
    /// of recounting. `None` before the first run.
    cache: Option<PairCountCache>,
    /// Incremental runs since the last full recount.
    since_full: u64,
    /// Generation of the snapshot the worker is writing, if any. A
    /// tenant has at most one in flight.
    snapshot_job: Option<u64>,
    /// The write-ahead log, when the daemon runs with one. Appended
    /// before each batch reaches the engine; compacted after each
    /// written snapshot, through that snapshot's generation.
    wal: Option<Wal>,
    /// Set on the first WAL append/sync failure. A faulted tenant stops
    /// applying (and acknowledging) batches — acknowledged state must
    /// stay replayable — and surfaces the fault in Health answers.
    wal_fault: Option<String>,
    /// The quality plane: evaluation cadence, shadow LRU, series rings,
    /// miss log, and retained postmortems.
    quality: QualityState,
    /// Per-tenant instrument handles, resolved (label sets interned)
    /// exactly once here so the apply path only touches atomics.
    tm: TenantMetrics,
    /// Health scorer state: burn gauge, current score, sparkline.
    health: TenantHealth,
    /// Events inside batches dropped unacknowledged under a WAL
    /// fault — they count as "bad ops"
    /// against the SLO burn budget alongside hoard misses.
    dropped_events: u64,
}

/// Recovered engine state a tenant starts from. The server restores the
/// default tenant's eagerly, before the socket binds (so snapshot/WAL/
/// restore errors fail startup instead of surfacing mid-flight); other
/// tenants restore theirs lazily, on first contact.
pub(crate) struct TenantSeed {
    pub engine: SeerEngine,
    pub strings: StringTable,
    pub events_applied: u64,
    pub wal: Option<Wal>,
}

impl TenantState {
    /// Puts a recovered tenant to work: registers its instruments, counts
    /// its recovered history toward the fleet totals (so a restart does
    /// not appear to reset progress), and starts its quality plane.
    fn new(
        name: Tenant,
        mut seed: TenantSeed,
        wal_fault: Option<String>,
        cfg: &DaemonConfig,
        metrics: &SharedMetrics,
    ) -> TenantState {
        let tm = metrics.tenant(&name);
        seed.engine.attach_telemetry(tm.engine.clone());
        tm.events_applied.set_total(seed.events_applied);
        if wal_fault.is_some() {
            metrics.wal_append_errors.inc();
        }
        metrics.tenants.add(1);
        TenantState {
            name,
            engine: seed.engine,
            strings: seed.strings,
            remap: HashMap::new(),
            per_conn: HashMap::new(),
            events_applied: seed.events_applied,
            since_recluster: 0,
            since_snapshot: 0,
            clustering_generation: 0,
            cache: None,
            since_full: 0,
            snapshot_job: None,
            wal: seed.wal,
            wal_fault,
            quality: QualityState::new(cfg.eval_every, cfg.eval_window_secs, metrics),
            tm,
            health: TenantHealth::new(&HealthConfig::from(cfg)),
            dropped_events: 0,
        }
    }
}

/// Builds a tenant's state from its on-disk snapshot + WAL, or cold.
/// Lazy-path errors cannot fail a running daemon: a snapshot that will
/// not load falls back (previous snapshot, then cold), and a WAL that
/// will not open or replay leaves the tenant running *without* a log
/// but with what replayed and `wal_fault` set, so the degradation is
/// visible in Health and the tenant never acknowledges batches it could
/// not make durable.
fn create_tenant_state(name: Tenant, cfg: &DaemonConfig, metrics: &SharedMetrics) -> TenantState {
    let snapshot_path = cfg
        .snapshot_path
        .as_deref()
        .map(|base| tenant_snapshot_path(base, &name));
    if let Some(path) = &snapshot_path {
        snapshot::clean_stale(path);
    }
    let mut rep = snapshot::load_base(snapshot_path.as_deref(), u64::MAX, &cfg.engine, &name);
    let mut wal = None;
    let mut wal_fault = None;
    if let Some(base) = &cfg.wal_dir {
        match Wal::open(WalConfig {
            dir: tenant_wal_dir(base, &name),
            fsync: cfg.wal_fsync,
            segment_max_bytes: cfg.wal_segment_bytes,
        }) {
            // A log we could not read back is not one we can safely keep
            // appending to.
            Ok((w, _report)) => match snapshot::replay_wal(&w, &mut rep, u64::MAX) {
                Ok(_) => wal = Some(w),
                Err(err) => wal_fault = Some(format!("wal replay failed: {err}")),
            },
            Err(err) => wal_fault = Some(format!("wal open failed: {err}")),
        }
    }
    if rep.gaps() > 0 {
        tlog!(
            Level::Warn,
            "seer_daemon::pipeline",
            "tenant wal replay incomplete",
            tenant = name.as_ref(),
            gaps = rep.gaps(),
        );
    }
    let (engine, strings, events_applied) = rep.into_parts();
    let seed = TenantSeed {
        engine,
        strings,
        events_applied,
        wal,
    };
    TenantState::new(name, seed, wal_fault, cfg, metrics)
}

/// State owned by one shard's engine actor thread: every tenant routed
/// to this shard, plus the shard's snapshot-writing worker.
struct Actor {
    tenants: HashMap<Tenant, TenantState>,
    worker: Worker,
    /// The daemon's configuration, shared by every shard.
    cfg: Arc<DaemonConfig>,
    /// The health scorer's knobs, drawn from `cfg`.
    health: HealthConfig,
    metrics: SharedMetrics,
}

impl Actor {
    /// Creates the tenant's state on first contact (lazy restore from
    /// its snapshot + WAL); a no-op for known tenants.
    fn ensure_tenant(&mut self, tenant: &Tenant) {
        if self.tenants.contains_key(tenant) {
            return;
        }
        tlog!(
            Level::Info,
            "seer_daemon::pipeline",
            "tenant created",
            tenant = tenant.as_ref(),
        );
        let ts = create_tenant_state(tenant.clone(), &self.cfg, &self.metrics);
        self.tenants.insert(tenant.clone(), ts);
    }

    /// Folds one tenant's live signals into its health score and drives
    /// its `slo-burn` and `wal-fault` alerts. Called from the apply path
    /// (both success and drop) and the idle tick; throttled inside
    /// [`TenantHealth::observe`] so at most one sample lands per gap.
    fn observe_tenant_health(&mut self, tenant: &Tenant, depth: usize) {
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return;
        };
        let misses = tenant_misses(ts);
        let eval_stale = ts
            .quality
            .last_eval
            .is_some_and(|t| t.elapsed() > self.cfg.eval_every * 4);
        let queue_frac = if self.cfg.channel_capacity > 0 {
            depth as f64 / self.cfg.channel_capacity as f64
        } else {
            0.0
        };
        let sig = HealthSignals {
            total_ops: ts.events_applied + ts.dropped_events,
            bad_ops: misses + ts.dropped_events,
            wal_fault: ts.wal_fault.is_some(),
            queue_frac,
            eval_stale,
        };
        let Some(verdict) = ts.health.observe(&self.health, &sig) else {
            return;
        };
        // Mirror the miss log into the per-tenant counter at sampling
        // cadence (the log is the source of truth; the counter is its
        // scrapeable twin).
        ts.tm.misses.set_total(misses);
        ts.tm.health_score.set(verdict.score.round() as i64);
        let name = ts.name.clone();
        let wal_fault = ts.wal_fault.clone();
        // Multi-window burn rule with hysteresis: fire only when both
        // the fast and slow windows burn above threshold, resolve once
        // the fast window cools; in between, leave the alert as is.
        if verdict.burn_fast > BURN_THRESHOLD && verdict.burn_slow > BURN_THRESHOLD {
            self.metrics.alert(&name, "slo-burn", true, || {
                format!(
                    "error budget burning at {:.1}x (fast) / {:.1}x (slow) the SLO rate \
                     (threshold {BURN_THRESHOLD:.1}x)",
                    verdict.burn_fast, verdict.burn_slow
                )
            });
        } else if verdict.burn_fast < BURN_THRESHOLD {
            self.metrics.alert(&name, "slo-burn", false, String::new);
        }
        self.metrics
            .alert(&name, "wal-fault", wal_fault.is_some(), || {
                wal_fault.clone().unwrap_or_default()
            });
    }

    /// Publishes this shard's dirty mark for the watchdog: any tenant
    /// with unsnapshotted state (only meaningful when periodic snapshots
    /// are configured). Edge-latched inside [`ShardBeat`], so re-marking
    /// while dirty keeps the original start time.
    fn refresh_beats(&self, beat: &ShardBeat) {
        beat.set_snapshot_dirty(
            self.cfg.snapshot_every > 0 && self.tenants.values().any(|t| t.since_snapshot > 0),
        );
    }

    /// Handles one inbox message; `depth` is the inbox depth behind it.
    fn handle(&mut self, msg: Msg, depth: usize) {
        match msg {
            Msg::Batch {
                conn,
                tenant,
                interns,
                events,
                ctx,
            } => self.apply_batch(conn, &tenant, &interns, events, ctx, depth),
            Msg::Flush { conn, tenant, ack } => {
                let applied = self.tenants.get(&tenant).map_or(0, |ts| {
                    ts.tm.flushes.inc();
                    ts.per_conn.get(&conn).copied().unwrap_or(0)
                });
                let _ = ack.send(applied);
            }
            Msg::Query {
                query,
                tenant,
                ctx,
                reply,
            } => {
                let _ = reply.send(self.answer(&tenant, query, ctx, depth));
            }
            Msg::ConnClosed { conn, tenant } => {
                if let Some(ts) = self.tenants.get_mut(&tenant) {
                    ts.remap.remove(&conn);
                }
            }
        }
    }

    fn apply_batch(
        &mut self,
        conn: u64,
        tenant: &Tenant,
        interns: &[String],
        mut events: Vec<TraceEvent>,
        ctx: Option<SpanContext>,
        depth: usize,
    ) {
        self.ensure_tenant(tenant);
        let ts = self.tenants.get_mut(tenant).expect("ensured above");
        // Declarations count even when a WAL fault drops the batch below:
        // this connection's later batches name these ids too.
        let table = ts.remap.entry(conn).or_default();
        for path in interns {
            table.push(ts.strings.intern(path));
        }
        // Times the whole stage, batches dropped under a WAL fault too.
        let apply_timer = ts.tm.stage_engine_apply.start_timer();
        let mut span = ctx.map(|c| self.metrics.tracer.child("engine_apply", c));
        let n = events.len() as u64;
        if ts.wal_fault.is_some() {
            // A faulted log can no longer record this batch; applying it
            // would hand out state a restart cannot reproduce. Drop it
            // unacknowledged — the client's flush count stops advancing
            // and Health carries the fault.
            ts.tm.wal_dropped_batches.inc();
            ts.dropped_events += n;
            self.observe_tenant_health(tenant, depth);
            return;
        }
        // Translate into the global id space in place. The reader refused
        // every frame naming an undeclared id, so each id has an entry.
        for ev in &mut events {
            ev.kind = ev.kind.map_paths(&mut |p| table[p.index()]);
        }
        // Durability first: the batch (and the intern deltas that make
        // its ids meaningful) hits the log before the engine, so an
        // acknowledged batch is replayable. WAL time stays inside the
        // engine_apply stage timer — the ingest latency clients
        // experience includes it. A failed append faults the tenant:
        // the batch is dropped rather than applied un-durably.
        if let Some(wal) = ts.wal.as_mut() {
            let parent = span.as_ref().map(seer_telemetry::Span::context);
            let generation = ts.events_applied + n;
            let started = Instant::now();
            let result = wal.append_batch(&ts.strings, generation, &events);
            let elapsed = started.elapsed();
            ts.tm.stage_wal_append.observe(elapsed);
            match result {
                Ok(out) => {
                    ts.tm.wal_records.add(u64::from(out.records));
                    self.metrics.wal_appended_bytes.add(out.bytes);
                    if out.rotated {
                        self.metrics.wal_rotations.inc();
                    }
                    if let Some(d) = out.fsync {
                        self.metrics.stage_wal_fsync.observe(d);
                    }
                    if let Some(c) = parent {
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
                        self.wal_update_gauges();
                        // Re-borrow after the gauge refresh released it.
                    }
                }
                Err(err) => {
                    self.metrics.wal_append_errors.inc();
                    ts.tm.wal_dropped_batches.inc();
                    tlog!(
                        Level::Warn,
                        "seer_daemon::pipeline",
                        "wal append failed; tenant faulted",
                        tenant = ts.name.as_ref(),
                        generation = generation,
                        error = err.to_string(),
                    );
                    ts.wal_fault = Some(format!("wal append failed: {err}"));
                    ts.dropped_events += n;
                    self.observe_tenant_health(tenant, depth);
                    return;
                }
            }
        }
        let ts = self.tenants.get_mut(tenant).expect("ensured above");
        ts.engine.on_batch(&events, &ts.strings);
        quality_ingest(ts, &events);
        ts.events_applied += n;
        *ts.per_conn.entry(conn).or_default() += n;
        ts.since_recluster += n;
        ts.since_snapshot += n;
        ts.tm.events_applied.add(n);
        ts.tm.batches_applied.inc();
        let (events_applied, clustering_generation) = (ts.events_applied, ts.clustering_generation);
        if let Some(s) = &mut span {
            s.attr("events", n);
            s.attr("events_applied", events_applied);
        }
        drop(span);
        drop(apply_timer);
        self.metrics
            .observe_generation_lag(events_applied, clustering_generation);
        self.observe_tenant_health(tenant, depth);
        self.capture_postmortems(tenant);
        self.maybe_eval(tenant);
        let ts = self.tenants.get(tenant).expect("ensured above");
        if self.cfg.recluster_every > 0 && ts.since_recluster >= self.cfg.recluster_every {
            self.recluster_fresh(tenant, None);
        }
        let ts = self.tenants.get(tenant).expect("ensured above");
        if self.cfg.snapshot_every > 0 && ts.since_snapshot >= self.cfg.snapshot_every {
            self.request_snapshot(tenant);
        }
    }

    /// Folds in every snapshot write the shard's worker has finished,
    /// without blocking.
    fn drain_worker(&mut self) {
        while let Some(done) = self.worker.try_done() {
            self.finish_snapshot(done);
        }
    }

    /// Reclusters the tenant at its current generation, on the actor:
    /// for a fresh query, a crossed `recluster_every` threshold, an idle
    /// tick, or the shutdown epilogue. The run is incremental off the
    /// tenant's pair-count cache, draining the engine's dirty delta,
    /// except every `RECLUSTER_FULL_EVERY`-th run, which recounts in
    /// full. It installs the clustering and records its `recluster`
    /// span (with `shard_count` children) retroactively: under `ctx`
    /// for a query, else under a fresh root trace.
    fn recluster_fresh(&mut self, tenant: &Tenant, ctx: Option<SpanContext>) {
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return;
        };
        let input = ts.engine.recluster_input();
        let started = Instant::now();
        if ts.since_full >= RECLUSTER_FULL_EVERY {
            ts.cache = None;
        }
        let run = input.compute_incremental(1, Some(&ts.engine.take_dirty()), &mut ts.cache);
        let wall = started.elapsed();
        ts.since_full = if run.incremental {
            ts.since_full + 1
        } else {
            0
        };
        ts.since_recluster = 0;
        let generation = ts.events_applied;
        let clusters = ts
            .engine
            .install_clustering(run.clustering, wall, &run.shard_count_seconds)
            .len();
        let (trace, parent) = match ctx {
            Some(c) => (c.trace_id, Some(c.span_id)),
            None => (seer_telemetry::new_trace_id(), None),
        };
        let recluster_ctx = self.metrics.tracer.record_complete(
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
        for (i, (&shard_wall, &offset)) in run
            .shard_count_seconds
            .iter()
            .zip(&run.shard_start_offsets)
            .enumerate()
        {
            if let Some(shard_start) = started.checked_add(offset) {
                self.metrics.tracer.record_complete(
                    "shard_count",
                    trace,
                    Some(recluster_ctx.span_id),
                    shard_start,
                    shard_wall,
                    &[("shard", i.to_string())],
                );
            }
        }
        ts.clustering_generation = generation;
        self.metrics.reclusters.inc();
        if run.incremental {
            self.metrics.reclusters_incremental.inc();
        }
        self.metrics.stage_recluster.observe(wall);
        self.metrics.observe_generation_lag(generation, generation);
        tlog!(
            Level::Debug,
            "seer_daemon::pipeline",
            "reclustered",
            tenant = tenant.as_ref(),
            clusters = clusters,
            generation = generation,
        );
    }

    /// Idle housekeeping after a full tick with no ingest message, for
    /// every tenant on this shard: recluster tenants whose clustering
    /// went stale, keep the evaluator cadences alive, and snapshot
    /// pending work so quiet periods converge. Health is sampled here
    /// too so burn windows decay (and alerts resolve) while a tenant is
    /// quiet.
    fn idle(&mut self, depth: usize) {
        let tenants: Vec<Tenant> = self.tenants.keys().cloned().collect();
        for tenant in &tenants {
            let ts = self.tenants.get(tenant).expect("listed above");
            if self.cfg.recluster_every > 0 && ts.since_recluster > 0 {
                self.recluster_fresh(tenant, None);
            }
            self.maybe_eval(tenant);
            self.observe_tenant_health(tenant, depth);
            let ts = self.tenants.get(tenant).expect("listed above");
            if self.cfg.snapshot_every > 0 && ts.since_snapshot > 0 {
                self.request_snapshot(tenant);
            }
        }
        self.wal_idle();
    }

    /// The tenant frozen into a snapshot file's bytes, ready to write.
    /// `None`, and nothing pending any more, when the daemon runs
    /// without a snapshot path.
    fn freeze_snapshot(&mut self, tenant: &Tenant) -> Option<Job> {
        let ts = self.tenants.get_mut(tenant)?;
        let Some(base) = &self.cfg.snapshot_path else {
            ts.since_snapshot = 0;
            return None;
        };
        let generation = ts.events_applied;
        let snap = DaemonSnapshot {
            engine: ts.engine.snapshot(),
            events_applied: generation,
        };
        ts.since_snapshot = 0;
        Some(Job {
            tenant: tenant.clone(),
            generation,
            path: tenant_snapshot_path(base, tenant),
            bytes: snap.to_bytes(),
        })
    }

    /// Hands the worker a snapshot of the tenant to write. A no-op while
    /// the tenant's previous snapshot is in flight or the worker's queue
    /// is full: the snapshot then waits for the next batch or idle tick.
    fn request_snapshot(&mut self, tenant: &Tenant) {
        let busy = self
            .tenants
            .get(tenant)
            .is_none_or(|ts| ts.snapshot_job.is_some());
        if busy || !self.worker.has_room() {
            return;
        }
        let Some(job) = self.freeze_snapshot(tenant) else {
            return;
        };
        let generation = job.generation;
        // Only a dead worker refuses a job it had room for; the tenant
        // then snapshots again after its next `snapshot_every` events.
        if self.worker.submit(job) {
            let ts = self.tenants.get_mut(tenant).expect("frozen above");
            ts.snapshot_job = Some(generation);
        }
    }

    /// Writes the tenant's snapshot on the actor, through the worker's
    /// writer (the shutdown epilogue, once no snapshot is in flight).
    fn write_snapshot_now(&mut self, tenant: &Tenant) {
        if let Some(job) = self.freeze_snapshot(tenant) {
            self.finish_snapshot(job.run());
        }
    }

    /// Folds in a written snapshot at its generation. A durable snapshot
    /// covers every batch at or below its generation, so sealed WAL
    /// segments entirely below it are dead weight; compaction runs
    /// through that generation, never the live count, and never after a
    /// *failed* write — the log must keep covering whatever the last
    /// good snapshot missed.
    fn finish_snapshot(&mut self, done: Done) {
        let Done {
            tenant,
            generation,
            result,
            wall,
        } = done;
        self.metrics.stage_snapshot_write.observe(wall);
        let Some(ts) = self.tenants.get_mut(&tenant) else {
            return;
        };
        ts.snapshot_job = None;
        if let Err(e) = result {
            tlog!(
                Level::Warn,
                "seer_daemon::pipeline",
                "snapshot write failed",
                tenant = tenant.as_ref(),
                generation = generation,
                error = e.to_string(),
            );
            return;
        }
        self.metrics.snapshots.inc();
        tlog!(
            Level::Info,
            "seer_daemon::pipeline",
            "snapshot written",
            tenant = tenant.as_ref(),
            events_applied = generation,
        );
        if let Some(wal) = &mut ts.wal {
            match wal.compact(generation) {
                Ok(report) if report.segments_dropped > 0 => {
                    self.metrics
                        .wal_segments_compacted
                        .add(report.segments_dropped as u64);
                    tlog!(
                        Level::Debug,
                        "seer_daemon::pipeline",
                        "wal compacted",
                        tenant = tenant.as_ref(),
                        segments_dropped = report.segments_dropped as u64,
                        bytes_dropped = report.bytes_dropped,
                    );
                }
                Ok(_) => {}
                Err(e) => {
                    tlog!(
                        Level::Warn,
                        "seer_daemon::pipeline",
                        "wal compaction failed",
                        tenant = tenant.as_ref(),
                        error = e.to_string(),
                    );
                }
            }
        }
        self.wal_update_gauges();
    }

    /// Waits until no snapshot is in flight on the worker, folding in
    /// whatever it finishes meanwhile, so no older snapshot can rename
    /// over one written after it.
    fn await_snapshots(&mut self) {
        while self.tenants.values().any(|t| t.snapshot_job.is_some()) {
            let Some(done) = self.worker.recv_done() else {
                return;
            };
            self.finish_snapshot(done);
        }
    }

    /// Idle-tick WAL maintenance for every tenant: under an interval
    /// fsync policy, sync if the window elapsed with appends
    /// outstanding, so a quiet daemon still bounds its loss window. A
    /// failed idle sync faults the tenant like a failed append would.
    fn wal_idle(&mut self) {
        for ts in self.tenants.values_mut() {
            if ts.wal_fault.is_some() {
                continue;
            }
            if let Some(wal) = &mut ts.wal {
                match wal.maybe_sync() {
                    Ok(Some(d)) => self.metrics.stage_wal_fsync.observe(d),
                    Ok(None) => {}
                    Err(e) => {
                        self.metrics.wal_append_errors.inc();
                        tlog!(
                            Level::Warn,
                            "seer_daemon::pipeline",
                            "wal idle sync failed; tenant faulted",
                            tenant = ts.name.as_ref(),
                            error = e.to_string(),
                        );
                        ts.wal_fault = Some(format!("wal sync failed: {e}"));
                    }
                }
            }
        }
    }

    /// Refreshes the WAL size gauges from every tenant log's accounting.
    fn wal_update_gauges(&self) {
        let (mut segments, mut disk_bytes) = (0u64, 0u64);
        let mut any = false;
        for ts in self.tenants.values() {
            if let Some(wal) = &ts.wal {
                let status = wal.status();
                segments += status.segments as u64;
                disk_bytes += status.disk_bytes;
                any = true;
            }
        }
        if any {
            self.metrics
                .wal_segments
                .set(i64::try_from(segments).unwrap_or(i64::MAX));
            self.metrics
                .wal_disk_bytes
                .set(i64::try_from(disk_bytes).unwrap_or(i64::MAX));
        }
    }

    /// Answers a `History` query: replay the tenant's WAL (from its
    /// newest snapshot at or below `target`, else from generation zero)
    /// into a fresh engine, stop after the last batch at or below
    /// `target`, recluster, and select a hoard — exactly what the live
    /// daemon would have answered at that generation.
    ///
    /// Runs on the actor thread, which is what makes reading the live
    /// log safe: no append can race the replay. The query arrived behind
    /// this connection's events, so the log already contains everything
    /// it sent.
    fn answer_history(&mut self, tenant: &Tenant, target: u64, budget: u64) -> QueryResponse {
        let err = |message: String| QueryResponse::Error { message };
        let snapshot_path = self
            .cfg
            .snapshot_path
            .as_deref()
            .map(|p| tenant_snapshot_path(p, tenant));
        let file_size = self.cfg.file_size;
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return err("history unavailable: tenant has no state".into());
        };
        let Some(wal) = &mut ts.wal else {
            return err("history unavailable: daemon is running without a WAL".into());
        };
        if target > ts.events_applied {
            return err(format!(
                "generation {target} is in the future (events applied: {})",
                ts.events_applied
            ));
        }
        if let Err(e) = wal.sync() {
            return err(format!("history unavailable: wal sync failed: {e}"));
        }
        // Base state: the newest on-disk snapshot at or below the target
        // (fewer batches to replay), else a cold engine, which needs the
        // log to reach all the way back to generation zero.
        let mut rep =
            snapshot::load_base(snapshot_path.as_deref(), target, &self.cfg.engine, tenant);
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
        let sel = engine.choose_hoard(budget, &|_| file_size);
        let files = sel
            .files
            .iter()
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

    /// Drains newly detected hoard misses into the tenant's miss log and
    /// captures a provenance postmortem for each: rank, clusters, and
    /// strongest neighbors *as they are right now*, plus the WAL
    /// generation so `History` can replay the hoard as of the miss.
    fn capture_postmortems(&mut self, tenant: &Tenant) {
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return;
        };
        let q = &mut ts.quality;
        for f in ts.engine.take_misses() {
            q.miss_log.record_auto(f, q.last_event_time);
        }
        // The daemon has no reconnection cycle to consume the
        // hoard-next queue; drain it so it cannot grow without bound.
        let _ = q.miss_log.take_pending();
        let recent: Vec<seer_replication::MissRecord> = q.miss_log.take_recent().to_vec();
        if recent.is_empty() {
            return;
        }
        let engine = &ts.engine;
        let rank = engine.rank();
        let pos: HashMap<FileId, usize> = rank.iter().enumerate().map(|(i, &f)| (f, i)).collect();
        for rec in recent {
            let path = engine
                .paths()
                .resolve(rec.file)
                .unwrap_or("<unknown>")
                .to_owned();
            let pm = MissPostmortem {
                id: q.next_miss_id,
                path,
                generation: ts.events_applied,
                clustering_generation: ts.clustering_generation,
                time_secs: rec.time.as_secs(),
                severity: rec.severity.map(seer_replication::Severity::code),
                auto: rec.severity.is_none(),
                rank: pos.get(&rec.file).copied(),
                ranked: rank.len(),
                clusters: engine
                    .clustering()
                    .map(|c| c.membership_summary(rec.file))
                    .unwrap_or_default(),
                neighbors: neighbor_evidence(engine, rec.file, 5),
            };
            q.next_miss_id += 1;
            q.retain_postmortem(pm);
        }
    }

    /// Evaluates the tenant's hoard quality on the actor, against its
    /// installed clustering, and records the report: stage timer, the
    /// tenant's gauges, and the series rings backing `seer top`
    /// sparklines. A `Quality` query and the cadence timer both land
    /// here.
    fn evaluate(&mut self, tenant: &Tenant) {
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return;
        };
        let job = build_eval_job(ts, &self.cfg);
        let started = Instant::now();
        let report = quality::evaluate(&job);
        self.metrics.stage_evaluate.observe(started.elapsed());
        self.metrics.quality_evals.inc();
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let tm = &ts.tm;
        tm.quality_seer_missfree_bytes
            .set(clamp(report.seer_missfree_bytes));
        tm.quality_lru_missfree_bytes
            .set(clamp(report.lru_missfree_bytes));
        tm.quality_working_set_bytes
            .set(clamp(report.working_set_bytes));
        tm.quality_needed_files
            .set(clamp(report.needed_files as u64));
        ts.quality.install(report);
    }

    /// Evaluates when the tenant's cadence timer says one is due.
    fn maybe_eval(&mut self, tenant: &Tenant) {
        let Some(ts) = self.tenants.get_mut(tenant) else {
            return;
        };
        if ts.quality.due() && ts.events_applied > 0 {
            ts.quality.last_eval = Some(Instant::now());
            self.evaluate(tenant);
        }
    }

    /// Answers an `Explain` query: the file's decision provenance.
    fn answer_explain(
        &mut self,
        tenant: &Tenant,
        path: &str,
        ctx: Option<SpanContext>,
    ) -> QueryResponse {
        let found = self
            .tenants
            .get(tenant)
            .and_then(|ts| ts.engine.paths().get(path));
        let Some(file) = found else {
            return QueryResponse::Error {
                message: format!("unknown path: {path} (never observed by the daemon)"),
            };
        };
        let (generation, stale) = self.prepare_clustering(tenant, false, ctx);
        let ts = self.tenants.get(tenant).expect("found above");
        let rank_vec = ts.engine.rank();
        let rank = rank_vec.iter().position(|&f| f == file);
        let last = ts.engine.correlator().activity().last_ref(file);
        QueryResponse::Explain {
            path: path.to_owned(),
            rank,
            ranked: rank_vec.len(),
            always_hoard: ts.engine.always_hoard().contains(&file),
            last_ref_secs: last.map(|r| r.time.as_secs()),
            ref_count: last.map_or(0, |r| r.count),
            clusters: ts
                .engine
                .clustering()
                .map(|c| c.membership_summary(file))
                .unwrap_or_default(),
            neighbors: neighbor_evidence(&ts.engine, file, 8),
            generation,
            stale,
        }
    }

    /// Answers a `Quality` query by reclustering to the current
    /// generation (as a fresh hoard does) before evaluating, so after a
    /// flush the answer reflects everything applied —
    /// an online quality query equals an offline evaluation of the same
    /// events (the equivalence tests pin this).
    fn answer_quality(&mut self, tenant: &Tenant, ctx: Option<SpanContext>) -> QueryResponse {
        self.prepare_clustering(tenant, true, ctx);
        self.evaluate(tenant);
        let q = &self.tenants.get(tenant).expect("ensured by answer").quality;
        QueryResponse::Quality {
            report: q.latest.clone().expect("evaluated above"),
            series: q.series.snapshot(),
        }
    }

    /// Answers a `Miss` query from the tenant's retained postmortems.
    fn answer_miss(&self, tenant: &Tenant, id: Option<u64>) -> QueryResponse {
        let q = &self.tenants.get(tenant).expect("ensured by answer").quality;
        match id {
            None => QueryResponse::Misses {
                postmortems: q.postmortems.iter().cloned().collect(),
            },
            Some(want) => match q.postmortems.iter().find(|p| p.id == want) {
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
            },
        }
    }

    /// Answers a `Fleet` query with this shard's local tenants; the
    /// connection layer merges the per-shard answers into the fleet view.
    fn answer_fleet(&self, top_k: Option<usize>) -> QueryResponse {
        let mut per_tenant: Vec<TenantFleetStat> = self
            .tenants
            .values()
            .map(|ts| tenant_fleet_stat(ts, &self.metrics))
            .collect();
        per_tenant.sort_by(|a, b| {
            b.miss_rate
                .total_cmp(&a.miss_rate)
                .then_with(|| a.tenant.cmp(&b.tenant))
        });
        // Truncating per shard is sound: a tenant lives on exactly one
        // shard, so the global top-k is a subset of the shard top-ks.
        if let Some(k) = top_k {
            per_tenant.truncate(k);
        }
        QueryResponse::Fleet {
            tenants: self.tenants.len(),
            total_events: self.tenants.values().map(|t| t.events_applied).sum(),
            per_tenant,
        }
    }

    /// Prepares the tenant's clustering for a hoard/clusters answer.
    /// `fresh` reclusters in place unless the clustering already
    /// reflects everything applied so far — this makes an online hoard
    /// query equivalent to an offline replay followed by recluster +
    /// choose_hoard. A non-fresh query reuses the cached clustering
    /// (counting it as stale when the generation lags), so it never
    /// reclusters unless there is no clustering at all.
    fn prepare_clustering(
        &mut self,
        tenant: &Tenant,
        fresh: bool,
        ctx: Option<SpanContext>,
    ) -> (u64, bool) {
        let Some(ts) = self.tenants.get(tenant) else {
            return (0, false);
        };
        if ts.engine.clustering().is_none() || fresh && ts.clustering_generation < ts.events_applied
        {
            self.recluster_fresh(tenant, ctx);
        }
        let ts = self.tenants.get(tenant).expect("checked above");
        let stale = ts.clustering_generation < ts.events_applied;
        if stale {
            self.metrics.stale_queries.inc();
        }
        self.metrics
            .observe_generation_lag(ts.events_applied, ts.clustering_generation);
        (ts.clustering_generation, stale)
    }

    fn answer(
        &mut self,
        tenant: &Tenant,
        query: QueryRequest,
        ctx: Option<SpanContext>,
        depth: usize,
    ) -> QueryResponse {
        // Tenant-scoped queries create the tenant on first contact, so a
        // freshly restarted daemon answers for any tenant with on-disk
        // state without waiting for that tenant to send events first.
        if !matches!(
            query,
            QueryRequest::Stats
                | QueryRequest::Metrics
                | QueryRequest::Dump
                | QueryRequest::Fleet { .. }
                | QueryRequest::Alerts { .. }
        ) {
            self.ensure_tenant(tenant);
        }
        // The answer span covers everything the actor does for the query;
        // a recluster forced by `fresh` chains under it.
        let mut span = ctx.map(|c| self.metrics.tracer.child("engine_answer", c));
        let span_ctx = span.as_ref().map(seer_telemetry::Span::context);
        if let Some(s) = &mut span {
            s.attr("query", query.name());
            s.attr("tenant", tenant.as_ref());
        }
        match query {
            QueryRequest::Hoard { budget, fresh } => {
                let (generation, stale) = self.prepare_clustering(tenant, fresh, span_ctx);
                let file_size = self.cfg.file_size;
                let ts = self.tenants.get_mut(tenant).expect("ensured above");
                let sel = ts.engine.choose_hoard(budget, &|_| file_size);
                let files = sel
                    .files
                    .iter()
                    .filter_map(|&f| ts.engine.paths().resolve(f).map(str::to_owned))
                    .collect();
                QueryResponse::Hoard {
                    files,
                    bytes: sel.bytes,
                    clusters_taken: sel.clusters_taken,
                    clusters_skipped: sel.clusters_skipped,
                    generation,
                    stale,
                }
            }
            QueryRequest::Clusters { fresh } => {
                let (generation, stale) = self.prepare_clustering(tenant, fresh, span_ctx);
                let ts = self.tenants.get(tenant).expect("ensured above");
                let clustering = ts.engine.clustering().expect("prepared above");
                let mut largest: Vec<usize> = clustering.clusters.iter().map(|c| c.len()).collect();
                largest.sort_unstable_by(|a, b| b.cmp(a));
                largest.truncate(8);
                QueryResponse::Clusters {
                    count: clustering.len(),
                    largest,
                    files_known: ts.engine.paths().len(),
                    generation,
                    stale,
                }
            }
            QueryRequest::Stats => {
                let s = self.metrics.snapshot_view();
                QueryResponse::Stats {
                    events_received: s.events_received,
                    events_applied: s.events_applied,
                    batches_applied: s.batches_applied,
                    max_queue_depth: s.max_queue_depth,
                    reclusters: s.reclusters,
                    snapshots: s.snapshots,
                    connections: s.connections,
                }
            }
            QueryRequest::Metrics => {
                self.metrics.observe_queue_depth(depth);
                QueryResponse::Metrics {
                    snapshot: self.metrics.snapshot(),
                }
            }
            QueryRequest::Health => {
                let ts = self.tenants.get(tenant).expect("ensured above");
                QueryResponse::Health {
                    healthy: ts.wal_fault.is_none(),
                    events_applied: ts.events_applied,
                    queue_depth: depth,
                    wal_fault: ts.wal_fault.clone(),
                }
            }
            QueryRequest::Dump => QueryResponse::Dump {
                spans: self.metrics.tracer.snapshot(),
                dropped: self.metrics.tracer.dropped(),
            },
            QueryRequest::History { generation, budget } => {
                self.answer_history(tenant, generation, budget)
            }
            QueryRequest::Explain { path } => self.answer_explain(tenant, &path, span_ctx),
            QueryRequest::Quality => self.answer_quality(tenant, span_ctx),
            QueryRequest::Miss { id } => self.answer_miss(tenant, id),
            QueryRequest::Fleet { top_k } => self.answer_fleet(top_k),
            QueryRequest::Alerts { tenant: filter } => {
                // The ring is daemon-global (shared by every shard), so
                // any one shard answers for the whole fleet, including
                // the watchdog's `_self` pseudo-tenant.
                QueryResponse::Alerts {
                    alerts: self.metrics.alerts.snapshot(filter.as_deref()),
                    now_secs: self.metrics.alerts.uptime_secs(),
                }
            }
        }
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
fn quality_ingest(ts: &mut TenantState, events: &[TraceEvent]) {
    let q = &mut ts.quality;
    let strings = &ts.strings;
    let paths = ts.engine.paths();
    for ev in events {
        if ev.time > q.last_event_time {
            q.last_event_time = ev.time;
        }
        let _ = ev.kind.map_paths(&mut |p| {
            if let Some(f) = q.canonical.resolve(p, strings, paths) {
                q.shadow.touch(f);
            }
            p
        });
    }
}

/// Freezes everything the tenant's evaluator needs into a job.
fn build_eval_job(ts: &TenantState, cfg: &DaemonConfig) -> quality::EvalJob {
    let q = &ts.quality;
    quality::EvalJob {
        input: ts.engine.eval_input(),
        shadow: q.shadow.order(),
        window_secs: q.window_secs,
        budget: quality::EVAL_BUDGET,
        file_size: cfg.file_size,
        generation: ts.events_applied,
        clustering_generation: ts.clustering_generation,
        misses_by_severity: q.miss_log.severity_histogram(),
        auto_misses: q.miss_log.auto_count() as u64,
        eval_index: q.evals + 1,
    }
}

/// Cumulative hoard misses (real + auto-detected) from the quality
/// plane's miss log.
fn tenant_misses(ts: &TenantState) -> u64 {
    let log = &ts.quality.miss_log;
    log.severity_histogram().iter().sum::<u64>() + log.auto_count() as u64
}

/// One tenant's row in a fleet answer.
fn tenant_fleet_stat(ts: &TenantState, metrics: &SharedMetrics) -> TenantFleetStat {
    let misses = tenant_misses(ts);
    let miss_rate = if ts.events_applied > 0 {
        misses as f64 / ts.events_applied as f64
    } else {
        0.0
    };
    TenantFleetStat {
        tenant: ts.name.to_string(),
        events_applied: ts.events_applied,
        files_known: ts.engine.paths().len(),
        misses,
        miss_rate,
        wal_fault: ts.wal_fault.clone(),
        health_score: ts.health.score(),
        alerts_firing: metrics.alerts.firing_count_for(&ts.name) as u64,
        score_spark: ts.health.spark(),
    }
}

/// The strongest semantic-distance neighbors of `file`, resolved to
/// canonical paths with their evidence counts — the shared provenance
/// payload of `Explain` answers and miss postmortems.
fn neighbor_evidence(engine: &SeerEngine, file: FileId, k: usize) -> Vec<ExplainNeighbor> {
    engine
        .correlator()
        .distance()
        .table()
        .strongest_neighbors(file, k)
        .into_iter()
        .filter_map(|(to, distance, evidence)| {
            engine.paths().resolve(to).map(|p| ExplainNeighbor {
                path: p.to_owned(),
                distance,
                evidence,
            })
        })
        .collect()
}

/// Runs one shard's engine actor until every inbox sender is gone
/// (graceful shutdown: the inbox is drained; recluster and snapshot
/// every tenant that applied events, exit) or `kill` is raised (abrupt:
/// exit *without* snapshotting, leaving the last on-disk snapshots as
/// the recovery points). Either way the shard's `worker` is joined once
/// its running write ends. `seed` is the eagerly restored default
/// tenant — present on exactly the shard the default tenant routes to.
pub(crate) fn run_engine_actor(
    seed: Option<TenantSeed>,
    cfg: Arc<DaemonConfig>,
    inbox: Receiver<Msg>,
    worker: Worker,
    metrics: SharedMetrics,
    kill: Arc<AtomicBool>,
    beat: Arc<ShardBeat>,
) {
    let tick = cfg.tick;
    let mut actor = Actor {
        tenants: HashMap::new(),
        worker,
        health: HealthConfig::from(&*cfg),
        cfg,
        metrics,
    };
    if let Some(seed) = seed {
        let name = default_tenant();
        let ts = TenantState::new(name.clone(), seed, None, &actor.cfg, &actor.metrics);
        actor.tenants.insert(name, ts);
        actor.wal_update_gauges();
    }
    // Idle housekeeping runs once a full tick passes with no ingest
    // message (batch, flush, or hang-up). Queries are answered at once
    // and do not defer it, so a client polling faster than the tick
    // cannot starve health sampling or idle snapshots.
    let mut idle_at = Instant::now() + tick;
    loop {
        // Liveness stamp: one relaxed store per loop iteration. A
        // heartbeat older than the watchdog's `stall_after` means the
        // actor is stuck inside a single message below.
        beat.stamp_heartbeat();
        if kill.load(Ordering::Relaxed) {
            // Abrupt death: no snapshot — but the flight recorder is
            // exactly for reconstructing what led up to a crash, so dump
            // it before abandoning everything.
            dump_flight(&actor);
            actor.worker.shutdown();
            return;
        }
        actor.drain_worker();
        match inbox.recv_timeout(idle_at.saturating_duration_since(Instant::now())) {
            Ok(msg) => {
                let ingest = !matches!(msg, Msg::Query { .. });
                actor.handle(msg, inbox.len());
                if ingest {
                    idle_at = Instant::now() + tick;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                actor.idle(inbox.len());
                idle_at = Instant::now() + tick;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        actor.refresh_beats(&beat);
    }
    // Graceful epilogue: every producer is gone and the inbox is drained.
    // A tenant that never applied an event (one that only answered
    // queries) has nothing to persist, so it leaves no snapshot file.
    // Snapshots still on the worker land first: the final ones below
    // compact the log through the live count, and an older write landing
    // after that would replace a snapshot the log no longer backs.
    actor.drain_worker();
    actor.await_snapshots();
    let tenants: Vec<Tenant> = actor.tenants.keys().cloned().collect();
    for tenant in &tenants {
        let ts = actor.tenants.get(tenant).expect("listed above");
        if ts.events_applied == 0 {
            continue;
        }
        if ts.engine.clustering().is_none() || ts.clustering_generation < ts.events_applied {
            actor.recluster_fresh(tenant, None);
        }
        actor.write_snapshot_now(tenant);
        // The log's tail may still be unsynced under an interval policy;
        // a graceful exit leaves nothing for the fsync window to lose.
        if let Some(ts) = actor.tenants.get_mut(tenant) {
            if let Some(wal) = &mut ts.wal {
                if let Err(e) = wal.sync() {
                    tlog!(
                        Level::Warn,
                        "seer_daemon::pipeline",
                        "wal final sync failed",
                        tenant = tenant.as_ref(),
                        error = e.to_string(),
                    );
                }
            }
        }
    }
    dump_flight(&actor);
    actor.worker.shutdown();
}

/// Writes the flight-recorder ring to the configured dump path, one
/// JSON line per span. Failures are logged, never fatal — the dump is a
/// diagnostic of last resort, not part of the data path.
fn dump_flight(actor: &Actor) {
    let Some(path) = &actor.cfg.flight_path else {
        return;
    };
    if !actor.metrics.tracer.enabled() {
        return;
    }
    let spans = actor.metrics.tracer.snapshot();
    let result = std::fs::File::create(path).and_then(|f| {
        let mut w = std::io::BufWriter::new(f);
        seer_telemetry::write_flight_jsonl(&mut w, &spans)?;
        std::io::Write::flush(&mut w)
    });
    match result {
        Ok(()) => tlog!(
            Level::Info,
            "seer_daemon::pipeline",
            "flight recorder dumped",
            path = path.display().to_string(),
            spans = spans.len() as u64,
            dropped = actor.metrics.tracer.dropped(),
        ),
        Err(e) => tlog!(
            Level::Warn,
            "seer_daemon::pipeline",
            "flight recorder dump failed",
            path = path.display().to_string(),
            error = e.to_string(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_telemetry::Tracer;
    use std::time::Duration;

    /// An actor holding one empty default tenant, with a real worker,
    /// reclustering every `recluster_every` events and never
    /// snapshotting.
    fn test_actor(recluster_every: u64) -> Actor {
        let name = default_tenant();
        let mut cfg = DaemonConfig::new("unused.sock");
        cfg.recluster_every = recluster_every;
        cfg.snapshot_every = 0;
        cfg.file_size = 1;
        let cfg = Arc::new(cfg);
        let tracer = Tracer::new(4096, Duration::from_secs(1));
        let metrics = crate::stats::new_shared(tracer);
        let seed = TenantSeed {
            engine: SeerEngine::default(),
            strings: StringTable::new(),
            events_applied: 0,
            wal: None,
        };
        let ts = TenantState::new(name.clone(), seed, None, &cfg, &metrics);
        Actor {
            tenants: HashMap::from([(name, ts)]),
            worker: Worker::spawn().expect("spawn worker"),
            health: HealthConfig::from(&*cfg),
            cfg,
            metrics,
        }
    }

    /// The first half of machine A's trace as one batch declaring every
    /// path.
    fn half_trace() -> (Vec<String>, Vec<TraceEvent>) {
        let profile = seer_workload::MachineProfile::by_name("A")
            .expect("machine A is built in")
            .scaled_to_days(12);
        let trace = seer_workload::generate(&profile, 7).trace;
        let interns: Vec<String> = (0..trace.strings.len())
            .map(|i| {
                let id = RawPathId(u32::try_from(i).expect("few paths"));
                trace.strings.resolve(id).expect("dense ids").to_owned()
            })
            .collect();
        let half = trace.events.len() / 2;
        (interns, trace.events[..half].to_vec())
    }

    /// A periodic recluster runs in place right after the batch that
    /// crosses `recluster_every`, and starts its own root trace: it
    /// never aliases the trace of the batch that triggered it.
    #[test]
    fn background_recluster_records_under_fresh_trace() {
        let mut actor = test_actor(1);
        let batch = actor.metrics.tracer.root("decode").context();
        let (interns, events) = half_trace();
        let msg = Msg::Batch {
            conn: 1,
            tenant: default_tenant(),
            interns,
            events,
            ctx: Some(batch),
        };
        actor.handle(msg, 0);

        let ts = &actor.tenants[&default_tenant()];
        assert_eq!(ts.clustering_generation, ts.events_applied);
        let spans = actor.metrics.tracer.snapshot();
        let recluster = spans
            .iter()
            .find(|s| s.name == "recluster")
            .expect("the crossed threshold recorded its recluster");
        assert_eq!(recluster.parent_id, None, "root of its own trace");
        assert_ne!(recluster.trace_id, 0);
        assert_ne!(recluster.trace_id, batch.trace_id.0);
        actor.worker.shutdown();
    }

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
}
