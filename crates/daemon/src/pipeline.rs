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
//! with no ingest message is the actor's idle time, when every tenant
//! runs its housekeeping and offers an idle snapshot; queries neither
//! wait for it nor defer it.
//!
//! The actor only routes. Each tenant's state and every transition on
//! it live in `crate::tenant`; the actor hands each message to its
//! tenant (recovering the tenant from disk on first contact) together
//! with the clock reading the tenant decides by. What stays here is
//! what no one tenant owns: the inbox loop and its idle timer, the
//! answers about the whole shard (`Stats`, `Metrics`, `Dump`, `Fleet`
//! rows, `Alerts`), and the shutdown epilogue. The actor is the only
//! thread that computes on its tenants, and the inbox is its only
//! blocking receive. Snapshot files are written by the shard's one
//! background worker (`crate::worker`): a tenant freezes itself into a
//! job, the actor hands the job over, and the worker's finished writes
//! are routed back to their tenants without blocking at the top of
//! every loop iteration.

use crate::health::ShardBeat;
use crate::stats::SharedMetrics;
use crate::tenant::{self, Tenant, TenantState};
use crate::worker::{Done, Worker};
use crate::DaemonConfig;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use seer_telemetry::{tlog, Level, SpanContext};
use seer_trace::wire::{QueryRequest, QueryResponse, TenantFleetStat};
use seer_trace::TraceEvent;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

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

/// State owned by one shard's engine actor thread: every tenant routed
/// to this shard, plus the shard's snapshot-writing worker.
struct Actor {
    tenants: HashMap<Tenant, TenantState>,
    worker: Worker,
    /// The daemon's configuration, shared by every shard.
    cfg: Arc<DaemonConfig>,
    metrics: SharedMetrics,
}

impl Actor {
    /// The tenant's state, recovered from disk on first contact, beside
    /// the worker its snapshots go to.
    fn tenant(&mut self, name: &Tenant) -> (&mut TenantState, &Worker) {
        let ts = (self.tenants.entry(name.clone()))
            .or_insert_with(|| TenantState::open(name.clone(), &self.cfg, &self.metrics));
        (ts, &self.worker)
    }

    /// Routes one inbox message; `depth` is the inbox depth behind it and
    /// `now` the time it was received.
    fn handle(&mut self, msg: Msg, depth: usize, now: Instant) {
        match msg {
            Msg::Batch {
                conn,
                tenant,
                interns,
                events,
                ctx,
            } => {
                let (ts, worker) = self.tenant(&tenant);
                ts.apply_batch(conn, &interns, events, ctx, depth, now);
                offer_snapshot(ts, worker, false);
            }
            Msg::Flush { conn, tenant, ack } => {
                let applied = self.tenants.get(&tenant).map_or(0, |ts| ts.flushed(conn));
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
                    ts.conn_closed(conn);
                }
            }
        }
    }

    /// Idle time, after a full tick with no ingest message: every tenant
    /// runs its housekeeping, then offers an idle snapshot, so quiet
    /// periods converge.
    fn idle(&mut self, depth: usize, now: Instant) {
        for ts in self.tenants.values_mut() {
            ts.housekeep(depth, now);
            offer_snapshot(ts, &self.worker, true);
        }
    }

    /// Routes a finished snapshot write back to its tenant.
    fn route_done(&mut self, done: Done) {
        if let Some(ts) = self.tenants.get_mut(&done.tenant) {
            ts.finish_snapshot(done);
        }
    }

    /// Routes every snapshot write the worker has finished, without
    /// blocking.
    fn drain_worker(&mut self) {
        while let Some(done) = self.worker.try_done() {
            self.route_done(done);
        }
    }

    /// Waits until no snapshot is in flight on the worker, routing
    /// whatever it finishes meanwhile, so no older snapshot can rename
    /// over one written after it.
    fn await_snapshots(&mut self) {
        while self.tenants.values().any(TenantState::snapshot_in_flight) {
            let Some(done) = self.worker.recv_done() else {
                return;
            };
            self.route_done(done);
        }
    }

    /// Publishes this shard's dirty mark for the watchdog: any tenant
    /// with unsnapshotted state (only meaningful when periodic snapshots
    /// are configured). Edge-latched inside [`ShardBeat`], so re-marking
    /// while dirty keeps the original start time.
    fn refresh_beats(&self, beat: &ShardBeat, now: Instant) {
        let dirty = self.tenants.values().any(TenantState::unsnapshotted);
        beat.set_snapshot_dirty(self.cfg.snapshot_every > 0 && dirty, now);
    }

    /// Answers a query: the shard-wide ones here, a tenant-scoped one by
    /// its tenant. The `engine_answer` span covers everything the actor
    /// does for the query; a recluster the query forces chains under it.
    fn answer(
        &mut self,
        tenant: &Tenant,
        query: QueryRequest,
        ctx: Option<SpanContext>,
        depth: usize,
    ) -> QueryResponse {
        let mut span = ctx.map(|c| self.metrics.tracer.child("engine_answer", c));
        let span_ctx = span.as_ref().map(seer_telemetry::Span::context);
        if let Some(s) = &mut span {
            s.attr("query", query.name());
            s.attr("tenant", tenant.as_ref());
        }
        match query {
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
            QueryRequest::Dump => QueryResponse::Dump {
                spans: self.metrics.tracer.snapshot(),
                dropped: self.metrics.tracer.dropped(),
            },
            QueryRequest::Fleet { top_k } => self.answer_fleet(top_k),
            // The ring is daemon-global (shared by every shard), so any
            // one shard answers for the whole fleet, including the
            // watchdog's `_self` pseudo-tenant.
            QueryRequest::Alerts { tenant: filter } => QueryResponse::Alerts {
                alerts: self.metrics.alerts.snapshot(filter.as_deref()),
                now_secs: self.metrics.alerts.uptime_secs(),
            },
            // A tenant-scoped query creates the tenant on first contact,
            // so a freshly restarted daemon answers for any tenant with
            // on-disk state before that tenant sends events.
            query => self.tenant(tenant).0.answer(query, span_ctx, depth),
        }
    }

    /// Answers a `Fleet` query with this shard's local tenants; the
    /// connection layer merges the per-shard answers into the fleet view.
    fn answer_fleet(&self, top_k: Option<usize>) -> QueryResponse {
        let mut per_tenant: Vec<TenantFleetStat> =
            self.tenants.values().map(TenantState::fleet_stat).collect();
        tenant::rank_fleet(&mut per_tenant, top_k);
        QueryResponse::Fleet {
            tenants: self.tenants.len(),
            total_events: self.tenants.values().map(TenantState::events_applied).sum(),
            per_tenant,
        }
    }
}

/// Hands the worker the tenant's due snapshot (see
/// [`TenantState::snapshot_job`]). A no-op while the worker's queue is
/// full: the snapshot then waits for the tenant's next batch or idle
/// tick. Only a dead worker refuses a job it had room for, and nothing
/// is written after that anyway.
fn offer_snapshot(ts: &mut TenantState, worker: &Worker, idle: bool) {
    if worker.has_room() {
        if let Some(job) = ts.snapshot_job(idle) {
            let _ = worker.submit(job);
        }
    }
}

/// Runs one shard's engine actor until every inbox sender is gone
/// (graceful shutdown: the inbox is drained; every tenant that applied
/// events snapshots, then the actor exits) or `kill` is raised (abrupt:
/// exit *without* snapshotting, leaving the last on-disk snapshots as
/// the recovery points). Either way the shard's `worker` is joined once
/// its running write ends. `home` is the default tenant, recovered at
/// startup — present on exactly the shard it routes to.
pub(crate) fn run_engine_actor(
    home: Option<TenantState>,
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
        cfg,
        metrics,
    };
    if let Some(ts) = home {
        actor.tenants.insert(tenant::default_tenant(), ts);
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
        beat.stamp_heartbeat(Instant::now());
        if kill.load(Ordering::Relaxed) {
            // Abrupt death: no snapshot — but the flight recorder is
            // exactly for reconstructing what led up to a crash, so dump
            // it before abandoning everything.
            dump_flight(&actor);
            actor.worker.shutdown();
            return;
        }
        actor.drain_worker();
        let received = inbox.recv_timeout(idle_at.saturating_duration_since(Instant::now()));
        let now = Instant::now();
        match received {
            Ok(msg) => {
                let ingest = !matches!(msg, Msg::Query { .. });
                actor.handle(msg, inbox.len(), now);
                if ingest {
                    idle_at = Instant::now() + tick;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                actor.idle(inbox.len(), now);
                idle_at = Instant::now() + tick;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        actor.refresh_beats(&beat, now);
    }
    // Graceful epilogue: every producer is gone and the inbox is drained.
    // Snapshots still on the worker land first: the final ones compact
    // the log through the live count, and an older write landing after
    // that would replace a snapshot the log no longer backs.
    actor.drain_worker();
    actor.await_snapshots();
    for ts in actor.tenants.values_mut() {
        ts.close();
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
    use seer_trace::RawPathId;
    use std::time::Duration;

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

    /// The cadence evaluation after a tenant's first batch reclusters in
    /// place first, and that recluster starts its own root trace: it
    /// never aliases the trace of the batch that made it due.
    #[test]
    fn cadence_recluster_records_under_fresh_trace() {
        let mut cfg = DaemonConfig::new("unused.sock");
        cfg.snapshot_every = 0;
        let metrics = crate::stats::new_shared(Tracer::new(4096, Duration::from_secs(1)));
        let mut actor = Actor {
            tenants: HashMap::new(),
            worker: Worker::spawn().expect("spawn worker"),
            cfg: Arc::new(cfg),
            metrics,
        };
        let batch = actor.metrics.tracer.root("decode").context();
        let (interns, events) = half_trace();
        let msg = Msg::Batch {
            conn: 1,
            tenant: tenant::default_tenant(),
            interns,
            events,
            ctx: Some(batch),
        };
        actor.handle(msg, 0, Instant::now());

        // Nothing but the batch ran, so the recluster is its evaluation's.
        let spans = actor.metrics.tracer.snapshot();
        let recluster = spans
            .iter()
            .find(|s| s.name == "recluster")
            .expect("the first evaluation recorded its recluster");
        assert_eq!(recluster.parent_id, None, "root of its own trace");
        assert_ne!(recluster.trace_id, 0);
        assert_ne!(recluster.trace_id, batch.trace_id.0);
        actor.worker.shutdown();
    }
}
