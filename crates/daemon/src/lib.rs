//! A streaming ingestion daemon for SEER (§4.2's external observer as a
//! long-running service).
//!
//! The paper's SEER runs as user-level daemons fed by an in-kernel trace
//! stream; this crate is the repo's equivalent — scaled from one machine
//! to a fleet. A connection hub accepts [`seer_trace::TraceEvent`]
//! streams over Unix-domain *and* TCP sockets (the protocol of
//! [`seer_trace::wire`]); the handshake names a tenant, and frames route
//! by tenant to a sharded pool of engine actors, each shard owning one
//! independent SEER instance + WAL + quality plane per tenant:
//!
//! ```text
//!  unix ─┐                          ┌─► shard 0 inbox ─► engine actor (tenants A, D, …)
//!        ├─► accept ─► conn readers ┼─► shard 1 inbox ─► engine actor (tenants B, E, …)
//!  tcp ──┘    (1 thread/conn,       └─► shard N inbox ─► engine actor (…)
//!              route by tenant)          (one bounded inbox per shard)
//! ```
//!
//! Design properties, mirroring the paper's constraints on an
//! always-running observer (§4.2, §5.3):
//!
//! - **Backpressure, not buffering.** Each shard's inbox is bounded; a
//!   slow engine stalls producers all the way back to the client
//!   sockets. The deepest queue depth ever observed is reported in
//!   [`DaemonStats::max_queue_depth`] and can never exceed the
//!   configured capacity.
//! - **One compute path per shard.** SEER clustered in a process
//!   separate from the trace-consuming correlator because a ~20k-file
//!   recluster took about two CPU minutes (§5.3). Here an incremental
//!   recluster takes well under a millisecond, so each shard's engine
//!   actor is the only thread that computes on its tenants' engines:
//!   every recluster and quality evaluation runs in place between
//!   messages, and the actor blocks only on its inbox. Nothing
//!   reclusters on a schedule: whatever reads a tenant's clustering
//!   reclusters it first when it lags the applied events. Snapshot files,
//!   the one piece of file I/O that stays off the ack path, are written
//!   by the shard's one background worker thread, whatever its tenant
//!   count.
//! - **One tenant core.** The actor only routes: a tenant's state and
//!   every transition on it (apply a batch, answer a query, idle
//!   housekeeping, freeze and fold in a snapshot, recover from disk)
//!   live in one module, which reads no clock to decide anything — the
//!   actor passes the time in — and starts no thread. Startup and a
//!   tenant's first contact recover through the same function.
//! - **Batching.** The observer's per-event cost is what made SEER's
//!   overhead noticeable; clients send events in binary frames of many
//!   events each, and every frame is one engine batch, so engine locks
//!   and table lookups amortize.
//! - **Crash safety.** The engine's knowledge is periodically written
//!   as a checksummed binary snapshot with an atomic
//!   temp-file-and-rename; the engine actor only freezes the bytes, and
//!   the shard's background worker writes them. With a write-ahead
//!   log configured ([`DaemonConfig::wal_dir`]), every acknowledged
//!   batch is also appended to a segmented, checksummed log *before* it
//!   reaches the engine; a killed daemon recovers as snapshot + WAL
//!   replay, so under [`seer_wal::FsyncPolicy::Always`] nothing
//!   acknowledged is lost, and under an interval policy the loss window
//!   is bounded. Without a WAL, recovery falls back to the latest
//!   complete snapshot alone. The log also enables point-in-time
//!   restore ([`DaemonConfig::restore_to`]) and the wire protocol's
//!   `History` query.
//! - **Online queries.** Hoard selection, cluster summaries, stats, and
//!   health probes are answered on the same socket, in order behind the
//!   querying connection's own events — so every answer that reads a
//!   clustering equals an offline replay of the same events plus a
//!   recluster. Per-tenant
//!   queries see only their tenant; the `Fleet` query fans out across
//!   shards and merges.
//! - **Blast-radius isolation.** A hostile or broken client (garbage
//!   bytes, oversized frames, JSON nested past the parser's bound,
//!   mid-frame disconnects) kills only its own connection, counted in
//!   `seer_daemon_connection_errors_total`; a tenant whose WAL faults
//!   (e.g. ENOSPC) stops being acknowledged and reports unhealthy,
//!   without perturbing other tenants.
//! - **Fleet observability.** Every apply-path measurement is recorded
//!   once, per tenant (labeled series under `seer_daemon_tenant_*`,
//!   resolved once per tenant so the apply path never re-interns
//!   labels), and its daemon-wide series is the sum over tenants, taken
//!   when metrics are read; gauges (engine sizes, WAL size, generation
//!   lag) stay per tenant; a health scorer folds each tenant's signals
//!   into a 0–100 score with multi-window SLO burn-rate alerts, and a
//!   watchdog thread alerts on the daemon itself (pseudo-tenant `_self`)
//!   when a shard stalls (a stuck in-place recluster included) or
//!   snapshots go stale. The `Alerts` query reads the bounded alert ring.

#![warn(missing_docs)]

mod client;
mod health;
mod hub;
mod pipeline;
mod quality;
mod server;
mod snapshot;
mod stats;
mod tenant;
mod worker;

pub use client::DaemonClient;
pub use server::{Daemon, DaemonConfig, DaemonError, DaemonHandle};
pub use snapshot::DaemonSnapshot;
pub use stats::DaemonStats;
// Re-exported so daemon embedders configure the WAL without a direct
// seer-wal dependency.
pub use seer_wal::{FsyncPolicy, WalError};

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::wire::{QueryRequest, QueryResponse};
    use seer_trace::{OpenMode, Pid, TraceBuilder};
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seer-daemon-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn small_trace() -> seer_trace::Trace {
        let mut b = TraceBuilder::new();
        for round in 0..6u32 {
            let pid = Pid(round + 1);
            b.exec(pid, "/usr/bin/cc");
            b.touch(pid, "/home/u/proj/main.c", OpenMode::Read);
            b.touch(pid, "/home/u/proj/defs.h", OpenMode::Read);
            b.exit(pid);
        }
        b.build()
    }

    #[test]
    fn daemon_round_trip_and_graceful_shutdown() {
        let dir = scratch_dir("rt");
        let mut cfg = DaemonConfig::new(dir.join("sock"));
        cfg.snapshot_path = Some(dir.join("db.json"));
        let handle = Daemon::spawn(cfg).expect("spawn");

        let trace = small_trace();
        let mut client = DaemonClient::connect(handle.socket_path(), "test").expect("connect");
        client.send_trace(&trace, 4).expect("send");
        let applied = client.flush().expect("flush");
        assert_eq!(applied, trace.events.len() as u64);

        match client
            .query(QueryRequest::Hoard {
                budget: 1 << 20,
                fresh: true,
            })
            .expect("query")
        {
            QueryResponse::Hoard { files, .. } => {
                assert!(
                    files.iter().any(|f| f.ends_with("main.c")),
                    "hoard includes the project: {files:?}"
                );
            }
            other => panic!("unexpected response: {other:?}"),
        }

        drop(client);
        let stats = handle.shutdown();
        assert_eq!(stats.events_applied, trace.events.len() as u64);
        assert!(dir.join("db.json").exists(), "final snapshot written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_frame_stops_the_daemon() {
        let dir = scratch_dir("shutfr");
        let cfg = DaemonConfig::new(dir.join("sock"));
        let handle = Daemon::spawn(cfg).expect("spawn");

        let trace = small_trace();
        let mut client = DaemonClient::connect(handle.socket_path(), "test").expect("connect");
        client.send_trace(&trace, 8).expect("send");
        client.shutdown().expect("shutdown handshake");

        let stats = handle.wait();
        assert_eq!(
            stats.events_applied,
            trace.events.len() as u64,
            "flushed before exit"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The listeners block in `accept`; shutdown wakes each by
    /// connecting, on loopback when the TCP listener is bound to every
    /// interface. Without the wake this test would hang in `shutdown`.
    #[test]
    fn shutdown_wakes_a_listener_bound_to_every_interface() {
        let dir = scratch_dir("anyaddr");
        let mut cfg = DaemonConfig::new(dir.join("sock"));
        cfg.tcp_addr = Some("0.0.0.0:0".into());
        let handle = Daemon::spawn(cfg).expect("spawn");
        let port = handle.tcp_addr().expect("tcp bound").port();
        let mut client =
            DaemonClient::connect_tcp(("127.0.0.1", port), "any", None).expect("connect");
        match client.query(QueryRequest::Health).expect("health") {
            QueryResponse::Health { healthy, .. } => assert!(healthy),
            other => panic!("unexpected response: {other:?}"),
        }
        drop(client);
        let stats = handle.shutdown();
        assert_eq!(
            stats.connections, 1,
            "the wake-up connections are not served"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_and_stats_queries_answer() {
        let dir = scratch_dir("health");
        let cfg = DaemonConfig::new(dir.join("sock"));
        let handle = Daemon::spawn(cfg).expect("spawn");
        let mut client = DaemonClient::connect(handle.socket_path(), "probe").expect("connect");
        match client.query(QueryRequest::Health).expect("health") {
            QueryResponse::Health { healthy, .. } => assert!(healthy),
            other => panic!("unexpected response: {other:?}"),
        }
        match client.query(QueryRequest::Stats).expect("stats") {
            QueryResponse::Stats { connections, .. } => assert_eq!(connections, 1),
            other => panic!("unexpected response: {other:?}"),
        }
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
