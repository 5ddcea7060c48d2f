//! The daemon itself: listeners, sharded pipelines, and lifecycle.

use crate::health::{watchdog_check, ShardBeat, SELF_TENANT};
use crate::hub::{self, HubListener, HubStream, Shards, SocketProbe};
use crate::pipeline;
use crate::stats::{self, DaemonStats, SharedMetrics};
use crate::tenant::{self, TenantState};
use crate::worker::Worker;
use crossbeam::channel::bounded;
use parking_lot::Mutex;
use seer_core::PersistError;
use seer_telemetry::{tlog, Level, RegistrySnapshot, Tracer};
use seer_wal::{FsyncPolicy, WalError};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Configuration for a [`Daemon`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Where to bind the Unix-domain socket.
    pub socket_path: PathBuf,
    /// TCP address to additionally listen on (e.g. `127.0.0.1:7979`;
    /// port `0` picks a free port, reported by
    /// [`DaemonHandle::tcp_addr`]). `None` serves Unix-socket clients
    /// only.
    pub tcp_addr: Option<String>,
    /// Engine shards. Tenants hash across shards; each shard is one
    /// inbox + engine actor pair owning every tenant routed to it.
    /// Clamped to at least 1.
    pub shards: usize,
    /// Where to persist snapshots; `None` disables persistence. This is
    /// the *default* tenant's path — other tenants persist next to it
    /// (`<path>.<tenant>`).
    pub snapshot_path: Option<PathBuf>,
    /// Capacity of each shard's bounded inbox. Connection readers block
    /// when it is full — this is the backpressure knob.
    pub channel_capacity: usize,
    /// Snapshot after this many applied events. `0` disables periodic
    /// snapshots; with `snapshot_path` set, graceful shutdown still
    /// writes a final one for every tenant that applied events.
    pub snapshot_every: u64,
    /// Engine actor idle tick: a full tick with no ingest message runs
    /// the idle housekeeping (the evaluation cadence, health samples,
    /// WAL sync, snapshots); the actor also polls the kill flag at this
    /// cadence.
    pub tick: Duration,
    /// Nominal size, in bytes, assumed for every file when answering
    /// hoard queries (the daemon has no investigator measuring real
    /// sizes; a uniform model keeps selections deterministic).
    pub file_size: u64,
    /// Spans retained by the flight-recorder ring (oldest overwritten
    /// first). `0` disables tracing entirely.
    pub trace_capacity: usize,
    /// Spans lasting at least this long are auto-promoted to the
    /// structured event log.
    pub slow_span: Duration,
    /// Where to dump the flight recorder (JSON lines) when the daemon
    /// exits, gracefully or by kill. `None` skips the on-exit dump; the
    /// panic-hook dump to stderr happens regardless.
    pub flight_path: Option<PathBuf>,
    /// Directory for the write-ahead log. `None` runs without a WAL:
    /// a kill loses everything since the last snapshot. This is the
    /// *default* tenant's directory — other tenants log to a sibling
    /// directory (`<dir>-<tenant>`).
    pub wal_dir: Option<PathBuf>,
    /// When the WAL syncs to disk. [`FsyncPolicy::Always`] makes every
    /// acknowledged batch durable; the default interval policy bounds
    /// loss to the window instead of paying an fsync per batch.
    pub wal_fsync: FsyncPolicy,
    /// Rotate WAL segments once they exceed this many bytes (default
    /// 1 MiB, about 60k events).
    pub wal_segment_bytes: u64,
    /// Point-in-time restore: discard every batch past this generation
    /// (applied-event count) before starting. Requires `wal_dir`.
    /// Applies to the default tenant's log.
    pub restore_to: Option<u64>,
    /// Cadence of each tenant's background quality evaluation (live
    /// miss-free hoard size, SEER vs shadow-LRU). Must be nonzero: a
    /// zero cadence would evaluate back to back. The cadence skips a
    /// tenant that applied nothing since its last report. `Quality`
    /// queries evaluate inline whatever the cadence.
    pub eval_every: Duration,
    /// Simulated-disconnection window the evaluator scores against, in
    /// trace seconds (default: one day, the paper's canonical
    /// disconnection scale).
    pub eval_window_secs: u64,
    /// Fast SLO burn window (sensitive, quick to fire and resolve).
    pub burn_fast_window: Duration,
    /// Slow SLO burn window (suppresses short blips).
    pub burn_slow_window: Duration,
    /// Cadence of the watchdog thread's checks. Must be nonzero.
    /// Per-tenant metrics, health scores, and SLO burn alerts do not
    /// depend on it.
    pub watchdog_tick: Duration,
    /// Shard heartbeat age above which `_self` reports the shard stalled.
    pub watchdog_stall_after: Duration,
}

impl DaemonConfig {
    /// A configuration with defaults suitable for tests and local use.
    #[must_use]
    pub fn new(socket_path: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            socket_path: socket_path.into(),
            tcp_addr: None,
            shards: 2,
            snapshot_path: None,
            channel_capacity: 256,
            snapshot_every: 20_000,
            tick: Duration::from_millis(50),
            file_size: 1024,
            trace_capacity: 4096,
            slow_span: Duration::from_millis(100),
            flight_path: None,
            wal_dir: None,
            wal_fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            wal_segment_bytes: 1024 * 1024,
            restore_to: None,
            eval_every: Duration::from_secs(2),
            eval_window_secs: 86_400,
            burn_fast_window: Duration::from_secs(300),
            burn_slow_window: Duration::from_secs(3600),
            watchdog_tick: Duration::from_millis(250),
            watchdog_stall_after: Duration::from_secs(5),
        }
    }
}

/// Errors from starting or running a daemon.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket or filesystem failure.
    Io(std::io::Error),
    /// The Unix socket path is owned by a live daemon — starting would
    /// steal its socket, so we refuse instead.
    SocketBusy(String),
    /// The snapshot on disk exists but cannot be read.
    Persist(PersistError),
    /// The write-ahead log could not be opened, recovered, or truncated.
    Wal(WalError),
    /// A `restore_to` request that cannot be honored (no WAL configured,
    /// or the requested generation is unreachable).
    Restore(String),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "daemon I/O error: {e}"),
            DaemonError::SocketBusy(m) => write!(f, "socket busy: {m}"),
            DaemonError::Persist(e) => write!(f, "daemon snapshot error: {e}"),
            DaemonError::Wal(e) => write!(f, "daemon wal error: {e}"),
            DaemonError::Restore(m) => write!(f, "restore failed: {m}"),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> DaemonError {
        DaemonError::Io(e)
    }
}

impl From<PersistError> for DaemonError {
    fn from(e: PersistError) -> DaemonError {
        DaemonError::Persist(e)
    }
}

impl From<WalError> for DaemonError {
    fn from(e: WalError) -> DaemonError {
        DaemonError::Wal(e)
    }
}

/// State shared by the listeners, connection readers, and the handle.
pub(crate) struct Shared {
    /// Raised to stop accepting and let in-flight work drain (graceful).
    pub(crate) shutdown: AtomicBool,
    /// Raised to abandon everything immediately, skipping the final
    /// snapshot (crash simulation). An `Arc` because the pipeline
    /// threads poll it independently of the rest of the shared state.
    pub(crate) kill: Arc<AtomicBool>,
    pub(crate) metrics: SharedMetrics,
    /// Every live client socket by connection id, shared with its
    /// reader (one descriptor per connection), so shutdown can unblock
    /// readers parked in `read`. A connection's reader removes its entry
    /// when the connection ends.
    pub(crate) conns: Mutex<HashMap<u64, Arc<HubStream>>>,
    pub(crate) next_conn: AtomicU64,
    /// Where the listeners are bound, so shutdown can wake their
    /// blocking `accept` by connecting once to each.
    socket_path: PathBuf,
    tcp_addr: Option<SocketAddr>,
}

impl Shared {
    /// Starts the shutdown cascade: stop accepting, then close every
    /// client socket so readers see EOF and drop their channel senders.
    /// The listeners are parked in a blocking `accept`; one connection
    /// to each wakes it to see the flag (and the woken connection is
    /// closed unserved, like any accepted after shutdown began).
    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for (_, s) in self.conns.lock().drain() {
            s.shutdown_both();
        }
        let _ = UnixStream::connect(&self.socket_path);
        if let Some(mut addr) = self.tcp_addr {
            // A listener bound to every interface is reachable on loopback.
            match addr.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
                IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
                _ => {}
            }
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }
}

/// A running daemon. Dropping the handle without calling
/// [`DaemonHandle::shutdown`] kills the pipeline abruptly (no final
/// snapshot) so tests and crashed callers never hang on a join.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    socket_path: PathBuf,
    tcp_addr: Option<SocketAddr>,
    listeners: Vec<JoinHandle<()>>,
    actors: Vec<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

/// Entry point: [`Daemon::spawn`] starts the sharded pipeline threads
/// and the socket listeners, returning a [`DaemonHandle`].
pub struct Daemon;

impl Daemon {
    /// Starts a daemon, recovering the default tenant's engine state
    /// from `config.snapshot_path` (damaged primaries fall back to the
    /// previous snapshot, then to a cold start) and replaying the
    /// write-ahead log on top when `config.wal_dir` is set. Other
    /// tenants recover lazily, on first contact.
    ///
    /// # Errors
    ///
    /// Returns [`DaemonError::SocketBusy`] if a live daemon already
    /// owns the socket path, [`DaemonError::Io`] if a socket cannot be
    /// bound or a thread cannot be started, [`DaemonError::Wal`] for an
    /// unrecoverable log, and
    /// [`DaemonError::Restore`] when `config.restore_to` cannot be
    /// honored.
    pub fn spawn(config: DaemonConfig) -> Result<DaemonHandle, DaemonError> {
        // Initialize the event log eagerly so a bad `SEER_LOG_FILE`
        // surfaces at startup — and so recovery warnings are visible.
        seer_telemetry::init_from_env();

        if config.restore_to.is_some() && config.wal_dir.is_none() {
            return Err(DaemonError::Restore(
                "restore requires a write-ahead log (set wal_dir / --wal-dir)".into(),
            ));
        }
        // One registry per daemon: pipeline and engine metrics share it,
        // and every instance (parallel tests included) stays isolated.
        let tracer = Tracer::new(config.trace_capacity, config.slow_span);
        seer_telemetry::register_flight_recorder("daemon", &tracer);
        let metrics = stats::new_shared(tracer);
        let config = Arc::new(config);
        // The default tenant recovers before the socket binds, so a log
        // it cannot open, restore, or replay fails the start instead of
        // surfacing mid-flight; other tenants recover on first contact.
        let name = tenant::default_tenant();
        let (default, recovered) = TenantState::recover(name, &config, &metrics, config.restore_to);
        recovered?;

        // Reap the socket path only when it is provably dead. A path a
        // live daemon owns refuses the start instead of being stolen
        // out from under it.
        match hub::probe_unix_socket(&config.socket_path) {
            SocketProbe::Live { version } => {
                let spoken = version.map_or_else(String::new, |v| format!(" speaking wire v{v}"));
                return Err(DaemonError::SocketBusy(format!(
                    "a live daemon{spoken} already owns {}",
                    config.socket_path.display()
                )));
            }
            SocketProbe::Stale => {
                tlog!(
                    Level::Warn,
                    "seer_daemon",
                    "reaped stale socket file",
                    path = config.socket_path.display().to_string(),
                );
                let _ = std::fs::remove_file(&config.socket_path);
            }
            SocketProbe::Absent => {}
        }
        let unix_listener = UnixListener::bind(&config.socket_path)?;

        let mut listeners = vec![HubListener::Unix(unix_listener)];
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp_addr {
            let tcp = TcpListener::bind(addr)?;
            tcp_addr = Some(tcp.local_addr()?);
            listeners.push(HubListener::Tcp(tcp));
        }

        tlog!(
            Level::Info,
            "seer_daemon",
            "daemon started",
            socket = config.socket_path.display().to_string(),
            tcp = tcp_addr.map_or_else(|| "off".to_string(), |a| a.to_string()),
            shards = config.shards.max(1) as u64,
            recovered_events = default.events_applied(),
        );

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            kill: Arc::new(AtomicBool::new(false)),
            metrics,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            socket_path: config.socket_path.clone(),
            tcp_addr,
        });

        // One snapshot writer per shard, whatever the tenant count,
        // started first so a failed spawn leaves no actor running.
        let workers = (0..config.shards.max(1))
            .map(|_| Worker::spawn())
            .collect::<Result<Vec<_>, _>>()?;
        // Per-shard inboxes, created before the threads so the routing
        // table exists first (the default tenant goes to whichever shard
        // it hashes to).
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..config.shards.max(1))
            .map(|_| bounded(config.channel_capacity))
            .unzip();
        let shards = Arc::new(Shards { inboxes });
        let default_shard = shards.index_for(tenant::DEFAULT_TENANT);
        let mut default = Some(default);

        // One beat per shard: the actor stamps it, the watchdog reads it.
        let epoch = Instant::now();
        let beats: Vec<Arc<ShardBeat>> = receivers
            .iter()
            .map(|_| Arc::new(ShardBeat::new(epoch)))
            .collect();
        let mut actors = Vec::with_capacity(receivers.len());
        for (i, (inbox, worker)) in receivers.into_iter().zip(workers).enumerate() {
            let cfg = Arc::clone(&config);
            let home = default.take_if(|_| i == default_shard);
            let metrics = Arc::clone(&shared.metrics);
            let kill = Arc::clone(&shared.kill);
            let beat = Arc::clone(&beats[i]);
            actors.push(
                thread::Builder::new()
                    .name(format!("seer-shard-{i}"))
                    .spawn(move || {
                        pipeline::run_engine_actor(home, cfg, inbox, worker, metrics, kill, beat);
                    })?,
            );
        }

        let watchdog_shared = Arc::clone(&shared);
        let watchdog_cfg = Arc::clone(&config);
        let watchdog = thread::Builder::new()
            .name("seer-watchdog".into())
            .spawn(move || run_watchdog(&watchdog_shared, &beats, &watchdog_cfg))?;

        let listener_threads = listeners
            .into_iter()
            .map(|listener| {
                let shared = Arc::clone(&shared);
                let shards = Arc::clone(&shards);
                thread::spawn(move || {
                    hub::run_listener(&listener, &shared, &shards);
                })
            })
            .collect();

        Ok(DaemonHandle {
            shared,
            socket_path: config.socket_path.clone(),
            tcp_addr,
            listeners: listener_threads,
            actors,
            watchdog: Some(watchdog),
        })
    }
}

/// The daemon self-watchdog loop: every tick, evaluate each shard's
/// beat against the thresholds and drive the corresponding `_self`
/// alerts. Exits when shutdown or kill is raised (so a graceful
/// shutdown waits at most one tick for it).
fn run_watchdog(shared: &Shared, beats: &[Arc<ShardBeat>], cfg: &DaemonConfig) {
    while !(shared.shutdown.load(Ordering::SeqCst) || shared.kill.load(Ordering::SeqCst)) {
        let now = Instant::now();
        for (i, beat) in beats.iter().enumerate() {
            for f in watchdog_check(i, beat, cfg, now) {
                shared
                    .metrics
                    .alert(SELF_TENANT, &f.kind, f.firing, || f.message.clone());
            }
        }
        thread::sleep(cfg.watchdog_tick);
    }
}

impl DaemonHandle {
    /// The socket path clients should connect to.
    #[must_use]
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// The bound TCP address, when `tcp_addr` was configured. With port
    /// `0` in the config this is where the kernel actually put us.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// A snapshot of the pipeline counters.
    #[must_use]
    pub fn stats(&self) -> DaemonStats {
        self.shared.metrics.snapshot_view()
    }

    /// A snapshot of the full telemetry registry — every counter, gauge,
    /// and stage-latency histogram the daemon and its engine maintain.
    /// The same data a client gets from the wire protocol's `metrics`
    /// query, without needing a connection.
    #[must_use]
    pub fn metrics(&self) -> RegistrySnapshot {
        self.shared.metrics.snapshot()
    }

    /// Blocks until the daemon exits (a client sent
    /// [`ClientFrame::Shutdown`](seer_trace::wire::ClientFrame::Shutdown),
    /// or [`DaemonHandle::shutdown`] ran on another thread).
    pub fn wait(mut self) -> DaemonStats {
        self.join_all();
        let stats = self.shared.metrics.snapshot_view();
        let _ = std::fs::remove_file(&self.socket_path);
        stats
    }

    /// Gracefully stops the daemon: in-flight batches are applied, every
    /// tenant that applied events writes a final snapshot, and all
    /// threads join.
    pub fn shutdown(self) -> DaemonStats {
        self.shared.begin_shutdown();
        self.wait()
    }

    /// Kills the daemon abruptly: pending work is dropped and **no**
    /// final snapshot is written, simulating a crash. Recovery must come
    /// from the last periodic snapshot on disk.
    pub fn kill(mut self) {
        self.shared.kill.store(true, Ordering::SeqCst);
        self.shared.begin_shutdown();
        self.join_all();
        let _ = std::fs::remove_file(&self.socket_path);
    }

    fn join_all(&mut self) {
        for h in self.listeners.drain(..) {
            let _ = h.join();
        }
        for h in self.actors.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        if !(self.listeners.is_empty() && self.actors.is_empty()) {
            self.shared.kill.store(true, Ordering::SeqCst);
            self.shared.begin_shutdown();
            self.join_all();
            let _ = std::fs::remove_file(&self.socket_path);
        }
    }
}
