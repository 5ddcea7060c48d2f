//! The three workloads and the run that drives one of them against
//! daemon child processes.
//!
//! Every workload runs the same phases, so every end-to-end metric is
//! defined on every workload; what differs is the input, the daemon's
//! persistence settings, and how much each phase weighs. A run starts
//! [`INSTANCES`] daemons one after another, each fed its own
//! generated stream (different seeds' project structures cost different
//! amounts per event, and pooling several evens that out), and each goes
//! through:
//!
//! 1. **Set-up** (`setup_s`, median over instances): generate the
//!    stream, start the daemon, stream a warm-up prefix.
//! 2. **Timed windows** (`ingest_events_per_s`, `cpu_us_per_event`,
//!    `ack_p50_us`, `ack_p90_us`): one client thread on one Unix
//!    connection, closed loop, one burst outstanding — a burst is frames
//!    of [`FRAME`] events and one flush, timed send to `Flushed`. After
//!    each window the run waits for the daemon's background work to drain
//!    (its CPU time joins the window's) and times the host reference (see
//!    [`crate::host`]); rates, CPU, and acks are reported at the nominal
//!    host speed, as medians over windows pooled from all instances.
//! 3. **Query rounds** between windows (`hoard_p90_ms`, `missfree_kb`):
//!    a chunk, its flush, and a fresh `Hoard` query at a budget below the
//!    working set, then a `Quality` query. Never inside a window: a query waits on the actor's idle
//!    tick and made ingest throughput swing 2× when mixed in. The tick
//!    race makes the median bimodal from run to run (~3 ms or ~53 ms), so
//!    `hoard_p50_ms` is reported by traced runs only; p90 sits on the tick.
//! 4. **Crash** (`recovery_s`, `peak_rss_mb`): read `VmHWM`, `SIGKILL`
//!    the daemon, and time [`Spec::restarts`] restarts to the handshake's
//!    `Welcome`, reporting the median over instances of each one's lower
//!    quartile. With
//!    persistence the replayed amount is pinned by the workload, not by
//!    timing (see [`Run::crash`]).
//!
//! The gates: every flush acks exactly the events sent, every restart
//! holds exactly what it should (all acked events with persistence,
//! nothing without), fresh hoards cover everything sent, and the last
//! instance's final hoard equals an offline replay of the same frames.

use crate::daemon_proc::DaemonProcess;
use crate::host;
use crate::input::EventStream;
use crate::layers;
use crate::report::{Metrics, Ops};
use crate::stats::{median, nearest_rank, tail_percentile};
use seer_core::SeerEngine;
use seer_daemon::{DaemonClient, DaemonSnapshot};
use seer_telemetry::{SpanContext, Tracer};
use seer_trace::wire::{QueryRequest, QueryResponse};
use seer_trace::EventSink;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The daemon's uniform file-size model (`seer daemon --file-size`
/// default), mirrored by the offline gate.
pub const FILE_SIZE: u64 = 1024;

/// Events per wire frame: the daemon's default `batch_max`, so each
/// frame becomes exactly one engine batch.
pub const FRAME: usize = 256;

/// Hoard query budget: 256 files under the uniform size model, below
/// every workload's working set (the answers leave projects out).
pub const BUDGET: u64 = 256 * FILE_SIZE;

/// Daemon processes per run, each fed its own generated stream and
/// measured in turn: different seeds' project structures cost different
/// amounts per event, and pooling several evens that out.
const INSTANCES: usize = 5;

/// Events streamed before each query (a small chunk).
const QUERY_CHUNK: usize = 1024;

/// With persistence, events streamed between the last snapshot and the
/// crash: what every restart replays. Below the default 20k-event
/// snapshot cadence, so no periodic snapshot lands inside it.
const TAIL: usize = 16_384;

/// Events reserved for streaming until the WAL rotates before the crash
/// (a segment holds 8 MiB, ~75k events of JSON records).
const ROTATION_RESERVE: usize = 120_000;

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ingest_events_per_s", "1/s"),
    ("cpu_us_per_event", "us"),
    ("ack_p50_us", "us"),
    ("ack_p90_us", "us"),
    ("hoard_p90_ms", "ms"),
    ("recovery_s", "s"),
    ("missfree_kb", "KiB"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("setup.gen_s", "s"),
    ("wire.encode_ns_per_event", "ns"),
    ("wire.decode_ns_per_event", "ns"),
    ("wire.bytes_per_event", "bytes"),
    ("observer.ns_per_event", "ns"),
    ("distance.ns_per_event", "ns"),
    ("distance.observations_per_event", "count"),
    ("engine.apply_ns_per_event", "ns"),
    ("daemon.flush_rtt_empty_us", "us"),
    ("daemon.events_per_batch", "count"),
    ("daemon.residue_ns_per_event", "ns"),
    ("wal.append_ns_per_event", "ns"),
    ("wal.bytes_per_event", "bytes"),
    ("wal.replay_ns_per_event", "ns"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("cluster.full_ms", "ms"),
    ("cluster.incremental_ms", "ms"),
    ("cluster.incremental_share", "ratio"),
    ("manager.rank_ms", "ms"),
    ("manager.choose_ms", "ms"),
    ("hoard_p50_ms", "ms"),
    ("daemon.query_work_ms", "ms"),
    ("daemon.query_wait_ms", "ms"),
    ("quality.eval_ms", "ms"),
    ("host.ref_ms", "ms"),
    ("host.ref_end_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot-path ingest with persistence and queries out of the way.
    Stream,
    /// The same stream through the WAL and periodic snapshots, ending in
    /// a crash and a restart.
    Durable,
    /// Small chunks each followed by a fresh hoard query.
    Hoard,
}

/// How a workload is shaped. Counts are in events unless named
/// otherwise.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Paper machine generating the traces.
    pub machine: &'static str,
    /// Events streamed during set-up, before anything is timed.
    pub warmup: usize,
    /// Timed ingest events per second of `--seconds` (split across the
    /// instances).
    pub ingest_per_second: usize,
    /// Events per burst: frames of [`FRAME`] events, then one flush.
    pub burst: usize,
    /// Bursts per measurement window.
    pub window: usize,
    /// Fresh hoard queries per run (split across the instances; at
    /// least 100, since p90 needs ten samples beyond it).
    pub queries: usize,
    /// Write-ahead log (`--fsync interval:50`) and periodic snapshots at
    /// the daemon's default cadence.
    pub persist: bool,
    /// Crash-restart cycles per instance (the lower quartile counts).
    pub restarts: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Stream, Workload::Durable, Workload::Hoard];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Durable => "durable",
            Workload::Hoard => "hoard",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's shape.
    #[must_use]
    pub fn spec(self) -> Spec {
        match self {
            // Machine F, the paper's heaviest user, streamed as fast as a
            // closed loop allows. Loads socket read, decode, batcher,
            // remap, observer, distance table, activity, shadow LRU,
            // tenant metrics, and ack; persistence is off.
            Workload::Stream => Spec {
                machine: "F",
                warmup: 100_000,
                ingest_per_second: 250_000,
                burst: 8192,
                window: 8,
                queries: 150,
                persist: false,
                restarts: 31,
            },
            // The same stream shape through the WAL (the default
            // `interval:50` fsync) and snapshots every 20k events (the
            // default); a window spans one snapshot period, so window
            // medians include the snapshot writes. Ends in SIGKILL and
            // restarts that load the snapshot and replay a fixed tail.
            Workload::Durable => Spec {
                machine: "F",
                warmup: 50_000,
                ingest_per_second: 50_000,
                burst: 4096,
                window: 5,
                queries: 150,
                persist: true,
                restarts: 9,
            },
            // Machine G (another project structure, the paper's 98 MB
            // hoard), fed in small chunks, each flushed and followed by a
            // fresh hoard query: the periodic hoard fill before a
            // disconnection (§2). Loads incremental recluster, choose,
            // the query path, and the actor's idle tick; its short ingest
            // phase only keeps every metric defined.
            Workload::Hoard => Spec {
                machine: "G",
                warmup: 40_000,
                ingest_per_second: 80_000,
                burst: 4096,
                window: 8,
                queries: 250,
                persist: false,
                restarts: 31,
            },
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Scales the timed ingest stream.
    pub seconds: u64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Directory for the daemon's socket, WAL, snapshots, and logs.
    pub dir: PathBuf,
}

/// One closed-loop burst: events sent, send-to-`Flushed` time, the
/// daemon CPU spent meanwhile, and the host-speed factor of its window.
#[derive(Debug, Clone, Copy)]
struct Burst {
    events: usize,
    rtt: Duration,
    cpu_s: f64,
    traced: bool,
    scale: f64,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every metric measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Spans recorded by a traced run.
    pub spans: Vec<seer_telemetry::SpanRecord>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

struct Session {
    daemon: DaemonProcess,
    client: DaemonClient,
}

/// A run in progress.
struct Run<'a> {
    cfg: &'a RunConfig,
    spec: Spec,
    ops: &'a mut Ops,
    tracer: Tracer,
    stream: EventStream,
    session: Option<Session>,
    sent: usize,
    frames: Vec<Range<usize>>,
}

fn gate(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness gate failed: {}", what()))
    }
}

impl Run<'_> {
    /// Discards the previous set-up: its daemon, files, and progress.
    fn reset(&mut self, stream: EventStream) -> Result<(), String> {
        self.session = None;
        reset_dir(&self.cfg.dir)?;
        self.stream = stream;
        self.sent = 0;
        self.frames.clear();
        Ok(())
    }

    fn daemon_flags(&self) -> Vec<String> {
        let dir = &self.cfg.dir;
        if !self.spec.persist {
            return Vec::new();
        }
        vec![
            "--wal-dir".into(),
            dir.join("wal").display().to_string(),
            "--fsync".into(),
            "interval:50".into(),
            "--snapshot".into(),
            dir.join("db.json").display().to_string(),
        ]
    }

    /// The newest WAL segment's file name.
    fn newest_segment(&self) -> Result<String, String> {
        let dir = self.cfg.dir.join("wal");
        let names =
            std::fs::read_dir(&dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
        names
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("wal-") && n.ends_with(".seg"))
            .max()
            .ok_or_else(|| format!("no WAL segment in {}", dir.display()))
    }

    fn start_daemon(&mut self) -> Result<(), String> {
        let dir = &self.cfg.dir;
        let mut daemon = DaemonProcess::spawn(
            &dir.join("d.sock"),
            &self.daemon_flags(),
            &dir.join("daemon.log"),
        )?;
        let client = self.ops.call("connect", daemon.connect())?;
        self.session = Some(Session { daemon, client });
        Ok(())
    }

    fn session(&mut self) -> &mut Session {
        self.session.as_mut().expect("a daemon is running")
    }

    /// Sends `n` events as frames of [`FRAME`], flushes once, and checks
    /// the ack.
    fn burst(&mut self, n: usize, parent: Option<SpanContext>) -> Result<Burst, String> {
        let start = self.sent;
        let events = self.stream.events(start..start + n);
        let Session { daemon, client } = self.session.as_mut().expect("a daemon is running");
        let cpu0 = daemon.cpu_seconds()?;
        let t0 = Instant::now();
        for (i, frame) in events.chunks(FRAME).enumerate() {
            let _s = parent.map(|c| self.tracer.child("send_events", c));
            let sent = client.send_events(frame, self.stream.strings());
            self.ops.call("send_events", sent)?;
            let at = start + i * FRAME;
            self.frames.push(at..at + frame.len());
        }
        let acked = {
            let _s = parent.map(|c| self.tracer.child("flush", c));
            self.ops.call("flush", client.flush())?
        };
        let rtt = t0.elapsed();
        let cpu_s = daemon.cpu_seconds()? - cpu0;
        self.sent += n;
        let sent = self.sent;
        gate(acked == sent as u64, || {
            format!("daemon acked {acked} events, {sent} were sent")
        })?;
        Ok(Burst {
            events: n,
            rtt,
            cpu_s,
            traced: parent.is_some(),
            scale: 1.0,
        })
    }

    /// Streams `total` events in bursts, untimed (warm-up, tail).
    fn send_bursts(&mut self, total: usize) -> Result<(), String> {
        let mut done = 0;
        while done < total {
            let n = self.spec.burst.min(total - done);
            self.burst(n, None)?;
            done += n;
        }
        Ok(())
    }

    /// One timed window: `total` events in bursts, then the daemon's
    /// background work drained and the host reference timed. With
    /// `traced`, every burst carries spans.
    fn window(&mut self, total: usize, traced: bool) -> Result<Vec<Burst>, String> {
        let mut out: Vec<Burst> = Vec::new();
        let mut done = 0;
        while done < total {
            let n = self.spec.burst.min(total - done);
            let root = traced.then(|| self.tracer.root("burst"));
            out.push(self.burst(n, root.as_ref().map(seer_telemetry::Span::context))?);
            done += n;
        }
        let background = self.quiesce()?;
        if let Some(last) = out.last_mut() {
            last.cpu_s += background;
        }
        let scale = host::scale();
        for b in &mut out {
            b.scale = scale;
        }
        Ok(out)
    }

    /// One query round: a chunk, its flush, and a fresh hoard query.
    /// Returns the query's latency in ms and whether the budget bound.
    fn round(&mut self, traced: bool) -> Result<(f64, bool), String> {
        let root = traced.then(|| self.tracer.root("round"));
        let ctx = root.as_ref().map(seer_telemetry::Span::context);
        self.burst(QUERY_CHUNK, ctx)?;
        let t = Instant::now();
        let _s = ctx.map(|c| self.tracer.child("query", c));
        let (_, bound) = self.fresh_hoard()?;
        Ok((t.elapsed().as_secs_f64() * 1e3, bound))
    }

    /// Waits (at most 250 ms) for the daemon's background work (a
    /// recluster, an evaluation) to drain: less than 0.1 ms of daemon CPU
    /// over a 2 ms sleep. The host reference is timed only then, so the
    /// daemon's own threads never slow it. Returns the CPU the daemon
    /// spent meanwhile, which belongs to the window that caused it.
    fn quiesce(&mut self) -> Result<f64, String> {
        let daemon = &self.session().daemon;
        let start = daemon.cpu_seconds()?;
        let deadline = Instant::now() + Duration::from_millis(250);
        let mut last = start;
        loop {
            std::thread::sleep(Duration::from_millis(2));
            let now = daemon.cpu_seconds()?;
            if now - last < 1e-4 || Instant::now() > deadline {
                return Ok(now - start);
            }
            last = now;
        }
    }

    fn query(&mut self, request: QueryRequest, what: &str) -> Result<QueryResponse, String> {
        let response = self.session().client.query(request);
        self.ops.call(what, response)
    }

    /// A fresh hoard query; checks it covers everything sent. Returns
    /// the hoard and whether the budget left projects out.
    fn fresh_hoard(&mut self) -> Result<(Vec<String>, bool), String> {
        match self.query(
            QueryRequest::Hoard {
                budget: BUDGET,
                fresh: true,
            },
            "hoard query",
        )? {
            QueryResponse::Hoard {
                files,
                generation,
                stale,
                clusters_skipped,
                ..
            } => {
                let sent = self.sent;
                gate(!stale && generation == sent as u64, || {
                    format!("fresh hoard at generation {generation} (stale: {stale}) after {sent} events")
                })?;
                Ok((files, clusters_skipped > 0))
            }
            other => Err(format!("hoard query answered {other:?}")),
        }
    }

    /// The live quality report (evaluated inline, after a flush).
    fn quality(&mut self) -> Result<seer_trace::wire::QualityReport, String> {
        match self.query(QueryRequest::Quality, "quality query")? {
            QueryResponse::Quality { report, .. } => Ok(report),
            other => Err(format!("quality query answered {other:?}")),
        }
    }

    fn events_applied(&mut self) -> Result<u64, String> {
        match self.query(QueryRequest::Health, "health query")? {
            QueryResponse::Health { events_applied, .. } => Ok(events_applied),
            other => Err(format!("health query answered {other:?}")),
        }
    }

    /// Kills the running daemon, then restarts it `restarts` times (each
    /// restart killed again before the next), returning the time from
    /// each `SIGKILL` to the restarted daemon's `Welcome`, scaled by the
    /// host reference timed just before the kill.
    fn crash_and_restart(&mut self) -> Result<Vec<f64>, String> {
        let mut times = Vec::new();
        for _ in 0..self.spec.restarts {
            self.quiesce()?;
            let scale = host::scale();
            let Session { daemon, client } = self.session.take().expect("a daemon is running");
            let killed = daemon.kill();
            drop(client);
            self.start_daemon()?;
            times.push(killed.elapsed().as_secs_f64() * scale);
        }
        Ok(times)
    }

    /// Crashes the instance's daemon and restarts it (see
    /// [`Run::crash_and_restart`]), checking that each restart holds what
    /// it should. With persistence, the replayed amount is pinned first:
    /// stream until the WAL rotates (so the active segment starts here,
    /// not at a seed-dependent point up to 8 MiB back), let the idle
    /// tick snapshot everything, then stream exactly `tail` events.
    fn crash(&mut self) -> Result<Vec<f64>, String> {
        if !self.spec.persist {
            let times = self.crash_and_restart()?;
            let applied = self.events_applied()?;
            gate(applied == 0, || {
                format!("a daemon without persistence restarted holding {applied} events")
            })?;
            return Ok(times);
        }
        let segment = self.newest_segment()?;
        while self.newest_segment()? == segment {
            if self.sent + self.spec.burst + TAIL > self.stream.len() {
                return Err("the WAL did not rotate within the reserved events".into());
            }
            self.burst(self.spec.burst, None)?;
        }
        let snapshot = self.cfg.dir.join("db.json");
        self.await_idle_snapshot(&snapshot)?;
        let base = self.sent;
        self.send_bursts(TAIL)?;
        let times = self.crash_and_restart()?;
        let applied = self.events_applied()?;
        let sent = self.sent;
        gate(applied == sent as u64, || {
            format!("restarted daemon holds {applied} events, {sent} were acknowledged")
        })?;
        let at = DaemonSnapshot::load(&snapshot)
            .map_err(|e| format!("reading snapshot: {e}"))?
            .map(|s| s.events_applied);
        gate(at == Some(base as u64), || {
            format!("restarts replayed from snapshot {at:?}, not {base}")
        })?;
        Ok(times)
    }

    /// Waits until the idle tick has snapshotted everything sent so far.
    fn await_idle_snapshot(&self, path: &Path) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            std::thread::sleep(Duration::from_millis(100));
            let at = DaemonSnapshot::load(path)
                .ok()
                .flatten()
                .map(|s| s.events_applied);
            if at == Some(self.sent as u64) {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "no idle snapshot at generation {} (latest: {at:?})",
                    self.sent
                ));
            }
        }
    }
}

/// Medians over windows of `window` consecutive bursts of events per
/// second and daemon CPU µs per event, raw and at the nominal host speed:
/// `(rate, cpu, raw rate, raw cpu)`.
fn window_medians(bursts: &[Burst], window: usize) -> (f64, f64, f64, f64) {
    let mut cols: [Vec<f64>; 4] = Default::default();
    for w in bursts.chunks(window.max(1)) {
        let events = w.iter().map(|b| b.events).sum::<usize>() as f64;
        let secs: f64 = w.iter().map(|b| b.rtt.as_secs_f64()).sum();
        let scaled_secs: f64 = w.iter().map(|b| b.rtt.as_secs_f64() * b.scale).sum();
        let cpu: f64 = w.iter().map(|b| b.cpu_s).sum();
        let scaled_cpu: f64 = w.iter().map(|b| b.cpu_s * b.scale).sum();
        cols[0].push(events / scaled_secs);
        cols[1].push(scaled_cpu * 1e6 / events);
        cols[2].push(events / secs);
        cols[3].push(cpu * 1e6 / events);
    }
    (
        median(&cols[0]),
        median(&cols[1]),
        median(&cols[2]),
        median(&cols[3]),
    )
}

/// Offline reference for the gate: the same events through a fresh
/// `SeerEngine` in the same batches, then recluster and choose with the
/// daemon's uniform file size.
fn offline_hoard(stream: &EventStream, frames: &[Range<usize>]) -> Vec<String> {
    let mut engine = SeerEngine::default();
    for r in frames {
        engine.on_batch(stream.events(r.clone()), stream.strings());
    }
    engine.recluster();
    let sel = engine.choose_hoard(BUDGET, &|_| FILE_SIZE);
    sel.files
        .iter()
        .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
        .collect()
}

/// The offline-equality gate: the online hoard must list the offline
/// hoard's files, in the same order.
///
/// # Errors
///
/// Describes the first difference.
pub fn check_hoard(online: &[String], offline: &[String]) -> Result<(), String> {
    if let Some(i) = online.iter().zip(offline).position(|(a, b)| a != b) {
        return Err(format!(
            "correctness gate failed: hoard entry {i} is {} online, {} offline",
            online[i], offline[i]
        ));
    }
    gate(online.len() == offline.len(), || {
        format!(
            "online hoard has {} files, offline {}",
            online.len(),
            offline.len()
        )
    })
}

/// Median of five reference-kernel timings, in ms.
fn host_reference_ms() -> f64 {
    let samples: Vec<f64> = (0..5).map(|_| host::kernel_ms()).collect();
    median(&samples)
}

/// Runs one workload end to end.
///
/// # Errors
///
/// Returns a description of the first failed operation or gate; `ops`
/// holds the accounting up to that point.
pub fn run(cfg: &RunConfig, ops: &mut Ops) -> Result<Measured, String> {
    let spec = cfg.workload.spec();
    let mut out = Measured::default();
    let ref_start = host_reference_ms();
    let tracer = if cfg.traced {
        Tracer::new(1 << 18, Duration::MAX)
    } else {
        Tracer::disabled()
    };
    let ingest_events = spec.ingest_per_second * cfg.seconds as usize / INSTANCES;
    let queries = spec.queries.div_ceil(INSTANCES);
    let need = spec.warmup
        + ingest_events
        + queries * QUERY_CHUNK
        + if spec.persist {
            TAIL + ROTATION_RESERVE
        } else {
            0
        };

    // Per instance: set-up, a share of the timed ingest stream, and a
    // share of the query rounds, each followed by a quality query: the
    // miss-free size over many trailing days is far steadier across
    // seeds than over the final day alone.
    let (mut setup_s, mut gen_s, mut ingest) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latency_ms, mut query_at, mut missfree) = (Vec::new(), Vec::new(), Vec::new());
    let mut empty_flush_us = Vec::new();
    let (mut peak_rss, mut recovery, mut restarts_seen) = (Vec::new(), Vec::new(), Vec::new());
    let (mut events_per_batch, mut working_set) = (0.0, 0);
    let (mut online, mut hoard_frames) = (Vec::new(), Vec::new());
    let mut budget_bound = 0usize;
    let mut r = Run {
        cfg,
        spec: spec.clone(),
        ops,
        tracer: tracer.clone(),
        stream: EventStream::concat(&[]),
        session: None,
        sent: 0,
        frames: Vec::new(),
    };
    for i in 0..INSTANCES {
        let t0 = Instant::now();
        let stream = EventStream::generate(spec.machine, cfg.seed, i as u64, need)?;
        gen_s.push(t0.elapsed().as_secs_f64());
        r.reset(stream)?;
        r.start_daemon()?;
        r.send_bursts(spec.warmup)?;
        let setup = t0.elapsed().as_secs_f64();
        r.quiesce()?;
        setup_s.push(setup * host::scale());
        for _ in 0..200 / INSTANCES {
            let t = Instant::now();
            let flushed = r.session().client.flush();
            let acked = r.ops.call("flush", flushed)?;
            empty_flush_us.push(t.elapsed().as_secs_f64() * 1e6);
            let sent = r.sent;
            gate(acked == sent as u64, || {
                format!("daemon acked {acked} events, {sent} were sent")
            })?;
        }
        // Timed windows, with this instance's share of the query rounds
        // spread between them (never inside one: a query waits on the
        // actor's idle tick and swung throughput 2x when mixed in), so
        // queries and quality samples see the whole stream. Traced runs
        // trace every other window, so tracing overhead is measured
        // against the same state.
        let per_window = spec.burst * spec.window;
        let windows = ingest_events.div_ceil(per_window).max(1);
        query_at.clear();
        let mut asked = 0;
        for w in 0..windows {
            let n = per_window.min(ingest_events.saturating_sub(w * per_window));
            ingest.extend(r.window(n, cfg.traced && w % 2 == 1)?);
            while asked < (w + 1) * queries / windows {
                let (latency, bound) = r.round(cfg.traced)?;
                latency_ms.push(latency);
                budget_bound += usize::from(bound);
                query_at.push(r.sent);
                asked += 1;
                missfree.push(r.quality()?.seer_missfree_bytes as f64);
            }
        }
        if i + 1 == INSTANCES {
            // The last instance's final state, kept for the gate.
            match r.query(QueryRequest::Stats, "stats query")? {
                QueryResponse::Stats {
                    events_applied,
                    batches_applied,
                    ..
                } => events_per_batch = events_applied as f64 / batches_applied.max(1) as f64,
                other => return Err(format!("stats query answered {other:?}")),
            }
            online = r.fresh_hoard()?.0;
            hoard_frames.clone_from(&r.frames);
            working_set = r.quality()?.working_set_bytes;
        }
        peak_rss.push(r.session().daemon.peak_rss_mb()?);
        let restarts = r.crash()?;
        recovery.push(nearest_rank(&restarts, 25));
        restarts_seen.extend(restarts);
    }

    let Session { daemon, client } = r.session.take().expect("a daemon is running");
    r.ops.call("shutdown", client.shutdown())?;
    daemon.wait()?;

    // Gate: online equals offline.
    let offline = offline_hoard(&r.stream, &hoard_frames);
    check_hoard(&online, &offline)?;

    let untraced: Vec<Burst> = ingest.iter().copied().filter(|b| !b.traced).collect();
    let (rate, cpu_us, raw_rate, raw_cpu_us) = window_medians(&untraced, spec.window);
    let m = &mut out.metrics;
    m.set("setup_s", "s", median(&setup_s));
    m.set("ingest_events_per_s", "1/s", rate);
    m.set("cpu_us_per_event", "us", cpu_us);
    if !cfg.traced {
        // Traced runs trace half the bursts; their ack samples are too
        // few for p90 and are not reported.
        let ack_us: Vec<f64> = untraced
            .iter()
            .map(|b| b.rtt.as_secs_f64() * b.scale * 1e6)
            .collect();
        m.set("ack_p50_us", "us", tail_percentile(&ack_us, 50)?);
        m.set("ack_p90_us", "us", tail_percentile(&ack_us, 90)?);
    }
    let hoard_p90 = tail_percentile(&latency_ms, 90)?;
    m.set("hoard_p50_ms", "ms", tail_percentile(&latency_ms, 50)?);
    m.set("hoard_p90_ms", "ms", hoard_p90);
    // Per instance the best quartile of its restarts (an accept can wait
    // out the listener's 5 ms poll, which splits cold restarts into
    // clusters; the lower quartile stays inside the fastest one), then
    // the median over instances.
    m.set("recovery_s", "s", median(&recovery));
    m.set("missfree_kb", "KiB", median(&missfree) / 1024.0);
    m.set("peak_rss_mb", "MiB", median(&peak_rss));

    m.set("setup.gen_s", "s", median(&gen_s));
    m.set("daemon.flush_rtt_empty_us", "us", median(&empty_flush_us));
    m.set("daemon.events_per_batch", "count", events_per_batch);
    let scales: Vec<f64> = untraced.iter().map(|b| b.scale).collect();
    out.notes.push(format!(
        "{}: {} instances; last: {} events in {} frames; {} hoard queries at {} B, \
         {} of them leaving projects out (final one-day working set {} B)",
        cfg.workload.name(),
        INSTANCES,
        r.sent,
        r.frames.len(),
        latency_ms.len(),
        BUDGET,
        budget_bound,
        working_set
    ));
    out.notes.push(format!(
        "unscaled: {raw_rate:.0} events/s, {raw_cpu_us:.4} us/event; median host scale {:.3}",
        median(&scales)
    ));
    out.notes.push(format!(
        "{} quality samples: median {:.1} KiB, mean {:.1} KiB",
        missfree.len(),
        median(&missfree) / 1024.0,
        missfree.iter().sum::<f64>() / missfree.len().max(1) as f64 / 1024.0
    ));
    out.notes.push(format!(
        "{} restarts (scaled): p25 {:.2} ms, median {:.2} ms, max {:.2} ms",
        restarts_seen.len(),
        nearest_rank(&restarts_seen, 25) * 1e3,
        median(&restarts_seen) * 1e3,
        nearest_rank(&restarts_seen, 100) * 1e3
    ));

    if cfg.traced {
        let traced_bursts: Vec<Burst> = ingest.iter().copied().filter(|b| b.traced).collect();
        let (traced_rate, ..) = window_medians(&traced_bursts, spec.window);
        let overhead = (rate / traced_rate - 1.0) * 100.0;
        let layers = layers::replay(
            &layers::Input {
                stream: &r.stream,
                frames: &r.frames,
                queries: &query_at,
                dir: &cfg.dir,
            },
            &r.tracer,
        )?;
        add_layer_metrics(m, &layers, spec.persist, raw_cpu_us, hoard_p90, overhead);
        let spans = r.tracer.snapshot();
        m.set("trace.spans", "count", spans.len() as f64);
        out.spans = spans;
    }
    out.metrics.set("host.ref_ms", "ms", ref_start);
    out.metrics
        .set("host.ref_end_ms", "ms", host_reference_ms());
    Ok(out)
}

fn add_layer_metrics(
    m: &mut Metrics,
    l: &layers::Layers,
    persist: bool,
    cpu_us: f64,
    hoard_p90_ms: f64,
    overhead_pct: f64,
) {
    let ns = |k: &str| l.ns_per_event.get(k).copied().unwrap_or(f64::NAN);
    m.set("wire.encode_ns_per_event", "ns", ns("wire.encode"));
    m.set("wire.decode_ns_per_event", "ns", ns("wire.decode"));
    m.set("wire.bytes_per_event", "bytes", l.wire_bytes_per_event);
    m.set("observer.ns_per_event", "ns", ns("observer"));
    m.set("distance.ns_per_event", "ns", ns("distance"));
    m.set(
        "distance.observations_per_event",
        "count",
        l.observations_per_event,
    );
    m.set("engine.apply_ns_per_event", "ns", ns("engine.apply"));
    // The layers a daemon event passes through on the actor's critical
    // path (the engine's apply contains the observer and distance
    // layers); whatever else its CPU time holds (socket reads, batching,
    // remap, channel hand-offs, telemetry, shadow LRU, background
    // recluster and evaluation) is the residue.
    let mut explained = ns("wire.decode") + ns("engine.apply");
    if persist {
        explained += ns("wal.append");
    }
    m.set(
        "daemon.residue_ns_per_event",
        "ns",
        cpu_us * 1e3 - explained,
    );
    m.set("wal.append_ns_per_event", "ns", ns("wal.append"));
    m.set("wal.bytes_per_event", "bytes", l.wal_bytes_per_event);
    m.set("wal.replay_ns_per_event", "ns", l.wal_replay_ns_per_event);
    m.set("snapshot.write_ms", "ms", l.snapshot_write_ms);
    m.set("snapshot.load_ms", "ms", l.snapshot_load_ms);
    m.set("snapshot.bytes", "bytes", l.snapshot_bytes);
    m.set("cluster.full_ms", "ms", l.cluster_full_ms);
    m.set("cluster.incremental_ms", "ms", l.cluster_incremental_ms);
    m.set(
        "cluster.incremental_share",
        "ratio",
        l.cluster_incremental_share,
    );
    m.set("manager.rank_ms", "ms", l.rank_ms);
    m.set("manager.choose_ms", "ms", l.choose_ms);
    // What a fresh hoard query computes (recluster + choose, replayed
    // offline at each query's state); the rest of its p90 latency is
    // waiting: the flush hand-off and the engine actor's idle tick.
    let work = median(&l.query_work_ms);
    m.set("daemon.query_work_ms", "ms", work);
    m.set("daemon.query_wait_ms", "ms", hoard_p90_ms - work);
    m.set("quality.eval_ms", "ms", l.quality_eval_ms);
    m.set("trace.overhead_pct", "%", overhead_pct);
}

/// Empties `dir` (the previous set-up's socket, WAL, and snapshots).
///
/// # Errors
///
/// Returns a description if the directory cannot be recreated.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}
