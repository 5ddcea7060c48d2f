//! In-process replay of a run's frames through each layer's public
//! functions, one span per layer per batch.
//!
//! The daemon run tells how long the whole path takes; this replay tells
//! where the time goes. It feeds the exact frames the run's last daemon
//! received, in the same order and batch boundaries, through:
//!
//! - `wire.encode` / `wire.decode`: `encode_events_binary` and
//!   `decode_events_binary`, the v6 frame codec;
//! - `observer`: an `Observer` over a no-op `ReferenceSink` (path
//!   resolution and the §4 filters alone);
//! - `observer+distance`: an `Observer` over a `DistanceEngine`; the
//!   distance layer's self time is this span minus `observer`;
//! - `engine`: `SeerEngine::on_batch`, the whole apply (it contains the
//!   two layers above; separate replays cannot split its self time from
//!   theirs, since each replay warms the caches differently);
//! - `wal.append`: `Wal::append_batch` with the daemon's default policy,
//!   over a bounded prefix (the JSON records are ~110 bytes an event);
//!
//! and at every point where the run asked a fresh hoard query, the work
//! that query does on the actor: a recluster (incremental from the
//! previous query's pair counts, or a full recount every
//! `recluster_full_every` runs, as the daemon's worker does) and
//! `manager.choose`; `manager.rank` (the full priority order) is timed
//! beside it. Afterwards it
//! times the recovery path (`snapshot.write`, `snapshot.load`,
//! `wal.replay`) and one quality evaluation (`quality.eval`).

use crate::input::EventStream;
use crate::run::{BUDGET, FILE_SIZE};
use crate::spans::self_times;
use crate::stats::median;
use seer_core::{PairCountCache, Replayer, SeerEngine};
use seer_daemon::DaemonSnapshot;
use seer_distance::{DistanceConfig, DistanceEngine};
use seer_observer::{Observer, ObserverConfig, Reference, ReferenceSink};
use seer_telemetry::Tracer;
use seer_trace::{wire, EventSink, FileId, PathTable, StringTable};
use seer_wal::{Wal, WalConfig, WalRecord};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

/// Shards of the daemon's recluster worker (`seer daemon` default).
const RECLUSTER_THREADS: usize = 4;
/// Consecutive incremental reclusters before a forced full recount
/// (`seer daemon` default).
const RECLUSTER_FULL_EVERY: u64 = 16;
/// The quality plane's simulated-disconnection window (default: a day).
const EVAL_WINDOW_SECS: u64 = 86_400;
/// Events appended to (and replayed from) the in-process WAL: a bounded
/// prefix, since JSON records take ~110 bytes an event.
const WAL_EVENTS: usize = 300_000;
/// A full recount is also timed at every this-many queries, for
/// `cluster.full_ms` even when the incremental path always runs.
const FULL_SAMPLE_EVERY: usize = 10;

struct NullSink;

impl ReferenceSink for NullSink {
    fn on_reference(&mut self, r: &Reference, _paths: &PathTable) {
        std::hint::black_box(r.file);
    }
}

/// What the replay needs from the run.
pub struct Input<'a> {
    /// The run's event stream.
    pub stream: &'a EventStream,
    /// Every frame the run sent, in order (each one engine batch).
    pub frames: &'a [Range<usize>],
    /// Stream position (events sent) at each fresh hoard query.
    pub queries: &'a [usize],
    /// Scratch directory for the WAL and the snapshot.
    pub dir: &'a Path,
}

/// Per-layer costs of one replay.
#[derive(Debug, Default)]
pub struct Layers {
    /// Events replayed.
    pub events: u64,
    /// Self time per event of each per-event layer, in ns.
    pub ns_per_event: BTreeMap<&'static str, f64>,
    /// Encoded frame bytes per event.
    pub wire_bytes_per_event: f64,
    /// Distance observations per event.
    pub observations_per_event: f64,
    /// WAL directory bytes per appended event.
    pub wal_bytes_per_event: f64,
    /// Replay cost per WAL event (open + decode + apply), in ns.
    pub wal_replay_ns_per_event: f64,
    /// Snapshot write and load, in ms, and the snapshot's size.
    pub snapshot_write_ms: f64,
    /// See [`Layers::snapshot_write_ms`].
    pub snapshot_load_ms: f64,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: f64,
    /// Per-query offline work (recluster + rank + choose), in ms.
    pub query_work_ms: Vec<f64>,
    /// Median incremental and full recluster, rank, and choose, in ms.
    pub cluster_incremental_ms: f64,
    /// See [`Layers::cluster_incremental_ms`].
    pub cluster_full_ms: f64,
    /// Share of query reclusters that took the incremental path.
    pub cluster_incremental_share: f64,
    /// See [`Layers::cluster_incremental_ms`].
    pub rank_ms: f64,
    /// See [`Layers::cluster_incremental_ms`].
    pub choose_ms: f64,
    /// One quality evaluation at the final state, in ms.
    pub quality_eval_ms: f64,
}

/// Replays `input` with every layer call inside a span on `tracer`, and
/// derives the per-layer costs from those spans' self times.
///
/// # Errors
///
/// Returns a description of any codec, WAL, or snapshot failure.
pub fn replay(input: &Input<'_>, tracer: &Tracer) -> Result<Layers, String> {
    let strings = input.stream.strings();
    let mut obs = Observer::new(ObserverConfig::default(), NullSink);
    let mut obs_dist = Observer::new(
        ObserverConfig::default(),
        DistanceEngine::new(DistanceConfig::default()),
    );
    let mut engine = SeerEngine::default();
    let wal_dir = input.dir.join("layers-wal");
    let (mut wal, _) = Wal::open(WalConfig::new(&wal_dir)).map_err(|e| format!("wal: {e}"))?;
    let mut out = Layers::default();
    let mut wire_bytes = 0u64;
    let mut wal_appended = 0u64;
    let mut cache: Option<PairCountCache> = None;
    let mut since_full = 0u64;
    let mut incremental_runs = 0usize;
    let (mut inc_ms, mut full_ms, mut rank_ms, mut choose_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut next_query = input.queries.iter().peekable();

    for (i, range) in input.frames.iter().enumerate() {
        let events = input.stream.events(range.clone());
        let root = tracer.root("replay_batch");
        let ctx = root.context();
        let frame = {
            let _s = tracer.child("wire.encode", ctx);
            wire::encode_events_binary(events, None)
        };
        wire_bytes += frame.len() as u64;
        {
            let _s = tracer.child("wire.decode", ctx);
            let (decoded, _) = wire::decode_events_binary(&frame[5..])
                .map_err(|e| format!("decoding batch {i}: {e}"))?;
            std::hint::black_box(decoded);
        }
        {
            let _s = tracer.child("observer", ctx);
            obs.on_batch(events, strings);
        }
        {
            let _s = tracer.child("observer+distance", ctx);
            obs_dist.on_batch(events, strings);
        }
        {
            let _s = tracer.child("engine", ctx);
            engine.on_batch(events, strings);
        }
        out.events += events.len() as u64;
        if (wal_appended as usize) < WAL_EVENTS {
            let _s = tracer.child("wal.append", ctx);
            wal_appended += events.len() as u64;
            wal.append_batch(strings, wal_appended, events)
                .map_err(|e| format!("wal append: {e}"))?;
        }
        drop(root);

        while next_query.next_if(|&&q| q <= range.end).is_some() {
            let root = tracer.root("replay_query");
            let ctx = root.context();
            let t = Instant::now();
            let dirty = engine.take_dirty();
            let recluster_input = engine.recluster_input();
            if since_full >= RECLUSTER_FULL_EVERY {
                cache = None;
            }
            let run = {
                let _s = tracer.child("cluster.recluster", ctx);
                recluster_input.compute_incremental(RECLUSTER_THREADS, Some(&dirty), &mut cache)
            };
            let recluster_ms = t.elapsed().as_secs_f64() * 1e3;
            if run.incremental {
                since_full += 1;
                incremental_runs += 1;
                inc_ms.push(recluster_ms);
            } else {
                since_full = 0;
                full_ms.push(recluster_ms);
            }
            engine.install_clustering(run.clustering, t.elapsed(), &run.shard_count_seconds);
            let t_choose = Instant::now();
            {
                let _s = tracer.child("manager.choose", ctx);
                std::hint::black_box(engine.choose_hoard(BUDGET, &|_| FILE_SIZE));
            }
            choose_ms.push(t_choose.elapsed().as_secs_f64() * 1e3);
            // A hoard answer is recluster + choose; the full priority
            // ranking (what the quality evaluator and `explain` use) is
            // timed beside it, outside the query's work.
            out.query_work_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t_rank = Instant::now();
            {
                let _s = tracer.child("manager.rank", ctx);
                std::hint::black_box(engine.rank());
            }
            rank_ms.push(t_rank.elapsed().as_secs_f64() * 1e3);
            drop(root);
            if out.query_work_ms.len() % FULL_SAMPLE_EVERY == 1 {
                let _s = tracer.root("cluster.full_sample");
                let t = Instant::now();
                std::hint::black_box(recluster_input.compute(RECLUSTER_THREADS));
                full_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    wal.sync().map_err(|e| format!("wal sync: {e}"))?;

    let selfs = self_times(&tracer.snapshot());
    let per_event = |name: &str| -> f64 {
        selfs.get(name).map_or(0.0, |s| s.nanos as f64) / out.events.max(1) as f64
    };
    let observer = per_event("observer");
    let chain = per_event("observer+distance");
    let full_engine = per_event("engine");
    out.ns_per_event
        .insert("wire.encode", per_event("wire.encode"));
    out.ns_per_event
        .insert("wire.decode", per_event("wire.decode"));
    out.ns_per_event.insert("observer", observer);
    out.ns_per_event.insert("distance", chain - observer);
    out.ns_per_event.insert("engine.apply", full_engine);
    out.ns_per_event.insert(
        "wal.append",
        selfs.get("wal.append").map_or(0.0, |s| s.nanos as f64) / wal_appended.max(1) as f64,
    );
    out.wire_bytes_per_event = wire_bytes as f64 / out.events.max(1) as f64;
    out.observations_per_event =
        engine.correlator().distance().stats().observations as f64 / out.events.max(1) as f64;
    out.wal_bytes_per_event = dir_bytes(&wal_dir)? as f64 / wal_appended.max(1) as f64;
    out.cluster_incremental_ms = median(&inc_ms);
    out.cluster_full_ms = median(&full_ms);
    out.cluster_incremental_share = incremental_runs as f64 / out.query_work_ms.len().max(1) as f64;
    out.rank_ms = median(&rank_ms);
    out.choose_ms = median(&choose_ms);

    recovery_layers(input, tracer, &engine, &wal_dir, wal_appended, &mut out)?;
    out.quality_eval_ms = quality_eval_ms(tracer, &engine);
    Ok(out)
}

/// Times the crash-recovery layers against the replay's final state:
/// snapshot write and load, and a full replay of the in-process WAL.
fn recovery_layers(
    input: &Input<'_>,
    tracer: &Tracer,
    engine: &SeerEngine,
    wal_dir: &Path,
    wal_events: u64,
    out: &mut Layers,
) -> Result<(), String> {
    let snap_path = input.dir.join("layers-snapshot.json");
    let root = tracer.root("replay_recovery");
    let ctx = root.context();
    let t = Instant::now();
    {
        let _s = tracer.child("snapshot.write", ctx);
        DaemonSnapshot {
            engine: engine.snapshot(),
            events_applied: out.events,
        }
        .write_atomic(&snap_path)
        .map_err(|e| format!("snapshot write: {e}"))?;
    }
    out.snapshot_write_ms = t.elapsed().as_secs_f64() * 1e3;
    out.snapshot_bytes = std::fs::metadata(&snap_path)
        .map_err(|e| format!("snapshot size: {e}"))?
        .len() as f64;
    let t = Instant::now();
    {
        let _s = tracer.child("snapshot.load", ctx);
        let snap = DaemonSnapshot::load(&snap_path)
            .map_err(|e| format!("snapshot load: {e}"))?
            .ok_or("snapshot vanished")?;
        std::hint::black_box(SeerEngine::from_snapshot(snap.engine));
    }
    out.snapshot_load_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let replayed = {
        let _s = tracer.child("wal.replay", ctx);
        let (wal, _) = Wal::open(WalConfig::new(wal_dir)).map_err(|e| format!("wal: {e}"))?;
        let mut replayer = Replayer::new(SeerEngine::default(), StringTable::new(), 0);
        wal.replay(|record| {
            match record {
                WalRecord::Interns { base, paths } => replayer.declare(base, &paths),
                WalRecord::Batch { generation, events } => {
                    replayer.apply(generation, &events);
                }
            }
            true
        })
        .map_err(|e| format!("wal replay: {e}"))?;
        replayer.events_applied()
    };
    if replayed != wal_events {
        return Err(format!(
            "wal replay reached {replayed} of {wal_events} appended events"
        ));
    }
    out.wal_replay_ns_per_event = t.elapsed().as_secs_f64() * 1e9 / wal_events.max(1) as f64;
    Ok(())
}

/// One quality evaluation as the daemon's evaluator runs it: freeze the
/// evaluation input, rank, and size the miss-free hoard over the
/// trailing window.
fn quality_eval_ms(tracer: &Tracer, engine: &SeerEngine) -> f64 {
    let _s = tracer.root("quality.eval");
    let t = Instant::now();
    let input = engine.eval_input();
    let refs = input.activity().export();
    let now = refs
        .iter()
        .map(|(_, r)| r.time.as_secs())
        .max()
        .unwrap_or(0);
    let cutoff = now.saturating_sub(EVAL_WINDOW_SECS);
    let needed: HashSet<FileId> = refs
        .iter()
        .filter(|(_, r)| r.time.as_secs() > cutoff)
        .map(|(f, _)| *f)
        .collect();
    let mut sizes = |_f: FileId| FILE_SIZE;
    std::hint::black_box(seer_sim::miss_free_size(&input.rank(), &needed, &mut sizes));
    t.elapsed().as_secs_f64() * 1e3
}

/// Total bytes of the regular files directly inside `dir`.
fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("reading {}: {e}", dir.display()))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}
