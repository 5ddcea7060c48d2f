//! Integration tests for the streaming daemon: online ingestion must be
//! equivalent to offline replay, crashes must recover from the latest
//! snapshot, and the bounded pipeline must apply backpressure.

use seer_core::SeerEngine;
use seer_daemon::{Daemon, DaemonClient, DaemonConfig, DaemonSnapshot};
use seer_trace::wire::{QueryRequest, QueryResponse};
use seer_workload::{generate, MachineProfile};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-itest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn machine_a_trace(days: u32, seed: u64) -> seer_trace::Trace {
    let profile = MachineProfile::by_name("A")
        .expect("machine A is built in")
        .scaled_to_days(days);
    generate(&profile, seed).trace
}

/// The tentpole property: streaming a workload through the socket and
/// asking the live daemon for a hoard produces exactly the selection an
/// offline replay of the same trace produces. The daemon's uniform
/// file-size model (1024 bytes) is mirrored on the offline side.
#[test]
fn online_hoard_equals_offline_replay() {
    let trace = machine_a_trace(12, 7);
    let budget: u64 = 2_000_000;

    // Offline: replay, recluster, choose.
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    engine.recluster();
    let sel = engine.choose_hoard(budget, &|_| 1024);
    let offline: Vec<String> = sel
        .files
        .iter()
        .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
        .collect();
    assert!(!offline.is_empty(), "offline hoard selects something");

    // Online: stream in deliberately awkward chunks, flush, query.
    let dir = scratch("equiv");
    let cfg = DaemonConfig::new(dir.join("sock"));
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "equiv").expect("connect");
    client.send_trace(&trace, 7).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.len() as u64);
    let (online, online_bytes) = match client
        .query(QueryRequest::Hoard {
            budget,
            fresh: true,
        })
        .expect("query")
    {
        QueryResponse::Hoard {
            files,
            bytes,
            generation,
            stale,
            ..
        } => {
            assert_eq!(
                generation,
                trace.len() as u64,
                "fresh answer reflects every applied event"
            );
            assert!(!stale, "a fresh answer is never stale");
            (files, bytes)
        }
        other => panic!("unexpected response: {other:?}"),
    };
    // The clustering behind that answer matches the offline one
    // structurally too.
    match client
        .query(QueryRequest::Clusters { fresh: true })
        .expect("clusters")
    {
        QueryResponse::Clusters { count, .. } => {
            assert_eq!(
                count,
                engine.clustering().expect("offline clustering").len(),
                "online clustering has the same cluster count as offline"
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();

    assert_eq!(
        online, offline,
        "online hoard matches offline replay exactly"
    );
    assert_eq!(online_bytes, sel.bytes);
    std::fs::remove_dir_all(&dir).ok();
}

/// A daemon killed mid-stream (simulated crash: no final snapshot) must
/// restart from the latest periodic snapshot without corruption and keep
/// ingesting.
#[test]
fn killed_daemon_recovers_from_latest_snapshot() {
    let trace = machine_a_trace(10, 3);
    let half = trace.events.len() / 2;
    let dir = scratch("recover");
    let db = dir.join("db.json");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(db.clone());
    cfg.tick = Duration::from_millis(20);

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "phase1").expect("connect");
    for chunk in trace.events[..half].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), half as u64);

    // Wait for an idle-tick snapshot covering everything applied so far.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(Some(snap)) = DaemonSnapshot::load(&db) {
            if snap.events_applied >= half as u64 {
                break;
            }
        }
        assert!(Instant::now() < deadline, "no snapshot appeared within 5s");
        std::thread::sleep(Duration::from_millis(10));
    }

    // More events arrive, then the daemon dies abruptly — these may or
    // may not have reached the engine, and no final snapshot is written.
    for chunk in trace.events[half..].chunks(64) {
        let _ = client.send_events(chunk, &trace.strings);
    }
    drop(client);
    handle.kill();

    // The on-disk snapshot is intact and covers at least phase 1.
    let snap = DaemonSnapshot::load(&db)
        .expect("not corrupt")
        .expect("present");
    assert!(
        snap.events_applied >= half as u64,
        "snapshot covers the flushed prefix"
    );

    // A new daemon recovers from it and keeps working.
    let handle = Daemon::spawn(cfg).expect("respawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "phase2").expect("reconnect");
    match client.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health {
            healthy,
            events_applied,
            ..
        } => {
            assert!(healthy);
            assert!(
                events_applied >= half as u64,
                "recovered state, not a cold start"
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }
    for chunk in trace.events[half..].chunks(64) {
        client
            .send_events(chunk, &trace.strings)
            .expect("send after recovery");
    }
    client.flush().expect("flush after recovery");
    match client
        .query(QueryRequest::Hoard {
            budget: 1 << 20,
            fresh: true,
        })
        .expect("hoard")
    {
        QueryResponse::Hoard { files, .. } => {
            assert!(!files.is_empty(), "recovered daemon still selects a hoard");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// With a tiny bounded ingest channel and thousands of single-event
/// frames, producers must block rather than let the queue grow: the
/// deepest observed depth can never exceed the configured capacity, and
/// nothing is dropped.
#[test]
fn bounded_channels_apply_backpressure() {
    let trace = machine_a_trace(20, 11);
    let dir = scratch("backpressure");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.channel_capacity = 4;
    let capacity = cfg.channel_capacity;

    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "firehose").expect("connect");
    client
        .send_trace(&trace, 1)
        .expect("send one event per frame");
    assert_eq!(
        client.flush().expect("flush"),
        trace.len() as u64,
        "nothing dropped"
    );
    drop(client);
    let stats = handle.shutdown();

    assert_eq!(stats.events_received, trace.len() as u64);
    assert_eq!(stats.events_applied, trace.len() as u64);
    assert!(
        stats.max_queue_depth <= capacity,
        "queue depth {} must stay within the bound {capacity}",
        stats.max_queue_depth
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `metrics` query returns the daemon's full telemetry registry, and
/// the registry reflects what was actually ingested: pipeline counters
/// match the wire totals, every instrumented stage has recorded latency,
/// and engine-level counters (per-kind events, distance observations)
/// are live. The same snapshot renders as Prometheus text.
#[test]
fn metrics_query_reflects_ingestion() {
    let trace = machine_a_trace(10, 13);
    let dir = scratch("metrics");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(dir.join("db.json"));
    // Snapshots during the stream, and a recluster of all of it below,
    // so their stage histograms have observations by query time.
    cfg.snapshot_every = 1000;

    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "metrics").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.len() as u64);
    client
        .query(QueryRequest::Clusters { fresh: true })
        .expect("clusters");

    // Snapshots are written on the shard's worker, and counted once the
    // engine actor folds the worker's result in: poll until one is.
    let deadline = Instant::now() + Duration::from_secs(5);
    let snap = loop {
        let snap = match client.query(QueryRequest::Metrics).expect("query") {
            QueryResponse::Metrics { snapshot } => snapshot,
            other => panic!("unexpected response: {other:?}"),
        };
        let written = snap.counter("seer_daemon_snapshots_total").unwrap_or(0);
        if written > 0 || Instant::now() > deadline {
            break snap;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(client);
    let stats = handle.shutdown();

    // Pipeline counters in the registry match the legacy stats view.
    assert_eq!(
        snap.counter("seer_daemon_events_received_total"),
        Some(trace.len() as u64)
    );
    assert_eq!(
        snap.counter("seer_daemon_events_applied_total"),
        Some(trace.len() as u64)
    );
    assert_eq!(snap.counter("seer_daemon_connections_total"), Some(1));
    assert!(
        snap.gauge("seer_daemon_queue_depth").is_some(),
        "live queue gauge present"
    );
    assert!(snap.gauge("seer_daemon_uptime_seconds").is_some());

    // Every instrumented stage recorded at least one observation by now
    // (the query itself exercises socket_read and decode).
    for stage in ["socket_read", "decode", "engine_apply"] {
        let m = snap
            .find_with("seer_daemon_stage_seconds", &[("stage", stage)])
            .unwrap_or_else(|| panic!("stage {stage} registered"));
        match &m.value {
            seer_telemetry::MetricValue::Histogram { count, .. } => {
                assert!(*count > 0, "stage {stage} has observations");
                assert!(m.quantile(0.95).is_some(), "stage {stage} has a p95");
            }
            other => panic!("stage {stage} is not a histogram: {other:?}"),
        }
    }
    // Batches were applied and each apply was timed.
    let apply = snap
        .find_with("seer_daemon_stage_seconds", &[("stage", "engine_apply")])
        .expect("engine_apply stage");
    match &apply.value {
        seer_telemetry::MetricValue::Histogram { count, .. } => {
            assert_eq!(*count, stats.batches_applied, "one apply timing per batch");
        }
        other => panic!("not a histogram: {other:?}"),
    }
    // Reclusterings and snapshots left timings behind.
    assert!(
        snap.counter("seer_daemon_reclusters_total")
            .expect("counter")
            > 0
    );
    assert!(
        snap.counter("seer_daemon_snapshots_total")
            .expect("counter")
            > 0
    );

    // Engine-side instrumentation rode along in the same registry.
    let opens = snap
        .find_with("seer_engine_events_total", &[("kind", "open")])
        .expect("per-kind counter");
    assert!(
        matches!(opens.value, seer_telemetry::MetricValue::Counter { total } if total > 0),
        "opens counted: {opens:?}"
    );
    assert!(
        snap.counter("seer_distance_observations_total")
            .expect("counter")
            > 0
    );
    assert!(snap.gauge("seer_engine_files_known").expect("gauge") > 0);
    assert!(snap.gauge("seer_cluster_count").expect("gauge") > 0);

    // The snapshot renders as Prometheus text exposition.
    let text = seer_telemetry::render_prometheus(&snap);
    assert!(text.contains("# TYPE seer_daemon_stage_seconds histogram"));
    assert!(text.contains("seer_daemon_stage_seconds_bucket{stage=\"engine_apply\",le=\"+Inf\"}"));
    assert!(text.contains(&format!(
        "seer_daemon_events_received_total {}",
        trace.len()
    )));
    std::fs::remove_dir_all(&dir).ok();
}

/// Cluster on read: every answer that reads a clustering reclusters
/// first when the installed one lags the applied events. After more
/// events, `Clusters` and `Hoard` asking `fresh: false` and `Explain`
/// each answer at the applied count, never stale, and each equals an
/// offline replay of the same events plus a recluster: cluster count
/// and largest sizes, hoard files, and the explained file's rank and
/// memberships. With a cadence too long to evaluate again, only the
/// first batch's evaluation and the reads that found the clustering
/// behind recluster.
#[test]
fn every_reader_answers_at_the_applied_generation() {
    let trace = machine_a_trace(10, 17);
    let half = trace.events.len() / 2;
    let budget = 1 << 20;
    let dir = scratch("readers");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.eval_every = Duration::from_secs(3600);

    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "readers").expect("connect");
    for chunk in trace.events[..half].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), half as u64);
    match client
        .query(QueryRequest::Clusters { fresh: true })
        .expect("clusters at half")
    {
        QueryResponse::Clusters {
            generation, stale, ..
        } => assert_eq!((generation, stale), (half as u64, false)),
        other => panic!("unexpected response: {other:?}"),
    }
    for chunk in trace.events[half..].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    let applied = trace.len() as u64;
    assert_eq!(client.flush().expect("flush"), applied);

    // Offline: the same events, one recluster.
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    let clustering = engine.recluster().clone();
    let mut largest: Vec<usize> = clustering.clusters.iter().map(|c| c.len()).collect();
    largest.sort_unstable_by(|a, b| b.cmp(a));
    largest.truncate(8);
    let sel = engine.choose_hoard(budget, &|_| 1024);
    let resolve = |f: seer_trace::FileId| engine.paths().resolve(f).expect("known").to_owned();
    let hoard: Vec<String> = sel.files.iter().map(|&f| resolve(f)).collect();
    let ranking = engine.rank();
    let (pos, &file) = (ranking.iter().enumerate())
        .find(|&(_, &f)| !clustering.membership_summary(f).is_empty())
        .expect("a ranked file in a cluster");

    match client
        .query(QueryRequest::Clusters { fresh: false })
        .expect("clusters")
    {
        QueryResponse::Clusters {
            count,
            largest: online,
            generation,
            stale,
            ..
        } => {
            assert_eq!((generation, stale), (applied, false));
            assert_eq!((count, online), (clustering.len(), largest));
        }
        other => panic!("unexpected response: {other:?}"),
    }
    match client
        .query(QueryRequest::Hoard {
            budget,
            fresh: false,
        })
        .expect("hoard")
    {
        QueryResponse::Hoard {
            files,
            generation,
            stale,
            ..
        } => {
            assert_eq!((generation, stale), (applied, false));
            assert_eq!(files, hoard, "online hoard equals the offline one");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    match client.explain(&resolve(file)).expect("explain") {
        QueryResponse::Explain {
            rank,
            ranked,
            clusters,
            generation,
            stale,
            ..
        } => {
            assert_eq!((generation, stale), (applied, false));
            assert_eq!((rank, ranked), (Some(pos), ranking.len()));
            assert_eq!(clusters, clustering.membership_summary(file));
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    assert_eq!(
        handle.metrics().counter("seer_daemon_reclusters_total"),
        Some(3),
        "the first evaluation, then the two reads that found it behind"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing the daemon amid reclusterings must not corrupt anything: the
/// next daemon recovers from the last periodic snapshot and a hoard
/// query works.
#[test]
fn kill_during_background_recluster_recovers() {
    let trace = machine_a_trace(10, 19);
    let dir = scratch("killrec");
    let db = dir.join("db.json");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(db.clone());
    // A cadence that evaluates, and so reclusters, after every batch and
    // a small snapshot threshold keep that work running while the
    // stream does, so the kill lands amid it.
    cfg.eval_every = Duration::from_millis(1);
    cfg.snapshot_every = 500;
    cfg.tick = Duration::from_millis(10);

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "killrec").expect("connect");
    for chunk in trace.events.chunks(64) {
        let _ = client.send_events(chunk, &trace.strings);
    }
    // Wait for at least one periodic snapshot, then kill without flushing.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(Some(_)) = DaemonSnapshot::load(&db) {
            break;
        }
        assert!(Instant::now() < deadline, "no snapshot appeared within 5s");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(client);
    handle.kill();

    let snap = DaemonSnapshot::load(&db)
        .expect("snapshot not corrupt")
        .expect("snapshot present");
    assert!(snap.events_applied > 0, "snapshot covers applied events");

    let handle = Daemon::spawn(cfg).expect("respawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "killrec2").expect("reconnect");
    match client
        .query(QueryRequest::Hoard {
            budget: 1 << 20,
            fresh: true,
        })
        .expect("hoard after recovery")
    {
        QueryResponse::Hoard { files, stale, .. } => {
            assert!(!files.is_empty(), "recovered daemon selects a hoard");
            assert!(!stale, "fresh answer after recovery");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A graceful shutdown initiated over the wire applies every in-flight
/// event before the daemon exits.
#[test]
fn graceful_shutdown_flushes_in_flight_batches() {
    let trace = machine_a_trace(8, 5);
    let dir = scratch("graceful");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(dir.join("db.json"));

    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "bye").expect("connect");
    client.send_trace(&trace, 32).expect("send");
    // No explicit flush: the shutdown handshake itself must drain the
    // pipeline before acknowledging.
    client.shutdown().expect("shutdown handshake");
    let stats = handle.wait();

    assert_eq!(
        stats.events_applied,
        trace.len() as u64,
        "every event applied before exit"
    );
    let snap = DaemonSnapshot::load(&dir.join("db.json"))
        .expect("ok")
        .expect("written");
    assert_eq!(
        snap.events_applied,
        trace.len() as u64,
        "final snapshot covers everything"
    );
    std::fs::remove_dir_all(&dir).ok();
}
