//! Integration tests for the live hoard-quality plane: the online
//! evaluator must agree exactly with an offline `seer_sim` evaluation of
//! the same events, decision provenance must be queryable over the wire,
//! and recorded misses must leave reconstructable postmortems behind.

use seer_core::SeerEngine;
use seer_daemon::{Daemon, DaemonClient, DaemonConfig};
use seer_telemetry::MetricValue;
use seer_trace::wire::{QueryRequest, QueryResponse};
use seer_trace::{EventSink, FileId};
use seer_workload::{generate, MachineProfile};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-qtest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn machine_a_trace(days: u32, seed: u64) -> seer_trace::Trace {
    let profile = MachineProfile::by_name("A")
        .expect("machine A is built in")
        .scaled_to_days(days);
    generate(&profile, seed).trace
}

/// The tentpole property: the daemon's online quality report carries
/// exactly the miss-free hoard size an offline replay computes with
/// `seer_sim::miss_free_size` over the same snapshot — same events, same
/// window, same uniform size model.
#[test]
fn online_quality_equals_offline_missfree() {
    let trace = machine_a_trace(12, 7);
    let window_secs: u64 = 86_400;
    let file_size: u64 = 1024;

    // Offline: replay, recluster, freeze the same evaluation input the
    // daemon freezes, and score it with the simulator's metric.
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    engine.recluster();
    let input = engine.eval_input();
    let refs = input.activity().export();
    let now = refs
        .iter()
        .map(|(_, r)| r.time.as_secs())
        .max()
        .unwrap_or(0);
    let cutoff = now.saturating_sub(window_secs);
    let needed: HashSet<FileId> = refs
        .iter()
        .filter(|(_, r)| r.time.as_secs() > cutoff)
        .map(|(f, _)| *f)
        .collect();
    assert!(
        !needed.is_empty(),
        "the last day of machine A touches files"
    );
    assert!(
        needed.len() < refs.len(),
        "a one-day window excludes older files"
    );
    let mut sizes = |_f: FileId| file_size;
    let offline = seer_sim::miss_free_size(&input.rank(), &needed, &mut sizes);
    let offline_ws = seer_sim::working_set_bytes(&needed, &mut sizes);

    // Online: stream, flush, pin a fresh clustering, ask for quality.
    let dir = scratch("equiv");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.eval_window_secs = window_secs;
    cfg.file_size = file_size;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "quality-equiv").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.len() as u64);
    match client
        .query(QueryRequest::Hoard {
            budget: 1 << 20,
            fresh: true,
        })
        .expect("pin clustering")
    {
        QueryResponse::Hoard { stale, .. } => assert!(!stale),
        other => panic!("unexpected response: {other:?}"),
    }
    let (report, series) = client.quality().expect("quality");
    drop(client);
    handle.shutdown();

    assert_eq!(report.generation, trace.len() as u64);
    assert_eq!(report.clustering_generation, trace.len() as u64);
    assert_eq!(report.window_secs, window_secs);
    assert_eq!(report.needed_files, needed.len());
    assert_eq!(report.working_set_bytes, offline_ws);
    assert_eq!(
        report.seer_missfree_bytes, offline.bytes,
        "online evaluator agrees bit-for-bit with seer_sim::miss_free_size"
    );
    assert_eq!(report.seer_uncovered, offline.uncovered);

    // The LRU comparator scored the same needed set: its miss-free size
    // is at least the working set lower bound and it covered something
    // (every needed file went through the shadow on the apply path).
    assert!(report.lru_missfree_bytes >= report.working_set_bytes);
    assert!(
        report.lru_uncovered < report.needed_files,
        "the shadow LRU saw recent files"
    );

    // The series history behind `seer top` sparklines has at least this
    // evaluation's points and renders.
    let s = series.get("seer_missfree_bytes").expect("series present");
    assert!(!s.points.is_empty());
    assert_eq!(s.last(), Some(report.seer_missfree_bytes as f64));
    assert!(!seer_telemetry::render_sparkline(&s.points).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// The offline miss-free bytes of machine A's `trace` over the last
/// `window_secs`, scored as the daemon's evaluator scores it.
fn offline_missfree_bytes(trace: &seer_trace::Trace, window_secs: u64, file_size: u64) -> u64 {
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    engine.recluster();
    let input = engine.eval_input();
    let refs = input.activity().export();
    let now = refs.iter().map(|(_, r)| r.time.as_secs()).max();
    let cutoff = now.unwrap_or(0).saturating_sub(window_secs);
    let needed: HashSet<FileId> = refs
        .iter()
        .filter(|(_, r)| r.time.as_secs() > cutoff)
        .map(|(f, _)| *f)
        .collect();
    seer_sim::miss_free_size(&input.rank(), &needed, &mut |_| file_size).bytes
}

/// A `Quality` answer reflects everything applied even when no query
/// pinned a clustering first: the daemon reclusters to the current
/// generation before it evaluates, as a fresh hoard does, so the answer
/// depends on the applied events alone, not on background timing.
#[test]
fn quality_without_a_pinning_hoard_equals_offline_missfree() {
    let trace = machine_a_trace(12, 7);
    let (window_secs, file_size) = (86_400, 1024);
    let offline = offline_missfree_bytes(&trace, window_secs, file_size);

    let dir = scratch("unpinned");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.eval_window_secs = window_secs;
    cfg.file_size = file_size;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "unpinned").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.len() as u64);
    let (report, _) = client.quality().expect("quality");
    drop(client);
    handle.shutdown();

    assert_eq!(report.generation, trace.len() as u64);
    assert_eq!(report.clustering_generation, trace.len() as u64);
    assert_eq!(report.seer_missfree_bytes, offline);
    std::fs::remove_dir_all(&dir).ok();
}

/// Decision provenance over the wire: a hoarded file explains itself
/// with a rank and at least one scored semantic neighbor backed by
/// evidence, and an unknown path is an in-band error.
#[test]
fn explain_reports_rank_and_evidence() {
    let trace = machine_a_trace(10, 21);
    let dir = scratch("explain");
    let cfg = DaemonConfig::new(dir.join("sock"));
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "explain").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    client.flush().expect("flush");
    let files = match client
        .query(QueryRequest::Hoard {
            budget: 1 << 20,
            fresh: true,
        })
        .expect("hoard")
    {
        QueryResponse::Hoard { files, .. } => files,
        other => panic!("unexpected response: {other:?}"),
    };
    assert!(!files.is_empty(), "hoard selects something");

    // Hoards also pull in files never directly referenced (whole-project
    // membership); provenance is most interesting for a referenced one.
    let explained = files
        .iter()
        .map(|f| client.explain(f).expect("explain a hoarded file"))
        .find(|r| matches!(r, QueryResponse::Explain { ref_count, .. } if *ref_count > 0))
        .expect("some hoarded file was directly referenced");
    match explained {
        QueryResponse::Explain {
            path,
            rank,
            ranked,
            ref_count,
            neighbors,
            generation,
            stale,
            ..
        } => {
            assert!(files.contains(&path));
            let r = rank.expect("a referenced hoarded file is ranked");
            assert!(r < ranked);
            assert!(ref_count > 0);
            assert!(
                !neighbors.is_empty(),
                "a referenced hoarded file has semantic neighbors"
            );
            assert!(
                neighbors.iter().all(|n| n.evidence > 0),
                "every neighbor is backed by observations: {neighbors:?}"
            );
            assert!(
                neighbors.windows(2).all(|w| w[0].distance <= w[1].distance),
                "neighbors come closest-first"
            );
            assert_eq!(generation, trace.len() as u64);
            assert!(!stale, "explain after a fresh hoard reuses the clustering");
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Unknown paths fail in-band without tearing down the connection.
    assert!(client.explain("/no/such/file").is_err());
    match client.query(QueryRequest::Health).expect("still alive") {
        QueryResponse::Health { healthy, .. } => assert!(healthy),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hoard miss observed in the event stream (an open failing with
/// `NotHoarded`) leaves a postmortem behind that records what the daemon
/// knew about the file at that moment, fetchable by id. The daemon
/// reclusters before it captures, so the postmortem's clustering is at
/// its generation and its rank is the file's position in an offline
/// replay's ranking at that generation.
#[test]
fn recorded_miss_leaves_a_postmortem() {
    use seer_trace::{ErrorKind, OpenMode, Pid, Timestamp, TraceBuilder};
    let mut b = TraceBuilder::new();
    let pid = Pid(7);
    b.advance(Timestamp::from_secs(10));
    b.exec(pid, "/usr/bin/latex");
    for _ in 0..4 {
        b.touch(pid, "/home/u/beta/x.tex", OpenMode::Read);
        b.touch(pid, "/home/u/beta/y.bib", OpenMode::Read);
        b.advance(Timestamp::from_secs(60));
    }
    b.exit(pid);
    // Later, disconnected, the user needs a beta file that was not
    // hoarded: the failed open is the miss.
    b.advance(Timestamp::from_secs(3600));
    b.open_err(
        Pid(8),
        "/home/u/beta/x.tex",
        OpenMode::Read,
        ErrorKind::NotHoarded,
    );
    let trace = b.build();

    let dir = scratch("postmortem");
    let cfg = DaemonConfig::new(dir.join("sock"));
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "postmortem").expect("connect");
    client.send_trace(&trace, 8).expect("send");
    client.flush().expect("flush");

    let all = client.misses(None).expect("postmortems");
    assert_eq!(all.len(), 1, "exactly the one failed open: {all:?}");
    let pm = &all[0];
    assert_eq!(pm.path, "/home/u/beta/x.tex");
    assert!(pm.auto, "detected from the stream, not user-graded");
    assert_eq!(pm.severity, None);
    assert!(pm.generation > 0, "tied to a WAL generation for replay");
    assert_eq!(pm.clustering_generation, pm.generation);
    let mut engine = SeerEngine::default();
    let at = usize::try_from(pm.generation).expect("small trace");
    engine.on_batch(&trace.events[..at], &trace.strings);
    engine.recluster();
    let file = engine.paths().get(&pm.path).expect("known path");
    let rank = engine.rank();
    assert_eq!(pm.rank, rank.iter().position(|&f| f == file));
    assert_eq!(pm.ranked, rank.len());
    assert!(
        pm.neighbors.iter().any(|n| n.path == "/home/u/beta/y.bib"),
        "the co-referenced file shows up as a neighbor: {:?}",
        pm.neighbors
    );

    // Fetch by id round-trips; a bogus id is an in-band error.
    let one = client.misses(Some(pm.id)).expect("by id");
    assert_eq!(one.len(), 1);
    assert_eq!(&one[0], pm);
    assert!(client.misses(Some(pm.id + 1000)).is_err());
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The background evaluator runs on its own cadence: with a fast eval
/// interval, quality gauges and the eval counter move without any
/// client ever asking a Quality query.
#[test]
fn background_evaluator_populates_metrics() {
    let trace = machine_a_trace(6, 3);
    let dir = scratch("bgeval");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.tick = Duration::from_millis(10);
    cfg.eval_every = Duration::from_millis(1);
    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "bgeval").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    client.flush().expect("flush");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let m = handle.metrics();
        if m.counter("seer_daemon_quality_evals_total").unwrap_or(0) > 0 {
            let working_set = m.find_with(
                "seer_daemon_quality_working_set_bytes",
                &[("tenant", "default")],
            );
            assert!(
                working_set
                    .is_some_and(|g| matches!(g.value, MetricValue::Gauge { value } if value > 0)),
                "gauges follow the report: {working_set:?}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no background evaluation within 5s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
