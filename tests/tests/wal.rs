//! Durability integration tests for the daemon's write-ahead log: a
//! killed daemon must lose nothing acknowledged under `fsync=always`,
//! recovery must replay to exactly the online≡offline state, torn tails
//! must truncate instead of wedging, and point-in-time restore must
//! reproduce the answers the live daemon gave at that generation.

use seer_core::SeerEngine;
use seer_daemon::{Daemon, DaemonClient, DaemonConfig, DaemonSnapshot, FsyncPolicy};
use seer_trace::wire::{QueryRequest, QueryResponse};
use seer_trace::EventSink;
use seer_workload::{generate, MachineProfile};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-wtest-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn machine_a_trace(days: u32, seed: u64) -> seer_trace::Trace {
    let profile = MachineProfile::by_name("A")
        .expect("machine A is built in")
        .scaled_to_days(days);
    generate(&profile, seed).trace
}

/// Offline reference: replay a prefix of the trace event by event,
/// recluster, and select — the answer a daemon at that generation must
/// reproduce (with the daemon's uniform 1024-byte file-size model).
fn offline_hoard(trace: &seer_trace::Trace, prefix: usize, budget: u64) -> (Vec<String>, u64) {
    let mut engine = SeerEngine::default();
    for ev in &trace.events[..prefix] {
        engine.on_event(ev, &trace.strings);
    }
    select_offline(engine, budget)
}

/// Offline reference for a daemon that recovered from a snapshot at
/// generation `snapshot` plus a log replay up to `prefix`: the same
/// events, with a snapshot round trip at that generation. A snapshot
/// keeps the engine's knowledge but not its per-process state (see
/// `seer_core::persist`), so this can differ from an uninterrupted
/// replay when a process spans the snapshot.
fn offline_hoard_restored(
    trace: &seer_trace::Trace,
    snapshot: usize,
    prefix: usize,
    budget: u64,
) -> (Vec<String>, u64) {
    let mut engine = SeerEngine::default();
    for ev in &trace.events[..snapshot] {
        engine.on_event(ev, &trace.strings);
    }
    let mut engine = SeerEngine::from_snapshot(engine.snapshot());
    for ev in &trace.events[snapshot..prefix] {
        engine.on_event(ev, &trace.strings);
    }
    select_offline(engine, budget)
}

fn select_offline(mut engine: SeerEngine, budget: u64) -> (Vec<String>, u64) {
    engine.recluster();
    let sel = engine.choose_hoard(budget, &|_| 1024);
    let files = sel
        .files
        .iter()
        .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
        .collect();
    (files, sel.bytes)
}

fn fresh_hoard(client: &mut DaemonClient, budget: u64) -> (Vec<String>, u64, u64) {
    match client
        .query(QueryRequest::Hoard {
            budget,
            fresh: true,
        })
        .expect("hoard query")
    {
        QueryResponse::Hoard {
            files,
            bytes,
            generation,
            ..
        } => (files, bytes, generation),
        other => panic!("unexpected response: {other:?}"),
    }
}

fn applied_events(client: &mut DaemonClient) -> u64 {
    match client.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health { events_applied, .. } => events_applied,
        other => panic!("unexpected response: {other:?}"),
    }
}

/// Acknowledged means durable: under `fsync=always` with no snapshots at
/// all, a kill immediately after a flush ack (with more unacknowledged
/// events already in flight) recovers every acknowledged event from the
/// WAL alone, and the recovered daemon converges to the exact offline
/// answer once the rest of the trace is streamed.
#[test]
fn kill_during_append_loses_no_acknowledged_events() {
    let trace = machine_a_trace(10, 23);
    let half = trace.events.len() / 2;
    let budget: u64 = 2_000_000;
    let dir = scratch("ack");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.wal_fsync = FsyncPolicy::Always;

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "ack1").expect("connect");
    for chunk in trace.events[..half].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), half as u64, "acknowledged");
    // Sustained ingest continues past the ack; these events race the kill
    // and may or may not survive — the acknowledged prefix must.
    for chunk in trace.events[half..].chunks(64) {
        let _ = client.send_events(chunk, &trace.strings);
    }
    drop(client);
    handle.kill();

    let handle = Daemon::spawn(cfg).expect("respawn from wal only");
    let mut client = DaemonClient::connect(handle.socket_path(), "ack2").expect("reconnect");
    let recovered = applied_events(&mut client);
    assert!(
        recovered >= half as u64,
        "recovered {recovered} events, acknowledged {half}"
    );
    assert!(
        recovered <= trace.events.len() as u64,
        "recovery never invents events"
    );
    // Stream whatever the log did not capture; the flush ack counts only
    // this connection, so converge on the daemon's total instead.
    for chunk in trace.events[recovered as usize..].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    client.flush().expect("flush");
    let (files, bytes, generation) = fresh_hoard(&mut client, budget);
    assert_eq!(generation, trace.events.len() as u64);
    let (offline_files, offline_bytes) = offline_hoard(&trace, trace.events.len(), budget);
    assert_eq!(files, offline_files, "online after crash equals offline");
    assert_eq!(bytes, offline_bytes);
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshots are written on the shard's worker, and one that cannot be
/// written is only a missed snapshot: acknowledgements keep flowing,
/// nothing counts as written, and the log keeps every segment, since no
/// good snapshot covers them. Once the obstacle is gone the next
/// snapshot lands and compacts the log through its own generation.
#[test]
fn failed_snapshot_writes_keep_acks_and_the_whole_log() {
    let trace = machine_a_trace(10, 37);
    let half = trace.events.len() / 2;
    let dir = scratch("snapfail");
    let db = dir.join("db.json");
    // The worker's temp file cannot be created over a directory
    // (EISDIR); permission bits would not stop a root test run.
    let blocker = dir.join("db.json.tmp");
    std::fs::create_dir_all(&blocker).expect("mkdir");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(db.clone());
    cfg.snapshot_every = 512;
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.wal_segment_bytes = 4 * 1024;

    let handle = Daemon::spawn(cfg).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "snapfail").expect("connect");
    for chunk in trace.events[..half].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), half as u64, "acks continue");
    assert!(half > 4 * 512, "several snapshot periods passed");
    let metrics = handle.metrics();
    assert!(metrics.counter("seer_wal_rotations_total").unwrap_or(0) > 1);
    assert_eq!(metrics.counter("seer_daemon_snapshots_total"), Some(0));
    assert_eq!(
        metrics.counter("seer_wal_segments_compacted_total"),
        Some(0)
    );
    assert!(!db.exists(), "no snapshot was published");

    std::fs::remove_dir(&blocker).expect("rmdir");
    for chunk in trace.events[half..].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), trace.events.len() as u64);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let metrics = handle.metrics();
        let written = metrics.counter("seer_daemon_snapshots_total").unwrap_or(0);
        let compacted = metrics
            .counter("seer_wal_segments_compacted_total")
            .unwrap_or(0);
        if written > 0 && compacted > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no snapshot landed and compacted ({written} written, {compacted} compacted)"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let snap = DaemonSnapshot::load(&db)
        .expect("readable")
        .expect("written");
    assert!(snap.events_applied > half as u64);
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Tiny segments force a rotation every few batches, so recovery walks
/// many sealed segments (each self-contained, re-declaring the string
/// table). A kill right after the final ack must replay the whole stream
/// back to the exact offline state.
#[test]
fn kill_after_rotation_heavy_ingest_replays_exactly() {
    let trace = machine_a_trace(8, 29);
    let budget: u64 = 2_000_000;
    let dir = scratch("rot");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.wal_fsync = FsyncPolicy::Always;
    cfg.wal_segment_bytes = 16 * 1024; // rotate constantly

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "rot1").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.events.len() as u64);
    let rotations = handle
        .metrics()
        .counter("seer_wal_rotations_total")
        .unwrap_or(0);
    assert!(rotations > 1, "ingest rotated segments ({rotations})");
    drop(client);
    handle.kill();

    let segs = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "seg"))
        })
        .count();
    assert!(segs > 1, "multiple segments on disk ({segs})");

    let handle = Daemon::spawn(cfg).expect("respawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "rot2").expect("reconnect");
    assert_eq!(
        applied_events(&mut client),
        trace.events.len() as u64,
        "every acknowledged event recovered across rotations"
    );
    let (files, bytes, _) = fresh_hoard(&mut client, budget);
    let (offline_files, offline_bytes) = offline_hoard(&trace, trace.events.len(), budget);
    assert_eq!(files, offline_files, "multi-segment replay equals offline");
    assert_eq!(bytes, offline_bytes);
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn tail — garbage after the last complete record, as a crash
/// mid-write leaves behind — is truncated on recovery, not fatal, and
/// everything before it survives.
#[test]
fn torn_wal_tail_is_truncated_not_fatal() {
    let trace = machine_a_trace(6, 31);
    let dir = scratch("torn");
    let wal_dir = dir.join("wal");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(wal_dir.clone());
    cfg.wal_fsync = FsyncPolicy::Always;

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "torn1").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.events.len() as u64);
    drop(client);
    handle.kill();

    // Tear the newest segment: a half-written header plus junk.
    let newest = newest_segment(&wal_dir);
    let mut bytes = std::fs::read(&newest).expect("read segment");
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&newest, &bytes).expect("tear tail");

    let handle = Daemon::spawn(cfg).expect("respawn over torn tail");
    let mut client = DaemonClient::connect(handle.socket_path(), "torn2").expect("reconnect");
    assert_eq!(
        applied_events(&mut client),
        trace.events.len() as u64,
        "every complete record before the tear recovered"
    );
    assert_eq!(
        std::fs::metadata(&newest).expect("segment").len(),
        clean_len as u64,
        "the torn bytes were truncated away"
    );
    let (files, _, _) = fresh_hoard(&mut client, 1 << 20);
    assert!(!files.is_empty(), "recovered daemon still answers");
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn newest_segment(wal_dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(wal_dir)
        .expect("wal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    segs.sort();
    segs.pop().expect("at least one segment")
}

/// Point-in-time restore: the `History` wire query and a daemon
/// restarted with `restore_to` must both reproduce exactly the hoard the
/// live daemon answered at that generation — even though the daemon has
/// long since moved past it.
#[test]
fn restore_to_reproduces_the_answers_the_daemon_gave() {
    let trace = machine_a_trace(10, 37);
    let half = trace.events.len() / 2;
    let budget: u64 = 2_000_000;
    let dir = scratch("restore");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(dir.join("db.json"));
    cfg.wal_dir = Some(dir.join("wal"));

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut client = DaemonClient::connect(handle.socket_path(), "live").expect("connect");
    for chunk in trace.events[..half].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), half as u64);
    let (half_files, half_bytes, g) = fresh_hoard(&mut client, budget);
    assert_eq!(g, half as u64, "the flush pinned a batch boundary at half");

    for chunk in trace.events[half..].chunks(64) {
        client.send_events(chunk, &trace.strings).expect("send");
    }
    assert_eq!(client.flush().expect("flush"), trace.events.len() as u64);
    let (full_files, _, _) = fresh_hoard(&mut client, budget);
    assert_ne!(
        half_files, full_files,
        "the trace grows enough that the two generations answer differently"
    );

    // The live daemon replays its own log prefix for a History query.
    match client
        .query(QueryRequest::History {
            generation: half as u64,
            budget,
        })
        .expect("history query")
    {
        QueryResponse::History {
            generation,
            files,
            bytes,
            ..
        } => {
            assert_eq!(generation, half as u64);
            assert_eq!(files, half_files, "history equals the answer given then");
            assert_eq!(bytes, half_bytes);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();

    // A restored daemon rewinds its whole timeline to that generation.
    let mut restore_cfg = cfg.clone();
    restore_cfg.restore_to = Some(half as u64);
    let handle = Daemon::spawn(restore_cfg).expect("restore");
    let mut client = DaemonClient::connect(handle.socket_path(), "restored").expect("connect");
    assert_eq!(applied_events(&mut client), half as u64);
    let (files, bytes, g) = fresh_hoard(&mut client, budget);
    assert_eq!(g, half as u64);
    assert_eq!(files, half_files, "restored daemon answers as it did then");
    assert_eq!(bytes, half_bytes);
    drop(client);
    handle.shutdown();

    // The restore rewrote the snapshot, so a plain restart stays at the
    // restored generation instead of resurrecting the discarded suffix.
    let handle = Daemon::spawn(cfg).expect("plain restart");
    let mut client = DaemonClient::connect(handle.socket_path(), "after").expect("connect");
    assert_eq!(
        applied_events(&mut client),
        half as u64,
        "discarded history stays discarded"
    );
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Named tenants recover lazily, on first contact, through the same
/// snapshot + WAL path as the eagerly restored default tenant. With
/// small periodic snapshots each tenant restarts from a snapshot base
/// plus a replayed log tail; after a kill, the default tenant and two
/// named ones must each hold exactly their acknowledged events and
/// answer a fresh hoard equal to an offline replay of that prefix
/// through the same snapshot.
#[test]
fn named_tenants_recover_their_acked_prefix_after_a_kill() {
    let budget: u64 = 2_000_000;
    let dir = scratch("tenants");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(dir.join("wal"));
    cfg.snapshot_path = Some(dir.join("db.json"));
    cfg.snapshot_every = 512;
    let tenants = [(None, 41u64), (Some("alpha"), 43), (Some("beta"), 47)];
    let traces: Vec<_> = tenants
        .iter()
        .map(|&(_, seed)| machine_a_trace(6, seed))
        .collect();
    let connect = |socket: &Path, tenant: Option<&str>, client: &str| match tenant {
        Some(t) => DaemonClient::connect_tenant(socket, client, t).expect("connect"),
        None => DaemonClient::connect(socket, client).expect("connect"),
    };

    let handle = Daemon::spawn(cfg.clone()).expect("spawn");
    let mut acked = Vec::new();
    for (&(tenant, _), trace) in tenants.iter().zip(&traces) {
        let mut client = connect(handle.socket_path(), tenant, "load");
        let prefix = trace.events.len() * 3 / 4;
        for chunk in trace.events[..prefix].chunks(64) {
            client.send_events(chunk, &trace.strings).expect("send");
        }
        acked.push(client.flush().expect("flush"));
    }
    handle.kill();
    let snapshots: Vec<u64> = tenants
        .iter()
        .map(|&(tenant, _)| {
            let path = dir.join(tenant.map_or("db.json".into(), |t| format!("db.json.{t}")));
            DaemonSnapshot::load(&path)
                .expect("snapshot loads")
                .expect("snapshotted before the kill")
                .events_applied
        })
        .collect();

    let handle = Daemon::spawn(cfg).expect("respawn");
    for (((&(tenant, _), trace), &acked), &snapshot) in
        tenants.iter().zip(&traces).zip(&acked).zip(&snapshots)
    {
        assert!(
            snapshot > 0 && snapshot <= acked,
            "{tenant:?} at {snapshot}"
        );
        let mut client = connect(handle.socket_path(), tenant, "check");
        assert_eq!(
            applied_events(&mut client),
            acked,
            "{tenant:?} recovered its acknowledged events"
        );
        let (files, bytes, generation) = fresh_hoard(&mut client, budget);
        assert_eq!(generation, acked);
        let (offline_files, offline_bytes) =
            offline_hoard_restored(trace, snapshot as usize, acked as usize, budget);
        assert_eq!(files, offline_files, "{tenant:?} online equals offline");
        assert_eq!(bytes, offline_bytes);
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `restore_to` without a WAL cannot work and must fail loudly instead
/// of silently starting from the latest snapshot.
#[test]
fn restore_without_a_wal_is_refused() {
    let dir = scratch("norestore");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.restore_to = Some(10);
    match Daemon::spawn(cfg) {
        Err(e) => assert!(
            e.to_string().contains("restore"),
            "error explains itself: {e}"
        ),
        Ok(_) => panic!("spawn must refuse restore without a wal"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
