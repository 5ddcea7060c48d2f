//! Integration tests for the connection hub: socket-ownership probing,
//! hostile-client blast radius, WAL fault degradation, multi-tenant
//! isolation, and the fleet query — over both Unix and TCP transports.

use seer_core::SeerEngine;
use seer_daemon::{Daemon, DaemonClient, DaemonConfig, DaemonError};
use seer_telemetry::MetricValue;
use seer_trace::wire::{self, ClientFrame, QueryRequest, QueryResponse, WIRE_VERSION};
use seer_trace::{EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp, Trace, TraceEvent};
use seer_workload::{generate, MachineProfile};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-hub-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn machine_trace(name: &str, days: u32, seed: u64) -> Trace {
    let profile = MachineProfile::by_name(name)
        .expect("paper machine")
        .scaled_to_days(days);
    generate(&profile, seed).trace
}

/// The offline single-stream truth the online per-tenant hoard must
/// match bit-for-bit (the daemon's uniform 1024-byte file model is
/// mirrored here).
fn offline_hoard(trace: &Trace, budget: u64) -> Vec<String> {
    let mut engine = SeerEngine::default();
    trace.replay(&mut engine);
    engine.recluster();
    let sel = engine.choose_hoard(budget, &|_| 1024);
    sel.files
        .iter()
        .filter_map(|&f| engine.paths().resolve(f).map(str::to_owned))
        .collect()
}

fn fresh_hoard(client: &mut DaemonClient, budget: u64) -> Vec<String> {
    match client
        .query(QueryRequest::Hoard {
            budget,
            fresh: true,
        })
        .expect("hoard query")
    {
        QueryResponse::Hoard { files, .. } => files,
        other => panic!("unexpected response: {other:?}"),
    }
}

/// Satellite 1: a second daemon must not steal a live daemon's socket —
/// it probes, sees the handshake answer, and refuses with a clear
/// error while the first daemon keeps serving.
#[test]
fn second_daemon_refuses_live_socket() {
    let dir = scratch("busy");
    let sock = dir.join("sock");
    let first = Daemon::spawn(DaemonConfig::new(&sock)).expect("first spawn");

    match Daemon::spawn(DaemonConfig::new(&sock)) {
        Err(DaemonError::SocketBusy(msg)) => {
            assert!(
                msg.contains("live daemon"),
                "error names the live owner: {msg}"
            );
        }
        Err(other) => panic!("expected SocketBusy, got {other}"),
        Ok(_) => panic!("second daemon stole the live socket"),
    }

    // The first daemon is unperturbed: it still answers a full
    // ingest + query exchange after the refused takeover attempt.
    let trace = machine_trace("A", 2, 1);
    let mut client = DaemonClient::connect(&sock, "after-refusal").expect("connect");
    client.send_trace(&trace, 64).expect("send");
    assert_eq!(client.flush().expect("flush"), trace.len() as u64);
    match client.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health { healthy, .. } => assert!(healthy),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    first.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The counterpart: a socket file nobody is listening on is provably
/// stale and gets reaped, so a crashed daemon's leftover never blocks
/// a restart.
#[test]
fn stale_socket_is_reaped() {
    let dir = scratch("stale");
    let sock = dir.join("sock");
    // Bind and drop: the file stays behind, the listener does not.
    drop(std::os::unix::net::UnixListener::bind(&sock).expect("bind"));
    assert!(sock.exists(), "stale socket file left behind");

    let handle = Daemon::spawn(DaemonConfig::new(&sock)).expect("spawn over stale socket");
    let mut client = DaemonClient::connect(&sock, "probe").expect("connect");
    match client.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health { healthy, .. } => assert!(healthy),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite 2: every class of hostile or broken client input kills
/// only its own connection. A well-behaved client connected the whole
/// time keeps working, and the daemon counts each casualty in
/// `seer_daemon_connection_errors_total`.
#[test]
fn hostile_clients_only_kill_their_own_connection() {
    let dir = scratch("hostile");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.tcp_addr = Some("127.0.0.1:0".into());
    let handle = Daemon::spawn(cfg).expect("spawn");
    let sock = handle.socket_path().to_path_buf();
    let tcp = handle.tcp_addr().expect("tcp bound");

    // The witness: a good client that connects before the abuse starts
    // and must still be serviceable after it ends.
    let trace = machine_trace("B", 2, 5);
    let mut good = DaemonClient::connect(&sock, "witness").expect("connect");
    good.send_trace(&trace, 64).expect("send");

    // 1. Garbage bytes (not valid UTF-8, not a binary frame).
    {
        let mut s = UnixStream::connect(&sock).expect("connect");
        s.write_all(b"\xff\xfe\xfd not a frame\n").expect("write");
        let _ = s.shutdown(std::net::Shutdown::Write);
    }
    // 2. Half-finished handshake: a JSON prefix, then a hangup with no
    //    newline, over TCP.
    {
        let mut s = TcpStream::connect(tcp).expect("connect");
        s.write_all(br#"{"type":"hello","clien"#).expect("write");
        drop(s);
    }
    // 3. Mid-frame disconnect: a binary events header promising 4096
    //    payload bytes, then only 10 of them.
    {
        let mut s = UnixStream::connect(&sock).expect("connect");
        let mut frame = vec![0xB6u8];
        frame.extend_from_slice(&4096u32.to_le_bytes());
        frame.extend_from_slice(&[0u8; 10]);
        s.write_all(&frame).expect("write");
        drop(s);
    }
    // 4. A binary frame claiming an absurd length: rejected from the
    //    6-byte header alone, before any allocation.
    {
        let mut s = TcpStream::connect(tcp).expect("connect");
        let mut frame = vec![0xB6u8];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let _ = s.write_all(&frame);
        drop(s);
    }
    // 5. An endless JSON line: the daemon refuses to buffer past the
    //    frame cap instead of growing without bound. The write may die
    //    with EPIPE once the daemon gives up — that's the point.
    {
        let mut s = UnixStream::connect(&sock).expect("connect");
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..70 {
            if s.write_all(&chunk).is_err() {
                break;
            }
        }
        drop(s);
    }
    // 6–7. A valid handshake, then a frame that breaks the interning
    //    rules: a sparse Intern id (a remap table indexed by it would
    //    need 2^32 entries) and an events frame naming an id that was
    //    never declared. The replies are drained to EOF so the Welcome
    //    is read before the socket closes.
    let open = TraceEvent {
        seq: Seq(0),
        time: Timestamp(0),
        pid: Pid(1),
        root: false,
        kind: EventKind::Open {
            path: RawPathId(0),
            mode: OpenMode::Read,
            fd: Fd(3),
        },
        error: None,
    };
    let mut sparse = Vec::new();
    wire::write_frame(
        &mut sparse,
        &ClientFrame::Intern {
            id: u32::MAX,
            path: "/x".into(),
        },
    )
    .expect("encode");
    for bad in [sparse, wire::encode_events_binary(&[open], None)] {
        let mut hello = Vec::new();
        wire::write_frame(
            &mut hello,
            &ClientFrame::Hello {
                client: "hostile".into(),
                version: WIRE_VERSION,
                tenant: None,
            },
        )
        .expect("encode");
        let mut s = UnixStream::connect(&sock).expect("connect");
        s.write_all(&hello).expect("hello");
        s.write_all(&bad).expect("write");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let _ = s.read_to_end(&mut Vec::new());
    }
    // 8. An events frame before any Hello.
    {
        let mut s = TcpStream::connect(tcp).expect("connect");
        let _ = s.write_all(&wire::encode_events_binary(&[open], None));
        drop(s);
    }
    // 9. A Hello at a version other than the daemon's.
    {
        let mut s = TcpStream::connect(tcp).expect("connect");
        let _ = s.write_all(b"{\"Hello\":{\"client\":\"old\",\"version\":7}}\n");
        drop(s);
    }
    // 10–11. A Hello naming a tenant outside the name rule, and one
    //    naming the default tenant's snapshot fallback (`<path>.prev`).
    for tenant in ["a b", "prev"] {
        let mut s = UnixStream::connect(&sock).expect("connect");
        let hello = ClientFrame::Hello {
            client: "hostile".into(),
            version: WIRE_VERSION,
            tenant: Some(tenant.into()),
        };
        wire::write_frame(&mut s, &hello).expect("hello");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let _ = s.read_to_end(&mut Vec::new());
    }

    // The connection-error counter catches up as the reader threads
    // notice their peers are gone; poll briefly rather than flake.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let errors = handle
            .metrics()
            .counter("seer_daemon_connection_errors_total")
            .unwrap_or(0);
        if errors >= 11 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "expected 11 connection errors, saw {errors}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // A refused tenant name is charged to the default tenant; it never
    // becomes a label.
    let labels = handle.metrics().metrics.into_iter().flat_map(|m| m.labels);
    assert!(labels
        .filter(|(key, _)| key == "tenant")
        .all(|(_, tenant)| tenant == "default"));

    // The witness connection survived every one of them.
    assert_eq!(good.flush().expect("flush"), trace.len() as u64);
    match good.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health {
            healthy,
            events_applied,
            ..
        } => {
            assert!(healthy, "daemon healthy after hostile clients");
            assert_eq!(events_applied, trace.len() as u64);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(good);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite 3: a WAL append failure (injected here; ENOSPC in life)
/// degrades gracefully — the faulted tenant stops being acknowledged
/// and reports unhealthy with the fault string, the actor does not
/// panic, and an unfaulted tenant on the same daemon is untouched.
#[test]
fn wal_fault_degrades_gracefully_and_stays_per_tenant() {
    let dir = scratch("walfault");
    let budget: u64 = 2_000_000;
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(dir.join("wal"));
    // The default tenant's first WAL append fails; tenant "good" is on
    // its own log and never faults.
    cfg.wal_fail_after = Some(0);
    let handle = Daemon::spawn(cfg).expect("spawn");

    // Machine C at 2 scaled days generates an empty trace (its activity
    // pattern needs a longer window) — 4 days gives a real workload.
    let faulted_trace = machine_trace("C", 4, 9);
    assert!(!faulted_trace.events.is_empty(), "fault test needs events");
    let good_trace = machine_trace("D", 2, 11);

    let mut faulted = DaemonClient::connect(handle.socket_path(), "faulted").expect("connect");
    faulted.send_trace(&faulted_trace, 64).expect("send");
    // Flush still answers (the pipeline is alive), but the dropped
    // batches were never applied, so the acknowledged count is frozen
    // at zero.
    assert_eq!(
        faulted.flush().expect("flush answers under fault"),
        0,
        "faulted tenant's batches are not acknowledged"
    );
    match faulted.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health {
            healthy, wal_fault, ..
        } => {
            assert!(!healthy, "faulted tenant reports unhealthy");
            let fault = wal_fault.expect("fault surfaced in Health");
            assert!(fault.contains("append"), "fault names the failure: {fault}");
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Another tenant on the same daemon: fully functional, bit-identical
    // to offline, healthy.
    let mut good =
        DaemonClient::connect_tenant(handle.socket_path(), "good-client", "good").expect("connect");
    good.send_trace(&good_trace, 64).expect("send");
    assert_eq!(good.flush().expect("flush"), good_trace.len() as u64);
    assert_eq!(
        fresh_hoard(&mut good, budget),
        offline_hoard(&good_trace, budget),
        "unfaulted tenant unperturbed by the neighbor's WAL fault"
    );
    match good.query(QueryRequest::Health).expect("health") {
        QueryResponse::Health {
            healthy, wal_fault, ..
        } => {
            assert!(healthy, "unfaulted tenant stays healthy");
            assert!(wal_fault.is_none());
        }
        other => panic!("unexpected response: {other:?}"),
    }

    assert!(
        handle
            .metrics()
            .counter("seer_daemon_wal_dropped_batches_total")
            .unwrap_or(0)
            > 0,
        "dropped batches are counted"
    );
    drop(faulted);
    drop(good);
    // Graceful shutdown must not panic despite the faulted tenant.
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Streams `trace` to one tenant through several concurrent clients in
/// strict round-robin: each client sends its chunk and flushes before
/// handing the turn on, so the tenant's apply order matches the
/// single-stream order exactly. Clients interleave cached hoard and
/// health queries while others hold the turn.
fn stream_round_robin(clients: Vec<DaemonClient>, trace: &Trace, chunk: usize, budget: u64) {
    let chunks: Vec<&[seer_trace::TraceEvent]> = trace.events.chunks(chunk).collect();
    let n = clients.len();
    let turn = (Mutex::new(0usize), Condvar::new());
    std::thread::scope(|s| {
        for (i, mut client) in clients.into_iter().enumerate() {
            let turn = &turn;
            let chunks = &chunks;
            let strings = &trace.strings;
            s.spawn(move || {
                loop {
                    let (lock, cv) = turn;
                    let mut idx = lock.lock().expect("turn lock");
                    while *idx < chunks.len() && *idx % n != i {
                        idx = cv.wait(idx).expect("turn wait");
                    }
                    if *idx >= chunks.len() {
                        cv.notify_all();
                        break;
                    }
                    client.send_events(chunks[*idx], strings).expect("send");
                    client.flush().expect("flush");
                    *idx += 1;
                    drop(idx);
                    cv.notify_all();
                    // Off-turn queries: answered from this tenant's
                    // engine without perturbing its stream.
                    if i == 0 {
                        let _ = client
                            .query(QueryRequest::Hoard {
                                budget,
                                fresh: false,
                            })
                            .expect("cached hoard");
                    } else {
                        let _ = client.query(QueryRequest::Health).expect("health");
                    }
                }
            });
        }
    });
}

/// Satellite 4 + the tentpole's isolation pin: N concurrent clients per
/// tenant over mixed Unix/TCP transports, interleaving events with
/// fresh and cached queries — and each tenant's final hoard is
/// bit-identical to the offline single-stream replay of its own trace.
#[test]
fn concurrent_tenants_match_offline_single_stream() {
    let dir = scratch("tenants");
    let budget: u64 = 2_000_000;
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.tcp_addr = Some("127.0.0.1:0".into());
    cfg.shards = 3;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let sock = handle.socket_path().to_path_buf();
    let tcp = handle.tcp_addr().expect("tcp bound");

    let trace_a = machine_trace("A", 6, 7);
    let trace_b = machine_trace("E", 6, 13);

    std::thread::scope(|s| {
        let (sock_a, sock_b) = (&sock, &sock);
        let (ta, tb) = (&trace_a, &trace_b);
        s.spawn(move || {
            let clients = vec![
                DaemonClient::connect_tenant(sock_a, "a0", "machine-a").expect("connect"),
                DaemonClient::connect_tcp(tcp, "a1", Some("machine-a")).expect("connect"),
                DaemonClient::connect_tenant(sock_a, "a2", "machine-a").expect("connect"),
            ];
            stream_round_robin(clients, ta, 64, budget);
        });
        s.spawn(move || {
            let clients = vec![
                DaemonClient::connect_tcp(tcp, "b0", Some("machine-b")).expect("connect"),
                DaemonClient::connect_tenant(sock_b, "b1", "machine-b").expect("connect"),
            ];
            stream_round_robin(clients, tb, 96, budget);
        });
    });

    // Fresh per-tenant hoards, each from a brand-new connection on the
    // other transport than most of the ingest used.
    let mut qa = DaemonClient::connect_tcp(tcp, "qa", Some("machine-a")).expect("connect");
    let mut qb = DaemonClient::connect_tenant(&sock, "qb", "machine-b").expect("connect");
    assert_eq!(
        fresh_hoard(&mut qa, budget),
        offline_hoard(&trace_a, budget),
        "tenant machine-a: online == offline"
    );
    assert_eq!(
        fresh_hoard(&mut qb, budget),
        offline_hoard(&trace_b, budget),
        "tenant machine-b: online == offline"
    );
    drop(qa);
    drop(qb);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fleet query fans out across shards and reports every tenant.
#[test]
fn fleet_query_reports_all_tenants() {
    let dir = scratch("fleet");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.tcp_addr = Some("127.0.0.1:0".into());
    cfg.shards = 4;
    // One background evaluation per tenant, at its first batch: the
    // quality gauges then move only with the `Quality` queries below.
    cfg.eval_every = Duration::from_secs(3600);
    let handle = Daemon::spawn(cfg).expect("spawn");
    let sock = handle.socket_path().to_path_buf();
    let tcp = handle.tcp_addr().expect("tcp bound");

    let mut sent = 0u64;
    for (i, name) in ["alpha", "beta", "gamma"].iter().enumerate() {
        let trace = machine_trace("A", 2, 20 + i as u64);
        let mut c = if i % 2 == 0 {
            DaemonClient::connect_tenant(&sock, name, name).expect("connect")
        } else {
            DaemonClient::connect_tcp(tcp, name, Some(name)).expect("connect")
        };
        c.send_trace(&trace, 64).expect("send");
        assert_eq!(c.flush().expect("flush"), trace.len() as u64);
        sent += trace.len() as u64;
    }

    let mut observer = DaemonClient::connect(&sock, "fleet-observer").expect("connect");
    match observer
        .query(QueryRequest::Fleet { top_k: None })
        .expect("fleet")
    {
        QueryResponse::Fleet {
            tenants,
            total_events,
            per_tenant,
        } => {
            let names: Vec<&str> = per_tenant.iter().map(|t| t.tenant.as_str()).collect();
            for expected in ["alpha", "beta", "gamma"] {
                assert!(
                    names.contains(&expected),
                    "fleet lists {expected}: {names:?}"
                );
            }
            assert!(tenants >= 3, "at least the three ingesting tenants");
            assert_eq!(per_tenant.len(), tenants, "one row per tenant");
            assert_eq!(
                per_tenant.iter().map(|t| t.events_applied).sum::<u64>(),
                sent,
                "aggregate equals the sum of what was sent"
            );
            assert_eq!(total_events, sent);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // top_k truncates to the k worst tenants by miss rate.
    match observer
        .query(QueryRequest::Fleet { top_k: Some(2) })
        .expect("fleet top-2")
    {
        QueryResponse::Fleet { per_tenant, .. } => assert_eq!(per_tenant.len(), 2),
        other => panic!("unexpected response: {other:?}"),
    }

    // Each tenant's quality gauges are its own latest evaluation.
    for name in ["alpha", "beta", "gamma"] {
        let mut c = DaemonClient::connect_tenant(&sock, "quality", name).expect("connect");
        let (report, _) = c.quality().expect("quality");
        let snap = handle.metrics();
        let gauge = |metric| match snap.find_with(metric, &[("tenant", name)])?.value {
            MetricValue::Gauge { value } => u64::try_from(value).ok(),
            _ => None,
        };
        assert_eq!(
            [
                gauge("seer_daemon_quality_seer_missfree_bytes"),
                gauge("seer_daemon_quality_lru_missfree_bytes"),
                gauge("seer_daemon_quality_working_set_bytes"),
                gauge("seer_daemon_quality_needed_files"),
            ],
            [
                report.seer_missfree_bytes,
                report.lru_missfree_bytes,
                report.working_set_bytes,
                report.needed_files as u64,
            ]
            .map(Some),
            "{name}"
        );
    }

    let snap = handle.metrics();
    let tenant_events: u64 = (snap.metrics.iter())
        .filter(|m| m.name == "seer_daemon_tenant_events_total")
        .map(|m| match m.value {
            MetricValue::Counter { total } => total,
            _ => panic!("a counter family"),
        })
        .sum();
    let daemon_wide = snap.counter("seer_daemon_events_applied_total");
    assert_eq!(
        (handle.stats().events_applied, daemon_wide, tenant_events),
        (sent, Some(sent), sent),
        "Stats, the daemon-wide series, and the tenant family agree"
    );
    drop(observer);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A tenant that only answered queries has nothing to persist: it
/// leaves no WAL directory, graceful shutdown writes no snapshot file
/// for it, and counts no recluster or snapshot on its behalf. The
/// default tenant is no exception; a tenant that applied events keeps
/// its log and its final snapshot.
#[test]
fn query_only_tenants_leave_no_state_at_shutdown() {
    let dir = scratch("queryonly");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_path = Some(dir.join("db.json"));
    cfg.wal_dir = Some(dir.join("wal"));
    // No periodic work: every recluster and snapshot counted comes from
    // the shutdown epilogue.
    cfg.recluster_every = 0;
    cfg.snapshot_every = 0;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let sock = handle.socket_path().to_path_buf();
    for tenant in ["a", "b"] {
        let mut probe = DaemonClient::connect_tenant(&sock, "probe", tenant).expect("connect");
        // A tenant-scoped query creates the tenant's state.
        probe.query(QueryRequest::Health).expect("health");
    }
    let trace = machine_trace("A", 2, 3);
    let mut loader = DaemonClient::connect_tenant(&sock, "loader", "z").expect("connect");
    loader.send_trace(&trace, 64).expect("send");
    assert_eq!(loader.flush().expect("flush"), trace.len() as u64);
    drop(loader);

    let stats = handle.shutdown();
    for (file, kept) in [
        ("db.json", false),
        ("db.json.a", false),
        ("db.json.b", false),
        ("db.json.z", true),
        ("wal", false),
        ("wal-a", false),
        ("wal-b", false),
        ("wal-z", true),
    ] {
        assert_eq!(dir.join(file).exists(), kept, "{file}");
    }
    assert_eq!(
        (stats.reclusters, stats.snapshots),
        (1, 1),
        "only tenant z reclusters and snapshots at exit"
    );
    std::fs::remove_dir_all(&dir).ok();
}
