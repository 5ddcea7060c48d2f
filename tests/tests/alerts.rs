//! Integration tests for the fleet observability plane: per-tenant
//! metric twins, health-score divergence, SLO burn-rate alert
//! firing/resolution, the daemon's `_self` watchdog, and per-tenant
//! connection-error attribution.

use seer_daemon::{Daemon, DaemonClient, DaemonConfig, DaemonHandle};
use seer_telemetry::{AlertRecord, MetricValue, RegistrySnapshot};
use seer_trace::wire::{QueryRequest, QueryResponse, TenantFleetStat};
use seer_trace::{ErrorKind, OpenMode, Pid, Trace, TraceBuilder};
use seer_workload::{generate, MachineProfile};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-alerts-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn machine_trace(name: &str, days: u32, seed: u64) -> Trace {
    let profile = MachineProfile::by_name(name)
        .expect("paper machine")
        .scaled_to_days(days);
    generate(&profile, seed).trace
}

/// A labeled counter's total from a registry snapshot (0 when absent).
fn labeled_counter(snap: &RegistrySnapshot, name: &str, tenant: &str) -> u64 {
    snap.find_with(name, &[("tenant", tenant)])
        .and_then(|m| match m.value {
            MetricValue::Counter { total } => Some(total),
            _ => None,
        })
        .unwrap_or(0)
}

/// Polls `check` until it returns `Some`, panicking with `what` on
/// timeout. Generous deadline: CI machines stall.
fn poll<T>(deadline: Duration, what: &str, mut check: impl FnMut() -> Option<T>) -> T {
    let end = Instant::now() + deadline;
    loop {
        if let Some(v) = check() {
            return v;
        }
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn fleet_rows(client: &mut DaemonClient) -> Vec<TenantFleetStat> {
    match client
        .query(QueryRequest::Fleet { top_k: None })
        .expect("fleet query")
    {
        QueryResponse::Fleet { per_tenant, .. } => per_tenant,
        other => panic!("unexpected response: {other:?}"),
    }
}

fn alerts_for(client: &mut DaemonClient, tenant: Option<&str>) -> Vec<AlertRecord> {
    client.alerts(tenant).expect("alerts query").0
}

/// The tentpole end-to-end: two tenants on one daemon — `steady`
/// ingests normally, `sick` records forced hoard misses and then hits
/// a WAL fault that drops everything after its first batch.
/// The per-tenant metric twins diverge, the sick tenant's health score
/// drops below the healthy tenant's, the `slo-burn` alert fires and
/// then resolves once the tenant goes quiet, `wal-fault` stays firing,
/// and both the `Alerts` query and the fleet table report all of it.
#[test]
fn fleet_health_diverges_and_burn_alert_fires_then_resolves() {
    let dir = scratch("fleet-health");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.wal_dir = Some(dir.join("wal"));
    // Segments this small rotate on every append, so `sick`'s second
    // append (after the miss batch below) creates its second segment,
    // which the test blocks to fail that append and every later one.
    cfg.wal_segment_bytes = 64;
    // Shrunken burn windows so firing and resolution both happen within
    // test time. Threshold stays at the default 4x of a 2% SLO: the
    // alert fires above an 8% bad-op rate on BOTH windows and resolves
    // once the fast window cools below it.
    cfg.burn_fast_window = Duration::from_millis(1500);
    cfg.burn_slow_window = Duration::from_secs(8);
    let handle = Daemon::spawn(cfg).expect("spawn");
    let sock = handle.socket_path().to_path_buf();

    // The healthy tenant: a normal trace, fully applied.
    let steady_trace = machine_trace("A", 4, 3);
    let mut steady =
        DaemonClient::connect_tenant(&sock, "steady-client", "steady").expect("connect");
    steady.send_trace(&steady_trace, 64).expect("send");
    assert_eq!(steady.flush().expect("flush"), steady_trace.len() as u64);

    // The sick tenant, phase 1: forced hoard misses (failed opens with
    // `NotHoarded`), applied as one batch before the fault trips.
    let mut b = TraceBuilder::new();
    for i in 0..4 {
        b.open_err(
            Pid(9),
            &format!("/sick/project/miss-{i}.txt"),
            OpenMode::Read,
            ErrorKind::NotHoarded,
        );
    }
    let miss_trace = b.build();
    let mut sick = DaemonClient::connect_tenant(&sock, "sick-client", "sick").expect("connect");
    sick.send_trace(&miss_trace, miss_trace.len())
        .expect("send");
    assert_eq!(
        sick.flush().expect("flush"),
        miss_trace.len() as u64,
        "the miss batch lands before the WAL fault trips"
    );
    // The log creates each segment with `create_new`: a directory at the
    // next segment's name fails the rotation with EEXIST, also as root.
    std::fs::create_dir_all(dir.join("wal-sick").join("wal-00000001.seg")).expect("mkdir");

    // Phase 2: a real workload the faulted WAL drops wholesale — every
    // dropped event is a bad op against the SLO.
    let dropped_trace = machine_trace("E", 4, 5);
    assert!(!dropped_trace.events.is_empty());
    sick.send_trace(&dropped_trace, 64).expect("send");
    assert_eq!(
        sick.flush().expect("flush under fault"),
        miss_trace.len() as u64,
        "faulted batches are never acknowledged"
    );

    // Per-tenant twins diverge: steady applied everything, sick applied
    // only the miss batch and dropped the rest.
    let snap = handle.metrics();
    assert_eq!(
        labeled_counter(&snap, "seer_daemon_tenant_events_total", "steady"),
        steady_trace.len() as u64,
    );
    assert_eq!(
        labeled_counter(&snap, "seer_daemon_tenant_events_total", "sick"),
        miss_trace.len() as u64,
    );
    assert!(
        labeled_counter(
            &snap,
            "seer_daemon_tenant_wal_dropped_batches_total",
            "sick"
        ) > 0,
        "sick tenant's dropped batches counted under its own label"
    );
    assert_eq!(
        labeled_counter(
            &snap,
            "seer_daemon_tenant_wal_dropped_batches_total",
            "steady"
        ),
        0,
        "the healthy tenant's twin never moves"
    );

    // The burn alert fires: both windows are saturated with drops.
    let mut observer = DaemonClient::connect(&sock, "observer").expect("connect");
    poll(Duration::from_secs(15), "slo-burn to fire", || {
        alerts_for(&mut observer, Some("sick"))
            .into_iter()
            .find(|a| a.kind == "slo-burn")
    });

    // While the fault holds, the fleet table shows the divergence: the
    // sick tenant scores at least the 40-point WAL-fault deduction
    // below a healthy ceiling, alerts are attributed to it, and its
    // score sparkline has history.
    let rows = fleet_rows(&mut observer);
    let row = |t: &str| {
        rows.iter()
            .find(|r| r.tenant == t)
            .unwrap_or_else(|| panic!("fleet row for {t}: {rows:?}"))
    };
    let (s, k) = (row("steady"), row("sick"));
    assert!(
        k.health_score < s.health_score,
        "sick ({}) scores below steady ({})",
        k.health_score,
        s.health_score
    );
    assert!(
        k.health_score <= 60.0,
        "wal fault costs 40: {}",
        k.health_score
    );
    assert!(
        s.health_score >= 80.0,
        "steady stays healthy: {}",
        s.health_score
    );
    assert!(k.alerts_firing >= 1, "sick has firing alerts");
    assert!(!k.score_spark.is_empty(), "score history for sparklines");
    assert!(k.misses >= 4, "forced misses counted: {}", k.misses);
    assert!(k.wal_fault.is_some(), "fleet surfaces the fault string");

    // The sick tenant goes quiet; flat burn samples decay the fast
    // window below threshold and the alert resolves. The WAL fault is
    // permanent, so `wal-fault` must still be firing.
    poll(Duration::from_secs(20), "slo-burn to resolve", || {
        alerts_for(&mut observer, Some("sick"))
            .into_iter()
            .find(|a| a.kind == "slo-burn" && a.resolved_secs.is_some())
    });
    let sick_alerts = alerts_for(&mut observer, Some("sick"));
    assert!(
        sick_alerts
            .iter()
            .any(|a| a.kind == "wal-fault" && a.resolved_secs.is_none()),
        "wal-fault stays firing: {sick_alerts:?}"
    );
    assert!(
        sick_alerts.iter().all(|a| a.tenant == "sick"),
        "tenant filter honored: {sick_alerts:?}"
    );

    // The mirrored per-tenant miss counter caught up at sampling time.
    assert!(
        labeled_counter(&handle.metrics(), "seer_daemon_tenant_misses_total", "sick") >= 4,
        "miss twin mirrors the quality plane's log"
    );

    drop(steady);
    drop(sick);
    drop(observer);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The watchdog alerts on the daemon itself: with the actor tick slowed
/// far past `stall_after`, every idle shard's heartbeat goes stale and
/// `_self` reports `shardN/stalled` — then resolves when the actor
/// wakes and stamps again.
#[test]
fn watchdog_reports_stalled_shards_under_self() {
    let dir = scratch("watchdog");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    // An idle actor sleeps in 600ms recv timeouts; the watchdog calls
    // anything quieter than 150ms stalled and checks every 20ms, so
    // each sleep fires the alert and each wake-up resolves it.
    cfg.tick = Duration::from_millis(600);
    cfg.watchdog_stall_after = Duration::from_millis(150);
    cfg.watchdog_tick = Duration::from_millis(20);
    let handle = Daemon::spawn(cfg).expect("spawn");

    let mut client = DaemonClient::connect(handle.socket_path(), "self-observer").expect("connect");
    let fired = poll(Duration::from_secs(15), "a stalled-shard alert", || {
        alerts_for(&mut client, Some("_self"))
            .into_iter()
            .find(|a| a.kind.ends_with("/stalled"))
    });
    assert_eq!(fired.tenant, "_self");
    assert!(
        fired.message.contains("no actor heartbeat"),
        "message explains the violation: {}",
        fired.message
    );
    poll(Duration::from_secs(15), "the stall to resolve", || {
        alerts_for(&mut client, Some("_self"))
            .into_iter()
            .find(|a| a.kind.ends_with("/stalled") && a.resolved_secs.is_some())
    });

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hostile client that completed its handshake charges its protocol
/// violation to its own tenant's connection-error twin, not just the
/// global counter.
#[test]
fn connection_errors_are_attributed_to_the_tenant() {
    let dir = scratch("conn-err");
    let handle = Daemon::spawn(DaemonConfig::new(dir.join("sock"))).expect("spawn");
    let sock = handle.socket_path().to_path_buf();

    // A valid v8 hello naming tenant `rowdy`, then garbage. The reply
    // is drained to EOF: closing with unread data would RST the socket
    // and could discard the garbage before the daemon reads it.
    {
        use std::io::Read;
        let mut s = UnixStream::connect(&sock).expect("connect");
        s.write_all(
            b"{\"Hello\":{\"client\":\"rowdy-client\",\"version\":8,\"tenant\":\"rowdy\"}}\n",
        )
        .expect("hello");
        s.write_all(b"\xff\xfe this is not a frame\n")
            .expect("garbage");
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut reply = Vec::new();
        let _ = s.read_to_end(&mut reply);
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("Welcome"), "handshake answered: {text}");
        assert!(text.contains("Error"), "violation answered in-band: {text}");
    }

    wait_for_tenant_error(&handle, "rowdy");

    // A well-behaved tenant on the same daemon is unaffected.
    let mut good = DaemonClient::connect_tenant(&sock, "good", "calm").expect("connect");
    let trace = machine_trace("B", 2, 7);
    good.send_trace(&trace, 64).expect("send");
    assert_eq!(good.flush().expect("flush"), trace.len() as u64);
    assert_eq!(
        labeled_counter(
            &handle.metrics(),
            "seer_daemon_tenant_connection_errors_total",
            "calm"
        ),
        0,
        "the calm tenant's twin never moves"
    );

    drop(good);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

fn wait_for_tenant_error(handle: &DaemonHandle, tenant: &str) {
    poll(
        Duration::from_secs(10),
        "the tenant-attributed error",
        || {
            let snap = handle.metrics();
            let per_tenant =
                labeled_counter(&snap, "seer_daemon_tenant_connection_errors_total", tenant);
            let global = snap
                .counter("seer_daemon_connection_errors_total")
                .unwrap_or(0);
            (per_tenant >= 1 && global >= 1).then_some(())
        },
    );
}
