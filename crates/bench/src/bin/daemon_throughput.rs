//! Daemon ingestion throughput at different client batch sizes.
//!
//! Streams a machine-F workload through the full socket pipeline at
//! frame sizes 1, 64, and 1024 events and reports events/second — the
//! daemon-era version of §5.3's per-event overhead measurement. Each
//! frame is one engine batch, so larger frames amortize framing,
//! wakeups, and per-batch engine work.
//!
//! The final experiment scales out: all nine paper machines (A–I) stream
//! concurrently as separate tenants, eight replica clients each over a
//! mix of unix and tcp transports, into one daemon sharded across engine
//! actors — reporting aggregate fleet events/s and per-tenant flush
//! round-trip p99.
//!
//! Run with: `cargo run -p seer-bench --bin daemon_throughput --release`
//! (also writes `results/daemon_throughput.txt`).

use seer_daemon::{Daemon, DaemonClient, DaemonConfig, FsyncPolicy};
use seer_telemetry::RegistrySnapshot;
use seer_trace::wire::{QueryRequest, QueryResponse};
use seer_workload::{generate, MachineProfile};
use std::fmt::Write as _;
use std::time::Instant;

/// Renders a duration in microseconds with sub-µs latencies kept legible.
fn us(secs: Option<f64>) -> String {
    match secs {
        None => "-".into(),
        Some(s) => format!("{:.1}", s * 1e6),
    }
}

/// Appends one per-stage percentile table pulled from the daemon's
/// telemetry registry after a run.
fn write_stage_table(out: &mut String, chunk: usize, snap: &RegistrySnapshot) {
    let _ = writeln!(out, "\nper-stage latency, frame size {chunk} (µs):");
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p95", "p99"
    );
    for m in snap
        .metrics
        .iter()
        .filter(|m| m.name == "seer_daemon_stage_seconds")
    {
        let stage = m
            .labels
            .iter()
            .find(|(k, _)| k == "stage")
            .map_or("?", |(_, v)| v.as_str());
        let count = match &m.value {
            seer_telemetry::MetricValue::Histogram { count, .. } => *count,
            _ => continue,
        };
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>10} {:>10} {:>10}",
            stage,
            count,
            us(m.quantile(0.50)),
            us(m.quantile(0.95)),
            us(m.quantile(0.99)),
        );
    }
}

fn main() {
    let profile = MachineProfile {
        days: 20,
        ..MachineProfile::by_name("F").expect("F")
    };
    let workload = generate(&profile, 9);
    let trace = workload.trace;
    let n = trace.len();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "daemon ingestion throughput — machine F, 20 days, {n} events"
    );
    let _ = writeln!(
        out,
        "(socket + bounded pipeline + batched engine apply; flush-acked)\n"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>14} {:>16} {:>14}",
        "frame size", "seconds", "events/s", "µs per event", "batches"
    );
    let mut stage_tables = String::new();

    for &chunk in &[1usize, 64, 1024] {
        let dir =
            std::env::temp_dir().join(format!("seer-throughput-{chunk}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let handle = Daemon::spawn(DaemonConfig::new(dir.join("sock"))).expect("spawn");
        let mut client =
            DaemonClient::connect(handle.socket_path(), "throughput").expect("connect");

        // Warm the engine's tables once so runs compare steady state.
        client.send_trace(&trace, chunk).expect("warmup send");
        client.flush().expect("warmup flush");

        let start = Instant::now();
        client.send_trace(&trace, chunk).expect("send");
        client.flush().expect("flush");
        let secs = start.elapsed().as_secs_f64();

        // Pull the telemetry registry over the wire while the daemon is
        // still up: per-stage percentiles break the wall-clock number
        // down into where the time actually went.
        match client.query(QueryRequest::Metrics).expect("metrics query") {
            QueryResponse::Metrics { snapshot } => {
                write_stage_table(&mut stage_tables, chunk, &snapshot);
            }
            other => panic!("unexpected response: {other:?}"),
        }

        drop(client);
        let stats = handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        let _ = writeln!(
            out,
            "{:<12} {:>12.3} {:>14.0} {:>16.2} {:>14}",
            chunk,
            secs,
            n as f64 / secs,
            secs * 1e6 / n as f64,
            stats.batches_applied
        );
    }

    out.push_str(&stage_tables);

    // Second experiment: what does causal tracing cost the hot path?
    // Same workload at frame size 64, once with the flight recorder off
    // (capacity 0, no trace stamps) and once fully on (every frame
    // stamped, so every ingest stage records spans into the ring).
    let _ = writeln!(
        out,
        "\ningest latency with causal tracing on vs off (frame size 64):"
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "configuration", "p50 µs", "p95 µs", "p99 µs", "applies", "spans"
    );
    let mut traced_p99 = [f64::NAN; 2];
    for (i, (label, traced)) in [("tracing disabled", false), ("tracing enabled", true)]
        .iter()
        .enumerate()
    {
        let dir =
            std::env::temp_dir().join(format!("seer-throughput-tr{i}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = DaemonConfig::new(dir.join("sock"));
        cfg.trace_capacity = if *traced { 4096 } else { 0 };
        let handle = Daemon::spawn(cfg).expect("spawn");
        let mut client =
            DaemonClient::connect(handle.socket_path(), "tracing-bench").expect("connect");
        client.send_trace(&trace, 64).expect("warmup send");
        client.flush().expect("warmup flush");
        if *traced {
            client.set_trace_id(Some(seer_telemetry::new_trace_id().0));
        }
        // Two timed passes: more samples per percentile, less run noise.
        for _ in 0..2 {
            client.send_trace(&trace, 64).expect("send");
            client.flush().expect("flush");
        }
        client.set_trace_id(None);
        // Ring contents at the end plus contention drops — evidence the
        // traced run actually recorded spans.
        let spans_recorded = if *traced {
            match client.query(QueryRequest::Dump).expect("dump") {
                QueryResponse::Dump { spans, dropped } => spans.len() as u64 + dropped,
                other => panic!("unexpected response: {other:?}"),
            }
        } else {
            0
        };
        let snap = match client.query(QueryRequest::Metrics).expect("metrics") {
            QueryResponse::Metrics { snapshot } => snapshot,
            other => panic!("unexpected response: {other:?}"),
        };
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        let apply = snap
            .find_with("seer_daemon_stage_seconds", &[("stage", "engine_apply")])
            .expect("engine_apply stage");
        let count = match &apply.value {
            seer_telemetry::MetricValue::Histogram { count, .. } => *count,
            _ => 0,
        };
        traced_p99[i] = apply.quantile(0.99).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>10} {:>10} {:>10} {:>12}",
            label,
            us(apply.quantile(0.50)),
            us(apply.quantile(0.95)),
            us(apply.quantile(0.99)),
            count,
            spans_recorded,
        );
    }
    let tratio = traced_p99[1] / traced_p99[0].max(1e-12);
    let _ = writeln!(
        out,
        "  engine_apply p99 ratio (tracing on / off): {tratio:.2}x \
         (target: within 1.10x — tracing must be invisible on the hot path)"
    );

    // Third experiment: what does write-ahead logging cost the ingest
    // path? Same workload at frame size 64, once without a WAL and once
    // per fsync policy. The append itself rides inside the engine_apply
    // stage, so its p99 captures framing + checksum + write() and — for
    // fsync=always — the fdatasync on every batch.
    let _ = writeln!(
        out,
        "\ningest latency with the write-ahead log on vs off (frame size 64):"
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>10} {:>10} {:>12} {:>12}",
        "configuration", "p50 µs", "p95 µs", "p99 µs", "wal records", "wal MiB"
    );
    let mut wal_p99 = [f64::NAN; 4];
    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("wal off", None),
        ("fsync=never", Some(FsyncPolicy::Never)),
        (
            "fsync=interval:50",
            Some(FsyncPolicy::Interval(std::time::Duration::from_millis(50))),
        ),
        ("fsync=always", Some(FsyncPolicy::Always)),
    ];
    for (i, (label, policy)) in policies.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("seer-throughput-wal{i}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut cfg = DaemonConfig::new(dir.join("sock"));
        if let Some(p) = policy {
            cfg.wal_dir = Some(dir.join("wal"));
            cfg.wal_fsync = *p;
        }
        let handle = Daemon::spawn(cfg).expect("spawn");
        let mut client = DaemonClient::connect(handle.socket_path(), "wal-bench").expect("connect");
        client.send_trace(&trace, 64).expect("warmup send");
        client.flush().expect("warmup flush");
        client.send_trace(&trace, 64).expect("send");
        client.flush().expect("flush");
        let snap = match client.query(QueryRequest::Metrics).expect("metrics query") {
            QueryResponse::Metrics { snapshot } => snapshot,
            other => panic!("unexpected response: {other:?}"),
        };
        drop(client);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();

        let apply = snap
            .find_with("seer_daemon_stage_seconds", &[("stage", "engine_apply")])
            .expect("engine_apply stage");
        wal_p99[i] = apply.quantile(0.99).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  {:<22} {:>10} {:>10} {:>10} {:>12} {:>12.2}",
            label,
            us(apply.quantile(0.50)),
            us(apply.quantile(0.95)),
            us(apply.quantile(0.99)),
            snap.counter("seer_wal_records_total").unwrap_or(0),
            snap.counter("seer_wal_appended_bytes_total").unwrap_or(0) as f64 / (1024.0 * 1024.0),
        );
    }
    let wratio = wal_p99[2] / wal_p99[0].max(1e-12);
    let _ = writeln!(
        out,
        "  engine_apply p99 ratio (fsync=interval / wal off): {wratio:.2}x \
         (target: within 1.25x — durability must not throttle ingestion)"
    );

    // Fourth experiment: the fleet. All nine paper machines (A–I) stream
    // concurrently, each as its own tenant with several replica clients
    // over a mix of unix and tcp transports, into one daemon sharded
    // across engine actors. Reported: aggregate events/s across the
    // whole fleet and the per-tenant flush round-trip p99 (the latency a
    // client sees between handing over a window of events and the shard
    // acknowledging them applied).
    const REPLICAS: usize = 8;
    const FLEET_SHARDS: usize = 4;
    const FLEET_CHUNK: usize = 1024;
    // Flush (and take a latency sample) every this many events.
    const FLUSH_WINDOW: usize = 2 * FLEET_CHUNK;
    let machines = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
    let fleet: Vec<(&str, seer_trace::Trace)> = machines
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let profile = MachineProfile::by_name(m).expect("paper machine");
            (
                *m,
                generate(&profile.scaled_to_days(20), 40 + i as u64).trace,
            )
        })
        .collect();
    let total_events: u64 = fleet
        .iter()
        .map(|(_, t)| t.len() as u64 * REPLICAS as u64)
        .sum();

    let dir = std::env::temp_dir().join(format!("seer-throughput-fleet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.tcp_addr = Some("127.0.0.1:0".into());
    cfg.shards = FLEET_SHARDS;
    let handle = Daemon::spawn(cfg).expect("spawn");
    let socket_path = handle.socket_path().to_path_buf();
    let tcp_addr = handle.tcp_addr().expect("tcp listener");

    let _ = writeln!(
        out,
        "\nfleet ingestion — {} machines x {REPLICAS} replicas, {FLEET_SHARDS} shards, mixed unix/tcp:",
        fleet.len()
    );
    let start = Instant::now();
    // One thread per replica connection; half the fleet arrives over the
    // unix socket, half over tcp, interleaved so every tenant uses both.
    let per_replica: Vec<(usize, Vec<f64>)> = std::thread::scope(|s| {
        let mut workers = Vec::new();
        for (mi, (name, trace)) in fleet.iter().enumerate() {
            for r in 0..REPLICAS {
                let (socket_path, client_name) = (&socket_path, format!("{name}-{r}"));
                workers.push(s.spawn(move || {
                    let mut client = if (mi + r) % 2 == 0 {
                        DaemonClient::connect_tenant(socket_path, &client_name, name)
                    } else {
                        DaemonClient::connect_tcp(tcp_addr, &client_name, Some(name))
                    }
                    .expect("connect");
                    let mut latencies = Vec::new();
                    let mut since_flush = 0usize;
                    for chunk in trace.events.chunks(FLEET_CHUNK) {
                        client.send_events(chunk, &trace.strings).expect("send");
                        since_flush += chunk.len();
                        if since_flush >= FLUSH_WINDOW {
                            let t = Instant::now();
                            client.flush().expect("flush");
                            latencies.push(t.elapsed().as_secs_f64());
                            since_flush = 0;
                        }
                    }
                    let t = Instant::now();
                    let applied = client.flush().expect("final flush");
                    latencies.push(t.elapsed().as_secs_f64());
                    assert_eq!(applied, trace.len() as u64, "every event acknowledged");
                    (mi, latencies)
                }));
            }
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("replica"))
            .collect()
    });
    let fleet_secs = start.elapsed().as_secs_f64();

    let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); fleet.len()];
    for (mi, lat) in per_replica {
        per_tenant[mi].extend(lat);
    }
    let p99 = |samples: &mut Vec<f64>| -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(samples[(samples.len() - 1) * 99 / 100])
    };
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>14} {:>18}",
        "tenant", "events", "per replica", "flush p99 (µs)"
    );
    for (mi, (name, trace)) in fleet.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<10} {:>12} {:>14} {:>18}",
            name,
            trace.len() * REPLICAS,
            trace.len(),
            us(p99(&mut per_tenant[mi])),
        );
    }
    let _ = writeln!(
        out,
        "  aggregate: {total_events} events in {fleet_secs:.3}s = {:.0} events/s \
         (target: >= 1,000,000 events/s)",
        total_events as f64 / fleet_secs
    );

    // The fleet query is the cross-shard witness: every tenant present,
    // every acknowledged event accounted for in the aggregate.
    let mut client = DaemonClient::connect(&socket_path, "fleet-check").expect("connect");
    match client
        .query(QueryRequest::Fleet { top_k: None })
        .expect("fleet query")
    {
        QueryResponse::Fleet {
            tenants,
            total_events: fleet_total,
            per_tenant,
        } => {
            assert!(tenants >= fleet.len(), "all tenants visible");
            let sum: u64 = per_tenant
                .iter()
                .filter(|t| t.tenant != "default")
                .map(|t| t.events_applied)
                .sum();
            assert_eq!(sum, total_events, "fleet query accounts for every event");
            let _ = writeln!(
                out,
                "  fleet query: {tenants} tenants, {fleet_total} events applied daemon-wide"
            );
        }
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let _ = writeln!(
        out,
        "\nthe paper's observer cost ~35 µs/event on 1997 hardware (§5.3); the\n\
         daemon pipeline must stay well under that for tracing to be invisible."
    );
    print!("{out}");

    let results = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/daemon_throughput.txt"
    );
    if let Err(e) = std::fs::write(results, &out) {
        eprintln!("could not write {results}: {e}");
    } else {
        println!("\nwrote {results}");
    }
}
