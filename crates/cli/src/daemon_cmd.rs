//! `seer daemon`, `seer client`, `seer top`, and `seer trace` command
//! implementations.

use crate::args::{Args, CliError};
use seer_daemon::{Daemon, DaemonClient, DaemonConfig, FsyncPolicy};
use seer_telemetry::SpanRecord;
use seer_trace::wire::{QueryRequest, QueryResponse, WireError};
use seer_workload::{generate, MachineProfile};
use std::io::Write;
use std::path::Path;
use std::time::Duration;

impl From<WireError> for CliError {
    fn from(e: WireError) -> CliError {
        CliError(e.to_string())
    }
}

impl From<seer_daemon::DaemonError> for CliError {
    fn from(e: seer_daemon::DaemonError) -> CliError {
        CliError(e.to_string())
    }
}

/// `seer daemon --socket PATH [--snapshot FILE] ...` — runs the daemon in
/// the foreground until a client sends a shutdown frame.
pub fn cmd_daemon(args: &Args) -> Result<(), CliError> {
    let mut cfg = DaemonConfig::new(args.require_flag("socket")?);
    if let Some(p) = args.flag("snapshot") {
        cfg.snapshot_path = Some(p.into());
    }
    cfg.channel_capacity = args.num_flag("capacity", cfg.channel_capacity)?;
    // For both periodic knobs 0 means "never": no periodic reclustering
    // (queries still compute one on demand) and no periodic snapshots
    // (the final shutdown snapshot is still written).
    cfg.recluster_every = args.num_flag("recluster-every", cfg.recluster_every)?;
    cfg.snapshot_every = args.num_flag("snapshot-every", cfg.snapshot_every)?;
    cfg.file_size = args.num_flag("file-size", cfg.file_size)?;
    cfg.recluster_threads = args.num_flag("recluster-threads", cfg.recluster_threads)?;
    if cfg.recluster_threads == 0 {
        return Err(CliError(
            "--recluster-threads wants at least 1 (the clustering is \
             bit-identical for any thread count)"
                .into(),
        ));
    }
    // Flight-recorder knobs: ring capacity (0 disables tracing), the
    // slow-span promotion threshold, and an optional on-exit dump file.
    cfg.trace_capacity = args.num_flag("trace-capacity", cfg.trace_capacity)?;
    cfg.slow_span = Duration::from_millis(args.num_flag(
        "slow-span-ms",
        u64::try_from(cfg.slow_span.as_millis()).unwrap_or(100),
    )?);
    if let Some(p) = args.flag("flight") {
        cfg.flight_path = Some(p.into());
    }
    // Durability knobs: a WAL directory turns on write-ahead logging;
    // the fsync policy trades ingest latency against the loss window.
    if let Some(p) = args.flag("wal-dir") {
        cfg.wal_dir = Some(p.into());
    }
    if let Some(s) = args.flag("fsync") {
        cfg.wal_fsync = FsyncPolicy::parse(s).ok_or_else(|| {
            CliError(format!(
                "--fsync wants always, never, or interval:<ms> (got {s})"
            ))
        })?;
    }
    cfg.wal_segment_bytes = args.num_flag("wal-segment-bytes", cfg.wal_segment_bytes)?;
    if let Some(g) = args.flag("restore-to") {
        let target: u64 = g.parse().map_err(|_| {
            CliError("--restore-to wants a generation (applied-event count)".into())
        })?;
        cfg.restore_to = Some(target);
    }
    // Quality-plane knobs: the background evaluation cadence and the
    // simulated disconnection window.
    cfg.eval_every = Duration::from_millis(args.num_flag(
        "eval-every-ms",
        u64::try_from(cfg.eval_every.as_millis()).unwrap_or(2000),
    )?);
    if cfg.eval_every.is_zero() {
        return Err(CliError(
            "--eval-every-ms wants at least 1 (the quality plane always runs)".into(),
        ));
    }
    cfg.eval_window_secs = args.num_flag("eval-window-secs", cfg.eval_window_secs)?;
    // Hub knobs: an extra TCP listener and the engine-shard count
    // (tenants hash across shards; each shard is one actor thread).
    if let Some(a) = args.flag("tcp") {
        cfg.tcp_addr = Some(a.to_owned());
    }
    cfg.shards = args.num_flag("shards", cfg.shards)?;
    // Fleet-observability knobs: the burn windows behind health scores
    // and burn alerts.
    cfg.burn_fast_window =
        Duration::from_secs(args.num_flag("burn-fast-secs", cfg.burn_fast_window.as_secs())?);
    cfg.burn_slow_window =
        Duration::from_secs(args.num_flag("burn-slow-secs", cfg.burn_slow_window.as_secs())?);
    // Every flag is read by now; a mistyped or retired one must not
    // start a daemon configured otherwise than the user asked.
    args.refuse_unread_flags()?;

    let recovered = cfg.snapshot_path.as_deref().is_some_and(Path::exists);
    let handle = Daemon::spawn(cfg)?;
    println!(
        "seer-daemon listening on {}{}{}",
        handle.socket_path().display(),
        handle
            .tcp_addr()
            .map_or_else(String::new, |a| format!(" and tcp {a}")),
        if recovered {
            " (state recovered from snapshot)"
        } else {
            ""
        }
    );
    let stats = handle.wait();
    println!(
        "seer-daemon exiting: {} events received, {} applied in {} batches, \
         {} reclusters, {} snapshots, peak queue depth {}",
        stats.events_received,
        stats.events_applied,
        stats.batches_applied,
        stats.reclusters,
        stats.snapshots,
        stats.max_queue_depth
    );
    Ok(())
}

/// Connects per the shared transport flags: `--socket PATH` for Unix,
/// `--tcp HOST:PORT` for TCP, and `--tenant NAME` to land on a named
/// tenant instead of the default.
fn connect_from_args(args: &Args, client_name: &str) -> Result<DaemonClient, CliError> {
    let tenant = args.flag("tenant");
    if let Some(addr) = args.flag("tcp") {
        return Ok(DaemonClient::connect_tcp(addr, client_name, tenant)?);
    }
    let socket = Path::new(args.require_flag("socket")?);
    Ok(match tenant {
        Some(t) => DaemonClient::connect_tenant(socket, client_name, t)?,
        None => DaemonClient::connect(socket, client_name)?,
    })
}

/// A human-readable label for where the shared transport flags point.
fn target_label(args: &Args) -> String {
    args.flag("tcp").map_or_else(
        || args.flag("socket").unwrap_or("<unset>").to_owned(),
        |a| format!("tcp {a}"),
    )
}

/// `seer client <send|load|query|shutdown> --socket PATH|--tcp ADDR
/// [--tenant NAME] ...`.
pub fn cmd_client(args: &Args) -> Result<(), CliError> {
    match args.positional(1) {
        Some("send") => client_send(args),
        Some("load") => client_load(args),
        Some("query") => client_query(args),
        Some("shutdown") => {
            let client = connect_from_args(args, "seer-cli")?;
            client.shutdown()?;
            println!("daemon acknowledged shutdown");
            Ok(())
        }
        other => Err(CliError(format!(
            "unknown client action: {} (send|load|query|shutdown)",
            other.unwrap_or("<none>")
        ))),
    }
}

/// Default events per frame for `client send|load`. The daemon applies
/// each frame as one engine batch.
const DEFAULT_CHUNK: usize = 256;

fn client_send(args: &Args) -> Result<(), CliError> {
    let trace = crate::commands::load_trace(args.require_positional(2, "trace file")?)?;
    let chunk: usize = args.num_flag("chunk", DEFAULT_CHUNK)?;
    let mut client = connect_from_args(args, "seer-cli send")?;
    client.send_trace(&trace, chunk)?;
    let applied = client.flush()?;
    println!(
        "streamed {} events in chunks of {chunk}; daemon has applied {applied} from this connection",
        trace.len()
    );
    Ok(())
}

/// Workload-driven load generator: synthesizes a machine profile's trace
/// and streams it at the daemon, reporting throughput.
fn client_load(args: &Args) -> Result<(), CliError> {
    let machine = args.require_flag("machine")?;
    let mut profile = MachineProfile::by_name(machine)
        .ok_or_else(|| CliError(format!("unknown machine: {machine} (use A..I)")))?;
    let days: u32 = args.num_flag("days", profile.days)?;
    profile = profile.scaled_to_days(days);
    let seed: u64 = args.num_flag("seed", 1)?;
    let chunk: usize = args.num_flag("chunk", DEFAULT_CHUNK)?;
    let workload = generate(&profile, seed);

    let mut client = connect_from_args(args, "seer-cli load")?;
    let start = std::time::Instant::now();
    client.send_trace(&workload.trace, chunk)?;
    let applied = client.flush()?;
    let secs = start.elapsed().as_secs_f64();
    let n = workload.trace.len();
    let bytes = client.bytes_sent();
    println!(
        "machine {machine}, {days} days: {n} events streamed in {secs:.3}s \
         ({:.0} events/s, chunk {chunk}, {bytes} bytes on the wire); daemon applied {applied}",
        n as f64 / secs.max(1e-9)
    );
    Ok(())
}

fn client_query(args: &Args) -> Result<(), CliError> {
    let mut client = connect_from_args(args, "seer-cli query")?;
    let response = match args.positional(2) {
        Some("trace") => return client_query_trace(args, client),
        Some("hoard") => {
            let budget: u64 = args
                .require_flag("budget")?
                .parse()
                .map_err(|_| CliError("--budget wants a byte count".into()))?;
            // `--cached` answers from the last computed clustering
            // immediately (possibly marked stale); the default waits for
            // a clustering that reflects every applied event.
            client.query(QueryRequest::Hoard {
                budget,
                fresh: !args.bool_flag("cached"),
            })?
        }
        Some("clusters") => client.query(QueryRequest::Clusters {
            fresh: !args.bool_flag("cached"),
        })?,
        Some("stats") => client.query(QueryRequest::Stats)?,
        Some("metrics") => client.query(QueryRequest::Metrics)?,
        Some("health") => client.query(QueryRequest::Health)?,
        Some("dump") => client.query(QueryRequest::Dump)?,
        // `fleet` aggregates across every tenant on every shard;
        // `--top N` keeps only the N worst tenants by miss rate.
        Some("fleet") => {
            let top_k = match args.flag("top") {
                Some(s) => Some(
                    s.parse()
                        .map_err(|_| CliError(format!("--top wants a count (got {s})")))?,
                ),
                None => None,
            };
            client.query(QueryRequest::Fleet { top_k })?
        }
        // `history` replays the daemon's WAL up to --generation and
        // answers the hoard selection the daemon would have given then.
        Some("history") => {
            let generation: u64 = args
                .require_flag("generation")?
                .parse()
                .map_err(|_| CliError("--generation wants an applied-event count".into()))?;
            let budget: u64 = args.num_flag("budget", 1 << 20)?;
            client.query(QueryRequest::History { generation, budget })?
        }
        Some("explain") => {
            let path = args
                .positional(3)
                .or_else(|| args.flag("path"))
                .ok_or_else(|| {
                    CliError("explain wants a path: seer client query explain <path>".into())
                })?
                .to_owned();
            client.query(QueryRequest::Explain { path })?
        }
        Some("quality") => {
            let response = client.query(QueryRequest::Quality)?;
            // Dashboard export: the series history behind the report as
            // a standalone HTML page or raw JSON.
            if let QueryResponse::Quality { series, .. } = &response {
                if let Some(p) = args.flag("html") {
                    std::fs::write(
                        p,
                        seer_telemetry::render_dashboard_html(series, "seer quality"),
                    )?;
                    eprintln!("quality dashboard written to {p}");
                }
                if let Some(p) = args.flag("series-json") {
                    std::fs::write(
                        p,
                        serde_json::to_string_pretty(series)
                            .map_err(|e| CliError(e.to_string()))?,
                    )?;
                    eprintln!("quality series written to {p}");
                }
            }
            response
        }
        Some("miss") => {
            let id = match args.flag("id").or_else(|| args.positional(3)) {
                Some(s) => Some(
                    s.parse()
                        .map_err(|_| CliError(format!("bad postmortem id: {s}")))?,
                ),
                None => None,
            };
            client.query(QueryRequest::Miss { id })?
        }
        // `alerts` dumps the daemon's alert ring in firing order;
        // `--for NAME` (or a trailing positional) filters to one tenant,
        // with `_self` selecting the daemon's own watchdog alerts.
        Some("alerts") => {
            let tenant = args
                .flag("for")
                .or_else(|| args.positional(3))
                .map(str::to_owned);
            client.query(QueryRequest::Alerts { tenant })?
        }
        other => {
            return Err(CliError(format!(
                "unknown query: {} ({}|trace)",
                other.unwrap_or("<none>"),
                QueryRequest::NAMES.join("|"),
            )))
        }
    };
    if let QueryResponse::Metrics { snapshot } = &response {
        // `--format prom` renders the text exposition format a scraper
        // would ingest; the default is pretty JSON.
        match args.flag("format") {
            Some("prom") => print!("{}", seer_telemetry::render_prometheus(snapshot)),
            Some("json") | None => println!(
                "{}",
                serde_json::to_string_pretty(snapshot).map_err(|e| CliError(e.to_string()))?
            ),
            Some(other) => return Err(CliError(format!("unknown format: {other} (json|prom)"))),
        }
        return Ok(());
    }
    print_response(&response);
    Ok(())
}

/// `seer client query trace [--out FILE]` — drives one fully traced
/// exchange through the daemon and exports the resulting spans as a
/// Chrome trace-event JSON document (load it at `chrome://tracing` or
/// <https://ui.perfetto.dev>).
///
/// By default a tiny probe batch (two opens under `/.seer/trace-probe/`)
/// is streamed so the ingest stages appear in the trace even on an idle
/// daemon; `--events FILE` streams a real trace file instead. The query
/// itself is a *fresh* hoard selection, which forces a recluster and so
/// exercises every pipeline stage.
fn client_query_trace(args: &Args, mut client: DaemonClient) -> Result<(), CliError> {
    let trace_id = seer_telemetry::new_trace_id().0;
    client.set_trace_id(Some(trace_id));

    match args.flag("events") {
        Some(path) => {
            let trace = crate::commands::load_trace(path)?;
            let chunk: usize = args.num_flag("chunk", 64)?;
            client.send_trace(&trace, chunk)?;
        }
        None => {
            let (events, strings) = probe_events();
            client.send_events(&events, &strings)?;
        }
    }
    client.flush()?;
    let budget: u64 = args.num_flag("budget", 1 << 20)?;
    client.query(QueryRequest::Hoard {
        budget,
        fresh: true,
    })?;

    // Everything after the query would pollute the trace; stop stamping
    // before fetching the flight recorder.
    client.set_trace_id(None);
    let (spans, dropped) = client.dump_spans()?;
    let ours: Vec<SpanRecord> = spans
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect();
    if ours.is_empty() {
        return Err(CliError(
            "daemon returned no spans for this trace — was it started with --trace-capacity 0?"
                .into(),
        ));
    }
    let json = seer_telemetry::render_chrome_trace(&ours);
    match args.flag("out") {
        Some(path) => {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            w.write_all(json.as_bytes())?;
            w.flush()?;
            eprintln!(
                "trace {trace_id:016x}: {} spans written to {path} (flight recorder dropped {dropped})",
                ours.len()
            );
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// A two-event probe batch under a reserved namespace, so a traced
/// exchange has ingest work to record without touching real state much.
fn probe_events() -> (Vec<seer_trace::TraceEvent>, seer_trace::StringTable) {
    use seer_trace::{EventKind, Fd, OpenMode, Pid, Seq, StringTable, Timestamp, TraceEvent};
    let mut strings = StringTable::new();
    let events = ["/.seer/trace-probe/a", "/.seer/trace-probe/b"]
        .iter()
        .enumerate()
        .map(|(i, p)| TraceEvent {
            seq: Seq(i as u64),
            time: Timestamp::ZERO,
            pid: Pid(1),
            root: false,
            kind: EventKind::Open {
                path: strings.intern(p),
                mode: OpenMode::Read,
                fd: Fd(3),
            },
            error: None,
        })
        .collect();
    (events, strings)
}

/// `seer trace <hoard|clusters> --socket PATH` — sends one traced query
/// and pretty-prints the span tree the daemon recorded for it.
pub fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let mut client = connect_from_args(args, "seer-trace")?;
    let trace_id = seer_telemetry::new_trace_id().0;
    client.set_trace_id(Some(trace_id));
    let fresh = !args.bool_flag("cached");
    let response = match args.positional(1) {
        Some("hoard") => {
            let budget: u64 = args.num_flag("budget", 1 << 20)?;
            client.query(QueryRequest::Hoard { budget, fresh })?
        }
        Some("clusters") | None => client.query(QueryRequest::Clusters { fresh })?,
        Some(other) => {
            return Err(CliError(format!(
                "unknown traced query: {other} (hoard|clusters)"
            )))
        }
    };
    client.set_trace_id(None);
    let (spans, _dropped) = client.dump_spans()?;
    let ours: Vec<SpanRecord> = spans
        .into_iter()
        .filter(|s| s.trace_id == trace_id)
        .collect();
    if ours.is_empty() {
        return Err(CliError(
            "daemon returned no spans for this trace — was it started with --trace-capacity 0?"
                .into(),
        ));
    }
    print!("{}", seer_telemetry::render_span_tree(&ours));
    println!();
    print_response(&response);
    Ok(())
}

/// `seer explain <path> --socket PATH` — asks the daemon why SEER ranked
/// one file where it did: hoard rank, cluster memberships, and strongest
/// semantic-distance neighbors with evidence counts.
pub fn cmd_explain(args: &Args) -> Result<(), CliError> {
    let path = args.require_positional(1, "path to explain")?;
    let mut client = connect_from_args(args, "seer-explain")?;
    let response = client.explain(path)?;
    print_response(&response);
    Ok(())
}

/// `seer top --socket PATH [--interval SECS]` — a human-readable view of
/// the daemon's telemetry: throughput, queue depth, per-stage latency
/// percentiles, and the live SEER-vs-LRU quality line with sparklines.
/// With `--interval` it refreshes on that
/// cadence over one connection until interrupted; with `--tenant NAME`
/// the quality section tracks that tenant's engine instead of the
/// default one. `--fleet` switches to the per-tenant health view
/// (score, firing alerts, sparkline per tenant), and `--html FILE`
/// additionally exports that view as a standalone dashboard page on
/// every refresh.
pub fn cmd_top(args: &Args) -> Result<(), CliError> {
    let mut client = connect_from_args(args, "seer-top")?;
    let target = match args.flag("tenant") {
        Some(t) => format!("{} (tenant {t})", target_label(args)),
        None => target_label(args),
    };
    let interval: u64 = args.num_flag("interval", 0)?;
    let fleet = args.bool_flag("fleet");
    loop {
        if fleet {
            top_fleet_once(&mut client, &target, args.flag("html"))?;
        } else {
            top_once(&mut client, &target)?;
        }
        if interval == 0 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs(interval));
        println!();
    }
}

/// One `seer top --fleet` frame: every tenant's health row plus the
/// alerts currently firing (including the daemon's own `_self` watchdog
/// alerts, which have no fleet row of their own).
fn top_fleet_once(
    client: &mut DaemonClient,
    target: &str,
    html: Option<&str>,
) -> Result<(), CliError> {
    let (tenants, total_events, per_tenant) =
        match client.query(QueryRequest::Fleet { top_k: None })? {
            QueryResponse::Fleet {
                tenants,
                total_events,
                per_tenant,
            } => (tenants, total_events, per_tenant),
            other => return Err(CliError(format!("unexpected response: {other:?}"))),
        };
    let (alerts, now_secs) = client.alerts(None)?;
    let firing: Vec<&seer_telemetry::AlertRecord> = alerts
        .iter()
        .filter(|a| a.resolved_secs.is_none())
        .collect();
    println!(
        "seer fleet @ {target} — {tenants} tenants, {total_events} events applied, \
         {} alert{} firing",
        firing.len(),
        if firing.len() == 1 { "" } else { "s" },
    );
    print_fleet_rows(&per_tenant);
    if !firing.is_empty() {
        println!();
        for a in &firing {
            print_alert(a, now_secs);
        }
    }
    if let Some(p) = html {
        let panels: Vec<seer_telemetry::FleetPanel> = per_tenant
            .iter()
            .map(|t| seer_telemetry::FleetPanel {
                tenant: t.tenant.clone(),
                score: t.health_score,
                status: t
                    .wal_fault
                    .as_ref()
                    .map_or_else(|| "healthy".to_owned(), |f| format!("wal fault: {f}")),
                firing: t.alerts_firing,
                score_points: t.score_spark.clone(),
            })
            .collect();
        std::fs::write(
            p,
            seer_telemetry::render_fleet_dashboard_html(&panels, "seer fleet"),
        )?;
        eprintln!("fleet dashboard written to {p}");
    }
    Ok(())
}

fn top_once(client: &mut DaemonClient, target: &str) -> Result<(), CliError> {
    let snap = match client.query(QueryRequest::Metrics)? {
        QueryResponse::Metrics { snapshot } => snapshot,
        other => return Err(CliError(format!("unexpected response: {other:?}"))),
    };

    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let gauge = |name: &str| snap.gauge(name).unwrap_or(0);
    let uptime = gauge("seer_daemon_uptime_seconds").max(0) as f64;
    let received = counter("seer_daemon_events_received_total");
    let rate = received as f64 / uptime.max(1.0);
    println!("seer daemon @ {target}");
    println!(
        "uptime {uptime:.0}s   events received {received} ({rate:.1}/s)   \
         applied {}   batches {}",
        counter("seer_daemon_events_applied_total"),
        counter("seer_daemon_batches_applied_total"),
    );
    println!(
        "queue depth {} (peak {})   connections {}   reclusters {} ({} in flight)   \
         snapshots {}   stale queries {}",
        gauge("seer_daemon_queue_depth"),
        gauge("seer_daemon_queue_depth_max"),
        counter("seer_daemon_connections_total"),
        counter("seer_daemon_reclusters_total"),
        gauge("seer_daemon_recluster_inflight"),
        counter("seer_daemon_snapshots_total"),
        counter("seer_daemon_stale_queries_total"),
    );
    println!(
        "engine: {} files known, {} clusters, {} distance observations, \
         generation lag {} events",
        gauge("seer_engine_files_known"),
        gauge("seer_cluster_count"),
        counter("seer_distance_observations_total"),
        gauge("seer_daemon_generation_lag"),
    );
    // The WAL metrics are registered unconditionally but only ever move
    // on daemons running with --wal-dir; show the row once they have.
    if gauge("seer_wal_segments") > 0 || counter("seer_wal_records_total") > 0 {
        println!(
            "wal: {} segments ({} bytes on disk), {} records / {} bytes appended, \
             {} rotations, {} compacted, {} append errors",
            gauge("seer_wal_segments"),
            gauge("seer_wal_disk_bytes"),
            counter("seer_wal_records_total"),
            counter("seer_wal_appended_bytes_total"),
            counter("seer_wal_rotations_total"),
            counter("seer_wal_segments_compacted_total"),
            counter("seer_wal_append_errors_total"),
        );
    }
    // Replication miss counters exist only when a miss log is attached
    // to this registry; skip the row entirely otherwise.
    let by_severity: Vec<(String, u64)> = snap
        .metrics
        .iter()
        .filter(|m| m.name == "seer_replication_misses_total")
        .filter_map(|m| {
            let sev = m.labels.iter().find(|(k, _)| k == "severity")?.1.clone();
            match m.value {
                seer_telemetry::MetricValue::Counter { total } => Some((sev, total)),
                _ => None,
            }
        })
        .collect();
    if !by_severity.is_empty() {
        let total: u64 = by_severity.iter().map(|(_, n)| n).sum();
        let detail: Vec<String> = by_severity
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(sev, n)| format!("sev{sev}:{n}"))
            .collect();
        println!(
            "misses: {total} user-recorded{}{}   auto-detected {}",
            if detail.is_empty() { "" } else { " — " },
            detail.join(" "),
            counter("seer_replication_auto_misses_total"),
        );
    }
    let (report, series) = client.quality()?;
    println!();
    print_quality(&report, &series);
    println!();
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "stage", "count", "p50", "p95", "p99", "total"
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
        let (count, sum) = match &m.value {
            seer_telemetry::MetricValue::Histogram {
                count, sum_seconds, ..
            } => (*count, *sum_seconds),
            _ => continue,
        };
        println!(
            "{stage:<16} {count:>10} {:>10} {:>10} {:>10} {:>12}",
            fmt_seconds(m.quantile(0.50)),
            fmt_seconds(m.quantile(0.95)),
            fmt_seconds(m.quantile(0.99)),
            fmt_seconds(Some(sum)),
        );
    }
    Ok(())
}

/// Renders a duration in seconds with an adaptive unit (`-` when absent).
fn fmt_seconds(secs: Option<f64>) -> String {
    match secs {
        None => "-".into(),
        Some(s) if s < 1e-6 => format!("{:.0}ns", s * 1e9),
        Some(s) if s < 1e-3 => format!("{:.1}µs", s * 1e6),
        Some(s) if s < 1.0 => format!("{:.1}ms", s * 1e3),
        Some(s) => format!("{s:.2}s"),
    }
}

fn print_response(response: &QueryResponse) {
    match response {
        QueryResponse::Hoard {
            files,
            bytes,
            clusters_taken,
            clusters_skipped,
            generation,
            stale,
        } => {
            println!(
                "hoard: {} files, {bytes} bytes; {clusters_taken} whole projects \
                 ({clusters_skipped} skipped); clustering generation {generation}{}",
                files.len(),
                if *stale { " (stale)" } else { "" }
            );
            for f in files {
                println!("  {f}");
            }
        }
        QueryResponse::Clusters {
            count,
            largest,
            files_known,
            generation,
            stale,
        } => {
            println!(
                "{count} clusters over {files_known} known files \
                 (generation {generation}{})",
                if *stale { ", stale" } else { "" }
            );
            println!("largest: {largest:?}");
        }
        QueryResponse::Stats {
            events_received,
            events_applied,
            batches_applied,
            max_queue_depth,
            reclusters,
            snapshots,
            connections,
        } => {
            println!("events received:  {events_received}");
            println!("events applied:   {events_applied}");
            println!("batches applied:  {batches_applied}");
            println!("peak queue depth: {max_queue_depth}");
            println!("reclusters:       {reclusters}");
            println!("snapshots:        {snapshots}");
            println!("connections:      {connections}");
        }
        // Reached only via code paths that did not special-case the
        // metrics payload; a terse summary beats dumping the registry.
        QueryResponse::Metrics { snapshot } => {
            println!("{} metrics in registry", snapshot.metrics.len());
        }
        QueryResponse::Health {
            healthy,
            events_applied,
            queue_depth,
            wal_fault,
        } => {
            println!(
                "{}: {events_applied} events applied, queue depth {queue_depth}{}",
                if *healthy { "healthy" } else { "unhealthy" },
                wal_fault
                    .as_ref()
                    .map_or_else(String::new, |f| format!("; wal fault: {f}")),
            );
        }
        QueryResponse::Fleet {
            tenants,
            total_events,
            per_tenant,
        } => {
            println!("fleet: {tenants} tenants, {total_events} events applied");
            print_fleet_rows(per_tenant);
        }
        QueryResponse::Dump { spans, dropped } => {
            println!(
                "flight recorder: {} spans retained, {dropped} dropped",
                spans.len()
            );
            print!("{}", seer_telemetry::render_span_tree(spans));
        }
        QueryResponse::History {
            generation,
            files,
            bytes,
            clusters_taken,
            clusters_skipped,
            clusters,
            files_known,
        } => {
            println!(
                "history @ generation {generation}: {} files, {bytes} bytes; \
                 {clusters_taken} whole projects ({clusters_skipped} skipped) \
                 from {clusters} clusters over {files_known} known files",
                files.len(),
            );
            for f in files {
                println!("  {f}");
            }
        }
        QueryResponse::Explain {
            path,
            rank,
            ranked,
            always_hoard,
            last_ref_secs,
            ref_count,
            clusters,
            neighbors,
            generation,
            stale,
        } => {
            println!(
                "{path}: {}{} (clustering generation {generation}{})",
                match rank {
                    Some(r) => format!("rank {} of {ranked}", r + 1),
                    None => format!("unranked ({ranked} files ranked)"),
                },
                if *always_hoard { ", always-hoard" } else { "" },
                if *stale { ", stale" } else { "" },
            );
            println!(
                "  last referenced: {}   references: {ref_count}",
                last_ref_secs.map_or_else(|| "never".to_owned(), |s| format!("t+{s}s")),
            );
            if clusters.is_empty() {
                println!("  clusters: none");
            } else {
                let list: Vec<String> = clusters
                    .iter()
                    .map(|(id, members)| format!("#{id} ({members} members)"))
                    .collect();
                println!("  clusters: {}", list.join(", "));
            }
            if neighbors.is_empty() {
                println!("  neighbors: none (no pairwise evidence yet)");
            } else {
                println!("  strongest neighbors (distance, evidence):");
                for n in neighbors {
                    println!("    {:<9.3} x{:<5} {}", n.distance, n.evidence, n.path);
                }
            }
        }
        QueryResponse::Quality { report, series } => print_quality(report, series),
        QueryResponse::Misses { postmortems } => {
            if postmortems.is_empty() {
                println!("no miss postmortems recorded");
            }
            for pm in postmortems {
                print_postmortem(pm);
            }
        }
        QueryResponse::Alerts { alerts, now_secs } => {
            if alerts.is_empty() {
                println!("no alerts recorded");
            }
            for a in alerts {
                print_alert(a, *now_secs);
            }
        }
        QueryResponse::Error { message } => {
            println!("daemon error: {message}");
        }
    }
}

/// The shared per-tenant fleet table: health score, firing alerts, and
/// a health-score sparkline next to the original throughput columns.
fn print_fleet_rows(per_tenant: &[seer_trace::wire::TenantFleetStat]) {
    println!(
        "{:<20} {:>7} {:>7} {:>12} {:>10} {:>8} {:>10}  {:<14} wal",
        "tenant", "health", "alerts", "events", "files", "misses", "miss rate", "score"
    );
    for t in per_tenant {
        println!(
            "{:<20} {:>7.0} {:>7} {:>12} {:>10} {:>8} {:>9.4}%  {:<14} {}",
            t.tenant,
            t.health_score,
            t.alerts_firing,
            t.events_applied,
            t.files_known,
            t.misses,
            t.miss_rate * 100.0,
            seer_telemetry::render_sparkline(&t.score_spark),
            t.wal_fault.as_deref().unwrap_or("ok"),
        );
    }
}

/// Renders one alert-ring record with ages relative to the daemon's
/// alert clock (`now_secs` = seconds since the daemon started).
fn print_alert(a: &seer_telemetry::AlertRecord, now_secs: f64) {
    match a.resolved_secs {
        None => println!(
            "FIRING   #{:<4} {:<16} {:<22} for {:.0}s  {}",
            a.id,
            a.tenant,
            a.kind,
            (now_secs - a.fired_secs).max(0.0),
            a.message,
        ),
        Some(r) => println!(
            "resolved #{:<4} {:<16} {:<22} after {:.0}s ({:.0}s ago)  {}",
            a.id,
            a.tenant,
            a.kind,
            (r - a.fired_secs).max(0.0),
            (now_secs - r).max(0.0),
            a.message,
        ),
    }
}

/// Renders the live quality report with sparklines drawn from the
/// evaluator's time-series history (oldest sample on the left).
fn print_quality(
    report: &seer_trace::wire::QualityReport,
    series: &seer_telemetry::SeriesSnapshot,
) {
    let spark = |name: &str| {
        series
            .get(name)
            .map_or_else(String::new, |s| seer_telemetry::render_sparkline(&s.points))
    };
    let first_miss = |m: Option<u64>| m.map_or_else(|| "never".to_owned(), |s| format!("{s}s in"));
    println!(
        "quality @ generation {} (clustering {}): window {}s, budget {} bytes, \
         {} evaluations",
        report.generation,
        report.clustering_generation,
        report.window_secs,
        report.budget,
        report.evals,
    );
    println!(
        "needed: {} files, {} bytes working set  {}",
        report.needed_files,
        report.working_set_bytes,
        spark("needed_files"),
    );
    println!(
        "seer: miss-free {} bytes ({} uncovered), coverage {:.1}%, first miss {}  {}",
        report.seer_missfree_bytes,
        report.seer_uncovered,
        report.seer_coverage * 100.0,
        first_miss(report.seer_first_miss_secs),
        spark("seer_missfree_bytes"),
    );
    println!(
        "lru:  miss-free {} bytes ({} uncovered), coverage {:.1}%, first miss {}  {}",
        report.lru_missfree_bytes,
        report.lru_uncovered,
        report.lru_coverage * 100.0,
        first_miss(report.lru_first_miss_secs),
        spark("lru_missfree_bytes"),
    );
    let graded: Vec<String> = report
        .misses_by_severity
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(sev, n)| format!("sev{sev}:{n}"))
        .collect();
    println!(
        "misses: {}   auto-detected {}",
        if graded.is_empty() {
            "none graded".to_owned()
        } else {
            graded.join(" ")
        },
        report.auto_misses,
    );
}

/// Renders one miss postmortem: what the daemon knew about the file at
/// the moment the miss was recorded, and how to replay that moment.
fn print_postmortem(pm: &seer_trace::wire::MissPostmortem) {
    println!(
        "miss #{}: {} at t+{}s ({})",
        pm.id,
        pm.path,
        pm.time_secs,
        match pm.severity {
            Some(sev) => format!("severity {sev}"),
            None if pm.auto => "auto-detected".to_owned(),
            None => "ungraded".to_owned(),
        },
    );
    println!(
        "  at capture: {} (clustering generation {})",
        match pm.rank {
            Some(r) => format!("rank {} of {}", r + 1, pm.ranked),
            None => format!("unranked ({} files ranked)", pm.ranked),
        },
        pm.clustering_generation,
    );
    if pm.clusters.is_empty() {
        println!("  clusters: none");
    } else {
        let list: Vec<String> = pm
            .clusters
            .iter()
            .map(|(id, members)| format!("#{id} ({members} members)"))
            .collect();
        println!("  clusters: {}", list.join(", "));
    }
    for n in &pm.neighbors {
        println!("    {:<9.3} x{:<5} {}", n.distance, n.evidence, n.path);
    }
    println!(
        "  replay: seer client query history --generation {} --budget <bytes>",
        pm.generation,
    );
}
