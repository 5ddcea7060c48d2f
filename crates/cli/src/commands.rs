//! Command implementations for the `seer` CLI.

use crate::args::{Args, CliError};
use seer_core::{SeerEngine, SeerSnapshot};
use seer_sim::{run_missfree_parts, MissFreeConfig, MissFreeInput, SizeModel};
use seer_trace::{EventSink, FileId, FsImage, Timestamp, Trace};
use seer_workload::{generate, MachineProfile};
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// Usage text shown by `seer help`.
///
/// The `seer client query` line derives its query list from
/// [`seer_trace::wire::QueryRequest::NAMES`], the same table the
/// daemon-command dispatcher uses, so help cannot drift from the wire
/// protocol as queries are added.
#[must_use]
pub fn usage() -> String {
    format!(
        "\
seer — automated hoarding for mobile computers (SEER reproduction)

USAGE:
  seer generate --machine <A..I> [--days N] [--seed N]
                [--trace FILE] [--fs FILE] [--corpus FILE]
  seer stats <trace.jsonl>
  seer observe <trace.jsonl> --state <out.json> [--state-in <prev.json>]
  seer clusters <state.json> [--min-size N] [--top N]
  seer hoard <state.json> --budget <bytes> [--fs <fs.json>]
  seer missfree <trace> [--period daily|weekly] [--fs <fs.json>]
  seer convert <in> <out> [--format text|json]
  seer live --machine <A..I> [--days N] [--seed N] [--budget BYTES]
            [--refill-hours H]
  seer daemon --socket PATH [--tcp ADDR] [--shards N]
              [--snapshot FILE] [--capacity N]
              [--recluster-every N] [--snapshot-every N] [--file-size BYTES]
              [--recluster-threads N] [--trace-capacity N] [--slow-span-ms MS]
              [--flight FILE] [--wal-dir DIR] [--fsync always|never|interval:<ms>]
              [--wal-segment-bytes N] [--restore-to GENERATION]
              [--eval-every-ms MS] [--eval-window-secs S]
              [--burn-fast-secs S] [--burn-slow-secs S]
              (N = 0 for --recluster-every / --snapshot-every means never;
               --trace-capacity 0 disables the flight recorder;
               --wal-dir enables the write-ahead log; --restore-to discards
               every batch past that generation before starting;
               --tcp also listens on that address, --shards spreads the
               engine actors across cores; any other flag is refused)
              (every client/trace/explain/top command below also accepts
               --tcp ADDR instead of --socket and --tenant NAME to
               address one observed machine on a multi-tenant daemon)
  seer client send <trace> --socket PATH [--chunk N]
  seer client load --socket PATH --machine <A..I> [--days N] [--seed N] [--chunk N]
  seer client query <{queries}> --socket PATH
                    [--budget BYTES] [--cached] [--format json|prom]
  seer client query fleet --socket PATH [--top K]
                    (per-tenant events/hoard/miss-rate table, whole daemon)
  seer client query history --socket PATH --generation N [--budget BYTES]
                    (replays the WAL prefix: the answer the daemon gave then)
  seer client query explain <path> --socket PATH
                    (rank, clusters, and strongest neighbors for one file)
  seer client query quality --socket PATH [--html FILE] [--series-json FILE]
                    (live SEER-vs-LRU miss-free report; exports the dashboard)
  seer client query miss [ID] --socket PATH
                    (miss postmortems: why was that file outside the hoard?)
  seer client query trace --socket PATH [--budget BYTES] [--out FILE]
                    [--events TRACE] [--chunk N]
                    (exports one traced exchange as Chrome trace-event JSON)
  seer client shutdown --socket PATH
  seer trace <hoard|clusters> --socket PATH [--budget BYTES] [--cached]
  seer explain <path> --socket PATH
  seer top --socket PATH [--interval SECS]
  seer demo [--days N]
  seer help
",
        queries = seer_trace::wire::QueryRequest::NAMES.join("|"),
    )
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &Args) -> Result<(), CliError> {
    match args.positional(0) {
        Some("generate") => cmd_generate(args),
        Some("stats") => cmd_stats(args),
        Some("observe") => cmd_observe(args),
        Some("clusters") => cmd_clusters(args),
        Some("hoard") => cmd_hoard(args),
        Some("missfree") => cmd_missfree(args),
        Some("convert") => cmd_convert(args),
        Some("live") => cmd_live(args),
        Some("daemon") => crate::daemon_cmd::cmd_daemon(args),
        Some("client") => crate::daemon_cmd::cmd_client(args),
        Some("top") => crate::daemon_cmd::cmd_top(args),
        Some("trace") => crate::daemon_cmd::cmd_trace(args),
        Some("explain") => crate::daemon_cmd::cmd_explain(args),
        Some("demo") => cmd_demo(args),
        Some("help") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(CliError(format!("unknown command: {other}\n\n{}", usage()))),
    }
}

pub(crate) fn load_trace(path: &str) -> Result<Trace, CliError> {
    use std::io::BufRead;
    let mut r = BufReader::new(File::open(path)?);
    // Auto-detect: text traces start with a '#' header, JSON-lines with '{'.
    let first = r.fill_buf()?.first().copied();
    match first {
        Some(b'#') => Ok(Trace::load_text(&mut r)?),
        _ => Ok(Trace::load_jsonl(&mut r)?),
    }
}

fn save_trace(trace: &Trace, path: &str, format: &str) -> Result<(), CliError> {
    let mut w = BufWriter::new(File::create(path)?);
    match format {
        "text" => trace.save_text(&mut w)?,
        "json" => trace.save_jsonl(&mut w)?,
        other => return Err(CliError(format!("unknown format: {other} (text|json)"))),
    }
    w.flush()?;
    Ok(())
}

fn load_state(path: &str) -> Result<SeerEngine, CliError> {
    let mut r = BufReader::new(File::open(path)?);
    let snap = SeerSnapshot::load(&mut r)?;
    Ok(SeerEngine::from_snapshot(snap))
}

fn load_fs(path: Option<&str>) -> Result<FsImage, CliError> {
    match path {
        None => Ok(FsImage::new()),
        Some(p) => {
            let r = BufReader::new(File::open(p)?);
            Ok(serde_json::from_reader(r)?)
        }
    }
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let machine = args.require_flag("machine")?;
    let mut profile = MachineProfile::by_name(machine)
        .ok_or_else(|| CliError(format!("unknown machine: {machine} (use A..I)")))?;
    let days: u32 = args.num_flag("days", profile.days)?;
    profile = profile.scaled_to_days(days);
    let seed: u64 = args.num_flag("seed", 1)?;
    let workload = generate(&profile, seed);

    let trace_path = args.flag("trace").unwrap_or("trace.jsonl");
    let format = args.flag("format").unwrap_or("json");
    save_trace(&workload.trace, trace_path, format)?;
    println!(
        "wrote {} events over {} days to {trace_path} ({format})",
        workload.trace.len(),
        profile.days
    );

    if let Some(fs_path) = args.flag("fs") {
        let w = BufWriter::new(File::create(fs_path)?);
        serde_json::to_writer(w, &workload.fs)?;
        println!(
            "wrote filesystem image ({} objects) to {fs_path}",
            workload.fs.len()
        );
    }
    if let Some(corpus_path) = args.flag("corpus") {
        let entries: Vec<(&str, &str)> = workload.corpus.iter().collect();
        let w = BufWriter::new(File::create(corpus_path)?);
        serde_json::to_writer(w, &entries)?;
        println!(
            "wrote source corpus ({} files) to {corpus_path}",
            workload.corpus.len()
        );
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let trace = load_trace(args.require_positional(1, "trace file")?)?;
    let stats = trace.stats();
    println!("machine:        {}", trace.meta.machine);
    println!("events:         {}", stats.events);
    println!("distinct paths: {}", stats.distinct_raw_paths);
    println!("duration:       {:.1} hours", stats.duration.as_hours_f64());
    println!("failures:       {}", stats.failures);
    let mut kinds = stats.per_kind.clone();
    kinds.sort_by_key(|k| std::cmp::Reverse(k.1));
    for (kind, count) in kinds {
        println!("  {kind:<10} {count}");
    }
    Ok(())
}

fn cmd_observe(args: &Args) -> Result<(), CliError> {
    let trace = load_trace(args.require_positional(1, "trace file")?)?;
    let mut engine = match args.flag("state-in") {
        Some(prev) => load_state(prev)?,
        None => SeerEngine::default(),
    };
    for ev in &trace.events {
        engine.on_event(ev, &trace.strings);
    }
    engine.recluster();
    let out = args.require_flag("state")?;
    let mut w = BufWriter::new(File::create(out)?);
    engine.snapshot().save(&mut w)?;
    w.flush()?;
    let stats = engine.observer_stats();
    println!(
        "observed {} events: {} references emitted, {} suppressed; {} files known",
        stats.events,
        stats.refs_emitted,
        stats.total_suppressed(),
        engine.paths().len()
    );
    println!("state saved to {out}");
    Ok(())
}

fn cmd_clusters(args: &Args) -> Result<(), CliError> {
    let mut engine = load_state(args.require_positional(1, "state file")?)?;
    let min_size: usize = args.num_flag("min-size", 2)?;
    let top: usize = args.num_flag("top", usize::MAX)?;
    let clustering = engine.recluster().clone();
    let mut clusters: Vec<&seer_cluster::Cluster> = clustering
        .clusters
        .iter()
        .filter(|c| c.len() >= min_size)
        .collect();
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    println!(
        "{} clusters ({} with ≥ {min_size} members):",
        clustering.len(),
        clusters.len()
    );
    for (i, c) in clusters.iter().take(top).enumerate() {
        println!("project {i} ({} files):", c.len());
        for &f in &c.files {
            if let Some(p) = engine.paths().resolve(f) {
                println!("  {p}");
            }
        }
    }
    Ok(())
}

fn cmd_hoard(args: &Args) -> Result<(), CliError> {
    let mut engine = load_state(args.require_positional(1, "state file")?)?;
    let budget: u64 = args
        .require_flag("budget")?
        .parse()
        .map_err(|_| CliError("--budget wants a byte count".into()))?;
    let fs = load_fs(args.flag("fs"))?;
    let seed: u64 = args.num_flag("seed", 1)?;
    let mut sizes = SizeModel::new(&fs, seed);
    engine.recluster();
    let mut size_by_id: HashMap<FileId, u64> = HashMap::new();
    for f in engine.rank() {
        size_by_id.insert(f, sizes.size_of(engine.paths(), f));
    }
    let sel = engine.choose_hoard(budget, &|f| size_by_id.get(&f).copied().unwrap_or(0));
    println!(
        "hoard: {} files, {} bytes of {budget} budget; {} whole projects ({} skipped)",
        sel.files.len(),
        sel.bytes,
        sel.clusters_taken,
        sel.clusters_skipped
    );
    for &f in &sel.files {
        if let Some(p) = engine.paths().resolve(f) {
            println!("  {:>9}  {p}", size_by_id.get(&f).copied().unwrap_or(0));
        }
    }
    Ok(())
}

fn cmd_missfree(args: &Args) -> Result<(), CliError> {
    let trace = load_trace(args.require_positional(1, "trace file")?)?;
    let fs = load_fs(args.flag("fs"))?;
    let cfg = match args.flag("period").unwrap_or("weekly") {
        "daily" => MissFreeConfig::daily(),
        "weekly" => MissFreeConfig::weekly(),
        other => return Err(CliError(format!("unknown period: {other} (daily|weekly)"))),
    };
    let out = run_missfree_parts(
        MissFreeInput {
            trace: &trace,
            fs: &fs,
            corpus: None,
        },
        &cfg,
    );
    let ws = out.mean_of(|p| p.working_set);
    let seer = out.mean_of(|p| p.seer.bytes);
    let lru = out.mean_of(|p| p.lru.bytes);
    println!("periods:          {}", out.periods.len());
    println!("active periods:   {}", out.active_periods().count());
    println!("mean working set: {ws:.0} bytes");
    println!(
        "mean seer:        {seer:.0} bytes ({:.2}x working set)",
        seer / ws.max(1.0)
    );
    println!(
        "mean lru:         {lru:.0} bytes ({:.2}x working set)",
        lru / ws.max(1.0)
    );
    Ok(())
}

fn cmd_convert(args: &Args) -> Result<(), CliError> {
    let input = args.require_positional(1, "input trace")?;
    let output = args.require_positional(2, "output trace")?;
    let format = args.flag("format").unwrap_or("text");
    let trace = load_trace(input)?;
    save_trace(&trace, output, format)?;
    println!("converted {} events to {output} ({format})", trace.len());
    Ok(())
}

fn cmd_live(args: &Args) -> Result<(), CliError> {
    use seer_sim::{run_live, LiveConfig, RefillPolicy};
    let machine = args.require_flag("machine")?;
    let mut profile = MachineProfile::by_name(machine)
        .ok_or_else(|| CliError(format!("unknown machine: {machine} (use A..I)")))?;
    let days: u32 = args.num_flag("days", profile.days)?;
    profile = profile.scaled_to_days(days);
    let seed: u64 = args.num_flag("seed", 1)?;
    let budget: u64 = args.num_flag("budget", u64::MAX)?;
    let workload = generate(&profile, seed);
    let refill = match args.flag("refill-hours") {
        None => RefillPolicy::OnDisconnect,
        Some(h) => RefillPolicy::Periodic(
            h.parse()
                .map_err(|_| CliError(format!("bad --refill-hours: {h}")))?,
        ),
    };
    let cfg = LiveConfig {
        hoard_bytes: budget,
        size_seed: seed,
        refill,
        ..LiveConfig::default()
    };
    let result = run_live(&workload, &cfg);
    println!(
        "machine {} over {} days: {} disconnections, budget {}",
        profile.name,
        profile.days,
        result.n_disconnections,
        if budget == u64::MAX {
            "unbounded".to_owned()
        } else {
            budget.to_string()
        }
    );
    println!(
        "misses: {} total ({} user-judged, {} auto, {} implied); {} failed disconnections",
        result.misses.len(),
        result
            .misses
            .iter()
            .filter(|m| m.severity.is_some())
            .count(),
        result.auto_count(),
        result.misses.iter().filter(|m| m.implied).count(),
        result.failed_disconnections()
    );
    for sev in seer_replication::Severity::ALL {
        let n = result.count_at(sev);
        if n > 0 {
            println!("  severity {}: {n}", sev.code());
        }
    }
    println!("bytes moved by hoard fills: {}", result.bytes_fetched);
    Ok(())
}

fn cmd_demo(args: &Args) -> Result<(), CliError> {
    let days: u32 = args.num_flag("days", 15)?;
    let profile = MachineProfile::by_name("A")
        .expect("machine A is built in")
        .scaled_to_days(days);
    println!("demo: {days}-day developer workload, full SEER pipeline\n");
    let workload = generate(&profile, 42);
    let mut engine = SeerEngine::default();
    for ev in &workload.trace.events {
        engine.on_event(ev, &workload.trace.strings);
    }
    let clustering = engine.recluster().clone();
    println!(
        "{} events → {} known files → {} clusters",
        workload.trace.len(),
        engine.paths().len(),
        clustering.len()
    );
    let mut sizes = SizeModel::new(&workload.fs, 1);
    let mut size_by_id: HashMap<FileId, u64> = HashMap::new();
    for f in engine.rank() {
        size_by_id.insert(f, sizes.size_of(engine.paths(), f));
    }
    let budget = 4 * 1024 * 1024;
    let sel = engine.choose_hoard(budget, &|f| size_by_id.get(&f).copied().unwrap_or(0));
    println!(
        "hoard for a 4 MiB disconnection: {} files / {} bytes ({} projects)",
        sel.files.len(),
        sel.bytes,
        sel.clusters_taken
    );
    let shown: Vec<&str> = sel
        .files
        .iter()
        .take(10)
        .filter_map(|&f| engine.paths().resolve(f))
        .collect();
    println!("first files in: {shown:#?}");
    Ok(())
}

/// Timestamp helper re-exported for tests.
#[must_use]
pub fn hours(h: u64) -> Timestamp {
    Timestamp::from_hours(h)
}
