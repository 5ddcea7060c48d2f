//! `perfbench`: the SEER daemon benchmark (see the library docs).
//!
//! ```text
//! perfbench --workload <stream|durable|hoard> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a report, then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed`, and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when an operation fails or a correctness gate trips.
//!
//! `perfbench daemon <seer daemon flags>` is the daemon under test: the
//! benchmark re-executes itself in this mode to run `seer daemon` as a
//! child process.

use perfbench::report::{result_line, Metrics, Ops};
use perfbench::run::{reset_dir, run, RunConfig, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Where runs keep their daemon files and trace output, relative to the
/// working directory.
const WORK_DIR: &str = ".bench_work";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn bench(o: &Options) -> i32 {
    let work = PathBuf::from(WORK_DIR);
    let cfg = RunConfig {
        workload: o.workload,
        seed: o.seed,
        seconds: o.seconds,
        traced: o.trace,
        dir: work.join(format!(
            "{}-{}-{}",
            o.workload.name(),
            o.seed,
            std::process::id()
        )),
    };
    let mut ops = Ops::default();
    let result = reset_dir(&cfg.dir).and_then(|()| run(&cfg, &mut ops));
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let measured = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, ops, &Metrics::default()));
            return 1;
        }
    };
    for note in &measured.notes {
        println!("# {note}");
    }
    for m in measured.metrics.all() {
        println!("# {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if o.trace {
        let path = work
            .join("traces")
            .join(format!("{}-seed{}.json", o.workload.name(), o.seed));
        let written = std::fs::create_dir_all(work.join("traces")).and_then(|()| {
            std::fs::write(&path, seer_telemetry::render_chrome_trace(&measured.spans))
        });
        match written {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let names: Vec<&str> = if o.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    match measured.metrics.select(&names, o.trace) {
        Ok(selected) => {
            println!("{}", result_line(true, ops, &selected));
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            println!("{}", result_line(false, ops, &Metrics::default()));
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("daemon") {
        // The daemon under test: exactly `seer daemon <flags>`.
        let code = match seer_cli::Args::parse(args) {
            Ok(parsed) => match seer_cli::commands::dispatch(&parsed) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("seer: {e}");
                    1
                }
            },
            Err(e) => {
                eprintln!("seer: {e}");
                2
            }
        };
        std::process::exit(code);
    }
    match parse_options(&args) {
        Ok(o) => std::process::exit(bench(&o)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <stream|durable|hoard> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    }
}
