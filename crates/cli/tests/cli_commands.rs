//! End-to-end tests of the CLI commands against temp files.

use seer_cli::args::Args;
use seer_cli::commands::dispatch;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seer-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run(cmd: &str) -> Result<(), seer_cli::CliError> {
    let args = Args::parse(cmd.split_whitespace().map(str::to_owned)).expect("parse");
    dispatch(&args)
}

#[test]
fn generate_stats_observe_hoard_pipeline() {
    let dir = tmpdir("pipeline");
    let trace = dir.join("t.jsonl");
    let fs = dir.join("fs.json");
    let state = dir.join("s.json");
    run(&format!(
        "generate --machine A --days 6 --seed 3 --trace {} --fs {}",
        trace.display(),
        fs.display()
    ))
    .expect("generate");
    assert!(trace.exists() && fs.exists());

    run(&format!("stats {}", trace.display())).expect("stats");
    run(&format!(
        "observe {} --state {}",
        trace.display(),
        state.display()
    ))
    .expect("observe");
    assert!(state.exists());
    run(&format!(
        "clusters {} --min-size 2 --top 3",
        state.display()
    ))
    .expect("clusters");
    run(&format!(
        "hoard {} --budget 2000000 --fs {}",
        state.display(),
        fs.display()
    ))
    .expect("hoard");
    run(&format!(
        "missfree {} --period daily --fs {}",
        trace.display(),
        fs.display()
    ))
    .expect("missfree");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_observe_resumes_from_state() {
    let dir = tmpdir("resume");
    let t1 = dir.join("t1.jsonl");
    let t2 = dir.join("t2.jsonl");
    let s1 = dir.join("s1.json");
    let s2 = dir.join("s2.json");
    run(&format!(
        "generate --machine B --days 5 --seed 1 --trace {}",
        t1.display()
    ))
    .expect("generate 1");
    run(&format!(
        "generate --machine B --days 5 --seed 2 --trace {}",
        t2.display()
    ))
    .expect("generate 2");
    run(&format!(
        "observe {} --state {}",
        t1.display(),
        s1.display()
    ))
    .expect("observe 1");
    // Resume: the second observation builds on the first session's state.
    run(&format!(
        "observe {} --state {} --state-in {}",
        t2.display(),
        s2.display(),
        s1.display()
    ))
    .expect("observe 2");
    let len1 = std::fs::metadata(&s1).expect("s1").len();
    let len2 = std::fs::metadata(&s2).expect("s2").len();
    assert!(
        len2 > len1 / 2,
        "resumed state carries accumulated knowledge"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(run("stats /definitely/not/here.jsonl").is_err());
    assert!(run("generate --machine Z").is_err());
    assert!(run("hoard").is_err());
    assert!(run("missfree /nope --period monthly").is_err());
    assert!(run("frobnicate").is_err());
    // The daemon refuses a mistyped, retired, or zero-valued flag by
    // name before it binds its socket.
    let dir = tmpdir("daemon-flags");
    let sock = dir.join("sock");
    for (flags, named) in [
        ("--fsyn always", "--fsyn"),
        ("--eval-budget 1", "--eval-budget"),
        ("--eval-every-ms 0", "--eval-every-ms"),
    ] {
        let err = run(&format!("daemon --socket {} {flags}", sock.display())).expect_err(flags);
        assert!(err.0.contains(named), "{flags}: {err}");
        assert!(!sock.exists(), "{flags}: the socket was bound");
    }
    std::fs::remove_dir_all(&dir).ok();
    run("help").expect("help always works");
}

#[test]
fn demo_runs() {
    run("demo --days 5").expect("demo");
}

#[test]
fn convert_between_formats_round_trips() {
    let dir = tmpdir("convert");
    let json = dir.join("t.jsonl");
    let text = dir.join("t.txt");
    let back = dir.join("back.jsonl");
    run(&format!(
        "generate --machine E --days 4 --seed 9 --trace {}",
        json.display()
    ))
    .expect("generate");
    run(&format!(
        "convert {} {} --format text",
        json.display(),
        text.display()
    ))
    .expect("to text");
    run(&format!(
        "convert {} {} --format json",
        text.display(),
        back.display()
    ))
    .expect("back to json");
    // Text is substantially smaller; both load and agree on event count.
    let jlen = std::fs::metadata(&json).expect("json").len();
    let tlen = std::fs::metadata(&text).expect("text").len();
    assert!(tlen * 2 < jlen, "text {tlen} vs json {jlen}");
    run(&format!("stats {}", text.display())).expect("stats on text format");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_command_reports() {
    run("live --machine E --days 10 --seed 4 --budget 1000000").expect("live");
    run("live --machine E --days 10 --seed 4 --refill-hours 8").expect("periodic live");
    assert!(run("live --machine Q").is_err());
}
