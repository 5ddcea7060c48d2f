//! Tests of the benchmark's own logic: percentile selection, metric
//! naming, the correctness gates, and the stream and span arithmetic the
//! reported numbers rest on.

use perfbench::input::{part_seed, EventStream};
use perfbench::report::{result_line, Metrics, Ops};
use perfbench::run::{check_hoard, END_TO_END, PER_LAYER};
use perfbench::spans::self_times;
use perfbench::stats::{
    is_metric_name, is_unit, median, nearest_rank, tail_percentile, MIN_TAIL_SAMPLES,
};
use seer_telemetry::SpanRecord;
use seer_trace::{OpenMode, Pid, TraceBuilder};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    // p90 of 100 samples is the 90th; exactly ten lie beyond it.
    let v = ramp(100);
    let p90 = tail_percentile(&v, 90).expect("100 samples support p90");
    assert_eq!(p90, 90.0);
    assert_eq!(v.iter().filter(|&&x| x > p90).count(), MIN_TAIL_SAMPLES);
    // One sample fewer leaves nine beyond: refused, not rounded.
    assert!(tail_percentile(&ramp(99), 90).is_err());
    // The rule holds for every percentile and size: whatever is
    // returned has at least ten samples above it.
    for n in 1..=300 {
        for p in [50, 75, 90, 95, 99] {
            let v = ramp(n);
            if let Ok(x) = tail_percentile(&v, p) {
                assert!(v.iter().filter(|&&y| y > x).count() >= MIN_TAIL_SAMPLES);
            }
        }
    }
    assert!(tail_percentile(&ramp(19), 50).is_err());
    assert_eq!(tail_percentile(&ramp(20), 50), Ok(10.0));
    assert!(tail_percentile(&[], 50).is_err());
}

#[test]
fn order_statistics_match_their_definitions() {
    let mut v = ramp(10);
    v.reverse();
    assert_eq!(median(&v), 5.5);
    assert_eq!(median(&ramp(5)), 3.0);
    assert_eq!(nearest_rank(&ramp(31), 25), 8.0);
    assert_eq!(nearest_rank(&[3.0], 25), 3.0);
}

#[test]
fn metric_names_and_units_are_legal_and_unique() {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
    for (name, unit) in &all {
        assert!(is_metric_name(name), "{name}");
        assert!(is_unit(unit), "{unit}");
    }
    let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "a metric name is used twice");
    assert!(END_TO_END.contains(&("setup_s", "s")));
    for bad in ["", "a b", "x/y", "-lead", "é", &"a".repeat(65)] {
        assert!(!is_metric_name(bad), "{bad:?}");
    }
    assert!(is_metric_name("wire.decode_ns_per_event"));
}

#[test]
fn benchmark_json_lists_the_metrics_the_program_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(serde::Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(serde::Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}

#[test]
fn offline_equality_gate_rejects_a_perturbed_hoard() {
    let hoard: Vec<String> = ["/p/a.c", "/p/b.h", "/p/Makefile", "/q/notes.txt"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    assert!(check_hoard(&hoard, &hoard).is_ok());

    let mut swapped = hoard.clone();
    swapped.swap(1, 2);
    let mut missing = hoard.clone();
    missing.pop();
    let mut extra = hoard.clone();
    extra.push("/tmp/x".to_owned());
    let mut renamed = hoard.clone();
    renamed[3] = "/q/other.txt".to_owned();
    for perturbed in [swapped, missing, extra, renamed] {
        let err = check_hoard(&perturbed, &hoard).expect_err("perturbation caught");
        assert!(err.contains("correctness gate failed"), "{err}");
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut m = Metrics::default();
    m.set("setup_s", "s", 0.8127);
    m.set("latency_ms", "ms", 1.2034);
    let ops = Ops {
        attempted: 1000,
        failed: 0,
    };
    let line = result_line(true, ops, &m);
    let doc: serde::Value = serde_json::from_str(&line).expect("valid JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|s| s.get("unit")),
        Some(&serde::Value::Str("s".into()))
    );
}

#[test]
fn selecting_metrics_refuses_missing_and_zero_values() {
    let mut m = Metrics::default();
    m.set("a", "s", 1.5);
    m.set("zero", "count", 0.0);
    assert!(m.select(&["a"], false).is_ok());
    assert!(m.select(&["a", "b"], false).is_err());
    assert!(m.select(&["zero"], false).is_err());
    assert!(m.select(&["zero"], true).is_ok());
    m.set("nan", "s", f64::NAN);
    assert!(m.select(&["nan"], true).is_err());
}

#[test]
fn ops_count_attempts_and_failures() {
    let mut ops = Ops::default();
    assert_eq!(ops.call("ok", Ok::<u32, String>(1)), Ok(1));
    assert!(ops.call("bad", Err::<u32, _>("boom")).is_err());
    assert_eq!((ops.attempted, ops.failed), (2, 1));
}

#[test]
fn concatenated_parts_stay_ordered_and_disjoint() {
    let part = |file: &str| {
        let mut b = TraceBuilder::new();
        b.exec(Pid(1), "/bin/cc");
        b.touch(Pid(1), file, OpenMode::Read);
        b.exit(Pid(1));
        b.build()
    };
    let (a, b) = (part("/p/a.c"), part("/p/b.c"));
    let stream = EventStream::concat(&[a.clone(), b.clone()]);
    assert_eq!(stream.len(), a.len() + b.len());
    let events = stream.events(0..stream.len());
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq && w[0].time <= w[1].time);
    }
    let (first, second) = events.split_at(a.len());
    assert!(first.iter().all(|x| second.iter().all(|y| x.pid != y.pid)));
    // Paths resolve to the part's own strings through the joint table.
    let path_of = |ev: &seer_trace::TraceEvent| {
        ev.kind
            .path()
            .and_then(|p| stream.strings().resolve(p))
            .map(str::to_owned)
    };
    assert_eq!(path_of(&second[1]).as_deref(), Some("/p/b.c"));
    assert_eq!(path_of(&first[1]).as_deref(), Some("/p/a.c"));
    assert_ne!(part_seed(1, 0, 0), part_seed(1, 0, 1));
    assert_ne!(part_seed(1, 0, 0), part_seed(2, 0, 0));
}

#[test]
fn self_time_subtracts_covered_child_intervals_once() {
    let span = |id: u64, parent: Option<u64>, start: u64, dur: u64, name: &str| SpanRecord {
        trace_id: 1,
        span_id: id,
        parent_id: parent,
        name: name.to_owned(),
        start_unix_nanos: start,
        duration_nanos: dur,
        attrs: Vec::new(),
    };
    let spans = [
        span(1, None, 0, 100, "burst"),
        span(2, Some(1), 10, 20, "send_events"),
        span(3, Some(1), 20, 30, "flush"),
        span(4, Some(1), 90, 50, "flush"),
    ];
    let selfs = self_times(&spans);
    // Children cover 10..50 and 90..100 of the root: 50 ns.
    assert_eq!(selfs["burst"].nanos, 50);
    assert_eq!(selfs["flush"].count, 2);
    assert_eq!(selfs["flush"].nanos, 80);
}
