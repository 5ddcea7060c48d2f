//! End-to-end causal tracing: one traced exchange against a live daemon
//! must produce a span tree covering every pipeline stage exactly once,
//! with parent links matching the pipeline's causal order, and the
//! Chrome export of that tree must be loadable.

use seer_daemon::{Daemon, DaemonClient, DaemonConfig};
use seer_telemetry::SpanRecord;
use seer_trace::wire::QueryRequest;
use seer_workload::{generate, MachineProfile};
use std::path::PathBuf;
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("seer-ttest-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn by_name<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

fn exactly_one<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    let found = by_name(spans, name);
    assert_eq!(
        found.len(),
        1,
        "expected exactly one `{name}` span, got {}: {found:?}",
        found.len()
    );
    found[0]
}

/// Streams one traced events frame and poses one traced fresh hoard
/// query, then asserts the flight recorder holds a complete causal
/// picture of both exchanges: the ingest chain
/// `socket_read → decode → engine_apply` and the query tree
/// `query → engine_answer → recluster → shard_count`, each stage
/// exactly once.
#[test]
fn traced_query_covers_every_pipeline_stage_exactly_once() {
    let trace = {
        let profile = MachineProfile::by_name("A")
            .expect("machine A is built in")
            .scaled_to_days(3);
        generate(&profile, 11).trace
    };
    let dir = scratch("stages");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    // No periodic snapshots, and one evaluation only, at the first batch:
    // an evaluation between the traced batch and the query would
    // recluster first, leaving the query nothing to recluster.
    cfg.eval_every = Duration::from_secs(3600);
    cfg.snapshot_every = 0;
    let handle = Daemon::spawn(cfg).expect("spawn");

    let mut client = DaemonClient::connect(handle.socket_path(), "ttest").expect("connect");
    // Stream the bulk of the workload untraced, so the traced frame
    // below carries a known event count and no fresh path declarations.
    client
        .send_events(&trace.events[..trace.events.len() - 8], &trace.strings)
        .expect("bulk send");
    client.flush().expect("bulk flush");

    let trace_id = seer_telemetry::new_trace_id().0;
    client.set_trace_id(Some(trace_id));
    client
        .send_events(&trace.events[trace.events.len() - 8..], &trace.strings)
        .expect("traced send");
    client.flush().expect("traced flush");
    client
        .query(QueryRequest::Hoard {
            budget: 1 << 20,
            fresh: true,
        })
        .expect("traced query");
    client.set_trace_id(None);

    let (all, _dropped) = client.dump_spans().expect("dump");
    let spans: Vec<SpanRecord> = all.into_iter().filter(|s| s.trace_id == trace_id).collect();

    // Ingest chain, each stage exactly once.
    let socket_read = exactly_one(&spans, "socket_read");
    let decode = exactly_one(&spans, "decode");
    let engine_apply = exactly_one(&spans, "engine_apply");
    assert_eq!(socket_read.parent_id, None, "socket_read is the root");
    assert_eq!(decode.parent_id, Some(socket_read.span_id));
    assert_eq!(engine_apply.parent_id, Some(decode.span_id));
    assert_eq!(engine_apply.attr("events"), Some("8"));

    // Query tree, each stage exactly once; the hoard finds the
    // clustering behind the traced batch and reclusters, counting on the
    // actor in one shard.
    let query = exactly_one(&spans, "query");
    let engine_answer = exactly_one(&spans, "engine_answer");
    let recluster = exactly_one(&spans, "recluster");
    assert_eq!(query.parent_id, None, "query is its exchange's root");
    assert_eq!(engine_answer.parent_id, Some(query.span_id));
    assert_eq!(engine_answer.attr("query"), Some("hoard"));
    assert_eq!(recluster.parent_id, Some(engine_answer.span_id));

    let shard = exactly_one(&spans, "shard_count");
    assert_eq!(shard.parent_id, Some(recluster.span_id));
    assert_eq!(shard.attr("shard"), Some("0"));
    assert!(
        shard.start_unix_nanos >= recluster.start_unix_nanos,
        "the shard starts inside the recluster span"
    );

    // Nothing else leaked into this trace.
    let known = [
        "socket_read",
        "decode",
        "engine_apply",
        "query",
        "engine_answer",
        "recluster",
        "shard_count",
    ];
    for s in &spans {
        assert!(known.contains(&s.name.as_str()), "unexpected span {s:?}");
    }

    // The Chrome export of this tree is valid JSON with resolvable
    // parent links (the golden-format test lives in seer-telemetry).
    let json = seer_telemetry::render_chrome_trace(&spans);
    let doc: serde::Value = serde_json::from_str(&json).expect("well-formed export");
    let events = match &doc {
        serde::Value::Object(fields) => match fields.iter().find(|(k, _)| k == "traceEvents") {
            Some((_, serde::Value::Array(evs))) => evs.len(),
            other => panic!("traceEvents array missing: {other:?}"),
        },
        other => panic!("export is not an object: {other:?}"),
    };
    assert_eq!(events, spans.len(), "one Chrome event per span");

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The on-shutdown flight-recorder dump must contain the traced spans as
/// one JSON object per line.
///
/// (A query reclusters in place on the engine actor, so its `recluster`
/// span always chains under its own `engine_answer`; only the cadence
/// evaluation and miss postmortems recluster under a root trace of
/// their own, which `seer-daemon`'s pipeline unit tests pin.)
#[test]
fn shutdown_dumps_flight_recorder_to_disk() {
    let dir = scratch("flight");
    let flight = dir.join("flight.jsonl");
    let mut cfg = DaemonConfig::new(dir.join("sock"));
    cfg.snapshot_every = 0;
    cfg.flight_path = Some(flight.clone());
    let handle = Daemon::spawn(cfg).expect("spawn");

    let mut client = DaemonClient::connect(handle.socket_path(), "flight").expect("connect");
    let trace_id = seer_telemetry::new_trace_id().0;
    client.set_trace_id(Some(trace_id));
    client
        .query(QueryRequest::Clusters { fresh: false })
        .expect("traced query");
    drop(client);
    handle.shutdown();

    let dump = std::fs::read_to_string(&flight).expect("flight dump written");
    let mut ours = 0;
    for line in dump.lines() {
        let rec: SpanRecord = serde_json::from_str(line).expect("each line is one span");
        if rec.trace_id == trace_id {
            ours += 1;
        }
    }
    assert!(ours >= 2, "dump holds the traced query's spans: {dump}");
    std::fs::remove_dir_all(&dir).ok();
}
