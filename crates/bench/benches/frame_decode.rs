//! Microbenchmark for events-frame decoding: the binary frame path on a
//! realistic 256-event batch drawn from a generated workload.
//!
//! The daemon decodes every inbound frame on the connection reader
//! thread, so this is the per-byte cost that bounds ingest throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use seer_trace::wire;
use seer_trace::TraceEvent;
use seer_workload::{generate, MachineProfile};

const BATCH: usize = 256;

fn sample_events() -> Vec<TraceEvent> {
    let profile = MachineProfile {
        days: 2,
        ..MachineProfile::by_name("A").expect("A")
    };
    let workload = generate(&profile, 17);
    workload.trace.events[..BATCH.min(workload.trace.len())].to_vec()
}

fn bench_decode_binary(c: &mut Criterion) {
    let events = sample_events();
    let frame = wire::encode_events_binary(&events, Some(7));
    let payload = &frame[5..];
    let mut g = c.benchmark_group("frame_decode");
    g.throughput(Throughput::Elements(BATCH as u64));
    g.bench_function("binary", |b| {
        b.iter(|| {
            let decoded =
                wire::decode_events_binary(std::hint::black_box(payload)).expect("decode");
            std::hint::black_box(decoded);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_decode_binary);
criterion_main!(benches);
