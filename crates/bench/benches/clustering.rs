//! Criterion bench: cluster formation cost (§5.3's "about 2 minutes of
//! CPU time", §3.3.1's linear-time requirement).
//!
//! Two groups:
//!
//! - `clustering/files/*` verifies the O(N·n) scaling of the modified
//!   Jarvis–Patrick algorithm by clustering synthetic neighbor tables of
//!   increasing size.
//! - `recluster_g/*` times the daemon's recluster on real state: machine
//!   G's trace (the one perfbench's `hoard` workload streams), warmed
//!   with 40,000 events in 4,096-event batches as that workload warms its
//!   daemon. `full/1` and `full/4` time a full recount
//!   ([`ReclusterInput::compute`]) on one and four threads;
//!   `incremental` times [`ReclusterInput::compute_incremental`] after a
//!   further 1,024-event delta, from the baseline the warm state left;
//!   `input_incremental` times the same run together with the
//!   [`SeerEngine::recluster_input`] call that builds its input, as a
//!   daemon tenant reclusters.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use seer_cluster::{cluster_files, ClusterConfig};
use seer_core::{ReclusterInput, SeerEngine};
use seer_distance::{DistanceConfig, NeighborTable};
use seer_trace::{EventSink, FileId, PathTable};
use seer_workload::{generate, MachineProfile};

/// Builds a table of `n_files` files in implicit projects of ~12, each
/// file related to its project neighbors.
fn build_table(n_files: u32) -> (NeighborTable, PathTable) {
    let dc = DistanceConfig::default();
    let mut table = NeighborTable::new(
        dc.n_neighbors,
        dc.reduction,
        dc.aging_refs,
        dc.deletion_delay,
        dc.seed,
    );
    let mut paths = PathTable::new();
    for f in 0..n_files {
        let project = f / 12;
        paths.intern(&format!("/home/user/proj{project}/f{f}.c"));
    }
    for f in 0..n_files {
        let project = f / 12;
        let base = project * 12;
        for k in 0..12u32 {
            let to = base + (f - base + k + 1) % 12;
            if to != f && to < n_files {
                table.observe(FileId(f), FileId(to), f64::from(k % 4));
            }
        }
    }
    (table, paths)
}

fn bench_clustering(c: &mut Criterion) {
    let mut group = c.benchmark_group("clustering");
    group.sample_size(15);
    for n_files in [1_000u32, 5_000, 20_000] {
        let (table, paths) = build_table(n_files);
        let config = ClusterConfig::default();
        group.throughput(Throughput::Elements(u64::from(n_files)));
        group.bench_with_input(BenchmarkId::new("files", n_files), &n_files, |b, _| {
            b.iter(|| cluster_files(&table, &paths, &[], &config));
        });
    }
    group.finish();
}

/// Events the warm state has seen, as perfbench's `hoard` warm-up.
const WARMUP: usize = 40_000;

/// Warm-up batch size, as perfbench's `hoard` bursts.
const BATCH: usize = 4_096;

/// Events between the baseline and the incremental recluster.
const DELTA: usize = 1_024;

/// The warm machine-G engine's recluster inputs: the full-recount input
/// at the warm state, and the incremental run's baseline, dirty delta,
/// and input after [`DELTA`] more events, with the engine they came from.
struct WarmG {
    warm: ReclusterInput,
    baseline: Option<seer_core::PairCountCache>,
    dirty: seer_core::TableDirty,
    next: ReclusterInput,
    engine: SeerEngine,
}

fn warm_g() -> WarmG {
    let profile = MachineProfile::by_name("G").expect("machine G");
    let trace = generate(&profile, 1).trace;
    assert!(
        trace.events.len() >= WARMUP + DELTA,
        "machine G generates {} events",
        trace.events.len()
    );
    let mut engine = SeerEngine::default();
    for batch in trace.events[..WARMUP].chunks(BATCH) {
        engine.on_batch(batch, &trace.strings);
    }
    let dirty = engine.take_dirty();
    let warm = engine.recluster_input();
    let mut baseline = None;
    let _ = warm.compute_incremental(1, Some(&dirty), &mut baseline);
    engine.on_batch(&trace.events[WARMUP..WARMUP + DELTA], &trace.strings);
    let dirty = engine.take_dirty();
    let next = engine.recluster_input();
    WarmG {
        warm,
        baseline,
        dirty,
        next,
        engine,
    }
}

fn bench_recluster_g(c: &mut Criterion) {
    let g = warm_g();
    let mut group = c.benchmark_group("recluster_g");
    group.sample_size(15);
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("full", threads), &threads, |b, &t| {
            b.iter(|| g.warm.compute(t));
        });
    }
    group.bench_function("incremental", |b| {
        b.iter_batched(
            || g.baseline.clone(),
            |mut cache| {
                let run = g.next.compute_incremental(1, Some(&g.dirty), &mut cache);
                assert!(run.incremental, "the baseline is reused");
                run
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("input_incremental", |b| {
        b.iter_batched(
            || g.baseline.clone(),
            |mut cache| {
                let input = g.engine.recluster_input();
                let run = input.compute_incremental(1, Some(&g.dirty), &mut cache);
                assert!(run.incremental, "the baseline is reused");
                run
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_clustering, bench_recluster_g);
criterion_main!(benches);
