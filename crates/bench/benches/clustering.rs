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
//!   ([`ReclusterInput::compute`]) on one and four threads. Each other
//!   case runs after a further delta, from the baseline its path left at
//!   the warm state: 1,024 events (one of `hoard`'s query chunks) or
//!   32,768 (one of its timed windows, what the first fresh hoard after
//!   the window reclusters). `incremental/*` times the detached input
//!   ([`ReclusterInput::compute_incremental`]); `input_incremental/*`
//!   times what a daemon tenant runs, [`SeerEngine::recluster_incremental`]
//!   off its kept cache, which rewrites only the changed rows' sets.
//!
//! The caches are cloned outside the timed routine, which leaves them in
//! the CPU's caches: the daemon finds them cold after a window of ingest,
//! so these times are lower bounds on a fresh hoard's recluster. On a
//! shared 2-vCPU host, two alternating runs of this bench, and of the
//! same cases on the commit before the sets were kept (which builds
//! them in full on every read), read `input_incremental/1024` at 80 and
//! 44 µs against 112 and 69 µs, and `input_incremental/32768` at 243 and
//! 129 µs against 138 and 189 µs. The host scattered these by up to 2×
//! between runs; `DESIGN.md` ("The fresh-hoard split") gives the
//! in-process split on cold caches.

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

/// Deltas between the baseline and the incremental recluster: one of
/// perfbench's `hoard` query chunks, and one of its timed windows (what
/// the first fresh hoard after a window reclusters).
const DELTAS: [usize; 2] = [1_024, 32_768];

/// The warm machine-G engine after one delta: the full-recount input at
/// the warm state, the baselines each incremental path left there, and
/// the dirty delta and input after the delta, with the engine itself.
struct WarmG {
    warm: ReclusterInput,
    /// The detached input's baseline ([`ReclusterInput::compute_incremental`]).
    detached: Option<seer_core::PairCountCache>,
    /// A daemon tenant's baseline, with its kept neighbor sets
    /// ([`SeerEngine::recluster_incremental`]).
    kept: Option<seer_core::PairCountCache>,
    dirty: seer_core::TableDirty,
    next: ReclusterInput,
    engine: SeerEngine,
}

fn warm_g(delta: usize) -> WarmG {
    let profile = MachineProfile::by_name("G").expect("machine G");
    let trace = generate(&profile, 1).trace;
    assert!(
        trace.events.len() >= WARMUP + delta,
        "machine G generates {} events",
        trace.events.len()
    );
    let mut engine = SeerEngine::default();
    for batch in trace.events[..WARMUP].chunks(BATCH) {
        engine.on_batch(batch, &trace.strings);
    }
    let dirty = engine.take_dirty();
    let warm = engine.recluster_input();
    let (mut detached, mut kept) = (None, None);
    let _ = warm.compute_incremental(1, Some(&dirty), &mut detached);
    let _ = engine.recluster_incremental(&dirty, &mut kept);
    for batch in trace.events[WARMUP..WARMUP + delta].chunks(BATCH) {
        engine.on_batch(batch, &trace.strings);
    }
    let dirty = engine.take_dirty();
    let next = engine.recluster_input();
    WarmG {
        warm,
        detached,
        kept,
        dirty,
        next,
        engine,
    }
}

fn bench_recluster_g(c: &mut Criterion) {
    let mut group = c.benchmark_group("recluster_g");
    group.sample_size(15);
    let warm = warm_g(0).warm;
    for threads in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("full", threads), &threads, |b, &t| {
            b.iter(|| warm.compute(t));
        });
    }
    for delta in DELTAS {
        let g = warm_g(delta);
        group.bench_with_input(BenchmarkId::new("incremental", delta), &delta, |b, _| {
            b.iter_batched(
                || g.detached.clone(),
                |mut cache| {
                    let run = g.next.compute_incremental(1, Some(&g.dirty), &mut cache);
                    assert!(run.incremental, "the baseline is reused");
                    run
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_with_input(
            BenchmarkId::new("input_incremental", delta),
            &delta,
            |b, _| {
                b.iter_batched(
                    || g.kept.clone(),
                    |mut cache| {
                        let run = g.engine.recluster_incremental(&g.dirty, &mut cache);
                        assert!(run.incremental, "the kept sets are reused");
                        run
                    },
                    BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_clustering, bench_recluster_g);
criterion_main!(benches);
