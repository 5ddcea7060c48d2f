//! Per-layer cost breakdown of the ingest hot path.
//!
//! Replays a machine-F workload through successively larger slices of the
//! pipeline so each layer's per-event cost is visible in isolation:
//!
//! 1. observer only (path resolution + §4 filters, no-op sink),
//! 2. observer → distance engine (neighbor-table maintenance),
//! 3. full `SeerEngine` (adds activity tracking and telemetry sync),
//!
//! then the two off-CPU-path layers the hot-path overhaul touched:
//!
//! 4. wire decode — one binary events frame,
//! 5. recluster — full shared-neighbor recount against incremental
//!    maintenance from the dirty-row delta.
//!
//! Every stage reports the minimum over several passes: single passes on
//! a shared machine are dominated by scheduler noise and first-touch
//! page faults rather than the work being measured.
//!
//! Run with: `cargo run -p seer-bench --bin hotpath_ablation --release`

use seer_core::{PairCountCache, SeerEngine};
use seer_distance::{DistanceConfig, DistanceEngine};
use seer_observer::{Observer, ObserverConfig, Reference, ReferenceSink};
use seer_trace::wire;
use seer_trace::{EventSink, PathTable};
use seer_workload::{generate, MachineProfile, Workload};
use std::time::Instant;

const PASSES: usize = 3;

struct NullSink;

impl ReferenceSink for NullSink {
    fn on_reference(&mut self, r: &Reference, _paths: &PathTable) {
        std::hint::black_box(r.file);
    }
}

/// Minimum per-event cost in µs over `PASSES` replays, each on a fresh
/// sink built by `mk`.
fn replay_min<S: EventSink>(workload: &Workload, mk: impl Fn() -> S) -> f64 {
    let n = workload.trace.len() as f64;
    let mut best = f64::INFINITY;
    for _ in 0..PASSES {
        let mut sink = mk();
        let t = Instant::now();
        for ev in &workload.trace.events {
            sink.on_event(ev, &workload.trace.strings);
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / n);
    }
    best
}

fn main() {
    let profile = MachineProfile {
        days: 90,
        ..MachineProfile::by_name("F").expect("F")
    };
    let workload = generate(&profile, 9);
    let n = workload.trace.len();
    println!("workload: machine F, 90 days, {n} events (min of {PASSES} passes per stage)\n");
    println!("{:<44} {:>12}", "stage", "per event");
    let report = |name: &str, us: f64| println!("{name:<44} {us:>9.3} µs");

    report(
        "observer only (filters + path resolve)",
        replay_min(&workload, || {
            Observer::new(ObserverConfig::default(), NullSink)
        }),
    );
    report(
        "observer + distance engine",
        replay_min(&workload, || {
            Observer::new(
                ObserverConfig::default(),
                DistanceEngine::new(DistanceConfig::default()),
            )
        }),
    );
    {
        let mut obs = Observer::new(
            ObserverConfig::default(),
            DistanceEngine::new(DistanceConfig::default()),
        );
        for ev in &workload.trace.events {
            obs.on_event(ev, &workload.trace.strings);
        }
        let stats = obs.sink().stats();
        println!(
            "  opens: {}; observations: {} ({:.1}/open, {:.1}/event)",
            stats.opens,
            stats.observations,
            stats.observations as f64 / stats.opens.max(1) as f64,
            stats.observations as f64 / n as f64
        );
    }
    report(
        "observer + distance (sequence kind)",
        replay_min(&workload, || {
            Observer::new(
                ObserverConfig::default(),
                DistanceEngine::new(DistanceConfig {
                    kind: seer_distance::DistanceKind::Sequence,
                    ..DistanceConfig::default()
                }),
            )
        }),
    );
    report(
        "observer + distance (arithmetic)",
        replay_min(&workload, || {
            Observer::new(
                ObserverConfig::default(),
                DistanceEngine::new(DistanceConfig {
                    reduction: seer_distance::ReductionKind::Arithmetic,
                    ..DistanceConfig::default()
                }),
            )
        }),
    );
    report(
        "full engine (adds activity + telemetry)",
        replay_min(&workload, SeerEngine::default),
    );

    // Wire decode: one 256-event binary frame.
    {
        let batch: Vec<_> = workload.trace.events[..256.min(n)].to_vec();
        let bin = wire::encode_events_binary(&batch, Some(7));
        let payload = &bin[5..];
        let reps = 2000;
        let mut bin_us = f64::INFINITY;
        for _ in 0..PASSES {
            let t = Instant::now();
            for _ in 0..reps {
                let decoded =
                    wire::decode_events_binary(std::hint::black_box(payload)).expect("decode");
                std::hint::black_box(decoded);
            }
            bin_us = bin_us.min(t.elapsed().as_secs_f64() * 1e6 / (reps * batch.len()) as f64);
        }
        println!();
        report("wire decode, binary frame", bin_us);
    }

    // Recluster: full shared-neighbor recount against incremental
    // maintenance, measured on the delta left by the final 1% of the
    // trace (the daemon's steady-state shape: small dirty set, warm
    // pair-count cache).
    {
        let mut engine = SeerEngine::default();
        let split = n - n / 100;
        engine.on_batch(&workload.trace.events[..split], &workload.trace.strings);
        let mut cache: Option<PairCountCache> = None;
        engine.take_dirty();
        let warm = engine.recluster_input();
        let _ =
            warm.compute_incremental(1, Some(&seer_distance::TableDirty::default()), &mut cache);
        engine.on_batch(&workload.trace.events[split..], &workload.trace.strings);
        let dirty = engine.take_dirty();
        let input = engine.recluster_input();

        let mut full_ms = f64::INFINITY;
        for _ in 0..PASSES {
            let t = Instant::now();
            std::hint::black_box(input.compute(1));
            full_ms = full_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut inc_ms = f64::INFINITY;
        let mut ran_incremental = false;
        for _ in 0..PASSES {
            let mut c = cache.clone();
            let t = Instant::now();
            let out = input.compute_incremental(1, Some(&dirty), &mut c);
            inc_ms = inc_ms.min(t.elapsed().as_secs_f64() * 1e3);
            ran_incremental |= out.incremental;
            std::hint::black_box(out);
        }
        println!();
        println!(
            "recluster, full recount                      {full_ms:>9.3} ms  ({} dirty rows pending)",
            dirty.rows.len()
        );
        println!(
            "recluster, incremental maintenance           {inc_ms:>9.3} ms  (incremental path ran: {ran_incremental})"
        );
        println!("  incremental is {:.1}x faster", full_ms / inc_ms);
    }
}
