//! Pinned recluster work: replaying machines F and G at
//! `snapshot_golden`'s profile through a daemon tenant's recluster
//! (`SeerEngine::recluster_incremental`, with its kept pair-count cache)
//! must do exactly the work it does today. `cluster_golden` and
//! `incremental_recluster` prove the clusterings unchanged; this proves
//! the incremental path still skips what it may. Rebuilding every row's
//! set, or recounting every pair, leaves every clustering as it was and
//! moves a count here. Counts, unlike timings, repeat exactly for a
//! seed.
//!
//! The replay reclusters after every [`CHUNK`] events, as `hoard` reads
//! after each query chunk, and once more after a last [`WINDOW`]-event
//! chunk, as the first read after one of its timed windows. A change
//! that moves a count updates it here and says why.

use seer_core::{PairCountCache, SeerEngine};
use seer_trace::EventSink;
use seer_workload::{generate, MachineProfile};

/// Days replayed per machine, as in `snapshot_golden`.
const DAYS: u32 = 60;

/// Workload seed, as in `snapshot_golden`.
const SEED: u64 = 11;

/// Events between reclusters, as perfbench's `hoard` query chunks.
const CHUNK: usize = 1_024;

/// Events before the last recluster, as a `hoard` timed window.
const WINDOW: usize = 32_768;

/// Per machine: full runs, incremental runs, rows whose sets were rebuilt,
/// and pair counts recounted, over the whole replay; then the rows and
/// pairs of the last, window-sized run alone.
const WORK: [(&str, u64, u64, u64, u64, u64, u64); 2] = [
    ("F", 1, 62, 2_036, 41_613, 225, 3_301),
    ("G", 1, 68, 2_100, 37_599, 167, 2_298),
];

#[test]
fn machine_replays_do_their_pinned_recluster_work() {
    let got: Vec<(&str, u64, u64, u64, u64, u64, u64)> = WORK
        .iter()
        .map(|&(name, ..)| {
            let profile = MachineProfile {
                days: DAYS,
                ..MachineProfile::by_name(name).expect("known machine")
            };
            let trace = generate(&profile, SEED).trace;
            assert!(
                trace.events.len() > 2 * WINDOW,
                "machine {name} is too short"
            );
            let (head, tail) = trace.events.split_at(trace.events.len() - WINDOW);
            let mut engine = SeerEngine::default();
            let mut cache: Option<PairCountCache> = None;
            let (mut full, mut incremental, mut rows, mut pairs) = (0, 0, 0, 0);
            let mut last = None;
            for chunk in head.chunks(CHUNK).chain([tail]) {
                engine.on_batch(chunk, &trace.strings);
                let dirty = engine.take_dirty();
                let run = engine.recluster_incremental(&dirty, &mut cache);
                if run.incremental {
                    incremental += 1;
                } else {
                    full += 1;
                }
                rows += run.rows_rewritten;
                pairs += run.pairs_recounted;
                last = Some(run);
            }
            let last = last.expect("the trace has events");
            assert!(
                last.incremental,
                "machine {name}: the window reused the cache"
            );
            let window = (last.rows_rewritten, last.pairs_recounted);
            (name, full, incremental, rows, pairs, window.0, window.1)
        })
        .collect();
    assert_eq!(got, WORK);
}
