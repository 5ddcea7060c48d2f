//! Pinned neighbor-table work: replaying machines F and G at
//! `snapshot_golden`'s profile must do exactly the work it does today.
//! `snapshot_golden` proves the table's result unchanged; this proves its
//! fast paths still run. A row bound that refuses less, or a scan that
//! computes distances the single-top decision spares, leaves every
//! neighbor as it was and moves a count here. Counts, unlike timings,
//! repeat exactly for a seed.
//!
//! A change that moves a count updates it here and says why.

use seer_core::SeerEngine;
use seer_workload::{generate, MachineProfile};

/// Days replayed per machine, as in `snapshot_golden`.
const DAYS: u32 = 60;

/// Workload seed, as in `snapshot_golden`.
const SEED: u64 = 11;

/// Per machine: full-row misses that scanned the row, distances the
/// scans' tie chains computed, and live neighbors evicted.
const WORK: [(&str, u64, u64, u64); 2] =
    [("F", 29_468, 11_025, 27_651), ("G", 27_845, 20_131, 25_460)];

#[test]
fn machine_replays_do_their_pinned_table_work() {
    let got: Vec<(&str, u64, u64, u64)> = WORK
        .iter()
        .map(|&(name, ..)| {
            let profile = MachineProfile {
                days: DAYS,
                ..MachineProfile::by_name(name).expect("known machine")
            };
            let trace = generate(&profile, SEED).trace;
            let mut engine = SeerEngine::default();
            trace.replay(&mut engine);
            let stats = engine.correlator().distance().stats();
            (name, stats.scans, stats.exps, stats.evictions)
        })
        .collect();
    assert_eq!(got, WORK);
}
