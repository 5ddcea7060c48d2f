//! Incremental shared-neighbor maintenance must be bit-identical to a
//! full recount on realistic traces.
//!
//! This drives the exact protocol the daemon's recluster worker uses:
//! after each batch the dirty delta is drained at the same moment the
//! recluster input is frozen, and the worker-side pair-count cache is
//! carried from one job to the next. Every step is checked against a
//! full recount of the same view, across all nine calibrated machine
//! workloads (§6.2's machines A–I).

use seer_core::{PairCountCache, SeerEngine};
use seer_trace::EventSink;
use seer_workload::{generate, MachineProfile};

#[test]
fn incremental_recluster_matches_full_on_machine_traces() {
    for name in ["A", "B", "C", "D", "E", "F", "G", "H", "I"] {
        // Four days: the lightest machines (B, E) generate no events at
        // all on shorter horizons.
        let profile = MachineProfile {
            days: 4,
            ..MachineProfile::by_name(name).expect("known machine")
        };
        let workload = generate(&profile, 11);
        let trace = workload.trace;
        let mut engine = SeerEngine::default();
        let mut cache: Option<PairCountCache> = None;
        let mut incremental_runs = 0u32;
        let per = trace.events.len().div_ceil(6).max(1);
        for chunk in trace.events.chunks(per) {
            engine.on_batch(chunk, &trace.strings);
            let dirty = engine.take_dirty();
            let input = engine.recluster_input();
            let inc = input.compute_incremental(1, Some(&dirty), &mut cache);
            let full = input.compute(1);
            assert_eq!(
                inc.clustering.clusters, full.clustering.clusters,
                "machine {name}: incremental diverged from full recount"
            );
            incremental_runs += u32::from(inc.incremental);
        }
        assert!(
            incremental_runs >= 1,
            "machine {name}: the incremental path never ran (only {incremental_runs} of 6)"
        );
    }
}
