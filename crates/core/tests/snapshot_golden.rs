//! Golden engine states: replaying each calibrated machine (A–I) must
//! leave exactly the engine it always has. Each entry pins the CRC-32 of
//! the machine's encoded [`seer_core::SeerSnapshot`], captured before the
//! neighbor table learned to refuse far candidates by its row bounds, so
//! an optimization of the table that changes any neighbor, summary,
//! stamp, or random draw fails here.

use seer_core::SeerEngine;
use seer_trace::codec::{crc32, Codec};
use seer_workload::{generate, MachineProfile};

/// Days replayed per machine: enough for many full neighbor rows, and
/// for the refusals, evictions, and aging that fill them.
const DAYS: u32 = 60;

/// Workload seed.
const SEED: u64 = 11;

/// CRC-32 of each machine's encoded snapshot after the replay.
const GOLDEN: [(&str, u32); 9] = [
    ("A", 0x3527_1572),
    ("B", 0x5623_6f78),
    ("C", 0xdf90_0e27),
    ("D", 0x4277_7bdf),
    ("E", 0x539e_dcdc),
    ("F", 0x0e92_d0e3),
    ("G", 0xaefb_e51d),
    ("H", 0xdf90_0e27),
    ("I", 0xfcb4_3bea),
];

#[test]
fn machine_replays_reach_their_golden_snapshots() {
    let got: Vec<(&str, u32)> = GOLDEN
        .iter()
        .map(|&(name, _)| {
            let profile = MachineProfile {
                days: DAYS,
                ..MachineProfile::by_name(name).expect("known machine")
            };
            let trace = generate(&profile, SEED).trace;
            let mut engine = SeerEngine::default();
            trace.replay(&mut engine);
            let mut buf = Vec::new();
            engine.snapshot().encode(&mut buf);
            (name, crc32(&buf))
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
