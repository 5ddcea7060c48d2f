//! Golden clusterings: replaying each calibrated machine (A–I) must end
//! in exactly the projects it always has. Each entry pins the CRC-32 of
//! the encoded cluster member lists, captured on the commit before the
//! clustering pipeline moved to dense indices (interned directory ids,
//! flat neighbor sets, stamped shared-neighbor counts), so a change to
//! the pipeline that moves any member of any cluster fails here.
//!
//! Three paths are pinned:
//! - a full [`SeerEngine::recluster`] after the whole replay;
//! - the last step of a six-chunk replay that drains the dirty delta and
//!   reclusters incrementally after each chunk, as the daemon does;
//! - machine A with the standard investigators' relations installed,
//!   through both of the paths above.

use seer_core::{PairCountCache, SeerEngine};
use seer_sim::replay::standard_investigators;
use seer_trace::codec::{crc32, Codec};
use seer_trace::{EventSink, FileId};
use seer_workload::{generate, MachineProfile};

/// Days replayed per machine, as in the golden snapshot test.
const DAYS: u32 = 60;

/// Workload seed.
const SEED: u64 = 11;

/// Replay chunks on the incremental path.
const CHUNKS: usize = 6;

/// Per machine: CRC-32 of the clustering after a final full recluster,
/// and after the last incremental step of the chunked replay.
const GOLDEN: [(&str, u32, u32); 9] = [
    ("A", 0xeb6a_e672, 0xeb6a_e672),
    ("B", 0x5f4d_e74a, 0x5f4d_e74a),
    ("C", 0x2500_55c4, 0x2500_55c4),
    ("D", 0xc33c_11f6, 0xc33c_11f6),
    ("E", 0x694d_b295, 0x694d_b295),
    ("F", 0x16cc_cf2a, 0x16cc_cf2a),
    ("G", 0x9969_1c3b, 0x9969_1c3b),
    ("H", 0x2500_55c4, 0x2500_55c4),
    ("I", 0x1a4c_65f5, 0x1a4c_65f5),
];

/// Machine A with the standard investigators' relations: the same two
/// paths.
const GOLDEN_RELATIONS: (u32, u32) = (0x2268_7c3d, 0x2268_7c3d);

fn crc_of(clustering: &seer_core::Clustering) -> u32 {
    let lists: Vec<Vec<FileId>> = clustering
        .clusters
        .iter()
        .map(|c| c.files.clone())
        .collect();
    let mut buf = Vec::new();
    lists.encode(&mut buf);
    crc32(&buf)
}

/// Replays `name` in [`CHUNKS`] chunks, reclustering incrementally after
/// each, then reclusters in full; returns both CRCs.
fn replay(name: &str, investigators: bool) -> (u32, u32) {
    let profile = MachineProfile {
        days: DAYS,
        ..MachineProfile::by_name(name).expect("known machine")
    };
    let workload = generate(&profile, SEED);
    let trace = workload.trace;
    let mut engine = SeerEngine::default();
    if investigators {
        let mut relations = Vec::new();
        for inv in standard_investigators() {
            relations.extend(inv.investigate(&workload.corpus, engine.paths_mut()));
        }
        assert!(!relations.is_empty(), "machine {name} yields relations");
        engine.set_relations(relations);
    }
    let mut cache: Option<PairCountCache> = None;
    let mut last = None;
    let per = trace.events.len().div_ceil(CHUNKS).max(1);
    for chunk in trace.events.chunks(per) {
        engine.on_batch(chunk, &trace.strings);
        let dirty = engine.take_dirty();
        let run = engine
            .recluster_input()
            .compute_incremental(1, Some(&dirty), &mut cache);
        last = Some(run);
    }
    let last = last.expect("the trace has events");
    assert!(
        last.incremental,
        "machine {name}: the last step reused the cache"
    );
    let incremental = crc_of(&last.clustering);
    let full = crc_of(engine.recluster());
    (full, incremental)
}

#[test]
fn machine_replays_reach_their_golden_clusterings() {
    let got: Vec<(&str, u32, u32)> = GOLDEN
        .iter()
        .map(|&(name, _, _)| {
            let (full, incremental) = replay(name, false);
            (name, full, incremental)
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn investigator_relations_reach_their_golden_clustering() {
    assert_eq!(replay("A", true), GOLDEN_RELATIONS);
}
