//! Benchmark inputs: generated machine traces, concatenated into one
//! event stream.
//!
//! A paper machine's trace is a few hundred thousand events (machine F's
//! 252 days are about 450k), fewer than a timed window at the daemon's
//! ingest rate consumes. The stream therefore joins several traces of the
//! same machine, each generated from its own seed derived from the run's
//! seed: part `k` is shifted past the end of part `k - 1` in sequence
//! numbers, time, and pids, and its paths are re-interned into one table,
//! as if the same user kept working under a new project layout. Mixing
//! several generated users also evens out how much one seed's project
//! structure weighs on per-event costs and hoard sizes.

use seer_trace::{EventKind, Pid, RawPathId, StringTable, Timestamp, Trace, TraceEvent};
use seer_workload::{generate, MachineProfile};
use std::ops::Range;

/// Parts per machine's measured period: shorter parts mix more generated
/// users into a run.
const PARTS_PER_PERIOD: u32 = 8;

/// Quiet time between the end of one part and the start of the next.
const PART_GAP_HOURS: u64 = 24;

/// One event stream and the string table its path ids refer to.
pub struct EventStream {
    events: Vec<TraceEvent>,
    strings: StringTable,
}

/// The seed of part `k` of stream `stream` of a run seeded `seed`
/// (SplitMix64 over the three, so nearby seeds share no parts).
#[must_use]
pub fn part_seed(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(k.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl EventStream {
    /// Generates paper machine `machine` part after part (each over an
    /// eighth of its measured period, seeded by [`part_seed`]) until the
    /// stream holds at least `min_events`.
    ///
    /// # Errors
    ///
    /// Returns a description for an unknown machine or empty traces.
    pub fn generate(
        machine: &str,
        seed: u64,
        stream: u64,
        min_events: usize,
    ) -> Result<EventStream, String> {
        let full =
            MachineProfile::by_name(machine).ok_or_else(|| format!("no machine {machine}"))?;
        let profile = full.scaled_to_days(full.days / PARTS_PER_PERIOD);
        let mut traces = Vec::new();
        let mut total = 0;
        while total < min_events.max(1) {
            let trace = generate(&profile, part_seed(seed, stream, traces.len() as u64)).trace;
            if trace.events.is_empty() {
                return Err(format!("machine {machine} generated an empty trace"));
            }
            total += trace.events.len();
            traces.push(trace);
        }
        Ok(EventStream::concat(&traces))
    }

    /// Joins `traces` end to end into one stream.
    #[must_use]
    pub fn concat(traces: &[Trace]) -> EventStream {
        let mut strings = StringTable::new();
        let mut events = Vec::with_capacity(traces.iter().map(|t| t.events.len()).sum());
        let (mut seq_off, mut time_off, mut pid_off) = (0u64, 0u64, 0u32);
        for trace in traces {
            let ids: Vec<RawPathId> = (0..trace.strings.len())
                .map(|i| strings.intern(trace.strings.resolve(RawPathId(i as u32)).unwrap_or("")))
                .collect();
            let shift = |p: Pid| Pid(p.0 + pid_off);
            let (mut last_seq, mut last_time, mut max_pid) = (0u64, 0u64, 0u32);
            for ev in &trace.events {
                let mut out = *ev;
                out.seq.0 += seq_off;
                out.time.0 += time_off;
                out.pid = shift(ev.pid);
                out.kind = match ev.kind {
                    EventKind::Fork { child } => {
                        max_pid = max_pid.max(child.0);
                        EventKind::Fork {
                            child: shift(child),
                        }
                    }
                    kind => kind.map_paths(&mut |p| ids[p.index()]),
                };
                max_pid = max_pid.max(ev.pid.0);
                last_seq = last_seq.max(out.seq.0);
                last_time = last_time.max(out.time.0);
                events.push(out);
            }
            seq_off = last_seq + 1;
            time_off = last_time + Timestamp::from_hours(PART_GAP_HOURS).0;
            pid_off += max_pid + 1;
        }
        EventStream { events, strings }
    }

    /// Events in the stream.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The string table every event's path ids refer to.
    #[must_use]
    pub fn strings(&self) -> &StringTable {
        &self.strings
    }

    /// Events `range` of the stream.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the end of the stream.
    #[must_use]
    pub fn events(&self, range: Range<usize>) -> &[TraceEvent] {
        &self.events[range]
    }
}
