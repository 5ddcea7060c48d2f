//! Self-time attribution over recorded spans.

use seer_telemetry::SpanRecord;
use std::collections::{BTreeMap, HashMap};

/// Total self time and count of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum of self times, in nanoseconds.
    pub nanos: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (overlapping children counted once).
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, SelfTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent_id {
            children
                .entry(parent)
                .or_default()
                .push((s.start_unix_nanos, s.start_unix_nanos + s.duration_nanos));
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for s in spans {
        let (start, end) = (s.start_unix_nanos, s.start_unix_nanos + s.duration_nanos);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.span_id) {
            kids.sort_unstable();
            let mut reach = start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let entry = out.entry(s.name.clone()).or_default();
        entry.nanos += s.duration_nanos - covered.min(s.duration_nanos);
        entry.count += 1;
    }
    out
}
