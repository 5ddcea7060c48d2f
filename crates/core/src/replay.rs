//! Rebuilding an engine from logged history: snapshot + WAL replay.
//!
//! The daemon's write-ahead log stores two record kinds — string-table
//! declarations and applied event batches tagged with the engine
//! generation (total events applied) *after* each batch. A [`Replayer`]
//! consumes them in log order and reproduces exactly the state the live
//! engine had, because batching is semantically transparent: the default
//! [`EventSink::on_batch`] applies events one at a time, so replaying
//! the same events in the same order through `on_batch` lands on the
//! same state regardless of how batches were originally framed.
//!
//! [`EventSink::on_batch`]: seer_trace::EventSink::on_batch

use crate::engine::SeerEngine;
use seer_trace::{EventSink, StringTable, TraceEvent};

/// Feeds logged declarations and batches into an engine, tracking the
/// applied-event generation and tolerating (but counting) anomalies.
///
/// Two anomaly classes arise in practice and neither should abort a
/// daemon recovery, only a strict restore:
///
/// - **Stale batches** (generation at or below the starting point) are
///   skipped — the snapshot already contains them.
/// - **Gaps** (a batch whose generation is not `events_applied + len`)
///   mean the log does not connect contiguously to the base state, e.g.
///   replaying from a fallback snapshot older than what compaction
///   assumed. The batch is still applied (best effort), but the gap is
///   counted so callers can warn or refuse.
/// - **Misdeclarations** (an interns record whose ids do not line up
///   densely with the table) are counted and the conflicting ids are
///   skipped; ids already interned identically are the normal case at
///   every segment boundary, where a full-table snapshot record
///   re-declares everything.
pub struct Replayer {
    engine: SeerEngine,
    strings: StringTable,
    events_applied: u64,
    gaps: u64,
    misdeclared: u64,
}

impl Replayer {
    /// Starts from an engine state plus the generation it represents
    /// (`events_applied` as of the snapshot) — or a cold engine at 0.
    ///
    /// `strings` must be the table matching the engine's id space; for
    /// the daemon this is always a fresh table rebuilt from the log
    /// (the log's base records re-declare everything).
    #[must_use]
    pub fn new(engine: SeerEngine, strings: StringTable, events_applied: u64) -> Replayer {
        Replayer {
            engine,
            strings,
            events_applied,
            gaps: 0,
            misdeclared: 0,
        }
    }

    /// Declares string ids `base..base + paths.len()`, interning in
    /// order. Re-declarations of existing ids with the same string are
    /// normal (segment base records); conflicts are counted.
    pub fn declare(&mut self, base: u32, paths: &[String]) {
        for (i, p) in paths.iter().enumerate() {
            let want = base + i as u32;
            let current = self.strings.len() as u32;
            if want < current {
                // Already interned: verify it is the same string.
                if self.strings.get(p) != Some(seer_trace::RawPathId(want)) {
                    self.misdeclared += 1;
                }
            } else if want == current {
                self.strings.intern(p);
            } else {
                // A hole in the id space; interning here would assign
                // the wrong id. Count and skip.
                self.misdeclared += 1;
            }
        }
    }

    /// Applies one logged batch. `generation` is the applied-event
    /// count after the batch. Returns `true` if the batch was applied,
    /// `false` if it was stale (already covered by the base state).
    pub fn apply(&mut self, generation: u64, events: &[TraceEvent]) -> bool {
        if generation <= self.events_applied {
            return false;
        }
        if generation != self.events_applied + events.len() as u64 {
            self.gaps += 1;
        }
        self.engine.on_batch(events, &self.strings);
        self.events_applied = generation;
        true
    }

    /// The generation the engine has reached.
    #[must_use]
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// Batches whose generation did not connect contiguously.
    #[must_use]
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// Interns records whose ids conflicted with the table.
    #[must_use]
    pub fn misdeclared(&self) -> u64 {
        self.misdeclared
    }

    /// A read-only view of the engine mid-replay.
    #[must_use]
    pub fn engine(&self) -> &SeerEngine {
        &self.engine
    }

    /// Consumes the replayer: engine, string table, and generation.
    #[must_use]
    pub fn into_parts(self) -> (SeerEngine, StringTable, u64) {
        (self.engine, self.strings, self.events_applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeerConfig;
    use seer_trace::{EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp};

    fn ev(seq: u64, path: RawPathId) -> TraceEvent {
        TraceEvent {
            seq: Seq(seq),
            time: Timestamp::from_millis(seq),
            pid: Pid(1),
            root: false,
            kind: EventKind::Open {
                path,
                mode: OpenMode::Read,
                fd: Fd(3),
            },
            error: None,
        }
    }

    fn cold() -> Replayer {
        Replayer::new(
            SeerEngine::new(SeerConfig::default()),
            StringTable::new(),
            0,
        )
    }

    #[test]
    fn replay_matches_direct_application() {
        // Build the reference state by direct per-event application.
        let mut direct = SeerEngine::new(SeerConfig::default());
        let mut table = StringTable::new();
        let a = table.intern("/proj/a.c");
        let b = table.intern("/proj/b.c");
        let events = [ev(1, a), ev(2, b), ev(3, a), ev(4, b)];
        for e in &events {
            direct.on_event(e, &table);
        }

        // Replay the same history as logged records, framed differently.
        let mut rep = cold();
        rep.declare(0, &["/proj/a.c".into(), "/proj/b.c".into()]);
        assert!(rep.apply(3, &events[..3]));
        assert!(rep.apply(4, &events[3..]));
        assert_eq!(rep.events_applied(), 4);
        assert_eq!(rep.gaps(), 0);
        let (replayed, strings, _) = rep.into_parts();
        assert_eq!(strings.len(), table.len());
        let encode = |engine: &SeerEngine| {
            let mut buf = Vec::new();
            seer_trace::codec::Codec::encode(&engine.snapshot(), &mut buf);
            buf
        };
        assert_eq!(
            encode(&replayed),
            encode(&direct),
            "replayed state must be bit-identical to direct application"
        );
    }

    #[test]
    fn stale_batches_are_skipped() {
        let mut table = StringTable::new();
        let a = table.intern("/a");
        let mut engine = SeerEngine::new(SeerConfig::default());
        engine.on_event(&ev(1, a), &table);

        // Base state is at generation 1; the log starts before that.
        let mut rep = Replayer::new(engine, StringTable::new(), 1);
        rep.declare(0, &["/a".into()]);
        assert!(!rep.apply(1, &[ev(1, a)]), "stale");
        assert!(rep.apply(2, &[ev(2, a)]), "fresh");
        assert_eq!(rep.events_applied(), 2);
        assert_eq!(rep.gaps(), 0);
    }

    #[test]
    fn gaps_are_counted_but_applied() {
        let mut rep = cold();
        rep.declare(0, &["/a".into()]);
        assert!(rep.apply(1, &[ev(1, RawPathId(0))]));
        // Generation jumps from 1 to 5 with only one event: a gap.
        assert!(rep.apply(5, &[ev(5, RawPathId(0))]));
        assert_eq!(rep.gaps(), 1);
        assert_eq!(rep.events_applied(), 5);
    }

    #[test]
    fn redeclarations_at_segment_boundaries_are_clean() {
        let mut rep = cold();
        rep.declare(0, &["/a".into(), "/b".into()]);
        // A new segment's base record re-declares the full table.
        rep.declare(0, &["/a".into(), "/b".into()]);
        assert_eq!(rep.misdeclared(), 0);
        // A delta continues from the end.
        rep.declare(2, &["/c".into()]);
        assert_eq!(rep.misdeclared(), 0);
        // A conflicting redeclaration is counted.
        rep.declare(0, &["/zzz".into()]);
        assert_eq!(rep.misdeclared(), 1);
        // A hole (declaring past the end) is counted, not interned.
        rep.declare(10, &["/hole".into()]);
        assert_eq!(rep.misdeclared(), 2);
    }
}
