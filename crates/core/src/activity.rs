//! Per-file recency tracking, feeding project priorities and the LRU
//! baseline.

use seer_observer::{RefKind, Reference, ReferenceSink};
use seer_trace::{FileId, PathTable, Seq, Timestamp};
use std::cmp::Reverse;

/// Most recent reference per file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LastRef {
    /// Sequence number of the most recent reference.
    pub seq: Seq,
    /// Time of the most recent reference.
    pub time: Timestamp,
    /// Total references observed for the file.
    pub count: u64,
}

seer_trace::codec_struct!(LastRef { seq, time, count } min_bytes = 3);

/// A [`ReferenceSink`] recording, for every file, when it was last
/// referenced and how often.
///
/// SEER's project priorities derive from member recency; the strict-LRU
/// baseline of §5.1.2 sorts files by exactly this record.
///
/// Records live in a dense vector indexed by [`FileId`] (a slot with
/// `count == 0` is untracked), so the per-reference update is an indexed
/// store rather than a hash-map probe.
#[derive(Debug, Default, Clone)]
pub struct ActivityTracker {
    last: Vec<LastRef>,
    tracked: usize,
}

/// The empty slot value: `count == 0` marks a file never referenced.
const UNTRACKED: LastRef = LastRef {
    seq: Seq(0),
    time: Timestamp(0),
    count: 0,
};

impl ActivityTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> ActivityTracker {
        ActivityTracker::default()
    }

    /// Records a reference directly (used by replay paths that bypass the
    /// sink interface).
    pub fn record(&mut self, file: FileId, seq: Seq, time: Timestamp) {
        if file == FileId::NONE {
            return;
        }
        let i = file.index();
        if self.last.len() <= i {
            self.last.resize(i + 1, UNTRACKED);
        }
        let e = &mut self.last[i];
        if e.count == 0 {
            self.tracked += 1;
            e.seq = seq;
            e.time = time;
        } else {
            e.seq = seq.max(e.seq);
            e.time = time.max(e.time);
        }
        e.count += 1;
    }

    /// The last-reference record of `file`.
    #[must_use]
    pub fn last_ref(&self, file: FileId) -> Option<LastRef> {
        self.last.get(file.index()).filter(|e| e.count > 0).copied()
    }

    /// All tracked files, in id order.
    pub fn files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.last
            .iter()
            .enumerate()
            .filter(|(_, e)| e.count > 0)
            .map(|(i, _)| FileId(i as u32))
    }

    /// Number of tracked files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether nothing has been tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tracked == 0
    }

    /// Exports `(file, last)` pairs for persistence, in id order.
    #[must_use]
    pub fn export(&self) -> Vec<(FileId, LastRef)> {
        self.last
            .iter()
            .enumerate()
            .filter(|(_, e)| e.count > 0)
            .map(|(i, &r)| (FileId(i as u32), r))
            .collect()
    }

    /// Restores pairs exported by [`ActivityTracker::export`].
    pub fn restore(&mut self, pairs: Vec<(FileId, LastRef)>) {
        self.last.clear();
        self.tracked = 0;
        for (f, r) in pairs {
            if f == FileId::NONE || r.count == 0 {
                continue;
            }
            let i = f.index();
            if self.last.len() <= i {
                self.last.resize(i + 1, UNTRACKED);
            }
            if self.last[i].count == 0 {
                self.tracked += 1;
            }
            self.last[i] = r;
        }
    }

    /// Files sorted by most-recent reference first (the LRU order), ties
    /// by id. The key is unique, so an unstable sort gives this order.
    #[must_use]
    pub fn lru_order(&self) -> Vec<FileId> {
        let mut v: Vec<(Reverse<Seq>, FileId)> = self
            .last
            .iter()
            .enumerate()
            .filter(|(_, e)| e.count > 0)
            .map(|(i, r)| (Reverse(r.seq), FileId(i as u32)))
            .collect();
        v.sort_unstable();
        v.into_iter().map(|(_, f)| f).collect()
    }
}

impl ReferenceSink for ActivityTracker {
    fn on_reference(&mut self, r: &Reference, _paths: &PathTable) {
        match r.kind {
            RefKind::Open { .. } | RefKind::Point { .. } | RefKind::Close => {
                self.record(r.file, r.seq, r.time);
            }
            RefKind::Delete
            | RefKind::Fork { .. }
            | RefKind::Exit { .. }
            | RefKind::HoardMiss
            | RefKind::DirList => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_latest_and_count() {
        let mut t = ActivityTracker::new();
        t.record(FileId(1), Seq(5), Timestamp::from_secs(5));
        t.record(FileId(1), Seq(9), Timestamp::from_secs(9));
        let r = t.last_ref(FileId(1)).expect("tracked");
        assert_eq!(r.seq, Seq(9));
        assert_eq!(r.count, 2);
        assert_eq!(t.last_ref(FileId(2)), None);
    }

    #[test]
    fn lru_order_is_most_recent_first() {
        let mut t = ActivityTracker::new();
        t.record(FileId(1), Seq(10), Timestamp::from_secs(10));
        t.record(FileId(2), Seq(30), Timestamp::from_secs(30));
        t.record(FileId(3), Seq(20), Timestamp::from_secs(20));
        assert_eq!(t.lru_order(), vec![FileId(2), FileId(3), FileId(1)]);
    }

    #[test]
    fn sink_ignores_structural_references() {
        let paths = PathTable::new();
        let mut t = ActivityTracker::new();
        let r = Reference {
            seq: Seq(1),
            time: Timestamp::ZERO,
            pid: seer_trace::Pid(1),
            file: FileId::NONE,
            kind: RefKind::Exit { parent: None },
        };
        t.on_reference(&r, &paths);
        assert!(t.is_empty());
    }

    #[test]
    fn out_of_order_records_keep_maximum() {
        let mut t = ActivityTracker::new();
        t.record(FileId(1), Seq(9), Timestamp::from_secs(9));
        t.record(FileId(1), Seq(5), Timestamp::from_secs(5));
        assert_eq!(t.last_ref(FileId(1)).expect("tracked").seq, Seq(9));
    }
}
