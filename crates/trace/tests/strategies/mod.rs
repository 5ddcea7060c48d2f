//! Proptest strategies over every shape a [`TraceEvent`] can take, shared
//! by the test suites of every codec that carries events: the wire's
//! binary events frame (`prop_wire.rs`) and the write-ahead log's
//! records (`crates/wal/tests/decode_fuzz.rs`).

use proptest::prelude::*;
use seer_trace::{ErrorKind, EventKind, Fd, OpenMode, Pid, RawPathId, Seq, Timestamp, TraceEvent};

fn path_id() -> impl Strategy<Value = RawPathId> {
    (0..=u32::MAX).prop_map(RawPathId)
}

fn fd() -> impl Strategy<Value = Fd> {
    (0..=u32::MAX).prop_map(Fd)
}

fn kind_strategy() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (path_id(), 0..3u8, fd()).prop_map(|(path, m, fd)| EventKind::Open {
            path,
            mode: match m {
                0 => OpenMode::Read,
                1 => OpenMode::Write,
                _ => OpenMode::ReadWrite,
            },
            fd,
        }),
        fd().prop_map(|fd| EventKind::Close { fd }),
        (path_id(), fd()).prop_map(|(path, fd)| EventKind::OpenDir { path, fd }),
        (fd(), 0..=u32::MAX).prop_map(|(fd, entries)| EventKind::ReadDir { fd, entries }),
        path_id().prop_map(|path| EventKind::Exec { path }),
        Just(EventKind::Exit),
        (0..=u32::MAX).prop_map(|c| EventKind::Fork { child: Pid(c) }),
        path_id().prop_map(|path| EventKind::Unlink { path }),
        path_id().prop_map(|path| EventKind::Create { path }),
        (path_id(), path_id()).prop_map(|(from, to)| EventKind::Rename { from, to }),
        path_id().prop_map(|path| EventKind::Stat { path }),
        path_id().prop_map(|path| EventKind::SetAttr { path }),
        path_id().prop_map(|path| EventKind::Chdir { path }),
    ]
}

/// Any event: every kind, open mode, error and root flag, with ids and
/// times over their full ranges.
pub fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    (
        (0..=u64::MAX, 0..=u64::MAX, 0..=u32::MAX),
        prop::bool::ANY,
        kind_strategy(),
        prop_oneof![
            Just(None),
            Just(Some(ErrorKind::NotFound)),
            Just(Some(ErrorKind::NotHoarded)),
            Just(Some(ErrorKind::Other)),
        ],
    )
        .prop_map(|((seq, time, pid), root, kind, error)| TraceEvent {
            seq: Seq(seq),
            time: Timestamp(time),
            pid: Pid(pid),
            root,
            kind,
            error,
        })
}
