//! Trace event types: one record per observed system call.

use crate::codec::{Codec, DecodeError, Reader};
use crate::ids::{Fd, Pid, RawPathId, Seq};
use crate::time::Timestamp;
use serde::{Deserialize, Serialize};

/// Access mode of an open, treated by SEER as a whole-file operation (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpenMode {
    /// Read-only open.
    Read,
    /// Write/truncate/create open.
    Write,
    /// Read-write open.
    ReadWrite,
}

impl OpenMode {
    /// Whether the open can modify the file.
    #[must_use]
    pub fn writes(self) -> bool {
        matches!(self, OpenMode::Write | OpenMode::ReadWrite)
    }
}

crate::codec_tags!(OpenMode {
    Read = 0,
    Write = 1,
    ReadWrite = 2,
});

/// Failure cause for an unsuccessful call.
///
/// The observer traces calls *after* completion precisely so it can see
/// success or failure (§4.11); failed opens matter because accesses to
/// nonexistent files must not be confused with hoard misses (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorKind {
    /// The named object does not exist (`ENOENT`).
    NotFound,
    /// The object exists but is not hoarded locally — a detectable hoard
    /// miss under substrates that can distinguish it (§4.4).
    NotHoarded,
    /// Permission denied or any other failure.
    Other,
}

/// The operation a trace event records.
///
/// Covers the reference types of §4.8: opens/closes, process lifetimes
/// (exec/exit/fork), deletion, creation, renames, attribute examination and
/// modification, and directory reads (which drive the meaningless-process
/// heuristics of §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Open a regular file; on success the process holds `fd` until a
    /// matching [`EventKind::Close`].
    Open {
        /// Raw path argument.
        path: RawPathId,
        /// Access mode.
        mode: OpenMode,
        /// Descriptor returned on success.
        fd: Fd,
    },
    /// Close a previously opened descriptor (file or directory).
    Close {
        /// Descriptor being closed.
        fd: Fd,
    },
    /// Open a directory for reading (e.g. `opendir`).
    OpenDir {
        /// Raw path argument.
        path: RawPathId,
        /// Descriptor returned on success.
        fd: Fd,
    },
    /// Read entries from an open directory.
    ReadDir {
        /// Directory descriptor.
        fd: Fd,
        /// Number of entries returned — the count of files the process has
        /// now "learned about" for the potential-access heuristic (§4.1).
        entries: u32,
    },
    /// Execute a program image; treated as an open of the image that lasts
    /// until process exit (§4.8).
    Exec {
        /// Raw path of the program image.
        path: RawPathId,
    },
    /// Process termination; closes the image and merges the reference
    /// history into the parent (§4.7).
    Exit,
    /// Process creation; the child inherits cwd, descriptors, and reference
    /// history (§4.7).
    Fork {
        /// Pid of the new child.
        child: Pid,
    },
    /// Delete a name (`unlink`); removal from SEER's tables is delayed
    /// (§4.8).
    Unlink {
        /// Raw path argument.
        path: RawPathId,
    },
    /// Create a filesystem object without holding it open (`mkdir`,
    /// `mknod`, `symlink`); treated as a point-in-time reference.
    Create {
        /// Raw path argument.
        path: RawPathId,
    },
    /// Rename a file; as semantically meaningful as an open (§3.1).
    Rename {
        /// Raw source path.
        from: RawPathId,
        /// Raw destination path.
        to: RawPathId,
    },
    /// Examine attributes (`stat`/`access`); treated as an open/close pair
    /// unless immediately followed by an open of the same file (§4.8).
    Stat {
        /// Raw path argument.
        path: RawPathId,
    },
    /// Modify attributes (`chmod`/`utimes`); a point-in-time reference.
    SetAttr {
        /// Raw path argument.
        path: RawPathId,
    },
    /// Change the process working directory.
    Chdir {
        /// Raw path of the new working directory.
        path: RawPathId,
    },
}

impl EventKind {
    /// The primary raw path this event references, if any.
    #[must_use]
    pub fn path(&self) -> Option<RawPathId> {
        match *self {
            EventKind::Open { path, .. }
            | EventKind::OpenDir { path, .. }
            | EventKind::Exec { path }
            | EventKind::Unlink { path }
            | EventKind::Create { path }
            | EventKind::Rename { from: path, .. }
            | EventKind::Stat { path }
            | EventKind::SetAttr { path }
            | EventKind::Chdir { path } => Some(path),
            EventKind::Close { .. }
            | EventKind::ReadDir { .. }
            | EventKind::Exit
            | EventKind::Fork { .. } => None,
        }
    }

    /// Rewrites every raw-path id through `f`, leaving other fields alone.
    ///
    /// Transports that re-intern paths into a different [`crate::StringTable`]
    /// (the daemon wire protocol's connection-local tables) use this to
    /// translate events between id spaces.
    #[must_use]
    pub fn map_paths(self, f: &mut dyn FnMut(RawPathId) -> RawPathId) -> EventKind {
        match self {
            EventKind::Open { path, mode, fd } => EventKind::Open {
                path: f(path),
                mode,
                fd,
            },
            EventKind::OpenDir { path, fd } => EventKind::OpenDir { path: f(path), fd },
            EventKind::Exec { path } => EventKind::Exec { path: f(path) },
            EventKind::Unlink { path } => EventKind::Unlink { path: f(path) },
            EventKind::Create { path } => EventKind::Create { path: f(path) },
            EventKind::Rename { from, to } => EventKind::Rename {
                from: f(from),
                to: f(to),
            },
            EventKind::Stat { path } => EventKind::Stat { path: f(path) },
            EventKind::SetAttr { path } => EventKind::SetAttr { path: f(path) },
            EventKind::Chdir { path } => EventKind::Chdir { path: f(path) },
            other @ (EventKind::Close { .. }
            | EventKind::ReadDir { .. }
            | EventKind::Exit
            | EventKind::Fork { .. }) => other,
        }
    }

    /// Short lowercase name of the syscall class (for stats and dumps).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Open { .. } => "open",
            EventKind::Close { .. } => "close",
            EventKind::OpenDir { .. } => "opendir",
            EventKind::ReadDir { .. } => "readdir",
            EventKind::Exec { .. } => "exec",
            EventKind::Exit => "exit",
            EventKind::Fork { .. } => "fork",
            EventKind::Unlink { .. } => "unlink",
            EventKind::Create { .. } => "create",
            EventKind::Rename { .. } => "rename",
            EventKind::Stat { .. } => "stat",
            EventKind::SetAttr { .. } => "setattr",
            EventKind::Chdir { .. } => "chdir",
        }
    }

    /// Number of event kinds (the length of [`EventKind::NAMES`]).
    pub const COUNT: usize = 13;

    /// Kind names indexed by [`EventKind::index`], in declaration order.
    pub const NAMES: [&'static str; EventKind::COUNT] = [
        "open", "close", "opendir", "readdir", "exec", "exit", "fork", "unlink", "create",
        "rename", "stat", "setattr", "chdir",
    ];

    /// Dense index of this kind into [`EventKind::NAMES`] — the key for
    /// per-kind counter arrays (telemetry's ingest-by-kind counters).
    #[must_use]
    pub fn index(&self) -> usize {
        match self {
            EventKind::Open { .. } => 0,
            EventKind::Close { .. } => 1,
            EventKind::OpenDir { .. } => 2,
            EventKind::ReadDir { .. } => 3,
            EventKind::Exec { .. } => 4,
            EventKind::Exit => 5,
            EventKind::Fork { .. } => 6,
            EventKind::Unlink { .. } => 7,
            EventKind::Create { .. } => 8,
            EventKind::Rename { .. } => 9,
            EventKind::Stat { .. } => 10,
            EventKind::SetAttr { .. } => 11,
            EventKind::Chdir { .. } => 12,
        }
    }
}

/// One observed system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Global sequence number, dense and increasing within a trace.
    pub seq: Seq,
    /// Wall-clock time of completion.
    pub time: Timestamp,
    /// Issuing process.
    pub pid: Pid,
    /// Whether the process runs as the superuser; such calls are mostly
    /// excluded from observation to avoid deadlock-analogous feedback
    /// (§4.10).
    pub root: bool,
    /// The operation performed.
    pub kind: EventKind,
    /// `None` on success; the failure cause otherwise.
    pub error: Option<ErrorKind>,
}

impl TraceEvent {
    /// Whether the call completed successfully.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// The encoding events take on the socket and in the log:
///
/// ```text
/// event = tag: u8       bits 0–3 kind index, 4–5 error code (0 ok /
///                       1 not-found / 2 not-hoarded / 3 other), bit 6 root
///         seq: varint   time: varint (µs)   pid: varint
///         kind fields, varints in declaration order (open mode is one
///         byte: 0 read / 1 write / 2 read-write)
/// ```
impl Codec for TraceEvent {
    /// A tag byte and three one-byte varints.
    const MIN_BYTES: usize = 4;

    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        let error = match self.error {
            None => 0u8,
            Some(ErrorKind::NotFound) => 1,
            Some(ErrorKind::NotHoarded) => 2,
            Some(ErrorKind::Other) => 3,
        };
        buf.push(self.kind.index() as u8 | error << 4 | u8::from(self.root) << 6);
        self.seq.encode(buf);
        self.time.encode(buf);
        self.pid.encode(buf);
        match self.kind {
            EventKind::Open { path, mode, fd } => {
                path.encode(buf);
                mode.encode(buf);
                fd.encode(buf);
            }
            EventKind::Close { fd } => fd.encode(buf),
            EventKind::OpenDir { path, fd } => {
                path.encode(buf);
                fd.encode(buf);
            }
            EventKind::ReadDir { fd, entries } => {
                fd.encode(buf);
                entries.encode(buf);
            }
            EventKind::Exec { path }
            | EventKind::Unlink { path }
            | EventKind::Create { path }
            | EventKind::Stat { path }
            | EventKind::SetAttr { path }
            | EventKind::Chdir { path } => path.encode(buf),
            EventKind::Exit => {}
            EventKind::Fork { child } => child.encode(buf),
            EventKind::Rename { from, to } => {
                from.encode(buf);
                to.encode(buf);
            }
        }
    }

    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<TraceEvent, DecodeError> {
        let tag = r.byte()?;
        if tag & 0x80 != 0 {
            return Err(DecodeError("reserved event tag bit set"));
        }
        let seq = Seq::decode(r)?;
        let time = Timestamp::decode(r)?;
        let pid = Pid::decode(r)?;
        let kind = match tag & 0x0f {
            0 => EventKind::Open {
                path: Codec::decode(r)?,
                mode: Codec::decode(r)?,
                fd: Codec::decode(r)?,
            },
            1 => EventKind::Close {
                fd: Codec::decode(r)?,
            },
            2 => EventKind::OpenDir {
                path: Codec::decode(r)?,
                fd: Codec::decode(r)?,
            },
            3 => EventKind::ReadDir {
                fd: Codec::decode(r)?,
                entries: Codec::decode(r)?,
            },
            4 => EventKind::Exec {
                path: Codec::decode(r)?,
            },
            5 => EventKind::Exit,
            6 => EventKind::Fork {
                child: Codec::decode(r)?,
            },
            7 => EventKind::Unlink {
                path: Codec::decode(r)?,
            },
            8 => EventKind::Create {
                path: Codec::decode(r)?,
            },
            9 => EventKind::Rename {
                from: Codec::decode(r)?,
                to: Codec::decode(r)?,
            },
            10 => EventKind::Stat {
                path: Codec::decode(r)?,
            },
            11 => EventKind::SetAttr {
                path: Codec::decode(r)?,
            },
            12 => EventKind::Chdir {
                path: Codec::decode(r)?,
            },
            _ => return Err(DecodeError("unknown event kind")),
        };
        let error = match (tag >> 4) & 0x3 {
            0 => None,
            1 => Some(ErrorKind::NotFound),
            2 => Some(ErrorKind::NotHoarded),
            _ => Some(ErrorKind::Other),
        };
        Ok(TraceEvent {
            seq,
            time,
            pid,
            root: tag & 0x40 != 0,
            kind,
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq: Seq(0),
            time: Timestamp::ZERO,
            pid: Pid(1),
            root: false,
            kind,
            error: None,
        }
    }

    #[test]
    fn open_mode_writes() {
        assert!(!OpenMode::Read.writes());
        assert!(OpenMode::Write.writes());
        assert!(OpenMode::ReadWrite.writes());
    }

    #[test]
    fn path_extraction() {
        let p = RawPathId(3);
        assert_eq!(
            ev(EventKind::Open {
                path: p,
                mode: OpenMode::Read,
                fd: Fd(4)
            })
            .kind
            .path(),
            Some(p)
        );
        assert_eq!(ev(EventKind::Exit).kind.path(), None);
        assert_eq!(ev(EventKind::Close { fd: Fd(4) }).kind.path(), None);
        assert_eq!(
            ev(EventKind::Rename {
                from: p,
                to: RawPathId(9)
            })
            .kind
            .path(),
            Some(p)
        );
    }

    #[test]
    fn ok_reflects_error() {
        let mut e = ev(EventKind::Exit);
        assert!(e.ok());
        e.error = Some(ErrorKind::NotFound);
        assert!(!e.ok());
    }

    #[test]
    fn serde_round_trip() {
        let e = ev(EventKind::Open {
            path: RawPathId(1),
            mode: OpenMode::Write,
            fd: Fd(7),
        });
        let json = serde_json::to_string(&e).expect("serialize");
        let back: TraceEvent = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, e);
    }

    #[test]
    fn map_paths_rewrites_every_path_field() {
        let mut shift = |p: RawPathId| RawPathId(p.0 + 100);
        let open = EventKind::Open {
            path: RawPathId(1),
            mode: OpenMode::Read,
            fd: Fd(3),
        };
        assert_eq!(
            open.map_paths(&mut shift),
            EventKind::Open {
                path: RawPathId(101),
                mode: OpenMode::Read,
                fd: Fd(3)
            }
        );
        let ren = EventKind::Rename {
            from: RawPathId(1),
            to: RawPathId(2),
        };
        assert_eq!(
            ren.map_paths(&mut shift),
            EventKind::Rename {
                from: RawPathId(101),
                to: RawPathId(102)
            }
        );
        let exit = EventKind::Exit;
        assert_eq!(exit.map_paths(&mut shift), EventKind::Exit);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ev(EventKind::Exit).kind.name(), "exit");
        assert_eq!(
            ev(EventKind::ReadDir {
                fd: Fd(1),
                entries: 10
            })
            .kind
            .name(),
            "readdir"
        );
    }
}
