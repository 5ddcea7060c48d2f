//! Trace event model for the SEER automated hoarding system.
//!
//! SEER observes user behavior through a stream of syscall-level file
//! reference events (the paper instruments the Linux kernel, §4.11). This
//! crate defines that event stream in a platform-neutral way:
//!
//! * [`TraceEvent`] — one observed system call (open, close, exec, …) with
//!   its issuing process, timestamp, and outcome.
//! * [`StringTable`] / [`RawPathId`] — interned raw path strings as they
//!   appeared in the syscall (possibly relative; the observer resolves them).
//! * [`PathTable`] / [`FileId`] — canonical absolute paths, the identity
//!   space used by the correlator, clustering, and hoarding layers.
//! * [`Trace`] — an in-memory trace with serialization, plus the streaming
//!   [`EventSink`] abstraction so month-scale synthetic traces can be fed to
//!   the observer without materialization.
//! * [`FsImage`] — a model of the traced machine's filesystem (kinds and
//!   sizes), standing in for the real disks of the paper's nine laptops.

#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod event;
pub mod fs;
pub mod hash;
pub mod ids;
pub mod path;
pub mod strings;
pub mod text;
pub mod time;
pub mod trace;
pub mod wire;

pub use error::TraceError;
pub use event::{ErrorKind, EventKind, OpenMode, TraceEvent};
pub use fs::{FileKind, FsEntry, FsImage};
pub use hash::{IdHashMap, IdHashSet};
pub use ids::{Fd, FileId, Pid, RawPathId, Seq};
pub use path::{DirTree, PathTable};
pub use strings::StringTable;
pub use time::Timestamp;
pub use trace::{EventSink, Trace, TraceBuilder, TraceMeta, TraceStats};
pub use wire::{ClientFrame, DaemonFrame, QueryRequest, QueryResponse, WireError};
