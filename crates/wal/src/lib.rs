//! `seer-wal` — durable write-ahead log for the SEER daemon.
//!
//! Snapshots alone lose every event since the last snapshot on a crash.
//! This crate closes that window: the daemon appends each applied event
//! batch (plus the string-table deltas that make its ids meaningful) to
//! a segmented, CRC-checksummed log *before* acknowledging it, and
//! recovery becomes *latest snapshot + replay of the log suffix*.
//!
//! Design points:
//!
//! - **Framing** ([`record`]): every record is a length-prefixed,
//!   CRC-32-checksummed binary payload; a batch stores its events in the
//!   wire's binary events encoding, about 15 bytes an event. Decoding
//!   classifies damage as a torn tail (truncate and continue) or
//!   corruption (truncate and continue), and never panics or
//!   over-allocates on garbage.
//! - **Segments** ([`wal`]): the log is a directory of numbered segment
//!   files rotated at a size threshold. Each segment opens with a full
//!   string-table snapshot, so compaction can drop any prefix of sealed
//!   segments once a daemon snapshot covers their batches. Segments of
//!   the retired JSON format (`SEERWAL1`) are refused, never repaired.
//! - **Fsync policy**: `always` (no acknowledged batch is ever lost to
//!   `kill -9`), `interval:<ms>` (loss bounded by the window), or
//!   `never` (page-cache durability only).
//! - **Point-in-time restore**: [`Wal::truncate_after`] cuts the log
//!   right after a target generation, and [`replay_dir`] feeds any
//!   prefix into a fresh engine for as-of-generation queries.

#![warn(missing_docs)]

pub mod record;
pub mod wal;

pub use record::{
    crc32, decode, encode, Decoded, WalRecord, MAX_RECORD_BYTES, RECORD_HEADER_BYTES,
};
pub use wal::{
    replay_dir, AppendOutcome, CompactReport, FsyncPolicy, RecoveryReport, ReplayStats, Wal,
    WalConfig, WalError, WalStatus, SEGMENT_MAGIC,
};
