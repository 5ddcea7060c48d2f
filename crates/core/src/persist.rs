//! Engine persistence: SEER's on-disk database of known files.
//!
//! The real SEER keeps its database of ~20 000 known files in (virtual)
//! memory and notes that storing it on disk would be straightforward
//! because "only a small fraction of the information is active at any
//! given time" (§5.3). This module is that straightforward step: the
//! engine's accumulated knowledge — path table, semantic-distance table,
//! per-file activity, always-hoard set, frequency counts, and per-program
//! history — encodes to a compact binary file and restores into a fresh
//! engine.
//!
//! Per-process state (descriptor tables, open-file lifetimes, live
//! counters) is deliberately *not* persisted: the processes it describes
//! do not survive the restart the snapshot exists for.
//!
//! # Format
//!
//! Every snapshot file is one checksummed frame:
//!
//! ```text
//! magic: 8 bytes | len: u32 LE | CRC-32 of payload: u32 LE | payload: len bytes
//! ```
//!
//! [`SeerSnapshot::save`] writes the payload `observer | correlator |
//! cluster` under [`ENGINE_MAGIC`]; the daemon frames its own payload
//! (the applied-event count, then the same engine payload) under a magic
//! of its own through [`frame`] and [`unframe`]. Each part encodes itself
//! next to its definition ([`seer_trace::codec`]): varint ids and counts,
//! bit-exact little-endian `f64`s, and length-prefixed UTF-8 paths. A
//! decoded snapshot never names a file its own path table does not hold.

use crate::correlator::CorrelatorSnapshot;
use crate::engine::SeerEngine;
use seer_cluster::ClusterConfig;
use seer_observer::ObserverSnapshot;
use seer_trace::codec::{crc32, Codec, DecodeError, Reader};
use seer_trace::FileId;
use std::io::{BufRead, Write};

/// The magic opening an engine snapshot written by
/// [`SeerSnapshot::save`] (`seer observe --state`).
pub const ENGINE_MAGIC: [u8; 8] = *b"SEERENG1";

/// Bytes before a frame's payload: the magic, length, and checksum.
const FRAME_HEADER_BYTES: usize = 16;

/// The complete persistent state of a [`SeerEngine`].
#[derive(Debug, Clone)]
pub struct SeerSnapshot {
    /// Observer knowledge (paths, always-hoard, frequency, program
    /// history).
    pub observer: ObserverSnapshot,
    /// Correlator knowledge (distance table, activity).
    pub correlator: CorrelatorSnapshot,
    /// Clustering configuration.
    pub cluster: ClusterConfig,
}

/// Encoded field by field, in declaration order. Decoding refuses a
/// snapshot naming a file id outside its own path table, so a restore
/// never sizes its dense per-file arrays from a damaged id.
impl Codec for SeerSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.observer.encode(buf);
        self.correlator.encode(buf);
        self.cluster.encode(buf);
    }

    fn decode(r: &mut Reader<'_>) -> Result<SeerSnapshot, DecodeError> {
        let snap = SeerSnapshot {
            observer: Codec::decode(r)?,
            correlator: Codec::decode(r)?,
            cluster: Codec::decode(r)?,
        };
        if snap
            .max_file_id()
            .is_some_and(|f| f.index() >= snap.observer.paths.len())
        {
            return Err(DecodeError("a file id lies outside the path table"));
        }
        Ok(snap)
    }
}

impl SeerSnapshot {
    /// The largest file id any part of the snapshot names.
    fn max_file_id(&self) -> Option<FileId> {
        let obs = &self.observer;
        let table = &self.correlator.distance.table;
        let rows = table
            .rows
            .iter()
            .flat_map(|(f, entries)| std::iter::once(*f).chain(entries.iter().map(|e| e.to)));
        obs.always_hoard
            .iter()
            .chain(&obs.known_dirs)
            .copied()
            .chain(obs.freq_counts.iter().map(|(f, _)| *f))
            .chain(obs.program_history.iter().map(|(f, _, _)| *f))
            .chain(self.correlator.activity.iter().map(|(f, _)| *f))
            .chain(rows)
            .chain(table.marked.iter().map(|(f, _)| *f))
            .chain(table.dead.iter().copied())
            .max()
    }

    /// Writes the snapshot as one [`ENGINE_MAGIC`] frame.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on write failure.
    pub fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        w.write_all(&frame(&ENGINE_MAGIC, |buf| self.encode(buf)))?;
        Ok(())
    }

    /// Reads a snapshot written by [`SeerSnapshot::save`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Format`] if the input is not a whole,
    /// checksummed engine snapshot, and [`PersistError::Io`] if it
    /// cannot be read.
    pub fn load<R: BufRead>(r: &mut R) -> Result<SeerSnapshot, PersistError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let payload = unframe(&ENGINE_MAGIC, &bytes)?;
        Ok(seer_trace::codec::decode_all(payload)?)
    }
}

/// Builds one frame: `magic`, then the length and CRC-32 of the payload
/// `encode` appends, then the payload.
///
/// # Panics
///
/// If the payload reaches 4 GiB, which no engine state comes near.
#[must_use]
pub fn frame(magic: &[u8; 8], encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 * 1024);
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&[0; 8]);
    encode(&mut buf);
    let payload = &buf[FRAME_HEADER_BYTES..];
    let len = u32::try_from(payload.len()).expect("snapshot payload below 4 GiB");
    let crc = crc32(payload);
    buf[8..12].copy_from_slice(&len.to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// The payload of a whole file holding exactly one `magic` frame.
///
/// # Errors
///
/// Returns [`PersistError::Format`] when the file does not open with
/// `magic` (naming the retired JSON format when it opens with `{`), is
/// torn or has trailing bytes, or fails its checksum.
pub fn unframe<'a>(magic: &[u8; 8], file: &'a [u8]) -> Result<&'a [u8], PersistError> {
    let format = |m: &str| Err(PersistError::Format(m.into()));
    if !file.starts_with(magic) {
        if file.first() == Some(&b'{') {
            return format(
                "the file is a snapshot in the retired JSON format, which is no longer read",
            );
        }
        return format("not a snapshot of this kind (bad magic)");
    }
    let Some((header, payload)) = file.split_at_checked(FRAME_HEADER_BYTES) else {
        return format("snapshot header truncated");
    };
    let len = u32::from_le_bytes(header[8..12].try_into().expect("four bytes"));
    if usize::try_from(len).ok() != Some(payload.len()) {
        return format("snapshot length does not match the file (torn or extended)");
    }
    let crc = u32::from_le_bytes(header[12..16].try_into().expect("four bytes"));
    if crc32(payload) != crc {
        return format("snapshot checksum mismatch");
    }
    Ok(payload)
}

/// Errors arising while saving or loading a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input was not a valid snapshot.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            PersistError::Format(m) => write!(f, "snapshot format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

impl From<DecodeError> for PersistError {
    fn from(e: DecodeError) -> PersistError {
        PersistError::Format(e.to_string())
    }
}

impl SeerEngine {
    /// Captures the engine's persistent knowledge (see the module docs for
    /// what is and is not included).
    #[must_use]
    pub fn snapshot(&self) -> SeerSnapshot {
        SeerSnapshot {
            observer: self.observer_snapshot(),
            correlator: self.correlator().snapshot(),
            cluster: *self.cluster_config(),
        }
    }

    /// Restores an engine from a snapshot; project clustering is
    /// recomputed on the next [`SeerEngine::recluster`].
    #[must_use]
    pub fn from_snapshot(snap: SeerSnapshot) -> SeerEngine {
        let correlator = crate::correlator::Correlator::from_snapshot(snap.correlator);
        SeerEngine::from_restored_parts(snap.observer, correlator, snap.cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{OpenMode, Pid, TraceBuilder};

    fn sample_trace() -> seer_trace::Trace {
        let mut b = TraceBuilder::new();
        for round in 0..6u32 {
            let pid = Pid(10 + round);
            b.exec(pid, "/usr/bin/cc");
            let files = ["/p/a.c", "/p/b.h", "/p/c.c", "/p/d.h"];
            let first = b.open(pid, files[round as usize % 4], OpenMode::Read);
            for k in 1..4 {
                b.touch(pid, files[(round as usize + k) % 4], OpenMode::Read);
            }
            b.close(pid, first);
            b.exit(pid);
        }
        b.build()
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let mut engine = SeerEngine::default();
        sample_trace().replay(&mut engine);
        engine.recluster();
        let snap = engine.snapshot();
        let mut buf = Vec::new();
        snap.save(&mut buf).expect("save");
        let back = SeerSnapshot::load(&mut buf.as_slice()).expect("load");
        let restored = SeerEngine::from_snapshot(back);
        // Knowledge survives: paths, activity, distances.
        assert_eq!(restored.paths().len(), engine.paths().len());
        assert_eq!(
            restored.correlator().activity().len(),
            engine.correlator().activity().len()
        );
        let a = engine.paths().get("/p/a.c").expect("known");
        let b = engine.paths().get("/p/b.h").expect("known");
        assert_eq!(
            restored
                .correlator()
                .distance()
                .table()
                .distance(a, b)
                .is_some(),
            engine
                .correlator()
                .distance()
                .table()
                .distance(a, b)
                .is_some()
        );
    }

    #[test]
    fn restored_engine_reclusters_identically() {
        let mut engine = SeerEngine::default();
        sample_trace().replay(&mut engine);
        let original = engine.recluster().clone();
        let mut restored = SeerEngine::from_snapshot(engine.snapshot());
        let re = restored.recluster().clone();
        assert_eq!(original.len(), re.len());
        let mut a: Vec<_> = original.clusters.iter().map(|c| c.files.clone()).collect();
        let mut b: Vec<_> = re.clusters.iter().map(|c| c.files.clone()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "identical clusters after restore");
    }

    #[test]
    fn restored_engine_keeps_learning() {
        let mut engine = SeerEngine::default();
        sample_trace().replay(&mut engine);
        let mut restored = SeerEngine::from_snapshot(engine.snapshot());
        // Continue observing after the "restart".
        let mut b = TraceBuilder::new();
        b.touch(Pid(99), "/p/new.c", OpenMode::Read);
        b.touch(Pid(99), "/p/a.c", OpenMode::Read);
        b.build().replay(&mut restored);
        assert!(restored.paths().get("/p/new.c").is_some());
        restored.recluster();
        assert!(!restored.rank().is_empty());
    }

    #[test]
    fn ranking_is_preserved_across_restore() {
        let mut engine = SeerEngine::default();
        sample_trace().replay(&mut engine);
        engine.recluster();
        let rank_before = engine.rank();
        let mut restored = SeerEngine::from_snapshot(engine.snapshot());
        restored.recluster();
        assert_eq!(restored.rank(), rank_before);
    }
}
