//! Crash-safe persistence of the daemon's engine state, and the one
//! recovery path every tenant takes back from disk: a snapshot base
//! ([`load_base`]) plus a write-ahead-log replay ([`replay_wal`]).
//!
//! A snapshot file is one checksummed frame of `seer_core::persist`'s
//! binary format under the magic `SEERSNP1`; its payload is the
//! applied-event count (a varint), then the engine snapshot. The engine
//! actor freezes a tenant into those bytes ([`DaemonSnapshot::to_bytes`])
//! and hands them to the shard's worker, which writes them with
//! [`write_file_atomic`]; the shutdown epilogue writes its final snapshot
//! through the same writer. A file that is torn, fails its checksum, or does not open with
//! the magic (a retired JSON snapshot among them) is a
//! [`PersistError::Format`], and recovery falls back to the previous
//! snapshot, then to a cold start.
//!
//! Two callers recover through it: a tenant's one recovery sequence
//! (`crate::tenant`, for startup and lazy creation alike) and the
//! `History` query, whose errors are in-band answers.

use seer_core::persist::{frame, unframe};
use seer_core::{PersistError, Replayer, SeerEngine, SeerSnapshot};
use seer_telemetry::{tlog, Level};
use seer_trace::codec::{Codec, Reader};
use seer_trace::StringTable;
use seer_wal::{ReplayStats, Wal, WalError, WalRecord};
use std::fs;
use std::io::Write;
use std::path::Path;

/// The magic opening a daemon snapshot file.
const SNAPSHOT_MAGIC: [u8; 8] = *b"SEERSNP1";

/// Everything the daemon persists: the engine's knowledge plus enough
/// pipeline bookkeeping to report how far ingestion had progressed.
#[derive(Debug, Clone)]
pub struct DaemonSnapshot {
    /// The engine's persistent knowledge.
    pub engine: SeerSnapshot,
    /// Events the engine had applied when this snapshot was taken.
    pub events_applied: u64,
}

impl DaemonSnapshot {
    /// The snapshot file's bytes: one `seer_core::persist` frame under
    /// the magic `SEERSNP1`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        frame(&SNAPSHOT_MAGIC, |buf| {
            self.events_applied.encode(buf);
            self.engine.encode(buf);
        })
    }

    /// Decodes a snapshot file's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Format`] unless `bytes` is exactly one
    /// whole, checksummed snapshot frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<DaemonSnapshot, PersistError> {
        let mut r = Reader::new(unframe(&SNAPSHOT_MAGIC, bytes)?);
        let events_applied = u64::decode(&mut r)?;
        let engine = SeerSnapshot::decode(&mut r)?;
        r.finish()?;
        Ok(DaemonSnapshot {
            engine,
            events_applied,
        })
    }

    /// Writes the snapshot atomically: the bytes go to `<path>.tmp`,
    /// which is synced and only then replaces `path`. A crash mid-write
    /// leaves the previous snapshot intact, never a truncated one. The
    /// snapshot being replaced is kept as `<path>.prev`, the fallback
    /// [`DaemonSnapshot::load_with_fallback`] reaches for when the
    /// primary is damaged. The parent directory is synced after the
    /// rename, so the new snapshot is durable before the log compaction
    /// that relies on it deletes anything.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on any filesystem failure.
    pub fn write_atomic(&self, path: &Path) -> Result<(), PersistError> {
        write_file_atomic(path, &self.to_bytes())
    }

    /// Loads the latest snapshot; `Ok(None)` when none has been written.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Format`] if the file exists but is not a
    /// whole, checksummed snapshot (a corrupt database is an error, not
    /// a silent cold start).
    pub fn load(path: &Path) -> Result<Option<DaemonSnapshot>, PersistError> {
        match fs::read(path) {
            Ok(bytes) => DaemonSnapshot::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Recovery-oriented load: prefers the primary snapshot, falling
    /// back to `<path>.prev` when the primary is corrupt or missing.
    /// Never errors on damage — a daemon should start with the best
    /// state available, not refuse to start. Returns the snapshot (if
    /// any survived) plus human-readable warnings describing every
    /// degradation encountered, for the caller to log.
    #[must_use]
    pub fn load_with_fallback(path: &Path) -> (Option<DaemonSnapshot>, Vec<String>) {
        let mut warnings = Vec::new();
        match DaemonSnapshot::load(path) {
            Ok(Some(snap)) => return (Some(snap), warnings),
            Ok(None) => {}
            Err(e) => warnings.push(format!(
                "primary snapshot {} unreadable: {e}",
                path.display()
            )),
        }
        let prev = prev_path(path);
        match DaemonSnapshot::load(&prev) {
            Ok(Some(snap)) => {
                warnings.push(format!(
                    "recovered from previous snapshot {} (events_applied {})",
                    prev.display(),
                    snap.events_applied
                ));
                (Some(snap), warnings)
            }
            Ok(None) => {
                if !warnings.is_empty() {
                    warnings.push("no previous snapshot either; starting cold".into());
                }
                (None, warnings)
            }
            Err(e) => {
                warnings.push(format!(
                    "previous snapshot {} also unreadable: {e}; starting cold",
                    prev.display()
                ));
                (None, warnings)
            }
        }
    }
}

/// Writes a snapshot file's `bytes` to `path` the way
/// [`DaemonSnapshot::write_atomic`] does; the shard's worker writes the
/// bytes the actor froze through it.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on any filesystem failure.
pub(crate) fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    // Keep the outgoing snapshot as the fallback generation. Best
    // effort: a failure here (e.g. no current snapshot yet) must not
    // block publishing the new one.
    let _ = fs::rename(path, prev_path(path));
    fs::rename(&tmp, path)?;
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
    Ok(())
}

/// Removes a stale `<path>.tmp` left by a crash mid-write, logging it.
/// Returns the removed path, if there was one. Call it only before the
/// tenant's own snapshots start, never on a live tenant.
pub(crate) fn clean_stale(path: &Path) -> Option<std::path::PathBuf> {
    let tmp = tmp_path(path);
    if tmp.exists() && fs::remove_file(&tmp).is_ok() {
        tlog!(
            Level::Warn,
            "seer_daemon",
            "removed stale snapshot temp file",
            path = tmp.display().to_string(),
        );
        return Some(tmp);
    }
    None
}

/// The base a recovery replays the log onto, as a [`Replayer`] with an
/// empty string table (the log re-declares every path): the snapshot at
/// `path` — a damaged primary falls back to the previous one, and one
/// above generation `at_most` counts as absent — or else a cold engine
/// with the default configuration at generation zero. Degradations are
/// logged against `tenant`.
pub(crate) fn load_base(path: Option<&Path>, at_most: u64, tenant: &str) -> Replayer {
    let snap = path.and_then(|path| {
        let (snap, warnings) = DaemonSnapshot::load_with_fallback(path);
        for warning in &warnings {
            tlog!(
                Level::Warn,
                "seer_daemon",
                "snapshot recovery degraded",
                tenant = tenant,
                detail = warning.as_str(),
            );
        }
        snap
    });
    let (engine, generation) = match snap.filter(|s| s.events_applied <= at_most) {
        Some(s) => (SeerEngine::from_snapshot(s.engine), s.events_applied),
        None => (SeerEngine::default(), 0),
    };
    Replayer::new(engine, StringTable::new(), generation)
}

/// Whether a replay from a base at `base_generation` can reach
/// `target` in a log compacted through `compacted`: a cold base needs
/// the log to reach back to generation zero.
pub(crate) fn reachable(base_generation: u64, compacted: u64, target: u64) -> Result<(), String> {
    if base_generation == 0 && compacted > 0 {
        return Err(format!(
            "generation {target} unreachable: log compacted through {compacted} \
             and no snapshot at or below the target exists"
        ));
    }
    Ok(())
}

/// Replays `wal` into `rep`, stopping after the last batch at or below
/// generation `through`. Batches the base already covers are skipped,
/// so a snapshot newer than part of the log replays cleanly. On an
/// error `rep` keeps everything replayed before it.
pub(crate) fn replay_wal(
    wal: &Wal,
    rep: &mut Replayer,
    through: u64,
) -> Result<ReplayStats, WalError> {
    wal.replay(|rec| match rec {
        WalRecord::Interns { base, paths } => {
            rep.declare(base, &paths);
            true
        }
        WalRecord::Batch { generation, events } => {
            if generation > through {
                return false;
            }
            rep.apply(generation, &events);
            true
        }
    })
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    os.into()
}

fn prev_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".prev");
    os.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_core::SeerEngine;
    use seer_trace::{EventSink, OpenMode, Pid, TraceBuilder};

    fn warm_engine() -> SeerEngine {
        let mut b = TraceBuilder::new();
        for i in 0..4u32 {
            b.touch(Pid(i + 1), "/p/a.c", OpenMode::Read);
            b.touch(Pid(i + 1), "/p/b.h", OpenMode::Read);
        }
        let t = b.build();
        let mut engine = SeerEngine::default();
        for ev in &t.events {
            engine.on_event(ev, &t.strings);
        }
        engine
    }

    #[test]
    fn write_then_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("seer-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        let snap = DaemonSnapshot {
            engine: warm_engine().snapshot(),
            events_applied: 16,
        };
        snap.write_atomic(&path).expect("write");
        let back = DaemonSnapshot::load(&path).expect("load").expect("present");
        assert_eq!(back.events_applied, 16);
        let restored = SeerEngine::from_snapshot(back.engine);
        assert!(restored.paths().get("/p/a.c").is_some());
        assert!(!tmp_path(&path).exists(), "tmp replaced by rename");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let path = std::env::temp_dir().join("seer-snap-definitely-absent.json");
        assert!(DaemonSnapshot::load(&path).expect("ok").is_none());
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        let dir = std::env::temp_dir().join(format!("seer-snapc-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        fs::write(&path, b"{ truncated").expect("write");
        assert!(DaemonSnapshot::load(&path).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_primary_falls_back_to_previous() {
        let dir = std::env::temp_dir().join(format!("seer-snapf-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        let first = DaemonSnapshot {
            engine: warm_engine().snapshot(),
            events_applied: 7,
        };
        first.write_atomic(&path).expect("write 1");
        let second = DaemonSnapshot {
            engine: warm_engine().snapshot(),
            events_applied: 9,
        };
        second.write_atomic(&path).expect("write 2");
        // Damage the primary; the previous generation must win.
        fs::write(&path, b"{ torn mid-write").expect("corrupt");
        let (snap, warnings) = DaemonSnapshot::load_with_fallback(&path);
        assert_eq!(snap.expect("fallback").events_applied, 7);
        assert!(!warnings.is_empty(), "degradation is reported");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_primary_without_previous_starts_cold() {
        let dir = std::env::temp_dir().join(format!("seer-snapg-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        fs::write(&path, b"not json at all").expect("write");
        let (snap, warnings) = DaemonSnapshot::load_with_fallback(&path);
        assert!(snap.is_none());
        assert!(warnings.len() >= 2, "both failures reported: {warnings:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_has_no_warnings() {
        let dir = std::env::temp_dir().join(format!("seer-snaph-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let (snap, warnings) = DaemonSnapshot::load_with_fallback(&dir.join("absent.json"));
        assert!(snap.is_none());
        assert!(warnings.is_empty(), "a clean cold start is not a warning");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_stale_removes_orphaned_tmp() {
        let dir = std::env::temp_dir().join(format!("seer-snapt-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        fs::write(tmp_path(&path), b"half-written").expect("write tmp");
        let removed = clean_stale(&path).expect("tmp existed");
        assert!(!removed.exists());
        assert!(clean_stale(&path).is_none(), "idempotent");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let dir = std::env::temp_dir().join(format!("seer-snap2-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("db.json");
        let first = DaemonSnapshot {
            engine: warm_engine().snapshot(),
            events_applied: 1,
        };
        first.write_atomic(&path).expect("write 1");
        let second = DaemonSnapshot {
            engine: warm_engine().snapshot(),
            events_applied: 2,
        };
        second.write_atomic(&path).expect("write 2");
        let back = DaemonSnapshot::load(&path).expect("load").expect("present");
        assert_eq!(back.events_applied, 2);
        fs::remove_dir_all(&dir).ok();
    }
}
