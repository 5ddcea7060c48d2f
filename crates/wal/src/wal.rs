//! The log itself: segment files, append, recovery, compaction, and
//! point-in-time truncation.
//!
//! A log directory holds numbered segment files (`wal-00000042.seg`),
//! each beginning with the 8-byte magic [`SEGMENT_MAGIC`] and containing
//! framed binary [`WalRecord`]s (see [`crate::record`]), plus a small
//! `wal.meta` JSON noting the generation compaction has discarded
//! history through. Appends go to the highest-numbered segment; at a
//! size threshold the segment is sealed and a new one started. Every
//! segment opens with a full string-table snapshot, so any *prefix* of
//! sealed segments can be deleted once a snapshot covers their batches —
//! replay of the remaining suffix still resolves every id.
//!
//! A segment of the retired `SEERWAL1` format (JSON records) is refused
//! with [`WalError::Corrupt`], never repaired: read as a torn segment it
//! would be deleted, with every segment after it.

use crate::record::{self, Decoded, WalRecord};
use seer_trace::{RawPathId, StringTable, TraceEvent};
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// First 8 bytes of every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SEERWAL2";

/// First 8 bytes of a segment in the retired JSON-record format.
const RETIRED_MAGIC: &[u8; 8] = b"SEERWAL1";

/// The compaction bookkeeping file kept next to the segments.
const META_FILE: &str = "wal.meta";

/// When to `fsync` appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every append: an acknowledged batch survives `kill -9`.
    Always,
    /// Sync when at least this long has passed since the last sync:
    /// bounded loss (everything appended within the window).
    Interval(Duration),
    /// Never sync explicitly; durability rides on the OS flushing dirty
    /// pages (process crashes still lose nothing — only machine crashes
    /// and power loss do).
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, `interval:<ms>`, or a
    /// bare `interval` (50 ms).
    #[must_use]
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(Duration::from_millis(50))),
            _ => {
                let ms: u64 = s.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

/// Configuration for opening a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding segments and `wal.meta`; created if missing.
    pub dir: PathBuf,
    /// Sync policy for appends.
    pub fsync: FsyncPolicy,
    /// Seal the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
}

impl WalConfig {
    /// Defaults: 50 ms interval fsync, 1 MiB segments (about 60k
    /// events of binary records).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            segment_max_bytes: 1024 * 1024,
        }
    }
}

/// Errors from log operations.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// On-disk state that recovery refuses to guess about.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A truncation target predating what compaction already discarded.
    Compacted {
        /// The requested generation.
        requested: u64,
        /// History at or before this generation is gone.
        compacted_through: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::Corrupt { path, detail } => {
                write!(f, "wal corrupt at {}: {detail}", path.display())
            }
            WalError::Compacted {
                requested,
                compacted_through,
            } => write!(
                f,
                "generation {requested} unreachable: log compacted through {compacted_through}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// Compaction bookkeeping persisted as `wal.meta`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct WalMeta {
    /// Batches with generation at or below this have been discarded by
    /// compaction; replay from generation zero is impossible past it.
    compacted_through: u64,
}

/// A segment the log knows about (sealed or active).
#[derive(Debug, Clone)]
struct SegmentState {
    path: PathBuf,
    bytes: u64,
    /// Highest batch generation in the segment; `None` if it holds no
    /// batch records (yet).
    last_generation: Option<u64>,
}

/// What [`Wal::open`] found and repaired.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// Segment files present after recovery.
    pub segments: usize,
    /// Valid records across all segments.
    pub records: u64,
    /// Valid batch records across all segments.
    pub batches: u64,
    /// Highest batch generation in the log (0 when empty).
    pub last_generation: u64,
    /// Torn/corrupt tail bytes truncated away.
    pub truncated_bytes: u64,
    /// Segment files dropped entirely (unreadable, or stranded after a
    /// damaged predecessor).
    pub dropped_segments: usize,
}

/// What one append did.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// Bytes appended (framing included).
    pub bytes: u64,
    /// Records appended (1 or 2: an optional interns delta + the batch).
    pub records: u32,
    /// Whether the append sealed a segment and started a new one.
    pub rotated: bool,
    /// Time spent in `fsync`, when the policy synced this append.
    pub fsync: Option<Duration>,
}

/// What a compaction pass removed.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactReport {
    /// Sealed segments deleted.
    pub segments_dropped: usize,
    /// Their total size.
    pub bytes_dropped: u64,
}

/// Point-in-time size and position of the log.
#[derive(Debug, Clone, Copy)]
pub struct WalStatus {
    /// Segment files on disk (sealed + active).
    pub segments: usize,
    /// Total bytes across them.
    pub disk_bytes: u64,
    /// Highest batch generation appended or recovered.
    pub last_generation: u64,
    /// Generation compaction has discarded history through.
    pub compacted_through: u64,
}

/// Replay statistics from [`Wal::replay`] / [`replay_dir`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayStats {
    /// Records delivered to the callback.
    pub records: u64,
    /// Batch records among them.
    pub batches: u64,
    /// Whether the callback stopped the replay early.
    pub stopped: bool,
    /// Whether a torn or corrupt tail cut the replay short.
    pub damaged: bool,
}

/// A segmented, checksummed append-only log of intern declarations and
/// event batches.
pub struct Wal {
    cfg: WalConfig,
    meta: WalMeta,
    /// All segments in sequence order; the last one is active.
    segments: Vec<SegmentState>,
    /// Open handle on the last segment, if any exists yet.
    active: Option<File>,
    next_seq: u64,
    /// Global string ids already declared in the log (dense high-water).
    declared: u32,
    last_generation: u64,
    last_sync: Instant,
    /// Unsynced appends outstanding.
    dirty: bool,
    /// The records being appended, reused across appends.
    buf: Vec<u8>,
}

fn segment_file_name(seq: u64) -> String {
    format!("wal-{seq:08}.seg")
}

fn parse_segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Creates `dir` if it is missing and syncs its parent, so the new
/// directory entry survives a crash along with what is written into it.
fn create_dir_durably(dir: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
    sync_dir(parent.unwrap_or(Path::new(".")))
}

/// The strings of `strings` with ids from `from` on, in id order.
fn paths_from(strings: &StringTable, from: u32) -> impl ExactSizeIterator<Item = &str> {
    (from..strings.len() as u32).map(|id| strings.resolve(RawPathId(id)).expect("dense table"))
}

/// One decoded walk over a segment's bytes.
struct SegmentScan {
    /// Bytes of magic + valid records.
    valid_len: u64,
    file_len: u64,
    records: u64,
    batches: u64,
    last_generation: Option<u64>,
    /// Highest `base + paths.len()` over interns records.
    declared_high: u32,
    /// Why the walk stopped before the end of the file, if it did.
    damage: Option<&'static str>,
}

/// Walks a segment, calling `f` for each valid record; `f` returning
/// `false` stops the walk (not counted as damage).
///
/// # Errors
///
/// Returns [`WalError::Corrupt`] for a segment of the retired
/// `SEERWAL1` format, and [`WalError::Io`] when the file cannot be read.
fn scan_segment(
    path: &Path,
    mut f: impl FnMut(WalRecord) -> bool,
) -> Result<(SegmentScan, bool), WalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.starts_with(RETIRED_MAGIC) {
        return Err(WalError::Corrupt {
            path: path.to_owned(),
            detail: "segment is in the retired SEERWAL1 format (JSON records); this build \
                     reads only SEERWAL2, so move the log directory aside to start a new log"
                .into(),
        });
    }
    let file_len = bytes.len() as u64;
    let mut scan = SegmentScan {
        valid_len: 0,
        file_len,
        records: 0,
        batches: 0,
        last_generation: None,
        declared_high: 0,
        damage: None,
    };
    if bytes.len() < SEGMENT_MAGIC.len() || &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        scan.damage = Some("bad or torn segment magic");
        return Ok((scan, false));
    }
    let mut off = SEGMENT_MAGIC.len();
    scan.valid_len = off as u64;
    let mut stopped = false;
    while off < bytes.len() {
        match record::decode(&bytes[off..]) {
            Decoded::Record { record, consumed } => {
                off += consumed;
                scan.valid_len = off as u64;
                scan.records += 1;
                match &record {
                    WalRecord::Batch { generation, .. } => {
                        scan.batches += 1;
                        scan.last_generation = Some(*generation);
                    }
                    WalRecord::Interns { base, paths } => {
                        let high = base.saturating_add(paths.len() as u32);
                        scan.declared_high = scan.declared_high.max(high);
                    }
                }
                if !f(record) {
                    stopped = true;
                    break;
                }
            }
            Decoded::Incomplete => {
                scan.damage = Some("torn tail record");
                break;
            }
            Decoded::Corrupt(why) => {
                scan.damage = Some(why);
                break;
            }
        }
    }
    Ok((scan, stopped))
}

/// Lists segment files under `dir`, ordered by sequence number.
fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// Replays every valid record under `dir` in order, without opening a
/// [`Wal`]. `f` returning `false` stops the replay. A torn or corrupt
/// tail stops it too (flagged in the stats), as do any segments after
/// the damaged one — their batches would leave a generation gap.
///
/// Safe to run against a live log: appends only extend the tail, and a
/// half-written tail record classifies as damage, exactly like a crash.
///
/// # Errors
///
/// Returns [`WalError::Io`] on filesystem failure and
/// [`WalError::Corrupt`] on reaching a `SEERWAL1` segment; a missing
/// directory replays nothing.
pub fn replay_dir(
    dir: &Path,
    mut f: impl FnMut(WalRecord) -> bool,
) -> Result<ReplayStats, WalError> {
    let mut stats = ReplayStats::default();
    let segments = match list_segments(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(stats),
        Err(e) => return Err(e.into()),
    };
    for (_seq, path) in segments {
        let (scan, stopped) = scan_segment(&path, &mut f)?;
        stats.records += scan.records;
        stats.batches += scan.batches;
        if stopped {
            stats.stopped = true;
            return Ok(stats);
        }
        if scan.damage.is_some() {
            stats.damaged = true;
            return Ok(stats);
        }
    }
    Ok(stats)
}

impl Wal {
    /// Opens the log in `cfg.dir`, truncating any torn or corrupt tail
    /// so the surviving prefix is entirely valid. A missing directory is
    /// an empty log; it is created with the log's first segment, so a
    /// log that is never appended to leaves nothing on disk.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on filesystem failure and
    /// [`WalError::Corrupt`] when `wal.meta` exists but does not parse
    /// (guessing at compaction state could silently fabricate history)
    /// or when any segment is in the retired `SEERWAL1` format; either
    /// way nothing on disk is changed.
    pub fn open(cfg: WalConfig) -> Result<(Wal, RecoveryReport), WalError> {
        let meta_path = cfg.dir.join(META_FILE);
        let meta = match fs::read_to_string(&meta_path) {
            Ok(text) => serde_json::from_str(&text).map_err(|e| WalError::Corrupt {
                path: meta_path.clone(),
                detail: format!("unreadable wal.meta: {e}"),
            })?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => WalMeta::default(),
            Err(e) => return Err(e.into()),
        };
        let mut wal = Wal {
            cfg,
            meta,
            segments: Vec::new(),
            active: None,
            next_seq: 0,
            declared: 0,
            last_generation: 0,
            last_sync: Instant::now(),
            dirty: false,
            buf: Vec::new(),
        };
        let report = wal.recover()?;
        Ok((wal, report))
    }

    /// Scans the directory, truncating damage, and rebuilds in-memory
    /// state. Called by [`Wal::open`] and after file surgery.
    fn recover(&mut self) -> Result<RecoveryReport, WalError> {
        self.segments.clear();
        self.active = None;
        self.declared = 0;
        self.last_generation = 0;
        let mut report = RecoveryReport::default();
        let listed = match list_segments(&self.cfg.dir) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            listed => listed?,
        };
        self.next_seq = listed.iter().map(|(s, _)| s + 1).max().unwrap_or(0);
        // Every segment is scanned before any is repaired, so a refused
        // one leaves the directory as it was.
        let scans = listed
            .iter()
            .map(|(_, path)| scan_segment(path, |_| true).map(|(scan, _)| scan))
            .collect::<Result<Vec<_>, _>>()?;
        let mut damaged = false;
        for ((_seq, path), scan) in listed.iter().zip(scans) {
            if damaged {
                // A damaged predecessor leaves a generation gap; batches
                // here are unreachable for contiguous replay. Drop them.
                report.truncated_bytes += scan.file_len;
                report.dropped_segments += 1;
                fs::remove_file(path)?;
                continue;
            }
            if scan.damage.is_some() {
                damaged = true;
                report.truncated_bytes += scan.file_len - scan.valid_len;
                if scan.valid_len <= SEGMENT_MAGIC.len() as u64 {
                    // Nothing valid in it (possibly not even the magic —
                    // a crash during segment creation). Remove the file.
                    report.dropped_segments += 1;
                    fs::remove_file(path)?;
                    continue;
                }
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_len)?;
                f.sync_all()?;
            }
            self.declared = self.declared.max(scan.declared_high);
            if let Some(g) = scan.last_generation {
                self.last_generation = self.last_generation.max(g);
            }
            report.records += scan.records;
            report.batches += scan.batches;
            self.segments.push(SegmentState {
                path: path.clone(),
                bytes: scan.valid_len.max(SEGMENT_MAGIC.len() as u64),
                last_generation: scan.last_generation,
            });
        }
        if report.dropped_segments > 0 {
            sync_dir(&self.cfg.dir)?;
        }
        if let Some(last) = self.segments.last() {
            let mut f = OpenOptions::new().read(true).write(true).open(&last.path)?;
            f.seek(SeekFrom::End(0))?;
            self.active = Some(f);
        }
        report.segments = self.segments.len();
        report.last_generation = self.last_generation;
        Ok(report)
    }

    /// Replays every record in the log through `f` (see [`replay_dir`]).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on filesystem failure.
    pub fn replay(&self, f: impl FnMut(WalRecord) -> bool) -> Result<ReplayStats, WalError> {
        replay_dir(&self.cfg.dir, f)
    }

    /// Generation compaction has discarded history through (0 when the
    /// whole log is still replayable from generation zero).
    #[must_use]
    pub fn compacted_through(&self) -> u64 {
        self.meta.compacted_through
    }

    /// Current size and position of the log.
    #[must_use]
    pub fn status(&self) -> WalStatus {
        WalStatus {
            segments: self.segments.len(),
            disk_bytes: self.segments.iter().map(|s| s.bytes).sum(),
            last_generation: self.last_generation,
            compacted_through: self.meta.compacted_through,
        }
    }

    /// Starts a fresh segment whose first record snapshots the entire
    /// string table, making the segment self-contained. The records are
    /// encoded before the file is created, so a table too large to log
    /// leaves no empty segment behind.
    fn create_segment(&mut self, strings: &StringTable) -> Result<(), WalError> {
        self.buf.clear();
        self.buf.extend_from_slice(SEGMENT_MAGIC);
        record::put_interns(&mut self.buf, 0, paths_from(strings, 0))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        let path = self.cfg.dir.join(segment_file_name(seq));
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .read(true)
            .open(&path)?;
        file.write_all(&self.buf)?;
        sync_dir(&self.cfg.dir)?;
        self.declared = strings.len() as u32;
        self.segments.push(SegmentState {
            path,
            bytes: self.buf.len() as u64,
            last_generation: None,
        });
        self.active = Some(file);
        self.dirty = true;
        Ok(())
    }

    /// Seals the active segment (syncing it unless the policy is
    /// `Never`) and starts a new one.
    fn rotate(&mut self, strings: &StringTable) -> Result<(), WalError> {
        if let Some(f) = self.active.take() {
            if self.cfg.fsync != FsyncPolicy::Never {
                f.sync_data()?;
                self.dirty = false;
                self.last_sync = Instant::now();
            }
        }
        self.create_segment(strings)
    }

    /// Appends one applied batch, preceded when necessary by an interns
    /// delta declaring any strings interned since the last append.
    ///
    /// `generation` is the engine's applied-event count *after* the
    /// batch; `events` must already be in the global id space of
    /// `strings`. Rotation happens *before* the write when the active
    /// segment is over the size threshold, so a batch never splits
    /// across segments.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on write or sync failure, or when a
    /// record would exceed [`crate::MAX_RECORD_BYTES`] (and so could
    /// never be read back); the in-memory high-water marks are only
    /// advanced on success.
    pub fn append_batch(
        &mut self,
        strings: &StringTable,
        generation: u64,
        events: &[TraceEvent],
    ) -> Result<AppendOutcome, WalError> {
        let mut rotated = false;
        match self.segments.last() {
            None => {
                // The log's very first segment is a creation, not a
                // rotation: nothing was sealed.
                create_dir_durably(&self.cfg.dir)?;
                self.create_segment(strings)?;
            }
            Some(s) if s.bytes >= self.cfg.segment_max_bytes => {
                self.rotate(strings)?;
                rotated = true;
            }
            Some(_) => {}
        }
        self.buf.clear();
        let mut records = 0u32;
        let table_len = strings.len() as u32;
        if table_len > self.declared {
            record::put_interns(
                &mut self.buf,
                self.declared,
                paths_from(strings, self.declared),
            )?;
            records += 1;
        }
        record::put_batch(&mut self.buf, generation, events)?;
        records += 1;
        let file = self.active.as_mut().expect("segment created above");
        file.write_all(&self.buf)?;
        self.dirty = true;
        self.declared = self.declared.max(table_len);
        self.last_generation = self.last_generation.max(generation);
        let bytes = self.buf.len() as u64;
        let seg = self.segments.last_mut().expect("segment created above");
        seg.bytes += bytes;
        seg.last_generation = Some(
            seg.last_generation
                .map_or(generation, |g| g.max(generation)),
        );
        let fsync = match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(d) if self.last_sync.elapsed() >= d => self.sync()?,
            FsyncPolicy::Interval(_) | FsyncPolicy::Never => None,
        };
        Ok(AppendOutcome {
            bytes,
            records,
            rotated,
            fsync,
        })
    }

    /// Syncs outstanding appends to disk, returning the time spent, or
    /// `None` when nothing was dirty.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the sync fails.
    pub fn sync(&mut self) -> Result<Option<Duration>, WalError> {
        if !self.dirty {
            return Ok(None);
        }
        let Some(f) = self.active.as_ref() else {
            return Ok(None);
        };
        let started = Instant::now();
        f.sync_data()?;
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(Some(started.elapsed()))
    }

    /// Under an interval policy, syncs if the window has elapsed since
    /// the last sync — the idle-tick hook that bounds loss when appends
    /// pause.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] if the sync fails.
    pub fn maybe_sync(&mut self) -> Result<Option<Duration>, WalError> {
        match self.cfg.fsync {
            FsyncPolicy::Interval(d) if self.dirty && self.last_sync.elapsed() >= d => self.sync(),
            _ => Ok(None),
        }
    }

    /// Drops sealed segments whose every batch is at or below `covered`
    /// (the newest snapshot's generation). Only a *prefix* of segments
    /// can qualify — generations are monotone across the log — and the
    /// active segment is never dropped. `wal.meta` is updated (and
    /// synced) *before* any file is deleted, so a crash between the two
    /// can only over-claim compaction, never fabricate replayable
    /// history.
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Io`] on filesystem failure.
    pub fn compact(&mut self, covered: u64) -> Result<CompactReport, WalError> {
        let sealed = self.segments.len().saturating_sub(1);
        let mut drop_count = 0;
        let mut high = None;
        for seg in &self.segments[..sealed] {
            if seg.last_generation.unwrap_or(0) <= covered {
                drop_count += 1;
                high = seg.last_generation.or(high);
            } else {
                break;
            }
        }
        if drop_count == 0 {
            return Ok(CompactReport::default());
        }
        if let Some(g) = high {
            if g > self.meta.compacted_through {
                self.meta.compacted_through = g;
                self.write_meta()?;
            }
        }
        let mut report = CompactReport::default();
        for seg in self.segments.drain(..drop_count) {
            report.bytes_dropped += seg.bytes;
            report.segments_dropped += 1;
            fs::remove_file(&seg.path)?;
        }
        sync_dir(&self.cfg.dir)?;
        Ok(report)
    }

    /// Atomically persists `wal.meta`.
    fn write_meta(&self) -> Result<(), WalError> {
        let path = self.cfg.dir.join(META_FILE);
        let tmp = self.cfg.dir.join(format!("{META_FILE}.tmp"));
        let text = serde_json::to_string(&self.meta).expect("meta serializes");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        sync_dir(&self.cfg.dir)?;
        Ok(())
    }

    /// Discards every batch with generation above `target`, starting a
    /// new timeline there: the log is cut right after the last batch at
    /// or below `target` (trailing interns deltas go too — replay of the
    /// truncated log re-derives the string table they described).
    ///
    /// Returns the highest batch generation remaining (the *achieved*
    /// restore point — `target` itself when it lands on a batch
    /// boundary).
    ///
    /// # Errors
    ///
    /// Returns [`WalError::Compacted`] when `target` predates what
    /// compaction discarded, and [`WalError::Io`] on filesystem failure.
    pub fn truncate_after(&mut self, target: u64) -> Result<u64, WalError> {
        if target < self.meta.compacted_through {
            return Err(WalError::Compacted {
                requested: target,
                compacted_through: self.meta.compacted_through,
            });
        }
        self.sync()?;
        self.active = None;
        let mut cut_from: Option<usize> = None;
        let mut cut_offset: Option<u64> = None;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.last_generation.unwrap_or(0) <= target {
                continue;
            }
            // First segment holding a batch beyond the target: find the
            // byte offset right after its last keepable batch.
            let mut bytes = Vec::new();
            File::open(&seg.path)?.read_to_end(&mut bytes)?;
            let mut off = SEGMENT_MAGIC.len();
            let mut keep_until: Option<u64> = None;
            while off < bytes.len() {
                match record::decode(&bytes[off..]) {
                    Decoded::Record { record, consumed } => {
                        let end = off + consumed;
                        match record.generation() {
                            Some(g) if g > target => break,
                            Some(_) => keep_until = Some(end as u64),
                            None => {}
                        }
                        off = end;
                    }
                    _ => break,
                }
            }
            cut_from = Some(i);
            cut_offset = keep_until;
            break;
        }
        if let Some(i) = cut_from {
            match cut_offset {
                Some(end) => {
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&self.segments[i].path)?;
                    f.set_len(end)?;
                    f.sync_all()?;
                    for seg in &self.segments[i + 1..] {
                        fs::remove_file(&seg.path)?;
                    }
                }
                None => {
                    // No keepable batch in this segment at all: its base
                    // interns record belongs to the discarded timeline.
                    for seg in &self.segments[i..] {
                        fs::remove_file(&seg.path)?;
                    }
                }
            }
            sync_dir(&self.cfg.dir)?;
        }
        self.recover()?;
        Ok(self.last_generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_trace::{EventKind, Fd, OpenMode, Pid, Seq, Timestamp};

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seer-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn ev(strings: &mut StringTable, seq: u64, path: &str) -> TraceEvent {
        TraceEvent {
            seq: Seq(seq),
            time: Timestamp::from_millis(seq),
            pid: Pid(1),
            root: false,
            kind: EventKind::Open {
                path: strings.intern(path),
                mode: OpenMode::Read,
                fd: Fd(3),
            },
            error: None,
        }
    }

    /// Appends `n` one-event batches, interning a fresh path each time.
    fn fill(wal: &mut Wal, strings: &mut StringTable, start_gen: u64, n: u64) {
        for i in 0..n {
            let g = start_gen + i + 1;
            let e = ev(strings, g, &format!("/proj/file-{g}.c"));
            wal.append_batch(strings, g, &[e]).expect("append");
        }
    }

    fn collect(dir: &Path) -> (Vec<WalRecord>, ReplayStats) {
        let mut recs = Vec::new();
        let stats = replay_dir(dir, |r| {
            recs.push(r);
            true
        })
        .expect("replay");
        (recs, stats)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = scratch("rt");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Always;
        let (mut wal, report) = Wal::open(cfg).expect("open");
        assert_eq!(report.segments, 0);
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 5);
        let (recs, stats) = collect(&dir);
        assert_eq!(stats.batches, 5);
        assert!(!stats.damaged);
        // First record snapshots the table as of segment creation —
        // the first batch's path was already interned by then.
        assert_eq!(
            recs[0],
            WalRecord::Interns {
                base: 0,
                paths: vec!["/proj/file-1.c".into()]
            }
        );
        let gens: Vec<u64> = recs.iter().filter_map(WalRecord::generation).collect();
        assert_eq!(gens, vec![1, 2, 3, 4, 5]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_generation_and_interning_watermarks() {
        let dir = scratch("reopen");
        let mut strings = StringTable::new();
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open");
            fill(&mut wal, &mut strings, 0, 3);
            wal.sync().expect("sync");
        }
        let (mut wal, report) = Wal::open(WalConfig::new(&dir)).expect("reopen");
        assert_eq!(report.last_generation, 3);
        assert_eq!(report.batches, 3);
        // Appending after reopen must not re-declare old strings.
        fill(&mut wal, &mut strings, 3, 1);
        let (recs, _) = collect(&dir);
        let interns: Vec<&WalRecord> = recs
            .iter()
            .filter(|r| matches!(r, WalRecord::Interns { .. }))
            .collect();
        // Base snapshot + one delta per new path: no duplicate ids.
        let mut seen = StringTable::new();
        for r in &interns {
            if let WalRecord::Interns { base, paths } = r {
                assert_eq!(*base as usize, seen.len(), "dense declarations");
                for p in paths {
                    seen.intern(p);
                }
            }
        }
        assert_eq!(seen.len(), strings.len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = scratch("torn");
        let mut strings = StringTable::new();
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open");
            fill(&mut wal, &mut strings, 0, 4);
            wal.sync().expect("sync");
        }
        // Tear the tail: append half a record's worth of garbage.
        let segs = list_segments(&dir).expect("list");
        let last = &segs.last().expect("segment").1;
        let mut f = OpenOptions::new().append(true).open(last).expect("open");
        f.write_all(&[0x13, 0x00, 0x00, 0x00, 0xAA, 0xBB])
            .expect("tear");
        drop(f);

        let (wal, report) = Wal::open(WalConfig::new(&dir)).expect("recover");
        assert_eq!(report.last_generation, 4, "valid prefix survives");
        assert!(report.truncated_bytes > 0);
        let (_, stats) = collect(&dir);
        assert_eq!(stats.batches, 4);
        assert!(!stats.damaged, "tail was repaired at open");
        drop(wal);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retired_json_segments_are_refused_not_repaired() {
        let dir = scratch("v1");
        let mut strings = StringTable::new();
        {
            let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open");
            fill(&mut wal, &mut strings, 0, 2);
            wal.sync().expect("sync");
        }
        // A torn tail on the current segment, then a segment written in
        // the retired format: repairing the first would delete the second.
        let current = dir.join(segment_file_name(0));
        let mut f = OpenOptions::new()
            .append(true)
            .open(&current)
            .expect("open");
        f.write_all(&[0x13, 0x00]).expect("tear");
        drop(f);
        let payload = br#"{"Interns":{"base":0,"paths":["/a"]}}"#;
        let mut v1 = RETIRED_MAGIC.to_vec();
        v1.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        v1.extend_from_slice(&record::crc32(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let retired = dir.join(segment_file_name(1));
        fs::write(&retired, &v1).expect("write v1 segment");
        let contents = |d: &Path| {
            let mut files: Vec<(PathBuf, Vec<u8>)> = fs::read_dir(d)
                .expect("list")
                .map(|e| {
                    let p = e.expect("entry").path();
                    let bytes = fs::read(&p).expect("read");
                    (p, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = contents(&dir);

        match Wal::open(WalConfig::new(&dir)) {
            Err(WalError::Corrupt { path, detail }) => {
                assert_eq!(path, retired);
                assert!(detail.contains("SEERWAL1"), "{detail}");
            }
            Ok(_) => panic!("a SEERWAL1 segment opened"),
            Err(other) => panic!("expected Corrupt, got {other}"),
        }
        assert_eq!(contents(&dir), before, "refusal changed the directory");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_starts_self_contained_segments() {
        let dir = scratch("rot");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_max_bytes = 64; // force rotation every record or two
        let (mut wal, _) = Wal::open(cfg).expect("open");
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 10);
        let status = wal.status();
        assert!(status.segments > 2, "tiny threshold rotated: {status:?}");
        // Every segment must open with a full-table interns record.
        for (_, path) in list_segments(&dir).expect("list") {
            let mut first = None;
            let (scan, _) = scan_segment(&path, |r| {
                first = Some(r);
                false
            })
            .expect("scan");
            assert!(scan.damage.is_none());
            match first {
                Some(WalRecord::Interns { base: 0, .. }) => {}
                other => panic!("segment {} starts with {other:?}", path.display()),
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_covered_prefix_only() {
        let dir = scratch("compact");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_max_bytes = 64;
        let (mut wal, _) = Wal::open(cfg).expect("open");
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 12);
        let before = wal.status();
        assert!(before.segments > 3);

        // A snapshot covering generation 6: only sealed segments whose
        // last batch is ≤ 6 may go.
        let report = wal.compact(6).expect("compact");
        assert!(report.segments_dropped > 0);
        let after = wal.status();
        assert!(after.segments < before.segments);
        assert!(after.compacted_through <= 6);

        // Replay of the suffix still resolves every path and reaches 12.
        let mut table = StringTable::new();
        let mut last = 0;
        let mut unresolved = 0;
        replay_dir(&dir, |rec| {
            match rec {
                WalRecord::Interns { paths, .. } => {
                    for p in &paths {
                        table.intern(p);
                    }
                }
                WalRecord::Batch { generation, events } => {
                    last = generation;
                    for e in &events {
                        if let Some(p) = e.kind.path() {
                            if table.resolve(p).is_none() {
                                unresolved += 1;
                            }
                        }
                    }
                }
            }
            true
        })
        .expect("replay");
        assert_eq!(last, 12);
        assert_eq!(unresolved, 0, "segments are self-contained");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_never_drops_the_active_segment() {
        let dir = scratch("compact-active");
        let (mut wal, _) = Wal::open(WalConfig::new(&dir)).expect("open");
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 3);
        let report = wal.compact(1_000).expect("compact");
        assert_eq!(report.segments_dropped, 0, "single active segment stays");
        assert_eq!(wal.status().segments, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_after_cuts_a_new_timeline() {
        let dir = scratch("trunc");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_max_bytes = 256;
        let (mut wal, _) = Wal::open(cfg).expect("open");
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 10);
        let achieved = wal.truncate_after(6).expect("truncate");
        assert_eq!(achieved, 6);
        let (recs, stats) = collect(&dir);
        assert!(!stats.damaged);
        let gens: Vec<u64> = recs.iter().filter_map(WalRecord::generation).collect();
        assert_eq!(gens, vec![1, 2, 3, 4, 5, 6]);
        // The new timeline continues from the restore point.
        fill(&mut wal, &mut strings, 6, 2);
        let (recs, _) = collect(&dir);
        let gens: Vec<u64> = recs.iter().filter_map(WalRecord::generation).collect();
        assert_eq!(gens, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_below_compaction_point_is_refused() {
        let dir = scratch("trunc-compacted");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_max_bytes = 128;
        let (mut wal, _) = Wal::open(cfg).expect("open");
        let mut strings = StringTable::new();
        fill(&mut wal, &mut strings, 0, 10);
        wal.compact(8).expect("compact");
        let compacted = wal.compacted_through();
        assert!(compacted > 0, "compaction advanced");
        match wal.truncate_after(compacted - 1) {
            Err(WalError::Compacted { .. }) => {}
            other => panic!("expected Compacted, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_cli_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval:200"),
            Some(FsyncPolicy::Interval(Duration::from_millis(200)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(Duration::from_millis(50)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("interval:x"), None);
    }

    #[test]
    fn always_policy_reports_sync_time_per_append() {
        let dir = scratch("fsync");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Always;
        let (mut wal, _) = Wal::open(cfg).expect("open");
        let mut strings = StringTable::new();
        let e = ev(&mut strings, 1, "/a");
        let out = wal.append_batch(&strings, 1, &[e]).expect("append");
        assert!(out.fsync.is_some(), "always syncs");
        let out2 = wal.sync().expect("sync");
        assert!(out2.is_none(), "nothing dirty after a synced append");
        fs::remove_dir_all(&dir).ok();
    }
}
