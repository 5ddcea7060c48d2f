//! The observer proper: an [`EventSink`] that emits cleaned
//! [`Reference`]s.

use crate::config::{MeaninglessStrategy, ObserverConfig};
use crate::frequency::FrequencyTracker;
use crate::process::{FdTarget, PendingStat, ProcessState};
use crate::program_history::ProgramHistory;
use crate::reference::{RefKind, Reference, ReferenceSink};
use crate::stats::ObserverStats;
use seer_trace::path::{basename, dirname, normalize};
use seer_trace::{
    ErrorKind, EventKind, EventSink, FileId, IdHashMap, OpenMode, PathTable, Pid, RawPathId, Seq,
    StringTable, Timestamp, TraceEvent,
};
use std::collections::HashSet;

/// Persistent state of an [`Observer`] (see [`Observer::snapshot`]).
#[derive(Debug, Clone)]
pub struct ObserverSnapshot {
    /// Observer configuration.
    pub config: ObserverConfig,
    /// Canonical path table.
    pub paths: PathTable,
    /// Files hoarded unconditionally.
    pub always_hoard: Vec<FileId>,
    /// Known directory objects.
    pub known_dirs: Vec<FileId>,
    /// Frequency counts per file (§4.2).
    pub freq_counts: Vec<(FileId, u64)>,
    /// Total recorded accesses.
    pub freq_total: u64,
    /// Per-program access-ratio history (§4.1).
    pub program_history: Vec<(FileId, f64, u32)>,
    /// Accumulated statistics.
    pub stats: ObserverStats,
}

seer_trace::codec_struct!(ObserverSnapshot {
    config,
    paths,
    always_hoard,
    known_dirs,
    freq_counts,
    freq_total,
    program_history,
    stats,
});

/// One reference queued for filtered delivery.
#[derive(Debug, Clone, Copy)]
struct Emission {
    file: FileId,
    kind: RefKind,
    seq: Seq,
    time: Timestamp,
    /// Process-structure records (fork/exit) bypass the filter chain.
    structural: bool,
}

/// The SEER observer (§2, §4).
///
/// Feed it raw [`TraceEvent`]s (it implements [`EventSink`]); it resolves
/// paths, applies every §4 filter, and delivers [`Reference`]s to the
/// wrapped [`ReferenceSink`]. The observer owns the canonical [`PathTable`]
/// mapping absolute paths to [`FileId`]s; retrieve it with
/// [`Observer::paths`] or reclaim everything with
/// [`Observer::into_parts`].
#[derive(Debug)]
pub struct Observer<S> {
    config: ObserverConfig,
    paths: PathTable,
    procs: IdHashMap<Pid, ProcessState>,
    history: ProgramHistory,
    freq: FrequencyTracker,
    stats: ObserverStats,
    known_dirs: HashSet<FileId>,
    /// Dense mirror of `known_dirs` for the per-reference filter check.
    known_dirs_dense: Vec<bool>,
    always_hoard: HashSet<FileId>,
    /// Raw-path resolution memo, indexed by [`RawPathId`]: `(cwd token,
    /// resolved file)`. A hit skips normalization and path-table hashing;
    /// see [`Observer::resolve_id`] for the validity rule.
    resolve_cache: Vec<(u32, FileId)>,
    /// Next working-directory token (see [`ProcessState::cwd_token`]).
    next_cwd_token: u32,
    /// Per-file filter classification memo, indexed by [`FileId`]
    /// (`CLASS_*` constants; 0 = not yet classified). Sound because the
    /// classification depends only on the immutable config and the file's
    /// immutable canonical path.
    path_class: Vec<u8>,
    sink: S,
}

/// File not yet classified by the §4.3/§4.5/§4.6 path filters.
const CLASS_UNKNOWN: u8 = 0;
/// Ordinary file: passes every path-based filter.
const CLASS_PLAIN: u8 = 1;
/// Under a device prefix (§4.6): always hoarded, suppressed.
const CLASS_DEVICE: u8 = 2;
/// Under a critical prefix (§4.3): always hoarded, suppressed.
const CLASS_CRITICAL: u8 = 3;
/// Under a temporary directory (§4.5): suppressed.
const CLASS_TEMP: u8 = 4;
/// Dot-file (§4.3): always hoarded, suppressed.
const CLASS_DOTFILE: u8 = 5;

/// Cache token meaning "valid under any working directory" (absolute raw
/// paths).
const CWD_ANY: u32 = u32::MAX;

impl<S: ReferenceSink> Observer<S> {
    /// Creates an observer delivering references to `sink`.
    #[must_use]
    pub fn new(config: ObserverConfig, sink: S) -> Observer<S> {
        let freq = FrequencyTracker::new(
            config.frequent_fraction,
            config.frequent_min_total,
            config.frequent_min_accesses,
        );
        Observer {
            config,
            paths: PathTable::new(),
            procs: IdHashMap::default(),
            history: ProgramHistory::new(),
            freq,
            stats: ObserverStats::default(),
            known_dirs: HashSet::new(),
            known_dirs_dense: Vec::new(),
            always_hoard: HashSet::new(),
            resolve_cache: Vec::new(),
            next_cwd_token: 1,
            path_class: Vec::new(),
            sink,
        }
    }

    /// The canonical absolute-path table.
    #[must_use]
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Mutable access to the path table, so external investigators can
    /// intern the paths they discover (§3.2).
    pub fn paths_mut(&mut self) -> &mut PathTable {
        &mut self.paths
    }

    /// Filtering statistics so far.
    #[must_use]
    pub fn stats(&self) -> &ObserverStats {
        &self.stats
    }

    /// Files the observer has decided must always be hoarded: critical
    /// files, dot-files, devices, and frequently-referenced files
    /// (§4.2, §4.3, §4.6).
    #[must_use]
    pub fn always_hoard(&self) -> &HashSet<FileId> {
        &self.always_hoard
    }

    /// Currently frequently-referenced files (§4.2).
    #[must_use]
    pub fn frequent_files(&self) -> Vec<FileId> {
        self.freq.frequent_files()
    }

    /// Directory objects the observer has learned about (§4.6: SEER
    /// conservatively assumes all of them are hoarded when budgeting).
    #[must_use]
    pub fn known_dirs(&self) -> &HashSet<FileId> {
        &self.known_dirs
    }

    /// Access to the wrapped sink.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the wrapped sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the observer, returning the path table, the always-hoard
    /// set, the statistics, and the sink.
    #[must_use]
    pub fn into_parts(self) -> (PathTable, HashSet<FileId>, ObserverStats, S) {
        (self.paths, self.always_hoard, self.stats, self.sink)
    }

    /// Captures the observer's persistent knowledge: the path table, the
    /// always-hoard set, frequency counts, and per-program history.
    ///
    /// Per-process state (descriptor tables, working directories, live
    /// counters) is deliberately excluded — processes do not survive the
    /// restarts this snapshot exists for.
    #[must_use]
    pub fn snapshot(&self) -> ObserverSnapshot {
        let (freq_counts, freq_total) = self.freq.export();
        let mut always: Vec<FileId> = self.always_hoard.iter().copied().collect();
        always.sort_unstable();
        let mut dirs: Vec<FileId> = self.known_dirs.iter().copied().collect();
        dirs.sort_unstable();
        ObserverSnapshot {
            config: self.config.clone(),
            paths: self.paths.clone(),
            always_hoard: always,
            known_dirs: dirs,
            freq_counts,
            freq_total,
            program_history: self.history.export(),
            stats: self.stats,
        }
    }

    /// Restores an observer from a snapshot, delivering future references
    /// to `sink`.
    #[must_use]
    pub fn from_snapshot(snap: ObserverSnapshot, sink: S) -> Observer<S> {
        let mut obs = Observer::new(snap.config, sink);
        obs.paths = snap.paths;
        obs.always_hoard = snap.always_hoard.into_iter().collect();
        obs.known_dirs = snap.known_dirs.into_iter().collect();
        for &d in &obs.known_dirs {
            let i = d.index();
            if obs.known_dirs_dense.len() <= i {
                obs.known_dirs_dense.resize(i + 1, false);
            }
            obs.known_dirs_dense[i] = true;
        }
        obs.freq.restore(snap.freq_counts, snap.freq_total);
        obs.history.restore(snap.program_history);
        obs.stats = snap.stats;
        obs
    }

    fn proc_mut(&mut self, pid: Pid) -> &mut ProcessState {
        let default_cwd = &self.config.default_cwd;
        self.procs
            .entry(pid)
            .or_insert_with(|| ProcessState::new(pid, default_cwd.clone()))
    }

    fn resolve(&mut self, pid: Pid, raw: &str) -> FileId {
        let cwd = self
            .procs
            .get(&pid)
            .map_or(self.config.default_cwd.as_str(), |p| p.cwd.as_str());
        let abs = normalize(cwd, raw);
        self.paths.intern(&abs)
    }

    /// [`Observer::resolve`] with a memo keyed by the raw-path intern id.
    ///
    /// A cache entry is valid when it was recorded under the same working
    /// directory: absolute raw paths resolve independently of the cwd
    /// (token [`CWD_ANY`]), relative ones validate against the process's
    /// [`ProcessState::cwd_token`] — tokens are never reused, so token
    /// equality implies cwd-string equality. A hit therefore returns
    /// exactly what normalization + interning returned before, and file-id
    /// minting order is unchanged.
    fn resolve_id(&mut self, pid: Pid, raw_id: RawPathId, raw: &str) -> FileId {
        let token = if raw.as_bytes().first() == Some(&b'/') {
            CWD_ANY
        } else {
            self.procs.get(&pid).map_or(0, |p| p.cwd_token)
        };
        let idx = raw_id.0 as usize;
        if let Some(&(t, f)) = self.resolve_cache.get(idx) {
            if f != FileId::NONE && t == token {
                return f;
            }
        }
        let file = self.resolve(pid, raw);
        if self.resolve_cache.len() <= idx {
            self.resolve_cache.resize(idx + 1, (0, FileId::NONE));
        }
        self.resolve_cache[idx] = (token, file);
        file
    }

    /// Records `file` as a directory object (§4.6) in both the canonical
    /// set and the dense filter mirror.
    fn mark_known_dir(&mut self, file: FileId) {
        let i = file.index();
        if self.known_dirs_dense.len() <= i {
            self.known_dirs_dense.resize(i + 1, false);
        }
        if !self.known_dirs_dense[i] {
            self.known_dirs_dense[i] = true;
            self.known_dirs.insert(file);
        }
    }

    /// Classifies `file` against the path-based filters (devices, critical
    /// prefixes, temp directories, dot-files), memoizing per file. Returns
    /// `CLASS_UNKNOWN` only when the id has no canonical path.
    fn classify(&mut self, file: FileId) -> u8 {
        let i = file.index();
        if let Some(&c) = self.path_class.get(i) {
            if c != CLASS_UNKNOWN {
                return c;
            }
        }
        let Some(path) = self.paths.resolve(file) else {
            return CLASS_UNKNOWN;
        };
        let class = if self.config.is_device(path) {
            CLASS_DEVICE
        } else if self.config.is_critical(path) {
            CLASS_CRITICAL
        } else if self.config.is_temp(path) {
            CLASS_TEMP
        } else if self.config.exclude_dot_files && basename(path).starts_with('.') {
            CLASS_DOTFILE
        } else {
            CLASS_PLAIN
        };
        if self.path_class.len() <= i {
            self.path_class.resize(i + 1, CLASS_UNKNOWN);
        }
        self.path_class[i] = class;
        class
    }

    /// Applies the meaningless-process judgment for the active strategy,
    /// marking the process if warranted. Returns whether its references
    /// should currently be suppressed.
    fn judge_meaningless(&mut self, pid: Pid) -> bool {
        let strategy = self.config.meaningless_strategy;
        let ratio_threshold = self.config.meaningless_ratio;
        let min_learned = self.config.meaningless_min_learned;
        let Some(proc) = self.procs.get(&pid) else {
            return false;
        };
        if proc.meaningless {
            return true;
        }
        let newly = match strategy {
            MeaninglessStrategy::ControlListOnly => false,
            MeaninglessStrategy::DirOpenForever => proc.ever_opened_dir,
            MeaninglessStrategy::DirOpenWhileOpen => return proc.holds_dir_open(),
            MeaninglessStrategy::PotentialAccessRatio => {
                proc.learned >= min_learned
                    && self
                        .history
                        .blended_ratio(proc.program, proc.touched, proc.learned)
                        .is_some_and(|r| r >= ratio_threshold)
            }
        };
        if newly {
            self.stats.processes_marked_meaningless += 1;
            if let Some(p) = self.procs.get_mut(&pid) {
                p.meaningless = true;
            }
        }
        newly
    }

    /// Delivers one emission through the filter chain.
    fn deliver(&mut self, pid: Pid, em: Emission) {
        // A hoard miss is ground truth that the hoard was wrong (§4.4),
        // not an ordinary reference: the behavioral filters below exist
        // to keep noise out of the distance model, and a miss is most
        // likely to land on exactly the files they deem uninteresting
        // (e.g. ones already marked frequent). It also must not count
        // toward frequency — a failed open is not a use. The distance
        // engine ignores `HoardMiss`, so direct delivery cannot skew it.
        if em.structural || matches!(em.kind, RefKind::HoardMiss) {
            let r = Reference {
                seq: em.seq,
                time: em.time,
                pid,
                file: em.file,
                kind: em.kind,
            };
            self.sink.on_reference(&r, &self.paths);
            self.stats.refs_emitted += 1;
            return;
        }
        // Getcwd suppression (§4.1): all references are ignored during a
        // detected walk.
        if self
            .procs
            .get(&pid)
            .is_some_and(|p| p.getcwd_walk.is_some())
        {
            self.stats.suppressed_getcwd += 1;
            return;
        }
        if self.judge_meaningless(pid) {
            self.stats.suppressed_meaningless += 1;
            return;
        }
        match self.classify(em.file) {
            CLASS_PLAIN => {}
            CLASS_DEVICE => {
                self.always_hoard.insert(em.file);
                self.stats.suppressed_device += 1;
                return;
            }
            CLASS_CRITICAL => {
                self.always_hoard.insert(em.file);
                self.stats.suppressed_critical += 1;
                return;
            }
            CLASS_TEMP => {
                self.stats.suppressed_temp += 1;
                return;
            }
            CLASS_DOTFILE => {
                self.always_hoard.insert(em.file);
                self.stats.suppressed_dotfile += 1;
                return;
            }
            // CLASS_UNKNOWN: the id has no canonical path to judge.
            _ => return,
        }
        if self
            .known_dirs_dense
            .get(em.file.index())
            .copied()
            .unwrap_or(false)
        {
            self.stats.suppressed_directory += 1;
            return;
        }
        // Frequency (§4.2): record on opening references only, so a file
        // becoming frequent mid-lifetime still sees balanced close refs.
        let frequent = match em.kind {
            RefKind::Close => self.freq.is_frequent(em.file),
            _ => self.freq.record(em.file),
        };
        if frequent {
            self.always_hoard.insert(em.file);
            if !matches!(em.kind, RefKind::Close) {
                self.stats.suppressed_frequent += 1;
                return;
            }
        }
        let r = Reference {
            seq: em.seq,
            time: em.time,
            pid,
            file: em.file,
            kind: em.kind,
        };
        self.sink.on_reference(&r, &self.paths);
        self.stats.refs_emitted += 1;
    }

    /// Flushes a buffered stat as a point reference (§4.8), unless `skip`.
    fn flush_pending_stat(&mut self, pid: Pid, collapse_with: Option<FileId>) {
        let pending = self.procs.get_mut(&pid).and_then(|p| p.pending_stat.take());
        let Some(PendingStat { file, seq, time }) = pending else {
            return;
        };
        if collapse_with == Some(file) {
            self.stats.stats_collapsed += 1;
            return;
        }
        self.deliver(
            pid,
            Emission {
                file,
                kind: RefKind::Point { write: false },
                seq,
                time,
                structural: false,
            },
        );
    }

    /// Ends any getcwd walk in progress for `pid`.
    fn end_getcwd_walk(&mut self, pid: Pid) {
        if let Some(p) = self.procs.get_mut(&pid) {
            p.getcwd_walk = None;
        }
    }

    fn handle_open(&mut self, ev: &TraceEvent, file: FileId, read: bool, write: bool) {
        let pid = ev.pid;
        self.end_getcwd_walk(pid);
        self.flush_pending_stat(pid, ev.ok().then_some(file));
        if !ev.ok() {
            if ev.error == Some(ErrorKind::NotHoarded) {
                self.stats.hoard_misses += 1;
                self.deliver(
                    pid,
                    Emission {
                        file,
                        kind: RefKind::HoardMiss,
                        seq: ev.seq,
                        time: ev.time,
                        structural: false,
                    },
                );
            } else {
                self.stats.suppressed_failed += 1;
            }
            return;
        }
        let EventKind::Open { fd, .. } = ev.kind else {
            return;
        };
        let proc = self.proc_mut(pid);
        proc.touched += 1;
        proc.fds.insert(fd, FdTarget::File(file));
        self.deliver(
            pid,
            Emission {
                file,
                kind: RefKind::Open {
                    read,
                    write,
                    exec: false,
                },
                seq: ev.seq,
                time: ev.time,
                structural: false,
            },
        );
    }

    fn handle_close(&mut self, ev: &TraceEvent, fd: seer_trace::Fd) {
        let pid = ev.pid;
        self.flush_pending_stat(pid, None);
        let target = self.procs.get_mut(&pid).and_then(|p| p.fds.remove(&fd));
        match target {
            Some(FdTarget::File(file)) => {
                self.deliver(
                    pid,
                    Emission {
                        file,
                        kind: RefKind::Close,
                        seq: ev.seq,
                        time: ev.time,
                        structural: false,
                    },
                );
            }
            Some(FdTarget::Dir(_)) | None => {}
        }
    }

    fn handle_opendir(&mut self, ev: &TraceEvent, file: FileId) {
        let pid = ev.pid;
        self.flush_pending_stat(pid, None);
        self.mark_known_dir(file);
        if !ev.ok() {
            self.stats.suppressed_failed += 1;
            return;
        }
        let detect = self.config.detect_getcwd;
        // Borrow the canonical path and the process state simultaneously:
        // they live in disjoint fields, so the walk detector below runs
        // without copying the path on the common (non-walk) case.
        let path = self.paths.resolve(file).unwrap_or_default();
        let default_cwd = &self.config.default_cwd;
        let proc = self
            .procs
            .entry(pid)
            .or_insert_with(|| ProcessState::new(pid, default_cwd.clone()));
        let mut in_walk = false;
        if detect {
            match &proc.getcwd_walk {
                None if path == dirname(&proc.cwd) && path != proc.cwd => {
                    // A process opening its cwd's parent looks like the
                    // start of a getcwd climb (§4.1).
                    proc.getcwd_walk = Some(path.to_owned());
                    in_walk = true;
                }
                Some(walk) if path == dirname(walk) => {
                    proc.getcwd_walk = Some(path.to_owned());
                    in_walk = true;
                }
                Some(walk) if *walk == path => in_walk = true,
                Some(_) => proc.getcwd_walk = None,
                None => {}
            }
        }
        proc.ever_opened_dir = true;
        if let EventKind::OpenDir { fd, .. } = ev.kind {
            proc.fds.insert(fd, FdTarget::Dir(file));
        }
        if in_walk {
            self.stats.suppressed_getcwd += 1;
        } else if self.config.emit_dir_events {
            self.deliver(
                pid,
                Emission {
                    file,
                    kind: RefKind::DirList,
                    seq: ev.seq,
                    time: ev.time,
                    structural: true,
                },
            );
        }
    }

    fn handle_readdir(&mut self, ev: &TraceEvent, fd: seer_trace::Fd, entries: u32) {
        let pid = ev.pid;
        let Some(proc) = self.procs.get_mut(&pid) else {
            return;
        };
        let in_walk = match (&proc.getcwd_walk, proc.fds.get(&fd)) {
            (Some(walk), Some(FdTarget::Dir(d))) => {
                let walk = walk.clone();
                self.paths.resolve(*d) == Some(walk.as_str())
            }
            _ => false,
        };
        if in_walk {
            self.stats.suppressed_getcwd += 1;
            return;
        }
        if let Some(proc) = self.procs.get_mut(&pid) {
            proc.learned += u64::from(entries);
        }
    }

    fn handle_stat(&mut self, ev: &TraceEvent, file: FileId, write: bool) {
        let pid = ev.pid;
        if !ev.ok() {
            self.flush_pending_stat(pid, None);
            if ev.error == Some(ErrorKind::NotHoarded) {
                self.stats.hoard_misses += 1;
                self.deliver(
                    pid,
                    Emission {
                        file,
                        kind: RefKind::HoardMiss,
                        seq: ev.seq,
                        time: ev.time,
                        structural: false,
                    },
                );
            } else {
                self.stats.suppressed_failed += 1;
            }
            return;
        }
        // During a getcwd walk, stats of entries in the walked directory
        // are part of the climb and are ignored entirely (§4.1).
        let in_walk = self
            .procs
            .get(&pid)
            .is_some_and(|p| p.getcwd_walk.as_deref() == self.paths.resolve(file).map(dirname));
        if in_walk {
            self.stats.suppressed_getcwd += 1;
            return;
        }
        self.flush_pending_stat(pid, None);
        let proc = self.proc_mut(pid);
        proc.touched += 1;
        if write {
            // Attribute modification is a plain point reference.
            self.deliver(
                pid,
                Emission {
                    file,
                    kind: RefKind::Point { write: true },
                    seq: ev.seq,
                    time: ev.time,
                    structural: false,
                },
            );
        } else {
            // Buffer: if the next same-process event opens this file, the
            // examination is discarded as insignificant (§4.8).
            proc.pending_stat = Some(PendingStat {
                file,
                seq: ev.seq,
                time: ev.time,
            });
        }
    }

    fn handle_exec(&mut self, ev: &TraceEvent, file: FileId) {
        let pid = ev.pid;
        self.end_getcwd_walk(pid);
        self.flush_pending_stat(pid, None);
        if !ev.ok() {
            self.stats.suppressed_failed += 1;
            return;
        }
        let name = self
            .paths
            .resolve(file)
            .map(basename)
            .unwrap_or("")
            .to_owned();
        let listed = self.config.is_listed_meaningless(&name);
        // Close out any previous image (a re-exec) and record its run.
        let prev = {
            let proc = self.proc_mut(pid);
            let prev = proc.program;
            proc.program = Some(file);
            proc.program_name = Some(name);
            prev
        };
        if let Some(prev_img) = prev {
            let (touched, learned) = {
                let proc = self.proc_mut(pid);
                (proc.touched, proc.learned)
            };
            self.history.record_run(prev_img, touched, learned);
            self.deliver(
                pid,
                Emission {
                    file: prev_img,
                    kind: RefKind::Close,
                    seq: ev.seq,
                    time: ev.time,
                    structural: false,
                },
            );
        }
        {
            let proc = self.proc_mut(pid);
            proc.touched = 1;
            proc.learned = 0;
            proc.ever_opened_dir = false;
            proc.meaningless = listed;
        }
        self.deliver(
            pid,
            Emission {
                file,
                kind: RefKind::Open {
                    read: true,
                    write: false,
                    exec: true,
                },
                seq: ev.seq,
                time: ev.time,
                structural: false,
            },
        );
    }

    fn handle_exit(&mut self, ev: &TraceEvent) {
        let pid = ev.pid;
        self.flush_pending_stat(pid, None);
        let Some(proc) = self.procs.get(&pid) else {
            return;
        };
        let program = proc.program;
        let parent = proc.parent;
        let (touched, learned) = (proc.touched, proc.learned);
        if let Some(img) = program {
            self.history.record_run(img, touched, learned);
            self.deliver(
                pid,
                Emission {
                    file: img,
                    kind: RefKind::Close,
                    seq: ev.seq,
                    time: ev.time,
                    structural: false,
                },
            );
        }
        self.deliver(
            pid,
            Emission {
                file: program.unwrap_or(FileId::NONE),
                kind: RefKind::Exit { parent },
                seq: ev.seq,
                time: ev.time,
                structural: true,
            },
        );
        self.procs.remove(&pid);
    }

    fn handle_fork(&mut self, ev: &TraceEvent, child: Pid) {
        let pid = ev.pid;
        let child_state = {
            let parent = self.proc_mut(pid);
            ProcessState::fork_from(parent, child)
        };
        let image = child_state.program.unwrap_or(FileId::NONE);
        self.procs.insert(child, child_state);
        self.deliver(
            pid,
            Emission {
                file: image,
                kind: RefKind::Fork { child },
                seq: ev.seq,
                time: ev.time,
                structural: true,
            },
        );
    }

    fn handle_point(&mut self, ev: &TraceEvent, file: FileId, kind: RefKind) {
        let pid = ev.pid;
        self.flush_pending_stat(pid, None);
        if !ev.ok() {
            self.stats.suppressed_failed += 1;
            return;
        }
        let proc = self.proc_mut(pid);
        proc.touched += 1;
        self.deliver(
            pid,
            Emission {
                file,
                kind,
                seq: ev.seq,
                time: ev.time,
                structural: false,
            },
        );
    }

    fn handle_chdir(&mut self, ev: &TraceEvent, file: FileId) {
        let pid = ev.pid;
        self.end_getcwd_walk(pid);
        self.flush_pending_stat(pid, None);
        if !ev.ok() {
            self.stats.suppressed_failed += 1;
            return;
        }
        self.mark_known_dir(file);
        let path = self
            .paths
            .resolve(file)
            .map(str::to_owned)
            .unwrap_or_default();
        let token = self.next_cwd_token;
        self.next_cwd_token += 1;
        let proc = self.proc_mut(pid);
        proc.cwd = path;
        proc.cwd_token = token;
    }
}

impl<S: ReferenceSink> EventSink for Observer<S> {
    fn on_event(&mut self, ev: &TraceEvent, strings: &StringTable) {
        self.stats.events += 1;
        if ev.root && self.config.exclude_superuser {
            self.stats.suppressed_superuser += 1;
            return;
        }
        // Resolve the event's raw path (borrowed from the session string
        // table — no copy) to a canonical file id up front; handlers work
        // in dense-id space only.
        let file = ev.kind.path().and_then(|p| {
            strings
                .resolve(p)
                .map(|raw| self.resolve_id(ev.pid, p, raw))
        });
        match ev.kind {
            EventKind::Open { mode, .. } => {
                if let Some(file) = file {
                    let read = matches!(mode, OpenMode::Read | OpenMode::ReadWrite);
                    self.handle_open(ev, file, read, mode.writes());
                }
            }
            EventKind::Close { fd } => self.handle_close(ev, fd),
            EventKind::OpenDir { .. } => {
                if let Some(file) = file {
                    self.handle_opendir(ev, file);
                }
            }
            EventKind::ReadDir { fd, entries } => self.handle_readdir(ev, fd, entries),
            EventKind::Exec { .. } => {
                if let Some(file) = file {
                    self.handle_exec(ev, file);
                }
            }
            EventKind::Exit => self.handle_exit(ev),
            EventKind::Fork { child } => self.handle_fork(ev, child),
            EventKind::Unlink { .. } => {
                if let Some(file) = file {
                    self.handle_point(ev, file, RefKind::Delete);
                }
            }
            EventKind::Create { .. } => {
                if let Some(file) = file {
                    self.handle_point(ev, file, RefKind::Point { write: true });
                }
            }
            EventKind::Rename { to, .. } => {
                // `file` already resolved `from` (it is the kind's primary
                // path); resolve `to` the same way and emit both writes.
                if let Some(from) = file {
                    self.handle_point(ev, from, RefKind::Point { write: true });
                }
                if let Some(to) = strings
                    .resolve(to)
                    .map(|raw| self.resolve_id(ev.pid, to, raw))
                {
                    self.handle_point(ev, to, RefKind::Point { write: true });
                }
            }
            EventKind::Stat { .. } => {
                if let Some(file) = file {
                    self.handle_stat(ev, file, false);
                }
            }
            EventKind::SetAttr { .. } => {
                if let Some(file) = file {
                    self.handle_stat(ev, file, true);
                }
            }
            EventKind::Chdir { .. } => {
                if let Some(file) = file {
                    self.handle_chdir(ev, file);
                }
            }
        }
    }
}
