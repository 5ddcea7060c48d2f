//! The live hoard-quality plane: online miss-free evaluation against a
//! simulated disconnection window, with a shadow-LRU comparator.
//!
//! The paper's headline result (§5.1.2, Figure 2) is an *offline* number:
//! replay a trace, pick disconnection periods, and compare each manager's
//! miss-free hoard size against the period's working set. This module
//! computes the same number *online*, continuously, inside the daemon —
//! so an operator watching `seer top` sees how big the hoard would have
//! to be right now to survive a disconnection, and how much of that
//! advantage comes from clustering rather than recency.
//!
//! Mechanically an evaluation is a tenant transition (`crate::tenant`),
//! run on the shard's engine actor between messages: when the tenant's
//! cadence is due at the `now` its caller passes (checked after each
//! batch and in idle housekeeping) and events were applied since the
//! last report, the tenant reclusters if its clustering lags, gathers
//! the report's scalars into an [`EvalJob`], [`evaluate`]s it against
//! its engine, which it reads in place (activity, clustering, and the
//! always-hoard set; nothing is copied), and installs the resulting
//! [`QualityReport`]. A `Quality` query takes the same path whatever the
//! cadence, so every report reflects everything applied before it.
//! Nothing here reads a clock.
//!
//! The LRU baseline of §6.1 is reproduced by a [`ShadowLru`]: a
//! memory-bounded recency list maintained on the apply path. Feeding its
//! order through the very same [`seer_sim::miss_free_size`] metric makes
//! every report an apples-to-apples "SEER vs LRU" comparison.

use crate::stats::SharedMetrics;
use seer_core::SeerEngine;
use seer_replication::MissLog;
use seer_telemetry::SeriesRing;
use seer_trace::wire::{MissPostmortem, QualityReport};
use seer_trace::{FileId, IdHashMap, PathTable, RawPathId, StringTable, Timestamp};
use std::collections::{HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Retained miss postmortems (ring; oldest evicted first).
pub(crate) const POSTMORTEM_CAP: usize = 64;

/// How many points each quality series keeps for sparklines.
const SERIES_CAPACITY: usize = 240;

/// Byte budget for the evaluator's coverage-at-budget and
/// time-to-first-miss numbers.
pub(crate) const EVAL_BUDGET: u64 = 1 << 20;

/// Entry cap of the shadow-LRU comparator (bounds its memory).
const SHADOW_LRU_CAP: usize = 65_536;

/// A memory-bounded shadow of strict-LRU ordering, maintained on the
/// apply path. Holds at most ~`cap * 5/4` entries: eviction is amortized
/// by letting the map overshoot 25% before trimming back down to `cap`,
/// so the common-case touch is one hash insert.
#[derive(Debug)]
pub(crate) struct ShadowLru {
    last: IdHashMap<FileId, u64>,
    tick: u64,
    cap: usize,
}

impl ShadowLru {
    pub(crate) fn new(cap: usize) -> ShadowLru {
        ShadowLru {
            last: IdHashMap::default(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// Marks `file` most-recently-used.
    pub(crate) fn touch(&mut self, file: FileId) {
        self.tick += 1;
        self.last.insert(file, self.tick);
        if self.last.len() > self.cap + self.cap / 4 {
            self.trim();
        }
    }

    fn trim(&mut self) {
        let mut entries: Vec<(FileId, u64)> = self.last.drain().collect();
        // Keep the `cap` most recent ticks.
        entries.sort_unstable_by_key(|&(_, tick)| std::cmp::Reverse(tick));
        entries.truncate(self.cap);
        self.last = entries.into_iter().collect();
    }

    /// The LRU ranking: most recently used first, deterministic tie-break
    /// (ticks are unique, so this is a total order).
    pub(crate) fn order(&self) -> Vec<FileId> {
        let mut entries: Vec<(FileId, u64)> = self.last.iter().map(|(&f, &t)| (f, t)).collect();
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.into_iter().map(|(f, _)| f).collect()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.last.len()
    }
}

/// A tenant's raw path ids resolved to the engine's canonical ids, so
/// the shadow LRU's apply path hashes no strings. A found id is final:
/// the canonical table only grows and never renumbers. A raw id the
/// table does not hold is looked up again only once the table has grown.
#[derive(Debug, Default)]
pub(crate) struct CanonicalIds {
    /// Per raw id: the canonical id once found (else `FileId::NONE`), and
    /// the canonical table's length at the last lookup (`usize::MAX`
    /// before the first).
    slots: Vec<(FileId, usize)>,
}

impl CanonicalIds {
    /// The canonical id of raw path `raw`, if `paths` holds its string.
    pub(crate) fn resolve(
        &mut self,
        raw: RawPathId,
        strings: &StringTable,
        paths: &PathTable,
    ) -> Option<FileId> {
        let i = raw.0 as usize;
        if i >= strings.len() {
            return None;
        }
        if i >= self.slots.len() {
            self.slots.resize(strings.len(), (FileId::NONE, usize::MAX));
        }
        let slot = &mut self.slots[i];
        if slot.0 != FileId::NONE {
            return Some(slot.0);
        }
        if slot.1 == paths.len() {
            return None;
        }
        slot.1 = paths.len();
        let id = paths.get(strings.resolve(raw)?)?;
        slot.0 = id;
        Some(id)
    }
}

/// The scalars of an evaluation: its window, budget and size model, and
/// the counters the report carries through.
#[derive(Debug)]
pub(crate) struct EvalJob {
    pub window_secs: u64,
    pub budget: u64,
    pub file_size: u64,
    pub generation: u64,
    pub misses_by_severity: [u64; 5],
    pub auto_misses: u64,
    pub eval_index: u64,
}

/// Computes a quality report of `engine`'s ranking against the LRU
/// order `shadow`, read in place. Pure: no clocks, no mutation — an
/// offline caller feeding the same activity, ranking, and window gets
/// bit-identical numbers (the equivalence test relies on this). The
/// caller reclusters to `job.generation` first, so the report's
/// `clustering_generation` is that generation.
pub(crate) fn evaluate(engine: &SeerEngine, shadow: &[FileId], job: &EvalJob) -> QualityReport {
    let refs = engine.correlator().activity().export();
    // "Now" is trace time, not wall time: the latest recorded reference.
    let now = refs
        .iter()
        .map(|(_, r)| r.time.as_secs())
        .max()
        .unwrap_or(0);
    let cutoff = now.saturating_sub(job.window_secs);
    // The simulated disconnection's needed set: every file referenced
    // inside the window. (The tracker keeps last references only, so
    // files whose final touch predates the window are — correctly for a
    // recency-driven forecast — assumed not needed.)
    let needed: HashSet<FileId> = refs
        .iter()
        .filter(|(_, r)| r.time.as_secs() > cutoff)
        .map(|(f, _)| *f)
        .collect();
    let fs = job.file_size.max(1);
    let mut sizes = |_f: FileId| fs;
    let working_set_bytes = seer_sim::working_set_bytes(&needed, &mut sizes);
    let seer_rank = engine.rank();
    let seer = seer_sim::miss_free_size(&seer_rank, &needed, &mut sizes);
    let lru = seer_sim::miss_free_size(shadow, &needed, &mut sizes);

    // Coverage at the configured budget, and a retrospective
    // time-to-first-miss: had the disconnection started at the window
    // boundary with the budget-prefix hoarded, when would the first
    // unhoarded-but-needed file have been touched? (Approximate — only
    // last references are known — but it is the same approximation for
    // both managers.)
    let budget_files = (job.budget / fs) as usize;
    let assess = |ranking: &[FileId]| -> (f64, Option<u64>) {
        if needed.is_empty() {
            return (1.0, None);
        }
        let prefix: HashSet<FileId> = ranking.iter().take(budget_files).copied().collect();
        let covered = needed.iter().filter(|f| prefix.contains(f)).count();
        let coverage = covered as f64 / needed.len() as f64;
        let first_miss = refs
            .iter()
            .filter(|(f, _)| needed.contains(f) && !prefix.contains(f))
            .map(|(_, r)| r.time.as_secs().saturating_sub(cutoff))
            .min();
        (coverage, first_miss)
    };
    let (seer_coverage, seer_first_miss_secs) = assess(&seer_rank);
    let (lru_coverage, lru_first_miss_secs) = assess(shadow);

    QualityReport {
        generation: job.generation,
        clustering_generation: job.generation,
        window_secs: job.window_secs,
        budget: job.budget,
        needed_files: needed.len(),
        working_set_bytes,
        seer_missfree_bytes: seer.bytes,
        seer_uncovered: seer.uncovered,
        lru_missfree_bytes: lru.bytes,
        lru_uncovered: lru.uncovered,
        seer_coverage,
        lru_coverage,
        seer_first_miss_secs,
        lru_first_miss_secs,
        misses_by_severity: job.misses_by_severity.to_vec(),
        auto_misses: job.auto_misses,
        evals: job.eval_index,
    }
}

/// The actor-side state of the quality plane.
pub(crate) struct QualityState {
    pub shadow: ShadowLru,
    pub series: SeriesRing,
    pub latest: Option<QualityReport>,
    pub evals: u64,
    /// When the cadence last started an evaluation, as its caller's `now`.
    pub last_eval: Option<Instant>,
    pub miss_log: MissLog,
    pub postmortems: VecDeque<MissPostmortem>,
    /// Raw to canonical ids for the shadow LRU.
    pub canonical: CanonicalIds,
    pub next_miss_id: u64,
    pub last_event_time: Timestamp,
    pub every: Duration,
    pub window_secs: u64,
}

impl QualityState {
    /// A ready state with no evaluation yet.
    pub(crate) fn new(every: Duration, window_secs: u64, metrics: &SharedMetrics) -> QualityState {
        let mut miss_log = MissLog::new();
        miss_log.attach_telemetry(&metrics.registry);
        QualityState {
            shadow: ShadowLru::new(SHADOW_LRU_CAP),
            series: SeriesRing::new(SERIES_CAPACITY),
            latest: None,
            evals: 0,
            last_eval: None,
            miss_log,
            postmortems: VecDeque::new(),
            canonical: CanonicalIds::default(),
            next_miss_id: 0,
            last_event_time: Timestamp::ZERO,
            every,
            window_secs,
        }
    }

    /// The generation of the latest report (0 before the first).
    pub(crate) fn reported(&self) -> u64 {
        self.latest.as_ref().map_or(0, |r| r.generation)
    }

    /// Whether another evaluation is due at `now`: none has run yet, or
    /// the last one started a full cadence ago.
    pub(crate) fn due(&self, now: Instant) -> bool {
        (self.last_eval).is_none_or(|t| now.saturating_duration_since(t) >= self.every)
    }

    /// Folds a finished report into the series rings and latest slot.
    pub(crate) fn install(&mut self, report: QualityReport) {
        self.series
            .record("seer_missfree_bytes", report.seer_missfree_bytes as f64);
        self.series
            .record("lru_missfree_bytes", report.lru_missfree_bytes as f64);
        self.series
            .record("working_set_bytes", report.working_set_bytes as f64);
        self.series.record("seer_coverage", report.seer_coverage);
        self.series.record("lru_coverage", report.lru_coverage);
        self.series
            .record("needed_files", report.needed_files as f64);
        self.evals = self.evals.max(report.evals);
        self.latest = Some(report);
    }

    /// Retains `pm`, evicting the oldest postmortem beyond the cap.
    pub(crate) fn retain_postmortem(&mut self, pm: MissPostmortem) {
        if self.postmortems.len() >= POSTMORTEM_CAP {
            self.postmortems.pop_front();
        }
        self.postmortems.push_back(pm);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shadow_lru_orders_by_recency() {
        let mut s = ShadowLru::new(16);
        s.touch(FileId(1));
        s.touch(FileId(2));
        s.touch(FileId(3));
        s.touch(FileId(1)); // re-touch promotes
        assert_eq!(s.order(), vec![FileId(1), FileId(3), FileId(2)]);
    }

    #[test]
    fn shadow_lru_bounds_memory_by_evicting_oldest() {
        let mut s = ShadowLru::new(8);
        for i in 0..100u32 {
            s.touch(FileId(i));
        }
        assert!(s.len() <= 8 + 8 / 4, "never more than 25% over cap");
        let order = s.order();
        assert_eq!(order[0], FileId(99), "most recent survives");
        assert!(
            !order.contains(&FileId(0)),
            "the cold tail was evicted: {order:?}"
        );
    }

    #[test]
    fn shadow_lru_retouch_rescues_from_eviction() {
        let mut s = ShadowLru::new(4);
        s.touch(FileId(0));
        for i in 1..=4u32 {
            s.touch(FileId(i));
            s.touch(FileId(0)); // keep file 0 hot throughout
        }
        assert!(s.order().contains(&FileId(0)));
    }

    #[test]
    fn canonical_ids_retry_a_miss_only_after_the_table_grows() {
        let mut strings = StringTable::new();
        let (a, b) = (strings.intern("/p/a"), strings.intern("/p/b"));
        let mut paths = PathTable::new();
        let mut ids = CanonicalIds::default();
        assert_eq!(ids.resolve(a, &strings, &paths), None);
        let fa = paths.intern("/p/a");
        assert_eq!(
            ids.resolve(a, &strings, &paths),
            Some(fa),
            "retried after growth"
        );
        assert_eq!(ids.resolve(b, &strings, &paths), None);
        // A miss is not looked up again while the table keeps its length.
        assert_eq!(ids.slots[b.0 as usize].1, paths.len());
        paths.intern("/p/c");
        assert_eq!(ids.resolve(b, &strings, &paths), None);
        assert_eq!(ids.slots[b.0 as usize].1, paths.len(), "retried once");
        let fb = paths.intern("/p/b");
        assert_eq!(ids.resolve(b, &strings, &paths), Some(fb));
        assert_eq!(
            ids.resolve(a, &strings, &paths),
            Some(fa),
            "found ids are final"
        );
        // Ids the tenant never interned resolve to nothing and allocate
        // nothing.
        assert_eq!(ids.resolve(RawPathId(1 << 30), &strings, &paths), None);
        assert_eq!(ids.slots.len(), strings.len());
    }

    fn job_with(window_secs: u64, budget: u64, file_size: u64) -> EvalJob {
        EvalJob {
            window_secs,
            budget,
            file_size,
            generation: 1,
            misses_by_severity: [0; 5],
            auto_misses: 0,
            eval_index: 1,
        }
    }

    fn engine_with_activity() -> seer_core::SeerEngine {
        use seer_trace::{OpenMode, Pid, TraceBuilder};
        let mut b = TraceBuilder::new();
        let pid = Pid(1);
        // Start past t=0 so the oldest reference still lands strictly
        // inside a saturated (cutoff = 0) window.
        b.advance(Timestamp::from_secs(10));
        b.exec(pid, "/bin/sh");
        b.touch(pid, "/w/old.txt", OpenMode::Read);
        b.advance(Timestamp::from_hours(48));
        b.touch(pid, "/w/recent-a.txt", OpenMode::Read);
        b.touch(pid, "/w/recent-b.txt", OpenMode::Read);
        b.exit(pid);
        use seer_trace::EventSink;
        let trace = b.build();
        let mut engine = seer_core::SeerEngine::new(seer_core::SeerConfig::default());
        for ev in &trace.events {
            engine.on_event(ev, &trace.strings);
        }
        engine.recluster();
        engine
    }

    #[test]
    fn evaluate_windows_the_needed_set_by_trace_time() {
        let engine = engine_with_activity();
        // A 1-hour window sees only the two recent files (plus whatever
        // the correlator attributes inside it); 1000 hours sees old.txt.
        let narrow = evaluate(&engine, &[], &job_with(3600, 1 << 20, 1024));
        let wide = evaluate(&engine, &[], &job_with(3600 * 1000, 1 << 20, 1024));
        assert!(narrow.needed_files < wide.needed_files);
        assert!(wide.working_set_bytes > narrow.working_set_bytes);
        assert_eq!(narrow.evals, 1);
    }

    #[test]
    fn evaluate_scores_both_managers_with_the_same_metric() {
        let engine = engine_with_activity();
        // Shadow order equal to SEER's own ranking must yield identical
        // miss-free bytes: the metric is manager-agnostic.
        let rank = engine.rank();
        let report = evaluate(&engine, &rank, &job_with(3600 * 1000, 1 << 20, 1024));
        assert_eq!(report.seer_missfree_bytes, report.lru_missfree_bytes);
        assert_eq!(report.seer_uncovered, 0, "seer ranks every known file");
        assert!(report.seer_coverage > 0.99);
    }

    #[test]
    fn evaluate_charges_an_empty_shadow_the_working_set() {
        let engine = engine_with_activity();
        let report = evaluate(&engine, &[], &job_with(3600 * 1000, 1 << 20, 1024));
        // An LRU that has seen nothing covers nothing.
        assert_eq!(report.lru_missfree_bytes, report.working_set_bytes);
        assert_eq!(report.lru_uncovered, report.needed_files);
        assert_eq!(report.lru_coverage, 0.0);
        let first = report
            .lru_first_miss_secs
            .expect("everything needed misses");
        assert!(
            first <= report.window_secs,
            "first miss lands inside the window: {first}"
        );
    }

    #[test]
    fn evaluate_reports_no_first_miss_at_full_coverage() {
        let engine = engine_with_activity();
        let report = evaluate(&engine, &[], &job_with(3600 * 1000, 1 << 30, 1024));
        assert!(report.seer_coverage > 0.99);
        assert_eq!(report.seer_first_miss_secs, None);
    }
}
