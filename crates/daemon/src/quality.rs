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
//! Mechanically an evaluation is a background job like a periodic
//! recluster: the actor freezes an immutable [`seer_core::EvalInput`]
//! (activity, clustering, and the always-hoard set) into an [`EvalJob`],
//! hands it to the shard's one background worker (`crate::worker`),
//! and installs the resulting [`QualityReport`] when it drains the
//! worker's results at the top of its loop. Ingest never blocks on
//! evaluation. A `Quality` query evaluates inline instead, so its
//! answer reflects everything applied before it.
//!
//! The LRU baseline of §6.1 is reproduced by a [`ShadowLru`]: a
//! memory-bounded recency list maintained on the apply path. Feeding its
//! order through the very same [`seer_sim::miss_free_size`] metric makes
//! every report an apples-to-apples "SEER vs LRU" comparison.

use crate::stats::SharedMetrics;
use seer_core::EvalInput;
use seer_replication::MissLog;
use seer_telemetry::SeriesRing;
use seer_trace::wire::{MissPostmortem, QualityReport};
use seer_trace::{FileId, Timestamp};
use std::collections::{HashMap, HashSet, VecDeque};
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
    last: HashMap<FileId, u64>,
    tick: u64,
    cap: usize,
}

impl ShadowLru {
    pub(crate) fn new(cap: usize) -> ShadowLru {
        ShadowLru {
            last: HashMap::new(),
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

/// Everything an evaluation needs, frozen at job-construction time so
/// the report is a pure function of the job.
#[derive(Debug)]
pub(crate) struct EvalJob {
    pub input: EvalInput,
    pub shadow: Vec<FileId>,
    pub window_secs: u64,
    pub budget: u64,
    pub file_size: u64,
    pub generation: u64,
    pub clustering_generation: u64,
    pub misses_by_severity: [u64; 5],
    pub auto_misses: u64,
    pub eval_index: u64,
}

/// Computes a quality report from a frozen job. Pure: no clocks, no
/// engine access — an offline caller feeding the same activity, ranking,
/// and window gets bit-identical numbers (the equivalence test relies on
/// this).
pub(crate) fn evaluate(job: &EvalJob) -> QualityReport {
    let refs = job.input.activity().export();
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
    let seer_rank = job.input.rank();
    let seer = seer_sim::miss_free_size(&seer_rank, &needed, &mut sizes);
    let lru = seer_sim::miss_free_size(&job.shadow, &needed, &mut sizes);

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
    let (lru_coverage, lru_first_miss_secs) = assess(&job.shadow);

    QualityReport {
        generation: job.generation,
        clustering_generation: job.clustering_generation,
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
    /// A background evaluation is queued or running on the worker.
    pub inflight: bool,
    pub last_eval: Option<Instant>,
    pub miss_log: MissLog,
    pub postmortems: VecDeque<MissPostmortem>,
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
            inflight: false,
            last_eval: None,
            miss_log,
            postmortems: VecDeque::new(),
            next_miss_id: 0,
            last_event_time: Timestamp::ZERO,
            every,
            window_secs,
        }
    }

    /// Whether the cadence timer says another background eval is due.
    pub(crate) fn due(&self) -> bool {
        !self.inflight && self.last_eval.is_none_or(|t| t.elapsed() >= self.every)
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

    fn job_with(
        input: EvalInput,
        shadow: Vec<FileId>,
        window_secs: u64,
        budget: u64,
        file_size: u64,
    ) -> EvalJob {
        EvalJob {
            input,
            shadow,
            window_secs,
            budget,
            file_size,
            generation: 1,
            clustering_generation: 1,
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
        let input = engine.eval_input();
        // A 1-hour window sees only the two recent files (plus whatever
        // the correlator attributes inside it); 1000 hours sees old.txt.
        let narrow = evaluate(&job_with(input.clone(), vec![], 3600, 1 << 20, 1024));
        let wide = evaluate(&job_with(input, vec![], 3600 * 1000, 1 << 20, 1024));
        assert!(narrow.needed_files < wide.needed_files);
        assert!(wide.working_set_bytes > narrow.working_set_bytes);
        assert_eq!(narrow.evals, 1);
    }

    #[test]
    fn evaluate_scores_both_managers_with_the_same_metric() {
        let engine = engine_with_activity();
        let input = engine.eval_input();
        // Shadow order equal to SEER's own ranking must yield identical
        // miss-free bytes: the metric is manager-agnostic.
        let rank = input.rank();
        let report = evaluate(&job_with(input, rank, 3600 * 1000, 1 << 20, 1024));
        assert_eq!(report.seer_missfree_bytes, report.lru_missfree_bytes);
        assert_eq!(report.seer_uncovered, 0, "seer ranks every known file");
        assert!(report.seer_coverage > 0.99);
    }

    #[test]
    fn evaluate_charges_an_empty_shadow_the_working_set() {
        let engine = engine_with_activity();
        let input = engine.eval_input();
        let report = evaluate(&job_with(input, vec![], 3600 * 1000, 1 << 20, 1024));
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
        let input = engine.eval_input();
        let report = evaluate(&job_with(input, vec![], 3600 * 1000, 1 << 30, 1024));
        assert!(report.seer_coverage > 0.99);
        assert_eq!(report.seer_first_miss_secs, None);
    }
}
