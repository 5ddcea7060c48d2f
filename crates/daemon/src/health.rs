//! Per-tenant health scoring and the daemon self-watchdog.
//!
//! The health scorer folds a tenant's quality and pipeline signals into
//! a single 0–100 score, sampled at a throttled cadence off the apply
//! path and on idle ticks:
//!
//! ```text
//! burn    = max(burn_fast, burn_slow)          // miss+drop rate / SLO budget
//! score   = 100
//!         - 40 · [wal fault present]
//!         - 30 · min(1, burn / (2 · BURN_THRESHOLD))
//!         - 20 · clamp(ingest queue depth / capacity, 0, 1)
//!         - 10 · [evaluator stale: behind the applied events and
//!                 no eval in 4 · eval_every]
//! ```
//!
//! "Bad ops" for the burn gauge are hoard misses (real + auto-detected,
//! from the quality plane's miss log) plus WAL-dropped events — a tenant
//! whose batches are being dropped unacknowledged is burning its error
//! budget even though it records no misses. The SLO burn alert follows
//! the classic multi-window rule: it **fires** when both the fast and
//! slow windows burn above [`BURN_THRESHOLD`], and **resolves** once the
//! fast window drops back below it.
//!
//! The watchdog side ([`ShardBeat`], [`watchdog_check`]) gives every
//! shard actor a set of atomic timestamps it stamps as it runs; a
//! dedicated daemon thread compares them against thresholds and alerts
//! on the daemon itself as pseudo-tenant [`SELF_TENANT`]. Invariants
//! watched:
//!
//! - **liveness**: each actor stamps its heartbeat once per loop
//!   iteration, so a heartbeat older than the configured
//!   `watchdog_stall_after` means the shard is stuck inside one message
//!   or one in-place recluster or evaluation (or deadlocked);
//! - **durability freshness**: unsnapshotted state older than
//!   [`SNAPSHOT_STALE_AFTER`] means the periodic snapshot trigger stopped
//!   firing.

use crate::DaemonConfig;
use seer_telemetry::BurnGauge;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The pseudo-tenant the watchdog alerts under.
pub const SELF_TENANT: &str = "_self";

/// SLO error budget: the tolerated bad-op (miss + drop) fraction.
const SLO_MISS_RATE: f64 = 0.02;

/// Burn-rate multiple of the SLO budget above which the `slo-burn`
/// alert fires (both windows must exceed it; it resolves once the fast
/// window cools).
pub const BURN_THRESHOLD: f64 = 4.0;

/// Minimum spacing between a tenant's burn samples: an eighth of the
/// fast window, clamped to 50 ms..1 s so shrunken test windows still get
/// several samples and production windows don't sample needlessly.
fn sample_gap(cfg: &DaemonConfig) -> Duration {
    (cfg.burn_fast_window / 8).clamp(Duration::from_millis(50), Duration::from_secs(1))
}

/// Retained health-score history per tenant (sparkline length).
const SCORE_SPARK_CAP: usize = 48;

/// The signals one health observation folds together.
#[derive(Debug, Clone, Copy)]
pub struct HealthSignals {
    /// Cumulative ops: events applied plus WAL-dropped events.
    pub total_ops: u64,
    /// Cumulative bad ops: hoard misses plus WAL-dropped events.
    pub bad_ops: u64,
    /// A WAL fault is latched on this tenant.
    pub wal_fault: bool,
    /// Ingest queue depth as a fraction of capacity (flush lag proxy).
    pub queue_frac: f64,
    /// The quality evaluator's last report lags the applied events and
    /// it has not run within four cadences.
    pub eval_stale: bool,
}

/// The outcome of one observation: the new score and the burn rates the
/// caller turns into alert transitions.
#[derive(Debug, Clone, Copy)]
pub struct HealthVerdict {
    /// The folded 0–100 score.
    pub score: f64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
}

/// One tenant's health state: burn gauge, current score, and score
/// history for sparklines.
#[derive(Debug)]
pub struct TenantHealth {
    burn: BurnGauge,
    last_sample: Option<Instant>,
    score: f64,
    spark: std::collections::VecDeque<f64>,
}

impl TenantHealth {
    /// Fresh state at full health, sized for the daemon's burn windows.
    #[must_use]
    pub fn new(cfg: &DaemonConfig) -> TenantHealth {
        TenantHealth {
            burn: BurnGauge::new(cfg.burn_slow_window.as_secs_f64() * 1.25),
            last_sample: None,
            score: 100.0,
            spark: std::collections::VecDeque::new(),
        }
    }

    /// The score from the most recent observation (100.0 before any).
    #[must_use]
    pub fn score(&self) -> f64 {
        self.score
    }

    /// Recent score samples, oldest first.
    #[must_use]
    pub fn spark(&self) -> Vec<f64> {
        self.spark.iter().copied().collect()
    }

    /// Folds the signals into a new score at `now`, at most one sample
    /// per sample gap. Returns `None` when throttled (state unchanged).
    pub fn observe(
        &mut self,
        cfg: &DaemonConfig,
        sig: &HealthSignals,
        now: Instant,
    ) -> Option<HealthVerdict> {
        if let Some(last) = self.last_sample {
            if now.saturating_duration_since(last) < sample_gap(cfg) {
                return None;
            }
        }
        self.last_sample = Some(now);
        self.burn.sample(now, sig.total_ops, sig.bad_ops);
        let burn_over =
            |window: Duration| (self.burn).burn_over(now, window.as_secs_f64(), SLO_MISS_RATE);
        let burn_fast = burn_over(cfg.burn_fast_window);
        let burn_slow = burn_over(cfg.burn_slow_window);

        let mut score = 100.0;
        if sig.wal_fault {
            score -= 40.0;
        }
        let burn = burn_fast.max(burn_slow);
        score -= 30.0 * (burn / (2.0 * BURN_THRESHOLD)).min(1.0);
        score -= 20.0 * sig.queue_frac.clamp(0.0, 1.0);
        if sig.eval_stale {
            score -= 10.0;
        }
        self.score = score.clamp(0.0, 100.0);
        if self.spark.len() == SCORE_SPARK_CAP {
            self.spark.pop_front();
        }
        self.spark.push_back(self.score);
        Some(HealthVerdict {
            score: self.score,
            burn_fast,
            burn_slow,
        })
    }
}

/// Unsnapshotted-state age above which durability counts as stale.
pub const SNAPSHOT_STALE_AFTER: Duration = Duration::from_secs(300);

/// Millisecond timestamps a shard actor stamps as it runs, read by the
/// watchdog thread. All times are milliseconds since the beat's `epoch`,
/// read off the `now` each caller passes in; zero means "never"
/// (heartbeat) or "not currently" (dirty mark).
#[derive(Debug)]
pub struct ShardBeat {
    epoch: Instant,
    heartbeat_ms: AtomicU64,
    snapshot_dirty_ms: AtomicU64,
}

impl ShardBeat {
    /// A beat with no stamps yet, counting from `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> ShardBeat {
        ShardBeat {
            epoch,
            heartbeat_ms: AtomicU64::new(0),
            snapshot_dirty_ms: AtomicU64::new(0),
        }
    }

    /// Milliseconds from the epoch to `now`, clamped to ≥ 1 so a stamp
    /// is never confused with the "never" sentinel.
    fn ms(&self, now: Instant) -> u64 {
        let since = now.saturating_duration_since(self.epoch).as_millis();
        u64::try_from(since).unwrap_or(u64::MAX).max(1)
    }

    /// Stamps the liveness heartbeat at `now` (one relaxed store; called
    /// once per actor loop iteration).
    pub fn stamp_heartbeat(&self, now: Instant) {
        self.heartbeat_ms.store(self.ms(now), Ordering::Relaxed);
    }

    /// Marks whether any tenant on this shard has unsnapshotted state:
    /// the mark latches `now` on the false→true edge and clears on
    /// true→false.
    pub fn set_snapshot_dirty(&self, dirty: bool, now: Instant) {
        let cell = &self.snapshot_dirty_ms;
        if dirty {
            let _ = cell.compare_exchange(0, self.ms(now), Ordering::Relaxed, Ordering::Relaxed);
        } else {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn age(&self, cell: &AtomicU64, now: Instant) -> Option<Duration> {
        match cell.load(Ordering::Relaxed) {
            0 => None,
            t => Some(Duration::from_millis(self.ms(now).saturating_sub(t))),
        }
    }

    /// Age of the last heartbeat at `now` (`None` before the first
    /// stamp).
    #[must_use]
    pub fn heartbeat_age(&self, now: Instant) -> Option<Duration> {
        self.age(&self.heartbeat_ms, now)
    }

    /// How long unsnapshotted state has been pending at `now`.
    #[must_use]
    pub fn snapshot_dirty_for(&self, now: Instant) -> Option<Duration> {
        self.age(&self.snapshot_dirty_ms, now)
    }
}

/// One watchdog violation: the alert kind (scoped to a shard) and its
/// firing condition this check round.
pub struct WatchdogFinding {
    /// Alert kind, e.g. `shard0/stalled`.
    pub kind: String,
    /// Whether the invariant is currently violated.
    pub firing: bool,
    /// Explanation, evaluated lazily by the alert center on firing.
    pub message: String,
}

/// Evaluates every watchdog invariant for one shard at `now`. Pure so
/// it can be unit-tested without threads; the daemon's watchdog thread
/// feeds the findings to the alert center under [`SELF_TENANT`].
#[must_use]
pub fn watchdog_check(
    shard: usize,
    beat: &ShardBeat,
    cfg: &DaemonConfig,
    now: Instant,
) -> Vec<WatchdogFinding> {
    let mut findings = Vec::with_capacity(2);
    let mut push = |name: &str, age: Option<Duration>, limit: Duration, what: &str| {
        let firing = age.is_some_and(|a| a > limit);
        findings.push(WatchdogFinding {
            kind: format!("shard{shard}/{name}"),
            firing,
            message: format!(
                "shard {shard}: {what} for {:.1}s (limit {:.1}s)",
                age.unwrap_or_default().as_secs_f64(),
                limit.as_secs_f64()
            ),
        });
    };
    push(
        "stalled",
        beat.heartbeat_age(now),
        cfg.watchdog_stall_after,
        "no actor heartbeat",
    );
    push(
        "snapshot-stale",
        beat.snapshot_dirty_for(now),
        SNAPSHOT_STALE_AFTER,
        "unsnapshotted state pending",
    );
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> DaemonConfig {
        let mut cfg = DaemonConfig::new("unused.sock");
        cfg.burn_fast_window = Duration::from_millis(400);
        cfg.burn_slow_window = Duration::from_secs(2);
        cfg
    }

    fn signals(total_ops: u64, bad_ops: u64) -> HealthSignals {
        HealthSignals {
            total_ops,
            bad_ops,
            wal_fault: false,
            queue_frac: 0.0,
            eval_stale: false,
        }
    }

    #[test]
    fn healthy_tenant_scores_high_and_faulted_burning_tenant_low() {
        let cfg = fast_cfg();
        let mut healthy = TenantHealth::new(&cfg);
        let mut sick = TenantHealth::new(&cfg);
        let mut now = Instant::now();
        let mut total = 0;
        for _ in 0..4 {
            total += 1000;
            let _ = healthy.observe(&cfg, &signals(total, 0), now);
            let everything_dropped = HealthSignals {
                wal_fault: true,
                queue_frac: 0.5,
                eval_stale: true,
                ..signals(total, total)
            };
            let _ = sick.observe(&cfg, &everything_dropped, now);
            now += sample_gap(&cfg) + Duration::from_millis(5);
        }
        assert!(healthy.score() > 95.0, "healthy: {}", healthy.score());
        // 40 (wal) + 30 (saturated burn) + 10 (queue) + 10 (eval) gone.
        assert!(sick.score() < 15.0, "sick: {}", sick.score());
        assert!(sick.score() < healthy.score());
        assert!(!sick.spark().is_empty(), "score history recorded");
    }

    #[test]
    fn observation_is_throttled_to_the_sample_gap() {
        let cfg = fast_cfg();
        let mut h = TenantHealth::new(&cfg);
        let sig = signals(10, 0);
        let now = Instant::now();
        assert!(h.observe(&cfg, &sig, now).is_some(), "first sample lands");
        let almost = now + sample_gap(&cfg) - Duration::from_millis(1);
        assert!(h.observe(&cfg, &sig, almost).is_none(), "throttled");
        let gap = now + sample_gap(&cfg);
        assert!(h.observe(&cfg, &sig, gap).is_some(), "a full gap later");
    }

    #[test]
    fn burn_verdict_crosses_threshold_then_decays() {
        let cfg = fast_cfg();
        let mut h = TenantHealth::new(&cfg);
        let mut now = Instant::now();
        let mut verdict = None;
        for i in 0..3 {
            let sig = signals((i + 1) * 100, (i + 1) * 100);
            verdict = h.observe(&cfg, &sig, now).or(verdict);
            now += sample_gap(&cfg) + Duration::from_millis(5);
        }
        let v = verdict.expect("sampled");
        assert!(
            v.burn_fast > BURN_THRESHOLD && v.burn_slow > BURN_THRESHOLD,
            "all-bad traffic burns both windows: {v:?}"
        );
        // Quiet period: flat samples decay the fast window back to zero.
        now += cfg.burn_fast_window + Duration::from_millis(50);
        let v = h.observe(&cfg, &signals(300, 300), now).expect("sampled");
        assert!(
            v.burn_fast < BURN_THRESHOLD,
            "fast burn decays when quiet: {v:?}"
        );
    }

    #[test]
    fn watchdog_flags_stall_and_snapshot_age() {
        let start = Instant::now();
        let beat = ShardBeat::new(start);
        let mut cfg = fast_cfg();
        cfg.watchdog_stall_after = Duration::from_millis(20);
        // Nothing stamped yet: every age is None, nothing fires.
        let findings = watchdog_check(0, &beat, &cfg, start + SNAPSHOT_STALE_AFTER * 2);
        assert!(findings.iter().all(|f| !f.firing));

        beat.stamp_heartbeat(start);
        beat.set_snapshot_dirty(true, start);
        // Past the stall limit only.
        let stalled = start + Duration::from_millis(40);
        let findings = watchdog_check(3, &beat, &cfg, stalled);
        let firing: Vec<&str> = findings
            .iter()
            .filter(|f| f.firing)
            .map(|f| f.kind.as_str())
            .collect();
        assert_eq!(firing, ["shard3/stalled"]);
        // Past both limits.
        let later = start + SNAPSHOT_STALE_AFTER + Duration::from_secs(1);
        let findings = watchdog_check(3, &beat, &cfg, later);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.firing), "both invariants");
        assert!(findings.iter().all(|f| f.kind.starts_with("shard3/")));

        // A fresh stamp and a cleared mark resolve everything.
        beat.stamp_heartbeat(later);
        beat.set_snapshot_dirty(false, later);
        let findings = watchdog_check(3, &beat, &cfg, later);
        assert!(findings.iter().all(|f| !f.firing));
    }

    #[test]
    fn busy_mark_latches_the_first_edge() {
        let start = Instant::now();
        let beat = ShardBeat::new(start);
        let first = start + Duration::from_millis(5);
        beat.set_snapshot_dirty(true, first);
        assert_eq!(beat.snapshot_dirty_for(first), Some(Duration::ZERO));
        // Re-marking dirty must not reset the latch time.
        let later = first + Duration::from_millis(15);
        beat.set_snapshot_dirty(true, later);
        let age = beat.snapshot_dirty_for(later).expect("still latched");
        assert_eq!(age, Duration::from_millis(15), "age kept growing");
    }
}
