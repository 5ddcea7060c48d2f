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
//!         - 10 · [evaluator stale: no eval in 4 · eval_every]
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
//!   iteration, so a heartbeat older than `stall_after` means the shard
//!   is stuck inside one message (or deadlocked);
//! - **worker progress**: a recluster or eval job continuously in
//!   flight for longer than `wedge_after` means the background worker
//!   is wedged;
//! - **durability freshness**: unsnapshotted state older than
//!   `snapshot_stale_after` means the periodic snapshot trigger stopped
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

/// The health scorer's burn windows, per daemon (shared by every
/// tenant).
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// Fast burn window (sensitive, quick to resolve).
    pub fast_window: Duration,
    /// Slow burn window (suppresses blips).
    pub slow_window: Duration,
}

impl From<&DaemonConfig> for HealthConfig {
    fn from(cfg: &DaemonConfig) -> HealthConfig {
        HealthConfig {
            fast_window: cfg.burn_fast_window,
            slow_window: cfg.burn_slow_window,
        }
    }
}

impl HealthConfig {
    /// Minimum spacing between burn samples: an eighth of the fast
    /// window, clamped to 50 ms..1 s so shrunken test windows still get
    /// several samples and production windows don't sample needlessly.
    #[must_use]
    pub fn sample_gap(&self) -> Duration {
        (self.fast_window / 8).clamp(Duration::from_millis(50), Duration::from_secs(1))
    }
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
    /// The quality evaluator has not run within its expected cadence.
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
    /// Fresh state at full health.
    #[must_use]
    pub fn new(cfg: &HealthConfig) -> TenantHealth {
        TenantHealth {
            burn: BurnGauge::new(cfg.slow_window.as_secs_f64() * 1.25),
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

    /// Folds the signals into a new score, throttled to the configured
    /// sample gap. Returns `None` when throttled (state unchanged).
    pub fn observe(&mut self, cfg: &HealthConfig, sig: &HealthSignals) -> Option<HealthVerdict> {
        let now = Instant::now();
        if let Some(last) = self.last_sample {
            if now.duration_since(last) < cfg.sample_gap() {
                return None;
            }
        }
        self.last_sample = Some(now);
        self.burn.sample(sig.total_ops, sig.bad_ops);
        let burn_fast = self
            .burn
            .burn_over(cfg.fast_window.as_secs_f64(), SLO_MISS_RATE);
        let burn_slow = self
            .burn
            .burn_over(cfg.slow_window.as_secs_f64(), SLO_MISS_RATE);

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

/// Watchdog knobs, per daemon.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Check cadence.
    pub tick: Duration,
    /// Heartbeat age above which a shard counts as stalled.
    pub stall_after: Duration,
    /// Continuous recluster/eval in-flight time above which the worker
    /// counts as wedged.
    pub wedge_after: Duration,
    /// Unsnapshotted-state age above which durability counts as stale.
    pub snapshot_stale_after: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            tick: Duration::from_millis(250),
            stall_after: Duration::from_secs(5),
            wedge_after: Duration::from_secs(60),
            snapshot_stale_after: Duration::from_secs(300),
        }
    }
}

/// Millisecond timestamps a shard actor stamps as it runs, read by the
/// watchdog thread. All times are milliseconds since the beat's own
/// creation; zero means "never" (heartbeat) or "not currently" (busy
/// and dirty marks).
#[derive(Debug)]
pub struct ShardBeat {
    epoch: Instant,
    heartbeat_ms: AtomicU64,
    recluster_busy_ms: AtomicU64,
    eval_busy_ms: AtomicU64,
    snapshot_dirty_ms: AtomicU64,
}

impl Default for ShardBeat {
    fn default() -> ShardBeat {
        ShardBeat::new()
    }
}

impl ShardBeat {
    /// A beat with no stamps yet.
    #[must_use]
    pub fn new() -> ShardBeat {
        ShardBeat {
            epoch: Instant::now(),
            heartbeat_ms: AtomicU64::new(0),
            recluster_busy_ms: AtomicU64::new(0),
            eval_busy_ms: AtomicU64::new(0),
            snapshot_dirty_ms: AtomicU64::new(0),
        }
    }

    /// Milliseconds since this beat was created, clamped to ≥ 1 so a
    /// stamp is never confused with the "never" sentinel.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis())
            .unwrap_or(u64::MAX)
            .max(1)
    }

    /// Stamps the liveness heartbeat (one relaxed store; called once per
    /// actor loop iteration).
    pub fn stamp_heartbeat(&self) {
        self.heartbeat_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Marks whether any recluster job is in flight on this shard.
    pub fn set_recluster_busy(&self, busy: bool) {
        Self::mark(&self.recluster_busy_ms, busy, self.now_ms());
    }

    /// Marks whether any eval job is in flight on this shard.
    pub fn set_eval_busy(&self, busy: bool) {
        Self::mark(&self.eval_busy_ms, busy, self.now_ms());
    }

    /// Marks whether any tenant on this shard has unsnapshotted state.
    pub fn set_snapshot_dirty(&self, dirty: bool) {
        Self::mark(&self.snapshot_dirty_ms, dirty, self.now_ms());
    }

    /// Latches `now` on the false→true edge, clears on true→false.
    fn mark(cell: &AtomicU64, active: bool, now: u64) {
        if active {
            let _ = cell.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        } else {
            cell.store(0, Ordering::Relaxed);
        }
    }

    fn age(&self, cell: &AtomicU64) -> Option<Duration> {
        match cell.load(Ordering::Relaxed) {
            0 => None,
            t => Some(Duration::from_millis(self.now_ms().saturating_sub(t))),
        }
    }

    /// Age of the last heartbeat (`None` before the first stamp).
    #[must_use]
    pub fn heartbeat_age(&self) -> Option<Duration> {
        self.age(&self.heartbeat_ms)
    }

    /// How long a recluster job has been continuously in flight.
    #[must_use]
    pub fn recluster_busy_for(&self) -> Option<Duration> {
        self.age(&self.recluster_busy_ms)
    }

    /// How long an eval job has been continuously in flight.
    #[must_use]
    pub fn eval_busy_for(&self) -> Option<Duration> {
        self.age(&self.eval_busy_ms)
    }

    /// How long unsnapshotted state has been pending.
    #[must_use]
    pub fn snapshot_dirty_for(&self) -> Option<Duration> {
        self.age(&self.snapshot_dirty_ms)
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

/// Evaluates every watchdog invariant for one shard. Pure so it can be
/// unit-tested without threads; the daemon's watchdog thread feeds the
/// findings to the alert center under [`SELF_TENANT`].
#[must_use]
pub fn watchdog_check(
    shard: usize,
    beat: &ShardBeat,
    cfg: &WatchdogConfig,
) -> Vec<WatchdogFinding> {
    let mut findings = Vec::with_capacity(4);
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
        beat.heartbeat_age(),
        cfg.stall_after,
        "no actor heartbeat",
    );
    push(
        "recluster-wedged",
        beat.recluster_busy_for(),
        cfg.wedge_after,
        "recluster job in flight",
    );
    push(
        "eval-wedged",
        beat.eval_busy_for(),
        cfg.wedge_after,
        "eval job in flight",
    );
    push(
        "snapshot-stale",
        beat.snapshot_dirty_for(),
        cfg.snapshot_stale_after,
        "unsnapshotted state pending",
    );
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> HealthConfig {
        HealthConfig {
            fast_window: Duration::from_millis(400),
            slow_window: Duration::from_secs(2),
        }
    }

    #[test]
    fn healthy_tenant_scores_high_and_faulted_burning_tenant_low() {
        let cfg = fast_cfg();
        let mut healthy = TenantHealth::new(&cfg);
        let mut sick = TenantHealth::new(&cfg);
        let mut total = 0;
        for _ in 0..4 {
            total += 1000;
            let _ = healthy.observe(
                &cfg,
                &HealthSignals {
                    total_ops: total,
                    bad_ops: 0,
                    wal_fault: false,
                    queue_frac: 0.0,
                    eval_stale: false,
                },
            );
            let _ = sick.observe(
                &cfg,
                &HealthSignals {
                    total_ops: total,
                    bad_ops: total, // everything dropped
                    wal_fault: true,
                    queue_frac: 0.5,
                    eval_stale: true,
                },
            );
            std::thread::sleep(cfg.sample_gap() + Duration::from_millis(5));
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
        let sig = HealthSignals {
            total_ops: 10,
            bad_ops: 0,
            wal_fault: false,
            queue_frac: 0.0,
            eval_stale: false,
        };
        assert!(h.observe(&cfg, &sig).is_some(), "first sample always lands");
        assert!(h.observe(&cfg, &sig).is_none(), "back-to-back is throttled");
    }

    #[test]
    fn burn_verdict_crosses_threshold_then_decays() {
        let cfg = fast_cfg();
        let mut h = TenantHealth::new(&cfg);
        let mut verdict = None;
        for i in 0..3 {
            let sig = HealthSignals {
                total_ops: (i + 1) * 100,
                bad_ops: (i + 1) * 100,
                wal_fault: false,
                queue_frac: 0.0,
                eval_stale: false,
            };
            verdict = h.observe(&cfg, &sig).or(verdict);
            std::thread::sleep(cfg.sample_gap() + Duration::from_millis(5));
        }
        let v = verdict.expect("sampled");
        assert!(
            v.burn_fast > BURN_THRESHOLD && v.burn_slow > BURN_THRESHOLD,
            "all-bad traffic burns both windows: {v:?}"
        );
        // Quiet period: flat samples decay the fast window back to zero.
        std::thread::sleep(cfg.fast_window + Duration::from_millis(50));
        let v = h
            .observe(
                &cfg,
                &HealthSignals {
                    total_ops: 300,
                    bad_ops: 300,
                    wal_fault: false,
                    queue_frac: 0.0,
                    eval_stale: false,
                },
            )
            .expect("sampled");
        assert!(
            v.burn_fast < BURN_THRESHOLD,
            "fast burn decays when quiet: {v:?}"
        );
    }

    #[test]
    fn watchdog_flags_stall_wedge_and_snapshot_age() {
        let beat = ShardBeat::new();
        let cfg = WatchdogConfig {
            tick: Duration::from_millis(10),
            stall_after: Duration::from_millis(20),
            wedge_after: Duration::from_millis(20),
            snapshot_stale_after: Duration::from_millis(20),
        };
        // Nothing stamped yet: every age is None, nothing fires.
        assert!(watchdog_check(0, &beat, &cfg).iter().all(|f| !f.firing));

        beat.stamp_heartbeat();
        beat.set_recluster_busy(true);
        beat.set_eval_busy(true);
        beat.set_snapshot_dirty(true);
        std::thread::sleep(Duration::from_millis(40));
        let findings = watchdog_check(3, &beat, &cfg);
        assert_eq!(findings.len(), 4);
        assert!(findings.iter().all(|f| f.firing), "all four invariants");
        assert!(findings.iter().all(|f| f.kind.starts_with("shard3/")));

        // Fresh stamps and cleared marks resolve everything.
        beat.stamp_heartbeat();
        beat.set_recluster_busy(false);
        beat.set_eval_busy(false);
        beat.set_snapshot_dirty(false);
        assert!(watchdog_check(3, &beat, &cfg).iter().all(|f| !f.firing));
    }

    #[test]
    fn busy_mark_latches_the_first_edge() {
        let beat = ShardBeat::new();
        beat.set_recluster_busy(true);
        let first = beat.recluster_busy_for().expect("latched");
        std::thread::sleep(Duration::from_millis(15));
        // Re-marking busy must not reset the latch time.
        beat.set_recluster_busy(true);
        let later = beat.recluster_busy_for().expect("still latched");
        assert!(
            later >= first + Duration::from_millis(10),
            "age kept growing"
        );
    }
}
