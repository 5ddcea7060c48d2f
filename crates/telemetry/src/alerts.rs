//! SLO alerting: a bounded alert ring with firing/resolved transitions
//! and a multi-window burn-rate gauge.
//!
//! The [`AlertCenter`] is deliberately dumb: callers *observe* a boolean
//! condition per (tenant, kind) pair and the center turns edge
//! transitions into [`AlertRecord`]s — at most one active alert per
//! pair, a bounded ring of history, and no background threads. All
//! methods take a short mutex; they are called at health-scoring cadence
//! (hundreds of milliseconds apart), never on the per-event hot path.
//!
//! [`BurnGauge`] implements the classic SRE multi-window burn-rate
//! signal: sample a cumulative (total, bad) pair at a modest cadence,
//! then ask for the bad fraction over any trailing window. Dividing that
//! fraction by the SLO's error budget gives the *burn rate* — 1.0 means
//! the budget is being consumed exactly as fast as it accrues; alerting
//! on a fast **and** a slow window firing together suppresses blips
//! while still catching slow leaks.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

/// One alert, as recorded in the ring and served over the wire.
///
/// Timestamps are seconds since the owning [`AlertCenter`] was created
/// (daemon start, in practice): wall-clock-free, monotonic, and cheap to
/// serialize.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Monotonic id, unique within one center, in firing order.
    pub id: u64,
    /// The tenant this alert is about (`_self` for the daemon itself).
    pub tenant: String,
    /// Short machine-readable kind, e.g. `slo-burn` or `shard0/stalled`.
    pub kind: String,
    /// Human-readable explanation captured at firing time.
    pub message: String,
    /// Seconds since center creation when the alert fired.
    pub fired_secs: f64,
    /// Seconds since center creation when it resolved; `None` while the
    /// condition still holds.
    pub resolved_secs: Option<f64>,
}

impl AlertRecord {
    /// True while the alert's condition still holds.
    #[must_use]
    pub fn is_firing(&self) -> bool {
        self.resolved_secs.is_none()
    }
}

/// The edge an [`AlertCenter::observe`] call produced, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransition {
    /// The condition went false → true: a new record was appended.
    Fired,
    /// The condition went true → false: the active record was resolved.
    Resolved,
}

struct CenterInner {
    ring: VecDeque<AlertRecord>,
    /// (tenant, kind) → id of the currently-firing record.
    active: HashMap<(String, String), u64>,
    next_id: u64,
    fired_total: u64,
}

/// Bounded, thread-safe alert history with at most one firing alert per
/// (tenant, kind) pair.
pub struct AlertCenter {
    capacity: usize,
    started: Instant,
    inner: Mutex<CenterInner>,
}

impl std::fmt::Debug for AlertCenter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("alert center poisoned");
        f.debug_struct("AlertCenter")
            .field("capacity", &self.capacity)
            .field("recorded", &inner.ring.len())
            .field("firing", &inner.active.len())
            .finish()
    }
}

impl AlertCenter {
    /// A center retaining up to `capacity` records (firing and resolved),
    /// and at least one.
    #[must_use]
    pub fn new(capacity: usize) -> AlertCenter {
        AlertCenter {
            capacity: capacity.max(1),
            started: Instant::now(),
            inner: Mutex::new(CenterInner {
                ring: VecDeque::new(),
                active: HashMap::new(),
                next_id: 0,
                fired_total: 0,
            }),
        }
    }

    /// Seconds since the center was created — the clock
    /// [`AlertRecord::fired_secs`] is measured on.
    #[must_use]
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Drives the (tenant, kind) alert from its boolean condition.
    /// `message` is only evaluated on the false→true edge. Returns the
    /// transition this call caused, if any.
    pub fn observe(
        &self,
        tenant: &str,
        kind: &str,
        firing: bool,
        message: impl FnOnce() -> String,
    ) -> Option<AlertTransition> {
        let now = self.uptime_secs();
        let mut inner = self.inner.lock().expect("alert center poisoned");
        let key = (tenant.to_owned(), kind.to_owned());
        let active = inner.active.get(&key).copied();
        match (firing, active) {
            (true, Some(_)) | (false, None) => None,
            (true, None) => {
                let id = inner.next_id;
                inner.next_id += 1;
                inner.fired_total += 1;
                if inner.ring.len() == self.capacity {
                    // Prefer evicting resolved history over a live alert.
                    if let Some(idx) = inner.ring.iter().position(|a| !a.is_firing()) {
                        inner.ring.remove(idx);
                    } else if let Some(evicted) = inner.ring.pop_front() {
                        inner.active.remove(&(evicted.tenant, evicted.kind));
                    }
                }
                inner.ring.push_back(AlertRecord {
                    id,
                    tenant: tenant.to_owned(),
                    kind: kind.to_owned(),
                    message: message(),
                    fired_secs: now,
                    resolved_secs: None,
                });
                inner.active.insert(key, id);
                Some(AlertTransition::Fired)
            }
            (false, Some(id)) => {
                inner.active.remove(&key);
                if let Some(rec) = inner.ring.iter_mut().find(|a| a.id == id) {
                    rec.resolved_secs = Some(now);
                }
                Some(AlertTransition::Resolved)
            }
        }
    }

    /// Number of alerts currently firing.
    #[must_use]
    pub fn firing_count(&self) -> usize {
        self.inner
            .lock()
            .expect("alert center poisoned")
            .active
            .len()
    }

    /// Number of alerts currently firing for one tenant.
    #[must_use]
    pub fn firing_count_for(&self, tenant: &str) -> usize {
        self.inner
            .lock()
            .expect("alert center poisoned")
            .active
            .keys()
            .filter(|(t, _)| t == tenant)
            .count()
    }

    /// Total alerts ever fired (including since-evicted ones).
    #[must_use]
    pub fn fired_total(&self) -> u64 {
        self.inner
            .lock()
            .expect("alert center poisoned")
            .fired_total
    }

    /// The retained records, oldest first, optionally filtered to one
    /// tenant.
    #[must_use]
    pub fn snapshot(&self, tenant: Option<&str>) -> Vec<AlertRecord> {
        let inner = self.inner.lock().expect("alert center poisoned");
        inner
            .ring
            .iter()
            .filter(|a| tenant.is_none_or(|t| a.tenant == t))
            .cloned()
            .collect()
    }
}

/// One cumulative sample: (seconds since gauge creation, total ops, bad
/// ops).
type BurnSample = (f64, u64, u64);

/// A sliding-window burn-rate gauge over a cumulative good/bad stream.
///
/// Not thread-safe by design — each owner (one tenant's health state)
/// samples and reads from a single thread.
#[derive(Debug)]
pub struct BurnGauge {
    started: Instant,
    retain_secs: f64,
    samples: VecDeque<BurnSample>,
}

impl BurnGauge {
    /// A gauge retaining enough samples to answer windows up to
    /// `retain_secs` long.
    #[must_use]
    pub fn new(retain_secs: f64) -> BurnGauge {
        BurnGauge {
            started: Instant::now(),
            retain_secs: retain_secs.max(1e-3),
            samples: VecDeque::new(),
        }
    }

    /// Records the current cumulative totals. Callers throttle the
    /// cadence; every call appends one sample (flat samples are what
    /// lets a quiet window's rate decay back to zero).
    pub fn sample(&mut self, total: u64, bad: u64) {
        let now = self.started.elapsed().as_secs_f64();
        self.samples.push_back((now, total, bad));
        // Keep one sample *older* than the retention horizon as the
        // baseline anchor for full-width windows.
        let horizon = now - self.retain_secs;
        while self.samples.len() > 2 && self.samples[1].0 <= horizon {
            self.samples.pop_front();
        }
    }

    /// The bad fraction of ops over the trailing `window_secs`: 0.0 when
    /// nothing happened in the window.
    #[must_use]
    pub fn rate_over(&self, window_secs: f64) -> f64 {
        let (Some(&end), Some(&front)) = (self.samples.back(), self.samples.front()) else {
            return 0.0;
        };
        let start_t = self.started.elapsed().as_secs_f64() - window_secs;
        if end.0 <= start_t {
            return 0.0; // all activity predates the window
        }
        let mut base = front;
        for &s in &self.samples {
            if s.0 <= start_t {
                base = s;
            } else {
                break;
            }
        }
        let total = end.1.saturating_sub(base.1);
        let bad = end.2.saturating_sub(base.2);
        if total == 0 {
            0.0
        } else {
            bad as f64 / total as f64
        }
    }

    /// [`rate_over`](BurnGauge::rate_over) divided by the SLO's error
    /// budget `slo` (the allowed bad fraction): the burn rate. 1.0 means
    /// the budget is consumed exactly as fast as it accrues.
    #[must_use]
    pub fn burn_over(&self, window_secs: f64, slo: f64) -> f64 {
        self.rate_over(window_secs) / slo.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn alerts_fire_once_and_resolve_once() {
        let c = AlertCenter::new(16);
        assert_eq!(
            c.observe("a", "slo-burn", true, || "burning".into()),
            Some(AlertTransition::Fired)
        );
        // Re-observing a firing condition is a no-op, not a new alert.
        assert_eq!(c.observe("a", "slo-burn", true, || "again".into()), None);
        assert_eq!(c.firing_count(), 1);
        assert_eq!(c.firing_count_for("a"), 1);
        assert_eq!(c.firing_count_for("b"), 0);

        assert_eq!(
            c.observe("a", "slo-burn", false, || unreachable!()),
            Some(AlertTransition::Resolved)
        );
        assert_eq!(c.observe("a", "slo-burn", false, || unreachable!()), None);
        let snap = c.snapshot(None);
        assert_eq!(snap.len(), 1);
        assert!(!snap[0].is_firing());
        assert!(snap[0].resolved_secs.unwrap() >= snap[0].fired_secs);
        assert_eq!(c.fired_total(), 1);
    }

    #[test]
    fn tenants_and_kinds_are_independent() {
        let c = AlertCenter::new(16);
        c.observe("a", "slo-burn", true, || "a burn".into());
        c.observe("a", "wal-fault", true, || "a wal".into());
        c.observe("b", "slo-burn", true, || "b burn".into());
        assert_eq!(c.firing_count(), 3);
        assert_eq!(c.firing_count_for("a"), 2);
        assert_eq!(c.snapshot(Some("b")).len(), 1);
        assert_eq!(c.snapshot(Some("b"))[0].message, "b burn");
    }

    #[test]
    fn ring_is_bounded_and_prefers_evicting_resolved() {
        let c = AlertCenter::new(3);
        // Two resolved alerts, then three firing ones: the resolved pair
        // gets evicted, the firing ones all survive.
        for kind in ["k0", "k1"] {
            c.observe("t", kind, true, || kind.into());
            c.observe("t", kind, false, || unreachable!());
        }
        for kind in ["k2", "k3", "k4"] {
            c.observe("t", kind, true, || kind.into());
        }
        let snap = c.snapshot(None);
        assert_eq!(snap.len(), 3);
        assert!(snap.iter().all(AlertRecord::is_firing));
        assert_eq!(c.firing_count(), 3);
    }

    #[test]
    fn burn_rate_rises_with_bad_ops_and_decays_when_quiet() {
        let mut g = BurnGauge::new(10.0);
        g.sample(0, 0);
        std::thread::sleep(Duration::from_millis(5));
        g.sample(100, 50);
        let rate = g.rate_over(10.0);
        assert!((rate - 0.5).abs() < 1e-9, "half the ops were bad: {rate}");
        assert!(g.burn_over(10.0, 0.05) > 9.0, "burn = rate / budget");

        // A tiny window that excludes the burst sees nothing.
        std::thread::sleep(Duration::from_millis(30));
        g.sample(100, 50); // flat sample: no new ops
        assert_eq!(g.rate_over(0.02), 0.0, "quiet window decays to zero");
    }

    #[test]
    fn empty_gauge_reports_zero() {
        let g = BurnGauge::new(5.0);
        assert_eq!(g.rate_over(1.0), 0.0);
        assert_eq!(g.burn_over(1.0, 0.01), 0.0);
    }

    #[test]
    fn alert_record_round_trips_through_json() {
        let c = AlertCenter::new(4);
        c.observe("machine-a", "slo-burn", true, || "mf burn 12x".into());
        let snap = c.snapshot(None);
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: Vec<AlertRecord> = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
