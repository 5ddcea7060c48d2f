//! The metrics registry: atomic counters, gauges, and latency histograms.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing counter. Cloning is cheap and clones share
/// the underlying atomic.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the running total. Intended for mirroring an existing
    /// monotonic counter (e.g. a component's internal stats struct) into
    /// the registry; prefer [`Counter::inc`]/[`Counter::add`] otherwise.
    pub fn set_total(&self, total: u64) {
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (queue depths, sizes).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-water marks).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Smallest histogram bucket bound: `2^FIRST_EXP` nanoseconds (256 ns).
const FIRST_EXP: u32 = 8;
/// Largest bound: `2^LAST_EXP` nanoseconds (≈ 275 s); beyond is +Inf.
const LAST_EXP: u32 = 38;
/// Number of finite buckets.
const NUM_BUCKETS: usize = (LAST_EXP - FIRST_EXP + 1) as usize;

struct HistogramInner {
    /// Per-bucket counts; bucket `i` holds observations in
    /// `(2^(FIRST_EXP+i-1), 2^(FIRST_EXP+i)]` ns (bucket 0 from zero).
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Observations above the last finite bound.
    overflow: AtomicU64,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A latency histogram with fixed log-spaced (power-of-two nanosecond)
/// buckets from 256 ns to ~275 s. Recording is lock-free: one shift to
/// find the bucket, three relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.0.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }))
    }
}

impl Histogram {
    /// Records a duration.
    pub fn observe(&self, d: Duration) {
        self.observe_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records a raw nanosecond observation.
    pub fn observe_nanos(&self, nanos: u64) {
        let inner = &*self.0;
        // Bit length b means nanos ≤ 2^b - 1 < 2^b, so the bucket with
        // bound 2^b is the first that contains it.
        let bits = 64 - nanos.leading_zeros();
        if bits <= FIRST_EXP {
            inner.buckets[0].fetch_add(1, Ordering::Relaxed);
        } else if bits <= LAST_EXP {
            inner.buckets[(bits - FIRST_EXP) as usize].fetch_add(1, Ordering::Relaxed);
        } else {
            inner.overflow.fetch_add(1, Ordering::Relaxed);
        }
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Starts an RAII timer that records into this histogram on drop.
    #[must_use]
    pub fn start_timer(&self) -> SpanTimer {
        SpanTimer {
            histogram: self.clone(),
            start: Instant::now(),
        }
    }

    /// Observations recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// This histogram's value now; a fresh one gives the empty value.
    #[must_use]
    pub fn snapshot(&self) -> MetricValue {
        let inner = &*self.0;
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        for (i, b) in inner.buckets.iter().enumerate() {
            buckets.push(BucketSnapshot {
                le: bucket_bound_seconds(i),
                count: b.load(Ordering::Relaxed),
            });
        }
        MetricValue::Histogram {
            count: inner.count.load(Ordering::Relaxed),
            sum_seconds: inner.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            buckets,
        }
    }
}

/// Upper bound of finite bucket `i`, in seconds.
fn bucket_bound_seconds(i: usize) -> f64 {
    (1u64 << (FIRST_EXP + i as u32)) as f64 / 1e9
}

/// RAII stage timer: measures from creation to drop and records the
/// elapsed time into its histogram.
pub struct SpanTimer {
    histogram: Histogram,
    start: Instant,
}

impl SpanTimer {
    /// Stops the timer early, recording now instead of at drop.
    pub fn stop(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.histogram.observe(self.start.elapsed());
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A collection of named metrics. Registration takes a short mutex;
/// recording through the returned handles is lock-free. Registration is
/// idempotent on (name, labels): re-registering returns the existing
/// instrument.
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.entries.lock().map(|e| e.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry {
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.intern(name, help, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            other => panic!("metric {name} already registered as {other:?}, wanted counter"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.intern(name, help, labels, || Instrument::Gauge(Gauge::default())) {
            Instrument::Gauge(g) => g,
            other => panic!("metric {name} already registered as {other:?}, wanted gauge"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled histogram.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.intern(name, help, labels, || {
            Instrument::Histogram(Histogram::default())
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("metric {name} already registered as {other:?}, wanted histogram"),
        }
    }

    fn intern(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut entries = self.entries.lock().expect("registry poisoned");
        if let Some(e) = entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        }) {
            return e.instrument.clone();
        }
        let instrument = make();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// A point-in-time copy of every metric, sorted by name then labels
    /// so output is deterministic.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().expect("registry poisoned");
        let mut metrics: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter { total: c.get() },
                    Instrument::Gauge(g) => MetricValue::Gauge { value: g.get() },
                    Instrument::Histogram(h) => h.snapshot(),
                },
            })
            .collect();
        metrics.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        RegistrySnapshot { metrics }
    }
}

/// One cumulative-export bucket of a histogram snapshot: `count`
/// observations fell in `(previous bound, le]` seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnapshot {
    /// Upper bound, in seconds.
    pub le: f64,
    /// Observations within this bucket (non-cumulative).
    pub count: u64,
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// A monotonic total.
    Counter {
        /// The running total.
        total: u64,
    },
    /// An instantaneous value.
    Gauge {
        /// The value at snapshot time.
        value: i64,
    },
    /// A latency distribution.
    Histogram {
        /// Total observations (including overflow).
        count: u64,
        /// Sum of all observations, in seconds.
        sum_seconds: f64,
        /// Finite buckets, ascending by bound; observations above the
        /// last bound appear only in `count`.
        buckets: Vec<BucketSnapshot>,
    },
}

impl MetricValue {
    /// Adds `other` into `self`: counter totals, and histogram counts,
    /// sums and buckets. Gauges and mismatched kinds are left as they are.
    pub fn accumulate(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter { total }, MetricValue::Counter { total: more }) => {
                *total = total.saturating_add(*more);
            }
            (
                MetricValue::Histogram {
                    count,
                    sum_seconds,
                    buckets,
                },
                MetricValue::Histogram {
                    count: more,
                    sum_seconds: more_seconds,
                    buckets: more_buckets,
                },
            ) => {
                *count = count.saturating_add(*more);
                *sum_seconds += more_seconds;
                for (b, more) in buckets.iter_mut().zip(more_buckets) {
                    b.count = b.count.saturating_add(more.count);
                }
            }
            _ => {}
        }
    }
}

/// One metric in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSnapshot {
    /// Metric name (`seer_*`).
    pub name: String,
    /// Human description (the Prometheus `# HELP` text).
    pub help: String,
    /// Label key/value pairs.
    pub labels: Vec<(String, String)>,
    /// The observed value.
    pub value: MetricValue,
}

impl MetricSnapshot {
    /// The quantile `q` in seconds, if this metric is a histogram with
    /// data. Interpolates geometrically within the winning log bucket
    /// (see [`seer_stats::quantile_from_log_buckets`]).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match &self.value {
            MetricValue::Histogram { count, buckets, .. } => {
                let bounds: Vec<f64> = buckets.iter().map(|b| b.le).collect();
                let mut counts: Vec<u64> = buckets.iter().map(|b| b.count).collect();
                let finite: u64 = counts.iter().sum();
                counts.push(count.saturating_sub(finite));
                seer_stats::quantile_from_log_buckets(&bounds, &counts, q)
            }
            _ => None,
        }
    }
}

/// A serializable point-in-time copy of a [`Registry`] — the payload of
/// the daemon's `metrics` query and the input to
/// [`crate::render_prometheus`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Every metric, sorted by name then labels.
    pub metrics: Vec<MetricSnapshot>,
}

impl RegistrySnapshot {
    /// Adds a metric at its place in the name-then-labels order.
    pub fn insert(&mut self, metric: MetricSnapshot) {
        let at = self
            .metrics
            .partition_point(|m| (&m.name, &m.labels) < (&metric.name, &metric.labels));
        self.metrics.insert(at, metric);
    }

    /// Finds a metric by name, ignoring labels (first match).
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Finds a metric by name and exact label set.
    #[must_use]
    pub fn find_with(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSnapshot> {
        self.metrics.iter().find(|m| {
            m.name == name
                && m.labels.len() == labels.len()
                && m.labels
                    .iter()
                    .zip(labels)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
        })
    }

    /// The total of a counter, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name)?.value {
            MetricValue::Counter { total } => Some(total),
            _ => None,
        }
    }

    /// The value of a gauge, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name)?.value {
            MetricValue::Gauge { value } => Some(value),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_and_update() {
        let r = Registry::new();
        let c = r.counter("seer_test_total", "test counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Idempotent registration returns the same underlying atomic.
        let again = r.counter("seer_test_total", "test counter");
        again.inc();
        assert_eq!(c.get(), 6);

        let g = r.gauge("seer_test_depth", "test gauge");
        g.set(7);
        g.add(-3);
        g.set_max(2);
        assert_eq!(g.get(), 4);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn labeled_metrics_are_distinct() {
        let r = Registry::new();
        let a = r.counter_with("seer_stage_total", "per stage", &[("stage", "decode")]);
        let b = r.counter_with("seer_stage_total", "per stage", &[("stage", "apply")]);
        a.inc();
        b.add(2);
        let snap = r.snapshot();
        assert_eq!(
            snap.find_with("seer_stage_total", &[("stage", "apply")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter { total: 2 })
        );
        assert_eq!(
            snap.find_with("seer_stage_total", &[("stage", "decode")])
                .map(|m| m.value.clone()),
            Some(MetricValue::Counter { total: 1 })
        );
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let r = Registry::new();
        let h = r.histogram("seer_lat_seconds", "latencies");
        // 1 µs = 1000 ns → bucket with bound 1024 ns.
        for _ in 0..99 {
            h.observe_nanos(1_000);
        }
        h.observe_nanos(40_000_000_000); // 40 s
        let snap = r.snapshot();
        let m = snap.find("seer_lat_seconds").expect("registered");
        match &m.value {
            MetricValue::Histogram {
                count,
                sum_seconds,
                buckets,
            } => {
                assert_eq!(*count, 100);
                assert!((sum_seconds - (99.0 * 1e-6 + 40.0)).abs() < 1e-6);
                let in_1us: u64 = buckets
                    .iter()
                    .filter(|b| b.le >= 1e-6 && b.le < 2e-6)
                    .map(|b| b.count)
                    .sum();
                assert_eq!(in_1us, 99);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        let p50 = m.quantile(0.50).expect("data");
        assert!(p50 > 0.25e-6 && p50 < 2e-6, "p50 ≈ 1 µs, got {p50}");
        let p99 = m.quantile(0.999).expect("data");
        assert!(p99 > 1.0, "p99.9 lands in the 40 s observation, got {p99}");
    }

    /// The labeled-registry hot path: 8 threads race to register *and*
    /// increment the same (name, labels) pair. Idempotent interning must
    /// hand every thread the same underlying atomic — no increments
    /// lost, exactly one entry in the snapshot.
    #[test]
    fn concurrent_labeled_registration_shares_one_atomic() {
        const THREADS: usize = 8;
        const INCS: u64 = 10_000;
        let r = Registry::new();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let c = r.counter_with(
                        "seer_daemon_tenant_events_total",
                        "Per-tenant events.",
                        &[("tenant", "machine-a")],
                    );
                    for _ in 0..INCS {
                        c.inc();
                    }
                });
            }
        });
        let snap = r.snapshot();
        let entries: Vec<_> = snap
            .metrics
            .iter()
            .filter(|m| m.name == "seer_daemon_tenant_events_total")
            .collect();
        assert_eq!(entries.len(), 1, "one entry despite 8 racing registrations");
        assert_eq!(
            entries[0].value,
            MetricValue::Counter {
                total: THREADS as u64 * INCS
            },
            "no increment lost to a racing registration"
        );
    }

    #[test]
    fn span_timer_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("seer_span_seconds", "span");
        {
            let _t = h.start_timer();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("seer_a_total", "a").add(3);
        r.gauge("seer_b", "b").set(-4);
        r.histogram("seer_c_seconds", "c").observe_nanos(5_000);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: RegistrySnapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
    }
}
