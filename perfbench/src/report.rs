//! The result line every run ends with, and the operation accounting
//! behind its `attempted` and `failed` counts.

use crate::stats::{is_metric_name, is_unit};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit (`ms`, `s`, `count`, …).
    pub unit: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
}

/// A named set of metrics, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records `name`, replacing an earlier value of the same name.
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, unit, value });
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every metric, in insertion order.
    #[must_use]
    pub fn all(&self) -> &[Metric] {
        &self.0
    }

    /// Keeps only the metrics named in `names`, in that order, and fails
    /// when one is missing, illegal, or not finite, or zero unless
    /// `allow_zero` (an end-to-end metric that can read 0 cannot express
    /// a relative change).
    ///
    /// # Errors
    ///
    /// Returns a description of the first offending metric.
    pub fn select(&self, names: &[&str], allow_zero: bool) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &name in names {
            let m = self
                .0
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !is_metric_name(m.name) || !is_unit(m.unit) {
                return Err(format!("metric {} has an illegal name or unit", m.name));
            }
            if !m.value.is_finite() || (m.value == 0.0 && !allow_zero) {
                return Err(format!("metric {} reads {}", m.name, m.value));
            }
            out.0.push(m.clone());
        }
        Ok(out)
    }
}

/// Client calls made and failed during a run. Every call to the daemon
/// (handshake, send, flush, query, shutdown) is one attempt.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
}

impl Ops {
    /// Counts one call and its outcome, passing the result through with
    /// the error rendered under `what`.
    ///
    /// # Errors
    ///
    /// Returns the call's error, described.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }
}

/// Renders the final result line: exactly `correct`, `attempted`,
/// `failed`, and `metrics` (each metric as `{"value", "unit"}`).
#[must_use]
pub fn result_line(correct: bool, ops: Ops, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.attempted, ops.failed
    );
    for (i, m) in metrics.all().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // Names and units are restricted to characters JSON needs no
        // escaping for; Rust's float formatting never uses exponents.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}
