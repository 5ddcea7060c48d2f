//! Sample statistics and metric-name rules shared by every workload.

/// Fewest samples that must rank strictly above a reported tail
/// percentile; a percentile with fewer is a guess about one or two
/// outliers, not a measurement.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-th percentile (`p` in whole percent) of `samples`,
/// in any order. Refuses unless at least [`MIN_TAIL_SAMPLES`] samples
/// rank strictly above the selected one, so a caller cannot report a
/// p90 from 50 samples by accident.
///
/// # Errors
///
/// Returns a description of the shortfall when the sample is too small.
pub fn tail_percentile(samples: &[f64], p: usize) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || p == 0 || p > 100 {
        return Err(format!("p{p} of {n} samples is undefined"));
    }
    let beyond = n - rank(n, p);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {n} samples leaves {beyond} beyond it; {MIN_TAIL_SAMPLES} are needed"
        ));
    }
    Ok(nearest_rank(samples, p))
}

/// 1-based nearest rank of the `p`-th percentile of `n` samples: the
/// smallest rank covering `p`% of them.
fn rank(n: usize, p: usize) -> usize {
    (p * n).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile of `samples` (`NaN` when empty), with
/// no tail requirement: for low percentiles such as a best-quartile.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(n, p.min(100)) - 1],
    }
}

/// Median of `samples` (mean of the middle two for an even count);
/// `NaN` for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn is_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn is_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
