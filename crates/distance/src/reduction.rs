//! Online reduction of event distances to a single file distance (§3.1.2).

use crate::config::ReductionKind;

/// Streaming summary of the distances observed between one ordered file
/// pair.
///
/// For the geometric mean the accumulator stores `Σ ln(1 + dᵢ)`, so the
/// summary is updatable online in O(1) space — one of the paper's explicit
/// requirements ("easy to calculate, updatable on-line, small in storage").
/// Zero distances (lifetime overlaps) are handled by the `1 + d` shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSummary {
    /// `Σ ln(1 + dᵢ)` for geometric reduction, `Σ dᵢ` for arithmetic.
    acc: f64,
    /// Number of observations.
    count: u32,
}

// Encoded as the raw accumulator (8 bytes, bit-exact) and the count.
seer_trace::codec_struct!(PairSummary { acc, count } min_bytes = 9);

/// Precomputed `ln(1 + k)` for small integer distances.
///
/// Sequence and lifetime distances are integer-valued and window-capped
/// (`M = 100` by default), so almost every geometric-reduction observation
/// hits this table instead of paying for a live `ln` — the single hottest
/// arithmetic operation on the ingest path. Values are bit-identical to
/// computing `(1.0 + d).ln()` directly.
fn ln1p_small() -> &'static [f64; 1024] {
    static LUT: std::sync::OnceLock<[f64; 1024]> = std::sync::OnceLock::new();
    LUT.get_or_init(|| std::array::from_fn(|k| (1.0 + k as f64).ln()))
}

#[inline]
fn ln1p(d: f64) -> f64 {
    let k = d as usize;
    if k < 1024 && k as f64 == d {
        ln1p_small()[k]
    } else {
        (1.0 + d).ln()
    }
}

impl PairSummary {
    /// Creates a summary from a first observation.
    #[must_use]
    pub fn first(kind: ReductionKind, d: f64) -> PairSummary {
        let mut s = PairSummary { acc: 0.0, count: 0 };
        s.observe(kind, d);
        s
    }

    /// Folds one observation into the summary. A summary that already
    /// holds `u32::MAX` observations stops folding: its mean stays where
    /// it is rather than its count wrapping to 0, which would read as
    /// infinitely far.
    #[inline]
    pub fn observe(&mut self, kind: ReductionKind, d: f64) {
        let Some(count) = self.count.checked_add(1) else {
            return;
        };
        let d = d.max(0.0);
        self.acc += match kind {
            ReductionKind::Arithmetic => d,
            ReductionKind::Geometric => ln1p(d),
        };
        self.count = count;
    }

    /// The mean of the observations' terms (`d` arithmetic, `ln(1 + d)`
    /// geometric), which [`PairSummary::distance`] maps back to a
    /// distance; `INFINITY` for a summary with no observations.
    #[inline]
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::INFINITY;
        }
        self.acc / f64::from(self.count)
    }

    /// Current reduced distance.
    #[must_use]
    pub fn distance(&self, kind: ReductionKind) -> f64 {
        Self::distance_of(kind, self.mean())
    }

    /// The distance a mean term maps back to: the mean itself
    /// (arithmetic) or `exp(mean) - 1` (geometric).
    #[inline]
    #[must_use]
    pub(crate) fn distance_of(kind: ReductionKind, mean: f64) -> f64 {
        match kind {
            ReductionKind::Arithmetic => mean,
            ReductionKind::Geometric => mean.exp() - 1.0,
        }
    }

    /// Number of observations folded in.
    #[must_use]
    pub fn count(&self) -> u32 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_mean_is_plain_average() {
        let mut s = PairSummary::first(ReductionKind::Arithmetic, 1.0);
        s.observe(ReductionKind::Arithmetic, 1.0);
        s.observe(ReductionKind::Arithmetic, 1498.0);
        assert!((s.distance(ReductionKind::Arithmetic) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn geometric_mean_weighs_small_values_more() {
        // The paper's motivating example (§3.1.2): distances 1, 1, 1498
        // should look much closer than 500, 500, 500.
        let k = ReductionKind::Geometric;
        let mut close = PairSummary::first(k, 1.0);
        close.observe(k, 1.0);
        close.observe(k, 1498.0);
        let mut far = PairSummary::first(k, 500.0);
        far.observe(k, 500.0);
        far.observe(k, 500.0);
        assert!(
            close.distance(k) < far.distance(k) / 10.0,
            "geometric: {} vs {}",
            close.distance(k),
            far.distance(k)
        );
    }

    #[test]
    fn zero_distances_are_representable() {
        let k = ReductionKind::Geometric;
        let mut s = PairSummary::first(k, 0.0);
        s.observe(k, 0.0);
        assert!(s.distance(k).abs() < 1e-12);
    }

    #[test]
    fn single_observation_round_trips() {
        for k in [ReductionKind::Arithmetic, ReductionKind::Geometric] {
            let s = PairSummary::first(k, 7.0);
            assert!((s.distance(k) - 7.0).abs() < 1e-9, "{k:?}");
        }
    }

    #[test]
    fn negative_observations_clamp_to_zero() {
        let k = ReductionKind::Geometric;
        let s = PairSummary::first(k, -5.0);
        assert!(s.distance(k).abs() < 1e-12);
    }

    #[test]
    fn ln1p_lut_is_bit_identical_to_direct_ln() {
        for k in 0..1024u32 {
            let d = f64::from(k);
            assert_eq!(ln1p(d).to_bits(), (1.0 + d).ln().to_bits(), "d = {d}");
        }
        // Non-integer and out-of-range values fall through to the live ln.
        for d in [0.5, 3.25, 1024.0, 5000.5, 1e12] {
            assert_eq!(ln1p(d).to_bits(), (1.0 + d).ln().to_bits(), "d = {d}");
        }
    }

    /// A summary at the largest count keeps its mean when folded again,
    /// where the count used to overflow: a panic in a debug build, and in
    /// a release build a wrap to 0 that read as infinitely far.
    #[test]
    fn a_full_count_stops_folding() {
        use seer_trace::codec::{decode_all, Codec};
        for kind in [ReductionKind::Arithmetic, ReductionKind::Geometric] {
            let seen = PairSummary::first(kind, 3.0);
            let mut buf = Vec::new();
            (seen.acc * f64::from(u32::MAX), u32::MAX).encode(&mut buf);
            let mut s: PairSummary = decode_all(&buf).expect("an f64 and a count");
            let before = s.distance(kind);
            assert!(before.is_finite(), "{kind:?}: {before}");
            s.observe(kind, 1_000.0);
            assert_eq!(s.count(), u32::MAX, "{kind:?}");
            assert_eq!(s.distance(kind).to_bits(), before.to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn count_tracks_observations() {
        let mut s = PairSummary::first(ReductionKind::Geometric, 1.0);
        assert_eq!(s.count(), 1);
        s.observe(ReductionKind::Geometric, 2.0);
        assert_eq!(s.count(), 2);
    }
}
