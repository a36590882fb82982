//! Mergeable streaming statistics.
//!
//! Campaign cells run on different shards and their summaries must merge
//! into exactly the same result regardless of how cells were grouped.
//! Welford mean/variance ([`OnlineStats`]) already merges exactly in
//! that sense; what was missing is a percentile sketch whose merge is
//! also exact. [`Log2Hist`] provides it: a fixed-bucket base-2
//! logarithmic histogram whose buckets are determined by the *bit
//! pattern* of the sample (the IEEE-754 exponent), so bucketing is
//! platform-independent, and whose merge is plain integer addition —
//! associative, commutative, and byte-deterministic.

pub use simcore::stats::OnlineStats;

/// Number of value buckets in a [`Log2Hist`].
pub const LOG2_BUCKETS: usize = 64;

/// Binary exponents are clamped to `[LOG2_MIN_EXP, LOG2_MIN_EXP +
/// LOG2_BUCKETS)`: bucket `k` covers `[2^(k-32), 2^(k-31))`, i.e. from
/// sub-nanosecond (2⁻³²) to ~4 × 10⁹ (2³¹) — wide enough for every
/// latency/duration/throughput quantity in the reproduction.
pub const LOG2_MIN_EXP: i32 = -32;

/// Fixed-bucket base-2 logarithmic histogram with an exact merge.
///
/// * `push(v)` buckets by `floor(log2(v))` extracted from the float's
///   bit pattern (no libm, no platform variance); zero and negative
///   samples land in a dedicated underflow bucket.
/// * `merge` adds counts bucket-wise — exact, order-independent.
/// * `quantile(p)` returns the geometric midpoint of the bucket holding
///   the `p`-quantile sample: a ≤ ±41 % relative error bound (half a
///   binade), deterministic, and computed without keeping samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Hist {
    counts: [u64; LOG2_BUCKETS],
    /// Samples ≤ 0 (or below 2⁻³²).
    underflow: u64,
    total: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

/// `floor(log2(v))` for a finite positive f64, from the bit pattern.
fn bin_exp(v: f64) -> i32 {
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    if biased == 0 {
        // Subnormal: below 2^-1022, far under the clamp floor anyway.
        i32::MIN / 2
    } else {
        biased - 1023
    }
}

impl Log2Hist {
    /// Empty histogram.
    pub fn new() -> Self {
        Log2Hist {
            counts: [0; LOG2_BUCKETS],
            underflow: 0,
            total: 0,
        }
    }

    fn bucket_of(v: f64) -> Option<usize> {
        if !v.is_finite() || v <= 0.0 {
            return None;
        }
        let e = bin_exp(v) - LOG2_MIN_EXP;
        if e < 0 {
            None
        } else {
            Some((e as usize).min(LOG2_BUCKETS - 1))
        }
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        match Self::bucket_of(v) {
            Some(b) => self.counts[b] += 1,
            None => self.underflow += 1,
        }
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Count in value bucket `k` (covering `[2^(k-32), 2^(k-31))`).
    pub fn bucket(&self, k: usize) -> u64 {
        self.counts[k]
    }

    /// Samples that were zero, negative, non-finite or below 2⁻³².
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Add `other`'s counts into `self`. Exact: merging is integer
    /// addition, so any grouping/order of merges yields identical state.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
    }

    /// The geometric midpoint of the bucket containing the `p`-quantile
    /// sample (`0.0` for an empty histogram or when the quantile falls
    /// in the underflow bucket).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return 0.0;
        }
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let exp = k as i32 + LOG2_MIN_EXP;
                // sqrt(2^e * 2^(e+1)) = 2^(e + 0.5)
                return (2.0f64).powf(exp as f64 + 0.5);
            }
        }
        0.0
    }

    /// The `[lower, upper)` bounds of the bucket containing the
    /// `p`-quantile sample (`(0.0, 0.0)` for an empty histogram or when
    /// the quantile falls in the underflow bucket). Consumers that need
    /// a one-sided guarantee — a keepalive window that must cover at
    /// least the observed gap, a prewarm that must not fire late — take
    /// the conservative edge instead of [`quantile`](Self::quantile)'s
    /// midpoint.
    pub fn quantile_edges(&self, p: f64) -> (f64, f64) {
        if self.total == 0 {
            return (0.0, 0.0);
        }
        let rank = ((p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = self.underflow;
        if rank <= seen {
            return (0.0, 0.0);
        }
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                let exp = k as i32 + LOG2_MIN_EXP;
                return ((2.0f64).powi(exp), (2.0f64).powi(exp + 1));
            }
        }
        (0.0, 0.0)
    }
}

/// [`OnlineStats`] and [`Log2Hist`] over the same sample stream: exact
/// count/mean/std/min/max plus deterministic approximate percentiles,
/// all mergeable across shards.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Welford moments (exact merge).
    pub stats: OnlineStats,
    /// Log₂ histogram (exact merge, approximate quantiles).
    pub hist: Log2Hist,
}

impl Default for StreamSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamSummary {
    /// Empty summary.
    pub fn new() -> Self {
        StreamSummary {
            stats: OnlineStats::new(),
            hist: Log2Hist::new(),
        }
    }

    /// Record one sample into both structures.
    pub fn push(&mut self, v: f64) {
        self.stats.push(v);
        self.hist.push(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Exact mean.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact sample standard deviation.
    pub fn std(&self) -> f64 {
        self.stats.std()
    }

    /// Exact minimum.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// Exact maximum.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Deterministic approximate `p`-quantile (see [`Log2Hist::quantile`]).
    pub fn quantile(&self, p: f64) -> f64 {
        self.hist.quantile(p)
    }

    /// Merge another summary into this one.
    pub fn merge(&mut self, other: &StreamSummary) {
        self.stats.merge(&other.stats);
        self.hist.merge(&other.hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_binades() {
        let mut h = Log2Hist::new();
        // 1.0 and 1.99 share bucket 32 (= [2^0, 2^1)); 2.0 is bucket 33.
        h.push(1.0);
        h.push(1.99);
        h.push(2.0);
        assert_eq!(h.bucket(32), 2);
        assert_eq!(h.bucket(33), 1);
        // Zero and negatives underflow.
        h.push(0.0);
        h.push(-5.0);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn quantile_edges_bracket_the_midpoint() {
        let mut h = Log2Hist::new();
        for v in [0.5, 1.0, 1.5, 3.0, 3.5, 40.0, 700.0] {
            h.push(v);
        }
        for p in [0.05, 0.5, 0.95, 0.99] {
            let (lo, hi) = h.quantile_edges(p);
            let mid = h.quantile(p);
            assert!(lo < mid && mid < hi, "p={p}: {lo} < {mid} < {hi}");
            assert!((hi - 2.0 * lo).abs() < 1e-12, "binade bucket: {lo}..{hi}");
        }
        assert_eq!(Log2Hist::new().quantile_edges(0.5), (0.0, 0.0));
    }

    #[test]
    fn bit_exponent_matches_log2_floor() {
        for v in [1e-9, 3.7e-4, 0.5, 1.0, 1.5, 2.0, 3.0, 1234.5, 9.9e8] {
            assert_eq!(bin_exp(v), v.log2().floor() as i32, "v={v}");
        }
    }

    #[test]
    fn huge_values_clamp_to_top_bucket() {
        let mut h = Log2Hist::new();
        h.push(1e300);
        assert_eq!(h.bucket(LOG2_BUCKETS - 1), 1);
    }

    #[test]
    fn quantile_brackets_the_sample() {
        let mut h = Log2Hist::new();
        for i in 1..=1000 {
            h.push(i as f64);
        }
        // Exact p50 is 500; the bucket midpoint must be within a binade.
        let q = h.quantile(0.5);
        assert!((250.0..1000.0).contains(&q), "p50 ~ {q}");
        let q99 = h.quantile(0.99);
        assert!(q99 >= q, "quantiles must be monotone: {q} .. {q99}");
        assert_eq!(h.quantile(0.0), h.quantile(1e-9));
    }

    #[test]
    fn empty_quantile_is_zero() {
        assert_eq!(Log2Hist::new().quantile(0.5), 0.0);
    }

    proptest! {
        /// Merging in any grouping equals pushing the concatenation:
        /// (A ∪ B) ∪ C == A ∪ (B ∪ C) == one-pass, bucket for bucket.
        #[test]
        fn log2_merge_is_associative(
            a in prop::collection::vec(0.0f64..1e6, 0..50),
            b in prop::collection::vec(0.0f64..1e6, 0..50),
            c in prop::collection::vec(0.0f64..1e6, 0..50),
        ) {
            let hist = |xs: &[f64]| {
                let mut h = Log2Hist::new();
                for &x in xs { h.push(x); }
                h
            };
            let (ha, hb, hc) = (hist(&a), hist(&b), hist(&c));

            let mut left = ha.clone();
            left.merge(&hb);
            left.merge(&hc);

            let mut right_inner = hb.clone();
            right_inner.merge(&hc);
            let mut right = ha.clone();
            right.merge(&right_inner);

            let mut all = a.clone();
            all.extend_from_slice(&b);
            all.extend_from_slice(&c);
            let single = hist(&all);

            prop_assert_eq!(&left, &right);
            prop_assert_eq!(&left, &single);
        }

        /// Welford merge reproduces the one-pass moments to float
        /// round-off, for any split point.
        #[test]
        fn welford_merge_matches_single_pass(
            xs in prop::collection::vec(-1e3f64..1e3, 1..120),
            split in 0usize..120,
        ) {
            let split = split.min(xs.len());
            let mut merged = OnlineStats::new();
            let mut right = OnlineStats::new();
            for &x in &xs[..split] { merged.push(x); }
            for &x in &xs[split..] { right.push(x); }
            merged.merge(&right);

            let mut single = OnlineStats::new();
            for &x in &xs { single.push(x); }

            prop_assert_eq!(merged.count(), single.count());
            prop_assert!((merged.mean() - single.mean()).abs() < 1e-9);
            prop_assert!((merged.std() - single.std()).abs() < 1e-6);
            prop_assert_eq!(merged.min(), single.min());
            prop_assert_eq!(merged.max(), single.max());
        }
    }

    #[test]
    fn stream_summary_round_trip() {
        let mut a = StreamSummary::new();
        let mut b = StreamSummary::new();
        for i in 0..100 {
            a.push(1.0 + i as f64);
        }
        for i in 100..200 {
            b.push(1.0 + i as f64);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 200);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 200.0);
        assert!((m.mean() - 100.5).abs() < 1e-9);
        assert!(m.quantile(0.95) > m.quantile(0.5));
    }
}
