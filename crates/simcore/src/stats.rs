//! Measurement statistics: the numerical machinery behind every table and
//! figure the reproduction regenerates.

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance/min/max (Welford's algorithm) — numerically
/// stable for the 10⁶-sample series the ModisAzure campaign produces.
#[derive(Debug, Clone)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 for n < 2).
    pub fn std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (NaN-free; infinity if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (parallel sweep reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for OnlineStats {
    /// Same as [`OnlineStats::new`]: min/max start at ±∞, so the first
    /// observation sets both.
    fn default() -> Self {
        Self::new()
    }
}

/// Full-sample collector with exact percentiles (the experiment scales
/// here — ≤ a few 10⁵ samples per series — make exactness affordable).
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    values: Vec<f64>,
}

impl SampleSet {
    /// Empty set.
    pub fn new() -> Self {
        SampleSet { values: Vec::new() }
    }

    /// Pre-sized empty set.
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            values: Vec::with_capacity(n),
        }
    }

    /// Add one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Convenience: record a duration in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.values.push(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation.
    pub fn std(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let ss: f64 = self.values.iter().map(|v| (v - m) * (v - m)).sum();
        (ss / (self.values.len() - 1) as f64).sqrt()
    }

    /// Exact p-quantile by sorting a copy (p in [0,1], linear interpolation).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        quantile_sorted(&sorted, p)
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// Minimum (0 if empty).
    pub fn min(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(f64::INFINITY)
    }

    /// Maximum (0 if empty).
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Fraction of samples ≤ `x` (the empirical CDF evaluated at x).
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v <= x).count() as f64 / self.values.len() as f64
    }

    /// Export the empirical CDF as `(value, cumulative_fraction)` points.
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        sorted
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }

    /// Bucket into a fixed-width histogram over `[lo, hi)`.
    pub fn histogram(&self, lo: f64, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(lo, hi, bins);
        for &v in &self.values {
            h.push(v);
        }
        h
    }

    /// Merge another set's samples into this one.
    pub fn merge(&mut self, other: &SampleSet) {
        self.values.extend_from_slice(&other.values);
    }
}

fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let t = rank - lo as f64;
        sorted[lo] * (1.0 - t) + sorted[hi] * t
    }
}

/// Fixed-width histogram with explicit under/overflow buckets; renders
/// the cumulative plots of Figs 4 and 5.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// `bins` equal-width buckets covering `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0);
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one value.
    pub fn push(&mut self, v: f64) {
        self.total += 1;
        if v < self.lo {
            self.underflow += 1;
        } else if v >= self.hi {
            self.overflow += 1;
        } else {
            let last = self.bins.len() - 1;
            let idx = ((v - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            self.bins[idx.min(last)] += 1;
        }
    }

    /// Total values recorded, including out-of-range.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width of one bucket.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins.len() as f64
    }

    /// Iterate `(bin_upper_edge, count, cumulative_fraction)`.
    pub fn cumulative(&self) -> Vec<(f64, u64, f64)> {
        let mut acc = self.underflow;
        let mut out = Vec::with_capacity(self.bins.len());
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            let edge = self.lo + self.bin_width() * (i + 1) as f64;
            let frac = if self.total == 0 {
                0.0
            } else {
                acc as f64 / self.total as f64
            };
            out.push((edge, c, frac));
        }
        out
    }

    /// Count in bucket `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.bins[i]
    }

    /// Values below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Values at or above the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

/// Per-day counters over virtual time: the aggregation behind Fig 7
/// ("daily percent of task executions with VM timeout").
#[derive(Debug, Clone)]
pub struct DailySeries {
    bucket: SimDuration,
    totals: Vec<u64>,
    hits: Vec<u64>,
}

impl DailySeries {
    /// Day-bucketed series.
    pub fn daily() -> Self {
        Self::with_bucket(SimDuration::from_days(1))
    }

    /// Custom bucket width.
    pub fn with_bucket(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero());
        DailySeries {
            bucket,
            totals: Vec::new(),
            hits: Vec::new(),
        }
    }

    fn bucket_of(&self, t: SimTime) -> usize {
        (t.as_nanos() / self.bucket.as_nanos()) as usize
    }

    fn ensure(&mut self, idx: usize) {
        if idx >= self.totals.len() {
            self.totals.resize(idx + 1, 0);
            self.hits.resize(idx + 1, 0);
        }
    }

    /// Record one event at time `t`; `hit` marks membership in the
    /// numerator class (e.g. "timed out").
    pub fn record(&mut self, t: SimTime, hit: bool) {
        let idx = self.bucket_of(t);
        self.ensure(idx);
        self.totals[idx] += 1;
        if hit {
            self.hits[idx] += 1;
        }
    }

    /// Number of buckets spanned so far.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// `(bucket_index, total, hits, hit_fraction)` rows; buckets with no
    /// events report fraction 0.
    pub fn rows(&self) -> Vec<(usize, u64, u64, f64)> {
        self.totals
            .iter()
            .zip(&self.hits)
            .enumerate()
            .map(|(i, (&t, &h))| {
                let frac = if t == 0 { 0.0 } else { h as f64 / t as f64 };
                (i, t, h, frac)
            })
            .collect()
    }

    /// Largest per-bucket hit fraction (the "up to 16 %" headline of Fig 7).
    pub fn max_fraction(&self) -> f64 {
        self.rows()
            .into_iter()
            .map(|(_, _, _, f)| f)
            .fold(0.0, f64::max)
    }

    /// Hits / totals over all buckets.
    pub fn overall_fraction(&self) -> f64 {
        let t: u64 = self.totals.iter().sum();
        let h: u64 = self.hits.iter().sum();
        if t == 0 {
            0.0
        } else {
            h as f64 / t as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample std with n-1: sqrt(32/7).
        assert!((s.std() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default().min(), f64::INFINITY);
        let mut other = OnlineStats::new();
        for x in [3.0, 5.0, 8.0] {
            other.push(x);
        }
        let (mut a, mut b) = (OnlineStats::default(), OnlineStats::new());
        for s in [&mut a, &mut b] {
            s.push(4.0);
            s.merge(&other);
        }
        assert_eq!(a.min(), 3.0);
        assert_eq!(
            (a.count(), a.mean(), a.std(), a.min(), a.max()),
            (b.count(), b.mean(), b.std(), b.min(), b.max())
        );
    }

    #[test]
    fn online_stats_merge_equals_single_pass() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for i in 0..100 {
            let x = (i as f64).sin() * 10.0;
            whole.push(x);
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std() - whole.std()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zeroish() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = SampleSet::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.push(v);
        }
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(1.0), 40.0);
        assert!((s.median() - 25.0).abs() < 1e-12);
        assert!((s.percentile(0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_at_most_is_cdf() {
        let mut s = SampleSet::new();
        for v in 1..=10 {
            s.push(v as f64);
        }
        assert!((s.fraction_at_most(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction_at_most(0.0), 0.0);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn cdf_export_is_monotone() {
        let mut s = SampleSet::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 3);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for v in [-1.0, 0.0, 1.9, 2.0, 9.99, 10.0, 50.0] {
            h.push(v);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(0), 2); // 0.0, 1.9
        assert_eq!(h.count(1), 1); // 2.0
        assert_eq!(h.count(4), 1); // 9.99
        let cum = h.cumulative();
        assert!((cum.last().unwrap().2 - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn daily_series_fractions() {
        let mut s = DailySeries::daily();
        let day = SimDuration::from_days(1);
        // Day 0: 4 events, 1 hit. Day 2: 2 events, 2 hits. Day 1: empty.
        for i in 0..4 {
            s.record(SimTime::ZERO + SimDuration::from_hours(i), i == 0);
        }
        s.record(SimTime::ZERO + day * 2, true);
        s.record(SimTime::ZERO + day * 2 + SimDuration::from_hours(1), true);
        let rows = s.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (0, 4, 1, 0.25));
        assert_eq!(rows[1], (1, 0, 0, 0.0));
        assert_eq!(rows[2], (2, 2, 2, 1.0));
        assert!((s.max_fraction() - 1.0).abs() < 1e-12);
        assert!((s.overall_fraction() - 0.5).abs() < 1e-12);
    }
}
