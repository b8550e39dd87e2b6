//! Deterministic fixed-bucket log-scale histograms.
//!
//! The sweep engine needs percentile metrics (response times, per-job
//! energies, per-cell wall times) that are **byte-identical across thread
//! counts**. Floating-point accumulation cannot give that — addition
//! order varies with scheduling — so these histograms hold nothing but
//! `u64` bucket counts: merging two histograms is element-wise integer
//! addition, which is exactly associative and commutative. Any partition
//! of the cells into any number of workers, merged in any order, yields
//! the same bucket vector and therefore the same percentiles, bit for
//! bit (`obs_free_prop.rs` proves the algebra over arbitrary partitions).
//!
//! # Bucket scheme
//!
//! HDR-style: values below 2^[`SUB_BITS`] get exact unit buckets; above
//! that, each power-of-two octave splits into 2^[`SUB_BITS`] equal-width
//! sub-buckets, giving a bounded relative error of `2^-SUB_BITS`
//! (~3 % at the default of 5) across the whole `u64` range in
//! [`BUCKETS`] (1 920) buckets. Percentiles report the *lower bound* of
//! the selected bucket (clamped into the observed `[min, max]`), so they
//! are pure functions of the bucket counts.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 5;

const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range.
pub const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * (SUB as usize);

/// The bucket index of a value. Monotone: `a <= b` implies
/// `bucket_of(a) <= bucket_of(b)`.
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let offset = (v >> shift) - SUB;
        ((u64::from(shift) + 1) * SUB + offset) as usize
    }
}

/// The smallest value that lands in bucket `i` (inverse of [`bucket_of`]).
fn bucket_floor(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let shift = (i / SUB - 1) as u32;
        (SUB + i % SUB) << shift
    }
}

/// A log-scale histogram of `u64` samples with an exactly associative,
/// commutative merge. See the module docs for the bucket scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] = self.counts[bucket_of(v)].saturating_add(1);
        self.total = self.total.saturating_add(1);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.max
        }
    }

    /// The exact smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Folds `other` into `self`: element-wise `u64` addition plus
    /// min/max/count combination — exactly associative and commutative,
    /// so any merge tree over any partition of the samples produces the
    /// identical histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.total = self.total.saturating_add(other.total);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `num/den` (e.g. `(1, 2)` = median,
    /// `(99, 100)` = p99): the lower bound of the first bucket whose
    /// cumulative count reaches `ceil(count * num / den)`, clamped into
    /// the observed `[min, max]`. Integer arithmetic throughout — a pure
    /// function of the bucket counts. Returns 0 on an empty histogram.
    fn quantile(&self, num: u64, den: u64) -> u64 {
        if self.is_empty() || den == 0 {
            return 0;
        }
        let target = ((u128::from(self.total) * u128::from(num)).div_ceil(u128::from(den))).max(1);
        if target >= u128::from(self.total) {
            return self.max;
        }
        let mut cum: u128 = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += u128::from(c);
            if cum >= target {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The serializable percentile summary of this histogram.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count(),
            p50: self.quantile(1, 2),
            p95: self.quantile(19, 20),
            p99: self.quantile(99, 100),
            max: self.max(),
        }
    }
}

/// Percentiles of a [`LogHistogram`], the form that reaches `--json` and
/// `--metrics` payloads. Every field is an integer derived from bucket
/// counts, so summaries of merged histograms are byte-identical across
/// any cell partition (the `--threads` invariance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (bucket lower bound; ~3 % relative error).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum sample.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_floors_invert() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64u32 {
            for nudge in [0u64, 1, 3] {
                values.push((1u64 << exp).saturating_add(nudge));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let b = bucket_of(v);
            assert!(b >= last, "bucket regressed at {v}");
            last = b;
            assert!(bucket_floor(b) <= v, "floor above value at {v}");
            assert_eq!(
                bucket_of(bucket_floor(b)),
                b,
                "floor left its own bucket at {v}"
            );
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_is_bounded() {
        // The bucket floor is never more than 2^-SUB_BITS below the value.
        for v in [100u64, 1_000, 12_345, 1 << 20, (1 << 40) + 987_654] {
            let floor = bucket_floor(bucket_of(v));
            let err = (v - floor) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "error {err} at {v}");
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        let p50 = h.quantile(1, 2);
        assert!((480..=500).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(99, 100);
        assert!((960..=990).contains(&p99), "p99 = {p99}");
        // p100 equals the exact max.
        assert_eq!(h.quantile(1, 1), 1000);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = LogHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 700, 1 << 30]);
        let b = mk(&[0, 0, 42]);
        let c = mk(&[u64::MAX, 9999]);
        // (a + b) + c == a + (b + c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a + b == b + a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Merged summary equals the summary of recording everything into one.
        let whole = mk(&[1, 5, 700, 1 << 30, 0, 0, 42, u64::MAX, 9999]);
        assert_eq!(left.summary(), whole.summary());
    }

    #[test]
    fn empty_histogram_summarizes_to_zeros() {
        let h = LogHistogram::new();
        let s = h.summary();
        assert_eq!(
            s,
            HistSummary {
                count: 0,
                p50: 0,
                p95: 0,
                p99: 0,
                max: 0
            }
        );
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30_000] {
            h.record(v);
        }
        let s = h.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
