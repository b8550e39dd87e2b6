//! Interval statistics: distribution summaries of idle gaps.
//!
//! The economics of power-down depend on the *length distribution* of idle
//! intervals, not just their sum — the paper's §2.1 argument against
//! timeout shutdown is exactly that short, intermittent gaps defeat it.
//! The kernel records every interval during which no task was runnable.

use crate::steady::{grow, grow_dur};
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// Summary statistics over a stream of time intervals.
///
/// # Examples
///
/// ```
/// use lpfps_kernel::stats::IntervalStats;
/// use lpfps_tasks::time::Dur;
///
/// let mut s = IntervalStats::new();
/// s.record(Dur::from_us(10));
/// s.record(Dur::from_us(30));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.mean(), Dur::from_us(20));
/// assert_eq!(s.max(), Dur::from_us(30));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalStats {
    count: u64,
    total: Dur,
    min: Dur,
    max: Dur,
}

impl IntervalStats {
    /// Creates an empty summary.
    pub fn new() -> Self {
        IntervalStats::default()
    }

    /// Records one interval (zero-length intervals are ignored).
    pub fn record(&mut self, d: Dur) {
        if d.is_zero() {
            return;
        }
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.total += d;
    }

    /// Number of recorded intervals.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all intervals.
    pub fn total(&self) -> Dur {
        self.total
    }

    /// Shortest recorded interval (zero if none).
    pub fn min(&self) -> Dur {
        self.min
    }

    /// Longest recorded interval (zero if none).
    pub fn max(&self) -> Dur {
        self.max
    }

    /// Mean interval length (zero if none).
    pub fn mean(&self) -> Dur {
        if self.count == 0 {
            Dur::ZERO
        } else {
            self.total / self.count
        }
    }

    /// The summary after `k` more copies of the per-cycle delta
    /// (`self - baseline`) — the steady-state fast-forward's extrapolation
    /// step; `None` on overflow. `min`/`max` are already correct: later
    /// cycles repeat the same interval lengths, so the extremes were
    /// absorbed during the recorded cycle.
    pub(crate) fn extrapolate_from(&self, baseline: &IntervalStats, k: u64) -> Option<Self> {
        Some(IntervalStats {
            count: grow(self.count, baseline.count, k)?,
            total: grow_dur(self.total, baseline.total, k)?,
            ..*self
        })
    }
}

impl core::fmt::Display for IntervalStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.count == 0 {
            write!(f, "none")
        } else {
            write!(
                f,
                "n={} total={} mean={} min={} max={}",
                self.count,
                self.total,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

/// Number of in-deadline buckets in a [`ResponseHistogram`].
const RESPONSE_BUCKETS: usize = 20;

/// A fixed-bucket histogram of response times measured as a fraction of
/// the deadline: bucket `k` of `BUCKETS` covers
/// `[k/BUCKETS, (k+1)/BUCKETS)` of the deadline, with one overflow bucket
/// for misses (`>= 1.0`). Profiles *how much* margin jobs finish with —
/// the distributional view behind LPFPS's slack-reclaiming argument.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseHistogram {
    buckets: [u64; RESPONSE_BUCKETS],
    misses: u64,
}

impl ResponseHistogram {
    /// Number of in-deadline buckets.
    pub const BUCKETS: usize = RESPONSE_BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        ResponseHistogram {
            buckets: [0; RESPONSE_BUCKETS],
            misses: 0,
        }
    }

    /// Records one completion with the given response and deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn record(&mut self, response: Dur, deadline: Dur) {
        assert!(!deadline.is_zero(), "deadlines are positive");
        if response >= deadline {
            self.misses += 1;
            return;
        }
        let idx =
            (response.as_ns() as u128 * Self::BUCKETS as u128 / deadline.as_ns() as u128) as usize;
        self.buckets[idx.min(Self::BUCKETS - 1)] += 1;
    }

    /// Jobs recorded in bucket `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= BUCKETS`.
    pub fn bucket(&self, k: usize) -> u64 {
        self.buckets[k]
    }

    /// Jobs that completed at or past their deadline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total recorded jobs.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.misses
    }

    /// The histogram after `k` more copies of the per-cycle delta
    /// (`self - baseline`) in every bucket and the miss count — the
    /// steady-state fast-forward's extrapolation step (each skipped cycle
    /// records exactly the same response-to-deadline fractions as the
    /// observed one); `None` on overflow.
    pub(crate) fn extrapolate_from(&self, baseline: &ResponseHistogram, k: u64) -> Option<Self> {
        let mut next = self.clone();
        for (b, &base) in next.buckets.iter_mut().zip(&baseline.buckets) {
            *b = grow(*b, base, k)?;
        }
        next.misses = grow(self.misses, baseline.misses, k)?;
        Some(next)
    }
}

impl Default for ResponseHistogram {
    fn default() -> Self {
        ResponseHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_read_zero() {
        let s = IntervalStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), Dur::ZERO);
        assert_eq!(s.to_string(), "none");
    }

    #[test]
    fn zero_intervals_are_ignored() {
        let mut s = IntervalStats::new();
        s.record(Dur::ZERO);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn extremes_and_mean_track_inputs() {
        let mut s = IntervalStats::new();
        for us in [5u64, 100, 20] {
            s.record(Dur::from_us(us));
        }
        assert_eq!(s.min(), Dur::from_us(5));
        assert_eq!(s.max(), Dur::from_us(100));
        assert_eq!(s.total(), Dur::from_us(125));
        assert_eq!(s.mean(), Dur::from_ns(41_666));
    }

    #[test]
    fn display_summarizes() {
        let mut s = IntervalStats::new();
        s.record(Dur::from_us(10));
        assert_eq!(s.to_string(), "n=1 total=10us mean=10us min=10us max=10us");
    }

    #[test]
    fn histogram_buckets_by_deadline_fraction() {
        let mut h = ResponseHistogram::new();
        let d = Dur::from_us(100);
        h.record(Dur::from_us(1), d); // bucket 0
        h.record(Dur::from_us(52), d); // bucket 10
        h.record(Dur::from_us(99), d); // bucket 19
        h.record(Dur::from_us(100), d); // miss (>= deadline)
        assert_eq!(h.bucket(0), 1);
        assert_eq!(h.bucket(10), 1);
        assert_eq!(h.bucket(19), 1);
        assert_eq!(h.misses(), 1);
        assert_eq!(h.total(), 4);
    }
}
