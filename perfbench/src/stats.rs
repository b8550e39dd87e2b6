//! Order statistics over host-time samples.

/// The percentile ladder a tail is chosen from. There is one cell sample
/// per cell of a batch, so each workload always lands on the same rung;
/// the ladder stops at p99.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 80.0, 90.0, 95.0, 99.0];

/// The median of `values` (mean of the middle pair for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted slice, with the number
/// of samples strictly beyond the chosen rank.
fn percentile(sorted: &[u64], pct: f64) -> (u64, usize) {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    (sorted[idx], sorted.len() - idx - 1)
}

/// A tail latency: the highest ladder percentile with at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `99.0`).
    pub pct: f64,
    /// Its value.
    pub value: u64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Samples in the whole distribution.
    pub samples: usize,
}

/// The tail of `samples` per [`TAIL_LADDER`]; `None` when even the median
/// has fewer than ten samples beyond it.
pub fn tail(samples: &[u64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    TAIL_LADDER.iter().rev().find_map(|&pct| {
        let (value, beyond) = percentile(&sorted, pct);
        (beyond >= 10).then_some(Tail {
            pct,
            value,
            beyond,
            samples: sorted.len(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_states_its_percentile_and_sample_count() {
        let samples: Vec<u64> = (1..=2000).collect();
        let t = tail(&samples).expect("2000 samples qualify");
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 1980);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_falls_back_to_a_lower_percentile_on_small_samples() {
        // 100 samples: p99 and p95 leave 1 and 5 beyond, p90 leaves 10.
        let samples: Vec<u64> = (1..=100).collect();
        let t = tail(&samples).expect("p90 qualifies");
        assert_eq!(t.pct, 90.0);
        assert!(t.beyond >= 10);
        assert!(tail(&[1, 2, 3]).is_none());
    }
}
