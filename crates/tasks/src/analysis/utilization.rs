//! Utilization-based sufficient schedulability tests.

use crate::taskset::TaskSet;

/// The Liu–Layland rate-monotonic bound `n(2^{1/n} - 1)` for `n` tasks.
///
/// A set of `n` implicit-deadline periodic tasks is RM-schedulable if its
/// total utilization does not exceed this bound. The test is sufficient but
/// not necessary; the paper's workloads all *exceed* it and rely on the
/// exact response-time test instead.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::analysis::liu_layland_bound;
///
/// assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
/// assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-4);
/// // The bound decreases towards ln 2 ~ 0.693.
/// assert!(liu_layland_bound(100) > 0.693);
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n > 0, "the Liu-Layland bound is defined for n >= 1");
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Sufficient utilization test: true if the total utilization is within the
/// Liu–Layland bound for the set's size.
///
/// Returning `false` does **not** mean the set is unschedulable; use
/// [`rta_schedulable`](crate::analysis::rta_schedulable) for the exact test.
pub fn utilization_schedulable(ts: &TaskSet) -> bool {
    ts.utilization() <= liu_layland_bound(ts.len()) + 1e-12
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::time::Dur;

    fn set(params: &[(u64, u64)]) -> TaskSet {
        let tasks = params
            .iter()
            .enumerate()
            .map(|(i, &(t, c))| Task::new(format!("t{i}"), Dur::from_us(t), Dur::from_us(c)))
            .collect();
        TaskSet::rate_monotonic("test", tasks)
    }

    #[test]
    fn bound_is_monotonically_decreasing() {
        let mut prev = liu_layland_bound(1);
        for n in 2..50 {
            let b = liu_layland_bound(n);
            assert!(b < prev, "bound must decrease with n");
            prev = b;
        }
        assert!(prev > (2f64).ln());
    }

    #[test]
    fn low_utilization_set_passes() {
        let ts = set(&[(100, 10), (200, 20)]); // U = 0.2
        assert!(utilization_schedulable(&ts));
    }

    #[test]
    fn table1_fails_sufficient_tests_but_exists() {
        // The paper's Table 1 set has U = 0.85 > LL(3) = 0.7797, yet it is
        // schedulable by the exact test — a sufficient test is allowed to
        // say "unknown".
        let ts = set(&[(50, 10), (80, 20), (100, 40)]);
        assert!(!utilization_schedulable(&ts));
    }

    #[test]
    #[should_panic(expected = "n >= 1")]
    fn zero_tasks_rejected() {
        let _ = liu_layland_bound(0);
    }
}
