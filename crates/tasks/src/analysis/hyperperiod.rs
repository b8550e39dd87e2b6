//! Hyperperiod computation.
//!
//! The hyperperiod (LCM of all periods) is the natural simulation horizon:
//! after one hyperperiod a synchronous periodic schedule repeats exactly.
//! The paper's §2.2 notes that static DVS schedules over the LCM can become
//! impractically long — `hyperperiod` makes that concrete, and the
//! simulation driver caps its horizon accordingly.

use crate::taskset::TaskSet;
use crate::time::Dur;

/// Greatest common divisor (Euclid).
fn gcd(a: u128, b: u128) -> u128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The hyperperiod (least common multiple of all task periods), or `None`
/// if it overflows `u64` nanoseconds (mutually-prime periods can explode —
/// the practical problem the paper raises for static schedules).
///
/// # Examples
///
/// ```
/// use lpfps_tasks::{analysis::hyperperiod, task::Task, taskset::TaskSet, time::Dur};
///
/// let ts = TaskSet::rate_monotonic("t", vec![
///     Task::new("a", Dur::from_us(50), Dur::from_us(1)),
///     Task::new("b", Dur::from_us(80), Dur::from_us(1)),
///     Task::new("c", Dur::from_us(100), Dur::from_us(1)),
/// ]);
/// assert_eq!(hyperperiod(&ts), Some(Dur::from_us(400)));
/// ```
pub fn hyperperiod(ts: &TaskSet) -> Option<Dur> {
    let mut lcm: u128 = 1;
    for (_, t, _) in ts.iter() {
        let p = t.period().as_ns() as u128;
        lcm = lcm / gcd(lcm, p) * p;
        if lcm > u64::MAX as u128 {
            return None;
        }
    }
    Some(Dur::from_ns(lcm as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn set(periods_us: &[u64]) -> TaskSet {
        let tasks = periods_us
            .iter()
            .enumerate()
            .map(|(i, &p)| Task::new(format!("t{i}"), Dur::from_us(p), Dur::from_us(1)))
            .collect();
        TaskSet::rate_monotonic("test", tasks)
    }

    #[test]
    fn lcm_of_table1_periods() {
        assert_eq!(hyperperiod(&set(&[50, 80, 100])), Some(Dur::from_us(400)));
    }

    #[test]
    fn harmonic_periods_lcm_is_largest() {
        assert_eq!(hyperperiod(&set(&[10, 20, 40])), Some(Dur::from_us(40)));
    }

    #[test]
    fn mutually_prime_periods_multiply() {
        assert_eq!(hyperperiod(&set(&[7, 11, 13])), Some(Dur::from_us(1001)));
    }

    #[test]
    fn overflow_is_reported_not_panicked() {
        // Periods chosen as large mutually-prime microsecond counts whose
        // LCM in nanoseconds exceeds u64.
        let ts = set(&[999_999_937, 999_999_893, 999_999_883]);
        assert_eq!(hyperperiod(&ts), None);
    }
}
