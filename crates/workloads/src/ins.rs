//! The INS workload: an inertial navigation system.
//!
//! Source: A. Burns, K. Tindell, A. Wellings, *Effective analysis for
//! engineering real-time fixed priority schedulers*, IEEE TSE 1995 — the
//! citation behind the paper's "INS" row of Table 2 (6 tasks, WCETs
//! 1 180–100 280 µs).
//!
//! The paper's §4 pins down the structure precisely: total utilization
//! **0.736**, dominated by one task at utilization **0.472** with period
//! **2 500 µs** (the attitude updater — highest rate, hence highest RM
//! priority), the other five spread between 0.02 and 0.1 with much longer
//! periods. The reconstruction below satisfies *all* of those published
//! constraints simultaneously, including the exact WCET range of Table 2:
//!
//! | task             | C (µs)  | T (µs)    | U       |
//! |------------------|---------|-----------|---------|
//! | attitude_updater | 1 180   | 2 500     | 0.472   |
//! | velocity_updater | 4 000   | 40 000    | 0.100   |
//! | attitude_sender  | 4 000   | 62 500    | 0.064   |
//! | navigation_update| 6 000   | 200 000   | 0.030   |
//! | position_sender  | 20 000  | 1 000 000 | 0.020   |
//! | status_sender    | 100 280 | 2 000 000 | 0.05014 |
//!
//! Total: 0.73614. Hyperperiod: 2 s.
//!
//! This is the workload where the paper reports LPFPS's best result (up to
//! 62 % power reduction): the run queue is empty most of the time while
//! the heavily loaded attitude updater runs, giving DVS constant traction.

use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// Builds the 6-task INS set with rate-monotonic priorities.
///
/// # Examples
///
/// ```
/// let ts = lpfps_workloads::ins();
/// assert_eq!(ts.len(), 6);
/// assert!((ts.utilization() - 0.736).abs() < 0.001);
/// ```
pub fn ins() -> TaskSet {
    let params: [(&str, u64, u64); 6] = [
        ("attitude_updater", 2_500, 1_180),
        ("velocity_updater", 40_000, 4_000),
        ("attitude_sender", 62_500, 4_000),
        ("navigation_update", 200_000, 6_000),
        ("position_sender", 1_000_000, 20_000),
        ("status_sender", 2_000_000, 100_280),
    ];
    let tasks = params
        .iter()
        .map(|&(name, t, c)| Task::new(name, Dur::from_us(t), Dur::from_us(c)))
        .collect();
    TaskSet::rate_monotonic("ins", tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
    use lpfps_tasks::task::TaskId;

    #[test]
    fn matches_table2_summary() {
        let ts = ins();
        assert_eq!(ts.len(), 6);
        let (lo, hi) = ts.wcet_range();
        assert_eq!(lo, Dur::from_us(1_180));
        assert_eq!(hi, Dur::from_us(100_280));
    }

    #[test]
    fn matches_the_papers_utilization_structure() {
        let ts = ins();
        assert!(
            (ts.utilization() - 0.736).abs() < 0.001,
            "U = {}",
            ts.utilization()
        );
        // Dominant task: U = 0.472 at T = 2500 us, highest priority.
        let dom = ts.task(TaskId(0));
        assert!((dom.utilization() - 0.472).abs() < 1e-9);
        assert_eq!(dom.period(), Dur::from_us(2_500));
        assert_eq!(ts.priority(TaskId(0)).level(), 0);
        // The rest sit in [0.02, 0.1].
        for (id, t, _) in ts.iter().skip(1) {
            let u = t.utilization();
            assert!((0.02..=0.1).contains(&u), "{id} utilization {u}");
        }
    }

    #[test]
    fn rate_monotonic_schedulable() {
        assert!(rta_schedulable(&ins()));
    }

    #[test]
    fn hyperperiod_is_two_seconds() {
        assert_eq!(hyperperiod(&ins()), Some(Dur::from_secs(2)));
    }
}
