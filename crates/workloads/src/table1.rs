//! The paper's Table 1: the three-task motivating example.

use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// The example task set of Table 1 (all times in microseconds):
///
/// | task | T   | D   | C  | priority |
/// |------|-----|-----|----|----------|
/// | tau1 | 50  | 50  | 10 | 1        |
/// | tau2 | 80  | 80  | 20 | 2        |
/// | tau3 | 100 | 100 | 40 | 3        |
///
/// Rate-monotonic priorities (periods equal deadlines); total utilization
/// 0.85; *just* schedulable — if tau2 ran slightly longer, tau3 would miss
/// its deadline at t = 100 (verified by tests here and in `lpfps-tasks`).
///
/// # Examples
///
/// ```
/// let ts = lpfps_workloads::table1();
/// assert_eq!(ts.len(), 3);
/// assert!((ts.utilization() - 0.85).abs() < 1e-12);
/// ```
pub fn table1() -> TaskSet {
    TaskSet::rate_monotonic(
        "table1",
        vec![
            Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
            Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
            Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
    use lpfps_tasks::task::TaskId;

    #[test]
    fn matches_the_paper_parameters() {
        let ts = table1();
        let t2 = ts.task(TaskId(1));
        assert_eq!(t2.period(), Dur::from_us(80));
        assert_eq!(t2.deadline(), Dur::from_us(80));
        assert_eq!(t2.wcet(), Dur::from_us(20));
        // Priorities in row order, tau1 highest.
        assert!(ts
            .priority(TaskId(0))
            .is_higher_than(ts.priority(TaskId(1))));
        assert!(ts
            .priority(TaskId(1))
            .is_higher_than(ts.priority(TaskId(2))));
    }

    #[test]
    fn just_meets_schedulability() {
        assert!(rta_schedulable(&table1()));
    }

    #[test]
    fn hyperperiod_is_400us() {
        assert_eq!(hyperperiod(&table1()), Some(Dur::from_us(400)));
    }
}
