//! Fixed-priority assignment policies.
//!
//! Rate-monotonic assignment (Liu & Layland) is the paper's choice for all
//! its workloads (periods equal deadlines); deadline-monotonic (Audsley,
//! Burns et al.) generalizes to constrained deadlines and is provably
//! optimal among fixed-priority assignments for them. Both are provided
//! here as pure functions from a task slice to a priority vector, plus a
//! generic "order by key" worker they share.

use crate::task::{Priority, Task};
use crate::time::Dur;

/// Assigns rate-monotonic priorities: shorter period = higher priority.
/// Ties are broken by declaration order (earlier task wins).
///
/// # Examples
///
/// ```
/// use lpfps_tasks::{priority::rate_monotonic, task::Task, time::Dur};
///
/// let tasks = vec![
///     Task::new("slow", Dur::from_us(100), Dur::from_us(1)),
///     Task::new("fast", Dur::from_us(10), Dur::from_us(1)),
/// ];
/// let prios = rate_monotonic(&tasks);
/// assert!(prios[1].is_higher_than(prios[0]));
/// ```
pub fn rate_monotonic(tasks: &[Task]) -> Vec<Priority> {
    by_key(tasks, Task::period)
}

/// Assigns deadline-monotonic priorities: shorter relative deadline =
/// higher priority. Ties are broken by declaration order.
pub fn deadline_monotonic(tasks: &[Task]) -> Vec<Priority> {
    by_key(tasks, Task::deadline)
}

/// Assigns priorities by ascending `key(task)`; ties broken by index.
fn by_key(tasks: &[Task], key: impl Fn(&Task) -> Dur) -> Vec<Priority> {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (key(&tasks[i]), i));
    let mut prios = vec![Priority::HIGHEST; tasks.len()];
    for (level, &i) in order.iter().enumerate() {
        prios[i] = Priority::new(level as u32);
    }
    prios
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(name: &str, period_us: u64, deadline_us: u64) -> Task {
        Task::new(name, Dur::from_us(period_us), Dur::from_us(1))
            .with_deadline(Dur::from_us(deadline_us))
    }

    #[test]
    fn rm_sorts_by_period() {
        let tasks = vec![t("a", 100, 100), t("b", 50, 50), t("c", 80, 80)];
        let p = rate_monotonic(&tasks);
        assert_eq!(
            p,
            vec![Priority::new(2), Priority::new(0), Priority::new(1)]
        );
    }

    #[test]
    fn dm_sorts_by_deadline() {
        let tasks = vec![t("a", 100, 20), t("b", 50, 50), t("c", 80, 30)];
        let p = deadline_monotonic(&tasks);
        assert_eq!(
            p,
            vec![Priority::new(0), Priority::new(2), Priority::new(1)]
        );
    }

    #[test]
    fn ties_break_by_declaration_order() {
        let tasks = vec![t("first", 50, 50), t("second", 50, 50)];
        let p = rate_monotonic(&tasks);
        assert!(p[0].is_higher_than(p[1]));
    }

    #[test]
    fn rm_equals_dm_for_implicit_deadlines() {
        let tasks = vec![t("a", 100, 100), t("b", 50, 50), t("c", 80, 80)];
        assert_eq!(rate_monotonic(&tasks), deadline_monotonic(&tasks));
    }

    #[test]
    fn empty_input_yields_empty_assignment() {
        assert!(rate_monotonic(&[]).is_empty());
    }
}
