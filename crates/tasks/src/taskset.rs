//! Task sets: a named collection of periodic tasks with a total priority
//! order, the unit of analysis and simulation throughout the workspace.

use crate::priority;
use crate::task::{Priority, Task, TaskId};
use crate::time::Dur;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A set of periodic tasks with an assigned fixed-priority order.
///
/// Priorities are total: every task has a distinct level, so the scheduler's
/// run queue order is unambiguous (ties in rate-monotonic assignment are
/// broken by declaration order, as is conventional).
///
/// # Examples
///
/// ```
/// use lpfps_tasks::{task::Task, taskset::TaskSet, time::Dur};
///
/// // Table 1 of the paper.
/// let ts = TaskSet::rate_monotonic("table1", vec![
///     Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
///     Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
///     Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
/// ]);
/// assert_eq!(ts.len(), 3);
/// assert!((ts.utilization() - 0.85).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSet {
    name: String,
    tasks: Vec<Task>,
    priorities: Vec<Priority>,
}

impl TaskSet {
    /// Creates a task set with explicit priorities (`priorities[i]` belongs
    /// to `tasks[i]`; lower value = higher priority).
    ///
    /// # Panics
    ///
    /// Panics if the set is empty, the lengths differ, or two tasks share a
    /// priority level.
    pub fn with_priorities(
        name: impl Into<String>,
        tasks: Vec<Task>,
        priorities: Vec<Priority>,
    ) -> Self {
        assert!(
            !tasks.is_empty(),
            "a task set must contain at least one task"
        );
        assert_eq!(
            tasks.len(),
            priorities.len(),
            "one priority per task is required"
        );
        let mut seen = priorities.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            priorities.len(),
            "priority levels must be unique within a task set"
        );
        TaskSet {
            name: name.into(),
            tasks,
            priorities,
        }
    }

    /// Creates a task set with rate-monotonic priorities (shorter period =
    /// higher priority; ties broken by declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn rate_monotonic(name: impl Into<String>, tasks: Vec<Task>) -> Self {
        let prios = priority::rate_monotonic(&tasks);
        TaskSet::with_priorities(name, tasks, prios)
    }

    /// Creates a task set with deadline-monotonic priorities (shorter
    /// relative deadline = higher priority; ties broken by declaration
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is empty.
    pub fn deadline_monotonic(name: impl Into<String>, tasks: Vec<Task>) -> Self {
        let prios = priority::deadline_monotonic(&tasks);
        TaskSet::with_priorities(name, tasks, prios)
    }

    /// The set's name (used in reports and traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the set has no tasks (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The number of priority levels carried by the set. Always equals
    /// [`len`](TaskSet::len) for a constructed set, but a deserialized
    /// value can disagree — boundary validation compares the two, since
    /// [`iter`](TaskSet::iter) silently truncates to the shorter vector.
    pub fn priority_count(&self) -> usize {
        self.priorities.len()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The priority of the task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn priority(&self, id: TaskId) -> Priority {
        self.priorities[id.0]
    }

    /// Iterates over `(id, task, priority)` triples in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task, Priority)> + '_ {
        self.tasks
            .iter()
            .zip(&self.priorities)
            .enumerate()
            .map(|(i, (t, &p))| (TaskId(i), t, p))
    }

    /// Task ids sorted from highest priority (lowest level) to lowest.
    pub fn ids_by_priority(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..self.tasks.len()).map(TaskId).collect();
        ids.sort_by_key(|id| self.priorities[id.0]);
        ids
    }

    /// Total worst-case utilization `sum(C_i / T_i)`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(Task::utilization).sum()
    }

    /// The smallest and largest WCET in the set (the paper's Table 2
    /// column). Both are [`Dur::ZERO`] for a (deserialized) empty set.
    pub fn wcet_range(&self) -> (Dur, Dur) {
        let min = self.tasks.iter().map(Task::wcet).min().unwrap_or(Dur::ZERO);
        let max = self.tasks.iter().map(Task::wcet).max().unwrap_or(Dur::ZERO);
        (min, max)
    }

    /// Returns a copy with every task's BCET set to `fraction * WCET` —
    /// the x-axis sweep of the paper's Figure 8.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_bcet_fraction(&self, fraction: f64) -> TaskSet {
        TaskSet {
            name: self.name.clone(),
            tasks: self
                .tasks
                .iter()
                .map(|t| t.with_bcet_fraction(fraction))
                .collect(),
            priorities: self.priorities.clone(),
        }
    }

    /// All tasks in declaration order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({} tasks, U={:.3})",
            self.name,
            self.len(),
            self.utilization()
        )?;
        for (id, t, p) in self.iter() {
            writeln!(f, "  {id} [{p}] {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> TaskSet {
        TaskSet::rate_monotonic(
            "table1",
            vec![
                Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
                Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
            ],
        )
    }

    #[test]
    fn rate_monotonic_orders_by_period() {
        let ts = table1();
        assert!(ts
            .priority(TaskId(0))
            .is_higher_than(ts.priority(TaskId(1))));
        assert!(ts
            .priority(TaskId(1))
            .is_higher_than(ts.priority(TaskId(2))));
        assert_eq!(ts.ids_by_priority(), vec![TaskId(0), TaskId(1), TaskId(2)]);
    }

    #[test]
    fn utilization_sums_tasks() {
        assert!((table1().utilization() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn wcet_range_matches_extremes() {
        let (lo, hi) = table1().wcet_range();
        assert_eq!(lo, Dur::from_us(10));
        assert_eq!(hi, Dur::from_us(40));
    }

    #[test]
    fn bcet_fraction_rescales_every_task() {
        let half = table1().with_bcet_fraction(0.5);
        for (_, t, _) in half.iter() {
            assert_eq!(t.bcet().as_ns() * 2, t.wcet().as_ns());
        }
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_priorities_rejected() {
        let tasks = vec![
            Task::new("a", Dur::from_us(10), Dur::from_us(1)),
            Task::new("b", Dur::from_us(20), Dur::from_us(1)),
        ];
        let _ = TaskSet::with_priorities("bad", tasks, vec![Priority::new(1), Priority::new(1)]);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_set_rejected() {
        let _ = TaskSet::with_priorities("empty", vec![], vec![]);
    }

    #[test]
    fn deadline_monotonic_uses_deadlines() {
        let tasks = vec![
            Task::new("long", Dur::from_us(100), Dur::from_us(5)).with_deadline(Dur::from_us(30)),
            Task::new("short", Dur::from_us(50), Dur::from_us(5)),
        ];
        let ts = TaskSet::deadline_monotonic("dm", tasks);
        // "long" has the shorter deadline (30 < 50), so it gets the higher priority.
        assert!(ts
            .priority(TaskId(0))
            .is_higher_than(ts.priority(TaskId(1))));
    }

    #[test]
    fn iter_yields_in_declaration_order() {
        let ts = table1();
        let names: Vec<&str> = ts.iter().map(|(_, t, _)| t.name()).collect();
        assert_eq!(names, vec!["tau1", "tau2", "tau3"]);
    }

    #[test]
    fn display_lists_all_tasks() {
        let text = table1().to_string();
        assert!(text.contains("table1 (3 tasks, U=0.850)"));
        assert!(text.contains("tau3"));
    }
}
