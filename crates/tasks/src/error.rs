//! Typed validation errors for the task model.
//!
//! Every structural rule that [`Task::new`](crate::task::Task::new), its
//! `with_*` builders and
//! [`TaskSet::with_priorities`](crate::taskset::TaskSet::with_priorities)
//! enforce with an `assert!` has a variant here, and one fallible check
//! produces them all: [`validate_task_set`]. Each rule is therefore
//! written twice, with two jobs. The `assert!`s are the precondition of
//! literal, known-good task sets (the paper's tables, generated sets).
//! [`validate_task_set`] is the typed check of everything else: because
//! [`TaskSet`] implements `Deserialize`, a malformed set can exist
//! *without ever passing through a constructor*, so every consumer that
//! must not panic (the simulation kernel, the oracle, `simulate
//! --taskset`, the multicore partitioner) runs it at its boundary.

use crate::task::Task;
use crate::taskset::TaskSet;
use crate::time::Dur;
use core::fmt;

/// The largest admissible value (in nanoseconds) for any per-task time
/// parameter (period, deadline, WCET, BCET, phase) and for simulation
/// horizons.
///
/// With every operand bounded by `u64::MAX / 4`, any sum of two in-range
/// quantities — `release + period`, `now + deadline`, `horizon + phase` —
/// stays below `u64::MAX / 2` and provably cannot overflow `u64`
/// nanoseconds. This single bound is what lets the kernel downgrade its
/// internal overflow checks to `debug_assert!`s once inputs are validated.
pub const MAX_TIME_PARAM_NS: u64 = u64::MAX / 4;

/// The largest admissible time parameter, as a [`Dur`].
pub const MAX_TIME_PARAM: Dur = Dur::from_ns(MAX_TIME_PARAM_NS);

/// Why a task or task set failed validation.
///
/// The `Display` form of each variant is stable: error-message snapshot
/// tests pin the exact strings so CLI and JSON diagnostics do not drift
/// across refactors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TaskSetError {
    /// The set contains no tasks.
    Empty,
    /// A task's period is zero.
    ZeroPeriod {
        /// The offending task's name.
        task: String,
    },
    /// A task's WCET is zero.
    ZeroWcet {
        /// The offending task's name.
        task: String,
    },
    /// A task's WCET exceeds its period (`C > T`): the task is
    /// over-utilized on its own and can never be schedulable.
    WcetExceedsPeriod {
        /// The offending task's name.
        task: String,
    },
    /// A task's relative deadline is zero, below its WCET, or beyond its
    /// period (the kernel's at-most-one-live-job model needs `D <= T`).
    BadDeadline {
        /// The offending task's name.
        task: String,
    },
    /// A task's BCET is zero or exceeds its WCET.
    BadBcet {
        /// The offending task's name.
        task: String,
    },
    /// A time parameter is so large that release arithmetic could overflow
    /// `u64` nanoseconds (see [`MAX_TIME_PARAM_NS`]).
    TimeParamTooLarge {
        /// The offending task's name.
        task: String,
        /// Which parameter overflowed the bound.
        field: &'static str,
    },
    /// `tasks.len() != priorities.len()`.
    PriorityCountMismatch {
        /// Number of tasks supplied.
        tasks: usize,
        /// Number of priorities supplied.
        priorities: usize,
    },
    /// Two tasks share a priority level; the dispatch order would be
    /// ambiguous.
    DuplicatePriority {
        /// The duplicated level.
        level: u32,
    },
}

impl fmt::Display for TaskSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskSetError::Empty => write!(f, "task set is empty"),
            TaskSetError::ZeroPeriod { task } => {
                write!(f, "task `{task}`: period must be positive")
            }
            TaskSetError::ZeroWcet { task } => {
                write!(f, "task `{task}`: WCET must be positive")
            }
            TaskSetError::WcetExceedsPeriod { task } => {
                write!(f, "task `{task}`: WCET exceeds its period")
            }
            TaskSetError::BadDeadline { task } => {
                write!(
                    f,
                    "task `{task}`: deadline must lie between the WCET and the period"
                )
            }
            TaskSetError::BadBcet { task } => {
                write!(
                    f,
                    "task `{task}`: BCET must be positive and at most the WCET"
                )
            }
            TaskSetError::TimeParamTooLarge { task, field } => {
                write!(
                    f,
                    "task `{task}`: {field} exceeds the representable time bound"
                )
            }
            TaskSetError::PriorityCountMismatch { tasks, priorities } => {
                write!(f, "task set has {tasks} tasks but {priorities} priorities")
            }
            TaskSetError::DuplicatePriority { level } => {
                write!(
                    f,
                    "priority level {level} is assigned to more than one task"
                )
            }
        }
    }
}

impl std::error::Error for TaskSetError {}

/// Checks one task against the structural rules, without constructing
/// anything: the per-task half of [`validate_task_set`].
fn validate_task(task: &Task) -> Result<(), TaskSetError> {
    let name = || task.name().to_string();
    if task.period().is_zero() {
        return Err(TaskSetError::ZeroPeriod { task: name() });
    }
    if task.wcet().is_zero() {
        return Err(TaskSetError::ZeroWcet { task: name() });
    }
    if task.wcet() > task.period() {
        return Err(TaskSetError::WcetExceedsPeriod { task: name() });
    }
    if task.deadline().is_zero() || task.deadline() < task.wcet() || task.deadline() > task.period()
    {
        return Err(TaskSetError::BadDeadline { task: name() });
    }
    if task.bcet().is_zero() || task.bcet() > task.wcet() {
        return Err(TaskSetError::BadBcet { task: name() });
    }
    for (field, value) in [
        ("period", task.period()),
        ("deadline", task.deadline()),
        ("phase", task.phase()),
    ] {
        if value > MAX_TIME_PARAM {
            return Err(TaskSetError::TimeParamTooLarge {
                task: name(),
                field,
            });
        }
    }
    Ok(())
}

/// Checks a whole (possibly deserialized) task set: non-empty, every task
/// structurally valid, priorities total and unique.
///
/// This is the boundary check the simulation kernel runs before trusting a
/// set; after it passes, every `assert!` in the constructors is provably
/// unreachable for this value.
pub fn validate_task_set(ts: &TaskSet) -> Result<(), TaskSetError> {
    if ts.is_empty() {
        return Err(TaskSetError::Empty);
    }
    // A deserialized set can carry mismatched vectors; `iter()` zips and
    // would silently truncate, leaving the surplus tasks unvalidated.
    if ts.len() != ts.priority_count() {
        return Err(TaskSetError::PriorityCountMismatch {
            tasks: ts.len(),
            priorities: ts.priority_count(),
        });
    }
    for (_, task, _) in ts.iter() {
        validate_task(task)?;
    }
    let mut levels: Vec<u32> = ts.iter().map(|(_, _, p)| p.level()).collect();
    levels.sort_unstable();
    if let Some(w) = levels.windows(2).find(|w| w[0] == w[1]) {
        return Err(TaskSetError::DuplicatePriority { level: w[0] });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;
    use crate::taskset::TaskSet;

    #[test]
    fn valid_paper_set_passes() {
        let ts = TaskSet::rate_monotonic(
            "table1",
            vec![
                Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
            ],
        );
        assert_eq!(validate_task_set(&ts), Ok(()));
    }

    #[test]
    fn deserialized_malformed_set_is_caught() {
        // Serde bypasses the constructors entirely: a zero-period task can
        // exist in memory. The boundary check must catch it.
        let json = r#"{
            "name": "hostile",
            "tasks": [{
                "name": "z", "period": 0, "deadline": 0,
                "wcet": 0, "bcet": 0, "phase": 0
            }],
            "priorities": [0]
        }"#;
        let ts: TaskSet = serde_json::from_str(json).unwrap();
        assert_eq!(
            validate_task_set(&ts),
            Err(TaskSetError::ZeroPeriod { task: "z".into() })
        );
    }

    #[test]
    fn duplicate_priorities_are_caught_post_hoc() {
        let json = r#"{
            "name": "dup",
            "tasks": [
                {"name": "a", "period": 1000, "deadline": 1000, "wcet": 100, "bcet": 100, "phase": 0},
                {"name": "b", "period": 2000, "deadline": 2000, "wcet": 100, "bcet": 100, "phase": 0}
            ],
            "priorities": [3, 3]
        }"#;
        let ts: TaskSet = serde_json::from_str(json).unwrap();
        assert_eq!(
            validate_task_set(&ts),
            Err(TaskSetError::DuplicatePriority { level: 3 })
        );
    }

    #[test]
    fn oversized_parameters_are_rejected() {
        let json = format!(
            r#"{{
                "name": "huge",
                "tasks": [{{
                    "name": "h", "period": {p}, "deadline": {p},
                    "wcet": 10, "bcet": 10, "phase": 0
                }}],
                "priorities": [0]
            }}"#,
            p = u64::MAX / 2
        );
        let ts: TaskSet = serde_json::from_str(&json).unwrap();
        assert_eq!(
            validate_task_set(&ts),
            Err(TaskSetError::TimeParamTooLarge {
                task: "h".into(),
                field: "period"
            })
        );
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(TaskSetError::Empty.to_string(), "task set is empty");
        assert_eq!(
            TaskSetError::ZeroPeriod { task: "x".into() }.to_string(),
            "task `x`: period must be positive"
        );
        assert_eq!(
            TaskSetError::DuplicatePriority { level: 7 }.to_string(),
            "priority level 7 is assigned to more than one task"
        );
    }
}
