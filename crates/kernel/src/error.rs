//! The simulation kernel's typed error taxonomy.
//!
//! Everything that can go wrong at the `simulate*` boundary is a variant
//! of [`SimError`]: malformed task sets and processor specs (delegated to
//! the owning crates' validators), impossible configurations, time
//! arithmetic that would leave the representable range, an exhausted
//! cooperative event budget, policies issuing illegal directives, and
//! — as a last resort — internal invariant breaches that would previously
//! have aborted the process.
//!
//! Inputs that pass validation run exactly as before, byte for byte: the
//! taxonomy only replaces aborts, never behavior. Each variant maps to a
//! stable [`SimError::kind`] slug so sweep runners can aggregate failures
//! per kind without parsing prose.

use core::fmt;
use lpfps_cpu::error::CpuSpecError;
use lpfps_tasks::error::TaskSetError;
use lpfps_tasks::time::Time;

/// How far a budget-limited run got before it was cut off: the partial
/// progress the caller can report instead of a silent hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PartialDiagnostic {
    /// Simulated time reached.
    pub sim_time: Time,
    /// Decision points handled.
    pub events: u64,
    /// Energy segments integrated.
    pub segments: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Deadline misses recorded so far.
    pub deadline_misses: usize,
}

impl fmt::Display for PartialDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={}, {} events, {} segments, {} completions, {} misses",
            self.sim_time, self.events, self.segments, self.completions, self.deadline_misses
        )
    }
}

/// Why a simulation could not run (or finish).
///
/// `Display` strings are stable (pinned by error-message snapshot tests);
/// [`SimError::kind`] gives a machine-stable slug per variant.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The task set failed validation (zero period, `C > T`, ...).
    TaskSet(TaskSetError),
    /// The processor spec failed validation (empty ladder, bad ramp, ...).
    CpuSpec(CpuSpecError),
    /// The simulation configuration is impossible (zero horizon, zero
    /// tick, ...).
    InvalidConfig {
        /// What rule the configuration broke.
        reason: String,
    },
    /// A time quantity left the representable range (e.g. a horizon beyond
    /// [`MAX_TIME_PARAM`](lpfps_tasks::error::MAX_TIME_PARAM)).
    TimeOverflow {
        /// Which quantity overflowed.
        what: &'static str,
    },
    /// The cooperative event budget
    /// ([`SimConfig::max_events`](crate::engine::SimConfig::max_events))
    /// ran out before the horizon; the run is cut off with partial
    /// progress attached.
    BudgetExhausted {
        /// The configured limit.
        limit: u64,
        /// Progress at the moment the budget tripped.
        diagnostic: PartialDiagnostic,
    },
    /// A power policy issued a directive the kernel must refuse
    /// (power-down with runnable work, an off-ladder frequency, ...).
    InvalidDirective {
        /// What rule the directive broke.
        reason: &'static str,
    },
    /// An engine invariant failed. Reaching this is a kernel bug — the
    /// typed surface exists so embedding processes survive it.
    InternalInvariant {
        /// The invariant that did not hold.
        what: &'static str,
    },
    /// A multiprocessor partitioner could not place every task on a core
    /// (no capacity left, a task heavier than one core, RTA admission
    /// refused everywhere). Carried as rendered prose so the kernel stays
    /// independent of the partitioning layer; the structured original is
    /// `lpfps_multi::PartitionError`.
    Partition {
        /// The rendered partitioning failure.
        reason: String,
    },
}

impl SimError {
    /// A stable machine-readable slug for the variant, used by sweep
    /// runners to aggregate failures per kind.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::TaskSet(_) => "invalid-task-set",
            SimError::CpuSpec(_) => "invalid-cpu-spec",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::TimeOverflow { .. } => "time-overflow",
            SimError::BudgetExhausted { .. } => "budget-exhausted",
            SimError::InvalidDirective { .. } => "invalid-directive",
            SimError::InternalInvariant { .. } => "internal-invariant",
            SimError::Partition { .. } => "invalid-partition",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TaskSet(e) => write!(f, "invalid task set: {e}"),
            SimError::CpuSpec(e) => write!(f, "invalid processor spec: {e}"),
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid simulation config: {reason}")
            }
            SimError::TimeOverflow { what } => {
                write!(f, "time overflow: {what} exceeds the representable range")
            }
            SimError::BudgetExhausted { limit, diagnostic } => write!(
                f,
                "event budget of {limit} exhausted before the horizon ({diagnostic})"
            ),
            SimError::InvalidDirective { reason } => {
                write!(f, "illegal power directive: {reason}")
            }
            SimError::InternalInvariant { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            SimError::Partition { reason } => {
                write!(f, "partitioning failed: {reason}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::TaskSet(e) => Some(e),
            SimError::CpuSpec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TaskSetError> for SimError {
    fn from(e: TaskSetError) -> Self {
        SimError::TaskSet(e)
    }
}

impl From<CpuSpecError> for SimError {
    fn from(e: CpuSpecError) -> Self {
        SimError::CpuSpec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        let errs = [
            SimError::TaskSet(TaskSetError::Empty),
            SimError::CpuSpec(CpuSpecError::NoSleepModes),
            SimError::InvalidConfig { reason: "x".into() },
            SimError::TimeOverflow { what: "x" },
            SimError::BudgetExhausted {
                limit: 1,
                diagnostic: PartialDiagnostic::default(),
            },
            SimError::InvalidDirective { reason: "x" },
            SimError::InternalInvariant { what: "x" },
            SimError::Partition { reason: "x".into() },
        ];
        let kinds: Vec<_> = errs.iter().map(SimError::kind).collect();
        assert_eq!(
            kinds,
            [
                "invalid-task-set",
                "invalid-cpu-spec",
                "invalid-config",
                "time-overflow",
                "budget-exhausted",
                "invalid-directive",
                "internal-invariant",
                "invalid-partition",
            ]
        );
    }

    #[test]
    fn display_nests_the_source_error() {
        let e = SimError::TaskSet(TaskSetError::Empty);
        assert_eq!(e.to_string(), "invalid task set: task set is empty");
        let e = SimError::BudgetExhausted {
            limit: 10,
            diagnostic: PartialDiagnostic {
                sim_time: Time::from_us(5),
                events: 11,
                segments: 4,
                completions: 2,
                deadline_misses: 0,
            },
        };
        assert_eq!(
            e.to_string(),
            "event budget of 10 exhausted before the horizon \
             (t=5us, 11 events, 4 segments, 2 completions, 0 misses)"
        );
    }

    #[test]
    fn source_chains_to_the_owning_crate() {
        use std::error::Error;
        let e = SimError::TaskSet(TaskSetError::Empty);
        assert!(e.source().is_some());
        let e = SimError::TimeOverflow { what: "horizon" };
        assert!(e.source().is_none());
    }
}
