//! The periodic hard-real-time task model of the paper.
//!
//! A [`Task`] releases an infinite sequence of jobs: job `k` of task `i` is
//! released at `phase_i + k * T_i`, must finish by its release plus the
//! relative deadline `D_i`, and demands at most the worst-case execution
//! time `C_i` (and at least the best-case execution time `BCET_i`) of
//! processor time *at the maximum clock frequency*.
//!
//! Priorities follow the real-time convention the paper adopts: a **lower
//! numeric value means a higher priority**.

use crate::time::Dur;
use core::fmt;
use serde::{Deserialize, Serialize};

/// A fixed priority level. Lower numeric values are *more* urgent.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::task::Priority;
///
/// assert!(Priority::new(1).is_higher_than(Priority::new(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Priority(u32);

impl Priority {
    /// The most urgent priority level.
    pub const HIGHEST: Priority = Priority(0);

    /// Creates a priority level (lower = more urgent).
    pub const fn new(level: u32) -> Self {
        Priority(level)
    }

    /// The numeric level.
    pub const fn level(self) -> u32 {
        self.0
    }

    /// True if `self` preempts `other` under fixed-priority scheduling.
    pub fn is_higher_than(self, other: Priority) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Index of a task within its [`TaskSet`](crate::taskset::TaskSet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A periodic task with implicit or constrained deadline.
///
/// Construct with [`Task::new`] and refine with the `with_*` builders:
///
/// ```
/// use lpfps_tasks::{task::Task, time::Dur};
///
/// let t = Task::new("tau2", Dur::from_us(80), Dur::from_us(20))
///     .with_bcet(Dur::from_us(8));
/// assert_eq!(t.deadline(), Dur::from_us(80)); // implicit deadline D = T
/// assert!((t.utilization() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Task {
    name: String,
    period: Dur,
    deadline: Dur,
    wcet: Dur,
    bcet: Dur,
    phase: Dur,
}

impl Task {
    /// Creates a task with period `period`, WCET `wcet`, implicit deadline
    /// (`D = T`), `BCET = WCET`, and zero phase.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, `wcet` is zero, or `wcet > period`.
    pub fn new(name: impl Into<String>, period: Dur, wcet: Dur) -> Self {
        assert!(!period.is_zero(), "task period must be positive");
        assert!(!wcet.is_zero(), "task WCET must be positive");
        assert!(wcet <= period, "task WCET must not exceed its period");
        Task {
            name: name.into(),
            period,
            deadline: period,
            wcet,
            bcet: wcet,
            phase: Dur::ZERO,
        }
    }

    /// Sets a constrained relative deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero, smaller than the WCET, or larger than
    /// the period (the kernel model assumes at most one live job per task).
    pub fn with_deadline(mut self, deadline: Dur) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        assert!(deadline >= self.wcet, "deadline must be at least the WCET");
        assert!(
            deadline <= self.period,
            "deadline must not exceed the period"
        );
        self.deadline = deadline;
        self
    }

    /// Sets the best-case execution time.
    ///
    /// # Panics
    ///
    /// Panics if `bcet` is zero or exceeds the WCET.
    pub fn with_bcet(mut self, bcet: Dur) -> Self {
        assert!(!bcet.is_zero(), "BCET must be positive");
        assert!(bcet <= self.wcet, "BCET must not exceed the WCET");
        self.bcet = bcet;
        self
    }

    /// Sets the release phase (offset of the first job).
    pub fn with_phase(mut self, phase: Dur) -> Self {
        self.phase = phase;
        self
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The period `T`.
    pub fn period(&self) -> Dur {
        self.period
    }

    /// The relative deadline `D`.
    pub fn deadline(&self) -> Dur {
        self.deadline
    }

    /// The worst-case execution time `C` at the maximum clock frequency.
    pub fn wcet(&self) -> Dur {
        self.wcet
    }

    /// The best-case execution time at the maximum clock frequency.
    pub fn bcet(&self) -> Dur {
        self.bcet
    }

    /// The release phase of the first job.
    pub fn phase(&self) -> Dur {
        self.phase
    }

    /// The worst-case utilization `C / T`.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_ns() as f64 / self.period.as_ns() as f64
    }

    /// Returns a copy with the BCET set to `fraction * WCET` (clamped to at
    /// least one nanosecond), the knob swept in the paper's Figure 8.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    pub fn with_bcet_fraction(&self, fraction: f64) -> Task {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "BCET fraction must be in (0, 1], got {fraction}"
        );
        let bcet_ns = ((self.wcet.as_ns() as f64 * fraction).round() as u64).max(1);
        let mut t = self.clone();
        t.bcet = Dur::from_ns(bcet_ns.min(self.wcet.as_ns()));
        t
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(T={}, D={}, C={}, B={})",
            self.name, self.period, self.deadline, self.wcet, self.bcet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tau() -> Task {
        Task::new("tau1", Dur::from_us(50), Dur::from_us(10))
    }

    #[test]
    fn implicit_deadline_equals_period() {
        assert_eq!(tau().deadline(), Dur::from_us(50));
        assert_eq!(tau().bcet(), Dur::from_us(10));
        assert_eq!(tau().phase(), Dur::ZERO);
    }

    #[test]
    fn builders_refine_fields() {
        let t = tau()
            .with_deadline(Dur::from_us(40))
            .with_bcet(Dur::from_us(2))
            .with_phase(Dur::from_us(5));
        assert_eq!(t.deadline(), Dur::from_us(40));
        assert_eq!(t.bcet(), Dur::from_us(2));
        assert_eq!(t.phase(), Dur::from_us(5));
    }

    #[test]
    fn utilization_is_c_over_t() {
        assert!((tau().utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bcet_fraction_scales_from_wcet() {
        let t = tau().with_bcet_fraction(0.1);
        assert_eq!(t.bcet(), Dur::from_us(1));
        let t = tau().with_bcet_fraction(1.0);
        assert_eq!(t.bcet(), t.wcet());
    }

    #[test]
    #[should_panic(expected = "BCET fraction")]
    fn bcet_fraction_rejects_zero() {
        let _ = tau().with_bcet_fraction(0.0);
    }

    #[test]
    #[should_panic(expected = "WCET must not exceed")]
    fn wcet_larger_than_period_rejected() {
        let _ = Task::new("bad", Dur::from_us(10), Dur::from_us(20));
    }

    #[test]
    #[should_panic(expected = "deadline must not exceed")]
    fn deadline_beyond_period_rejected() {
        let _ = tau().with_deadline(Dur::from_us(60));
    }

    #[test]
    fn priority_ordering_is_inverted() {
        assert!(Priority::new(0).is_higher_than(Priority::new(5)));
        assert!(!Priority::new(5).is_higher_than(Priority::new(5)));
        assert_eq!(Priority::HIGHEST.level(), 0);
        assert_eq!(Priority::new(3).to_string(), "P3");
    }

    #[test]
    fn display_summarizes_parameters() {
        let t = tau().with_bcet(Dur::from_us(3));
        assert_eq!(t.to_string(), "tau1(T=50us, D=50us, C=10us, B=3us)");
    }
}
