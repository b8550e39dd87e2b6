//! Exact response-time analysis (RTA) for fixed-priority preemptive
//! scheduling of constrained-deadline periodic tasks.
//!
//! The worst-case response time of task `i` is the smallest fixed point of
//!
//! ```text
//! R_i = C_i + sum_{j in hp(i)} ceil((R_i + J_j) / T_j) * C_j
//! ```
//!
//! (Joseph & Pandya 1986; Audsley et al. 1993), where `hp(i)` are the tasks
//! with higher priority and `J_j` is release jitter. Task `i` is
//! schedulable iff `R_i + J_i <= D_i`. The iteration is exact for `D <= T`
//! task sets, which is the model of the paper (one live job per task).

use crate::task::TaskId;
use crate::taskset::TaskSet;
use crate::time::Dur;
use serde::{Deserialize, Serialize};

/// Optional pessimism terms for the RTA iteration.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::analysis::RtaConfig;
/// use lpfps_tasks::time::Dur;
///
/// let cfg = RtaConfig::default().with_context_switch(Dur::from_us(5));
/// assert_eq!(cfg.context_switch, Dur::from_us(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RtaConfig {
    /// Cost of one context switch; every job is charged two (in and out), the
    /// standard inflation of Katcher et al.'s kernel analysis.
    pub context_switch: Dur,
    /// Uniform release jitter `J` applied to every task.
    pub release_jitter: Dur,
}

impl RtaConfig {
    /// Sets the per-context-switch cost.
    pub fn with_context_switch(mut self, cs: Dur) -> Self {
        self.context_switch = cs;
        self
    }

    /// Sets the uniform release jitter.
    pub fn with_release_jitter(mut self, j: Dur) -> Self {
        self.release_jitter = j;
        self
    }
}

/// The result of the RTA iteration for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RtaOutcome {
    /// The task meets its deadline; the worst-case response time is given.
    Schedulable(Dur),
    /// The iteration exceeded the deadline; the task can miss it.
    Unschedulable,
}

impl RtaOutcome {
    /// The worst-case response time, if schedulable.
    pub fn response(self) -> Option<Dur> {
        match self {
            RtaOutcome::Schedulable(r) => Some(r),
            RtaOutcome::Unschedulable => None,
        }
    }

    /// True if the task meets its deadline.
    pub fn is_schedulable(self) -> bool {
        matches!(self, RtaOutcome::Schedulable(_))
    }
}

/// Computes the worst-case response time of one task under the given
/// priority order.
///
/// # Panics
///
/// Panics if `id` is out of range for the set.
pub fn response_time(ts: &TaskSet, id: TaskId, cfg: &RtaConfig) -> RtaOutcome {
    let me = ts.task(id);
    let my_prio = ts.priority(id);
    let inflation = cfg.context_switch * 2;
    let my_c = me.wcet() + inflation;
    let deadline_budget = me.deadline().saturating_sub(cfg.release_jitter);

    // Higher-priority interferers: (period, inflated wcet) pairs.
    let hp: Vec<(u128, u128)> = ts
        .iter()
        .filter(|&(other, _, p)| other != id && p.is_higher_than(my_prio))
        .map(|(_, t, _)| {
            (
                t.period().as_ns() as u128,
                (t.wcet() + inflation).as_ns() as u128,
            )
        })
        .collect();

    let base = my_c.as_ns() as u128;
    let jitter = cfg.release_jitter.as_ns() as u128;
    let limit = deadline_budget.as_ns() as u128;

    let mut r = base;
    loop {
        if r > limit {
            return RtaOutcome::Unschedulable;
        }
        let next = base
            + hp.iter()
                .map(|&(t, c)| (r + jitter).div_ceil(t) * c)
                .sum::<u128>();
        if next == r {
            // `r <= limit <= u64::MAX`, so only a pathological jitter can
            // push past u64; saturating keeps the analysis panic-free.
            let resp = u64::try_from(r + jitter).unwrap_or(u64::MAX);
            return RtaOutcome::Schedulable(Dur::from_ns(resp));
        }
        r = next;
    }
}

/// Computes the RTA outcome for every task, in declaration order.
pub fn response_times(ts: &TaskSet, cfg: &RtaConfig) -> Vec<RtaOutcome> {
    (0..ts.len())
        .map(|i| response_time(ts, TaskId(i), cfg))
        .collect()
}

/// True if every task in the set meets its deadline (exact test for
/// constrained-deadline fixed-priority sets, with zero overhead terms).
pub fn rta_schedulable(ts: &TaskSet) -> bool {
    let cfg = RtaConfig::default();
    (0..ts.len()).all(|i| response_time(ts, TaskId(i), &cfg).is_schedulable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

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
    fn table1_is_exactly_schedulable() {
        // The paper: "this system just meets its schedulability".
        let r = response_times(&table1(), &RtaConfig::default());
        assert_eq!(r[0], RtaOutcome::Schedulable(Dur::from_us(10)));
        assert_eq!(r[1], RtaOutcome::Schedulable(Dur::from_us(30)));
        // tau3 completes at t = 80 in Figure 2(a); its slack is consumed by
        // the second tau2 job the moment tau2 runs any longer (next test).
        assert_eq!(r[2], RtaOutcome::Schedulable(Dur::from_us(80)));
        assert!(rta_schedulable(&table1()));
    }

    #[test]
    fn inflating_tau2_breaks_tau3() {
        // The paper: "if tau2 were to take a little longer to complete, tau3
        // would miss its deadline".
        let ts = TaskSet::rate_monotonic(
            "table1-inflated",
            vec![
                Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                Task::new("tau2", Dur::from_us(80), Dur::from_us(21)),
                Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
            ],
        );
        let r = response_times(&ts, &RtaConfig::default());
        assert!(r[0].is_schedulable());
        assert!(r[1].is_schedulable());
        assert_eq!(r[2], RtaOutcome::Unschedulable);
    }

    #[test]
    fn single_task_response_is_its_wcet() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("only", Dur::from_us(100), Dur::from_us(30))],
        );
        assert_eq!(
            response_time(&ts, TaskId(0), &RtaConfig::default()),
            RtaOutcome::Schedulable(Dur::from_us(30))
        );
    }

    #[test]
    fn context_switch_overhead_inflates_responses() {
        let cfg = RtaConfig::default().with_context_switch(Dur::from_us(1));
        let r = response_times(&table1(), &cfg);
        // tau1: 10 + 2 = 12.
        assert_eq!(r[0], RtaOutcome::Schedulable(Dur::from_us(12)));
        // tau3 was exactly at its deadline, so any overhead breaks it.
        assert_eq!(r[2], RtaOutcome::Unschedulable);
    }

    #[test]
    fn jitter_reduces_the_deadline_budget() {
        let ts = TaskSet::rate_monotonic(
            "tight",
            vec![Task::new("t", Dur::from_us(10), Dur::from_us(9))],
        );
        assert!(rta_schedulable(&ts));
        let cfg = RtaConfig::default().with_release_jitter(Dur::from_us(2));
        assert_eq!(
            response_time(&ts, TaskId(0), &cfg),
            RtaOutcome::Unschedulable
        );
    }

    #[test]
    fn full_utilization_harmonic_set_is_schedulable() {
        // Harmonic periods schedule up to U = 1 under RM.
        let ts = TaskSet::rate_monotonic(
            "harmonic",
            vec![
                Task::new("a", Dur::from_us(10), Dur::from_us(5)),
                Task::new("b", Dur::from_us(20), Dur::from_us(5)),
                Task::new("c", Dur::from_us(40), Dur::from_us(10)),
            ],
        );
        assert!((ts.utilization() - 1.0).abs() < 1e-12);
        assert!(rta_schedulable(&ts));
    }

    #[test]
    fn over_utilized_set_is_unschedulable() {
        let ts = TaskSet::rate_monotonic(
            "over",
            vec![
                Task::new("a", Dur::from_us(10), Dur::from_us(6)),
                Task::new("b", Dur::from_us(20), Dur::from_us(12)),
            ],
        );
        assert!(!rta_schedulable(&ts));
    }
}
