//! Exact schedulability by synchronous busy-period simulation.
//!
//! For constrained-deadline (`D <= T`) fixed-priority task sets, the
//! synchronous release at time zero is the critical instant (Liu &
//! Layland), and every task's worst-case response occurs inside the first
//! processor busy period. Simulating that one busy period at WCET is
//! therefore an *exact* schedulability test — an oracle entirely
//! independent of the response-time fixed-point iteration, used to
//! cross-validate it (and, transitively, the event-driven kernel, which
//! is itself cross-checked against RTA).
//!
//! The simulation is a simple priority-driven sweep over release events —
//! no queues, no processor model — and terminates at the first idle
//! instant (the busy period's end, which exists whenever `U <= 1`).

use crate::analysis::hyperperiod::hyperperiod;
use crate::task::TaskId;
use crate::taskset::TaskSet;
use crate::time::{Dur, Time};

/// The outcome of the busy-period simulation for one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyPeriodOutcome {
    /// Worst-case response observed in the first busy period.
    Schedulable(Dur),
    /// A job ran past its deadline (response given for diagnosis).
    DeadlineMiss(Dur),
}

impl BusyPeriodOutcome {
    /// True if the task met its deadline.
    pub fn is_schedulable(self) -> bool {
        matches!(self, BusyPeriodOutcome::Schedulable(_))
    }

    /// The observed worst response either way.
    pub fn response(self) -> Dur {
        match self {
            BusyPeriodOutcome::Schedulable(r) | BusyPeriodOutcome::DeadlineMiss(r) => r,
        }
    }
}

/// Simulates the synchronous busy period at WCET and returns each task's
/// worst-case response — exact for `D <= T` sets with `U <= 1`.
///
/// Returns `None` when total utilization exceeds 1 (the busy period never
/// ends; the set is trivially unschedulable).
///
/// # Examples
///
/// ```
/// use lpfps_tasks::analysis::busy_period::busy_period_responses;
/// use lpfps_tasks::{task::Task, taskset::TaskSet, time::Dur};
///
/// let ts = TaskSet::rate_monotonic("table1", vec![
///     Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
///     Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
///     Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
/// ]);
/// let out = busy_period_responses(&ts).expect("U <= 1");
/// assert_eq!(out[2].response(), Dur::from_us(80));
/// ```
pub fn busy_period_responses(ts: &TaskSet) -> Option<Vec<BusyPeriodOutcome>> {
    if ts.utilization() > 1.0 + 1e-12 {
        return None;
    }
    // At exactly U = 1 the synchronous schedule never idles; it repeats
    // after one hyperperiod, so simulating [0, hyperperiod) still observes
    // every distinct response. Cap the sweep there (or at the analytic
    // busy-period bound sum(C)/(1-U) when U < 1, whichever is smaller);
    // if neither bound is representable, give up rather than spin.
    let total_wcet: Dur = ts.iter().map(|(_, t, _)| t.wcet()).sum();
    let u = ts.utilization();
    let analytic_cap = if u < 1.0 - 1e-12 {
        let ns = (total_wcet.as_ns() as f64 / (1.0 - u)).ceil();
        (ns <= u64::MAX as f64).then(|| Dur::from_ns(ns as u64 + 1))
    } else {
        None
    };
    let cap = match (hyperperiod(ts), analytic_cap) {
        (Some(h), Some(a)) => h.min(a),
        (Some(h), None) => h,
        (None, Some(a)) => a,
        (None, None) => return None,
    };
    let cap_end = Time::ZERO + cap;
    let n = ts.len();
    let ids = ts.ids_by_priority();

    // Per-task state, indexed by TaskId.
    let mut next_release: Vec<Time> = vec![Time::ZERO; n];
    let mut remaining: Vec<Dur> = vec![Dur::ZERO; n];
    let mut current_release: Vec<Time> = vec![Time::ZERO; n];
    let mut worst: Vec<Dur> = vec![Dur::ZERO; n];
    let mut live: Vec<bool> = vec![false; n];
    let mut overran: Vec<bool> = vec![false; n];

    let mut now = Time::ZERO;
    loop {
        // Admit all releases due at `now` (phases are ignored: the test is
        // for the synchronous critical instant by definition).
        for i in 0..n {
            if next_release[i] <= now {
                if live[i] {
                    // The previous job overran its whole period (D <= T, so
                    // its deadline is already blown): record the miss, skip
                    // this release, and let the old job run on.
                    overran[i] = true;
                    next_release[i] += ts.task(TaskId(i)).period();
                    continue;
                }
                live[i] = true;
                remaining[i] = ts.task(TaskId(i)).wcet();
                current_release[i] = next_release[i];
                next_release[i] += ts.task(TaskId(i)).period();
            }
        }
        if now >= cap_end {
            // One hyperperiod fully simulated (U = 1): every distinct
            // response has been observed.
            break;
        }
        // Highest-priority live task runs.
        let Some(&run) = ids.iter().find(|id| live[id.0]) else {
            // First idle instant: the busy period is over.
            break;
        };
        let run = run.0;
        // Run until the job completes or the next release, whichever first.
        // A live task exists, so `n >= 1` and the minimum exists; the
        // fallback keeps this path panic-free rather than aborting.
        let Some(next_event) = next_release.iter().copied().min() else {
            break;
        };
        let finish = now + remaining[run];
        if finish <= next_event {
            now = finish;
            live[run] = false;
            remaining[run] = Dur::ZERO;
            let response = now.saturating_since(current_release[run]);
            worst[run] = worst[run].max(response);
        } else {
            remaining[run] -= next_event - now;
            now = next_event;
        }
    }

    Some(
        (0..n)
            .map(|i| {
                if !overran[i] && worst[i] <= ts.task(TaskId(i)).deadline() {
                    BusyPeriodOutcome::Schedulable(worst[i])
                } else {
                    BusyPeriodOutcome::DeadlineMiss(worst[i].max(ts.task(TaskId(i)).deadline()))
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::response_time::{response_times, RtaConfig};
    use crate::task::Task;

    fn set(params: &[(u64, u64)]) -> TaskSet {
        let tasks = params
            .iter()
            .enumerate()
            .map(|(i, &(t, c))| Task::new(format!("t{i}"), Dur::from_us(t), Dur::from_us(c)))
            .collect();
        TaskSet::rate_monotonic("test", tasks)
    }

    #[test]
    fn table1_matches_rta_exactly() {
        let ts = set(&[(50, 10), (80, 20), (100, 40)]);
        let sim = busy_period_responses(&ts).unwrap();
        let rta = response_times(&ts, &RtaConfig::default());
        for (s, r) in sim.iter().zip(rta) {
            assert_eq!(s.response(), r.response().unwrap());
        }
        assert!(sim.iter().all(|o| o.is_schedulable()));
    }

    #[test]
    fn miss_detected_with_inflated_tau2() {
        let ts = set(&[(50, 10), (80, 21), (100, 40)]);
        let sim = busy_period_responses(&ts).unwrap();
        assert!(sim[0].is_schedulable());
        assert!(sim[1].is_schedulable());
        assert!(!sim[2].is_schedulable());
    }

    #[test]
    fn overutilized_sets_are_rejected_upfront() {
        let ts = set(&[(10, 6), (20, 12)]);
        assert_eq!(busy_period_responses(&ts), None);
    }

    #[test]
    fn busy_period_can_span_multiple_jobs_of_high_rate_tasks() {
        // U close to 1: the busy period extends past several periods of
        // the fast task; the slow task's worst response reflects all of
        // them.
        let ts = set(&[(10, 5), (40, 19)]);
        let sim = busy_period_responses(&ts).unwrap();
        let rta = response_times(&ts, &RtaConfig::default());
        assert_eq!(sim[1].response(), rta[1].response().unwrap());
    }

    #[test]
    fn exact_full_utilization_terminates() {
        let ts = set(&[(10, 5), (20, 10)]); // U = 1.0, harmonic
        let sim = busy_period_responses(&ts).unwrap();
        assert!(sim.iter().all(|o| o.is_schedulable()));
    }

    #[test]
    fn agrees_with_rta_on_all_published_workloads() {
        // (The heavier randomized agreement check lives in the proptest
        // suite; here the four paper workloads are pinned.)
        for params in [
            vec![(2_500u64, 1_180u64), (40_000, 4_000), (62_500, 4_000)],
            vec![(50, 10), (80, 20), (100, 40)],
        ] {
            let ts = set(&params);
            let sim = busy_period_responses(&ts).unwrap();
            let rta = response_times(&ts, &RtaConfig::default());
            for (i, (s, r)) in sim.iter().zip(&rta).enumerate() {
                assert_eq!(
                    s.is_schedulable(),
                    r.is_schedulable(),
                    "task {i} verdict mismatch"
                );
                if let Some(bound) = r.response() {
                    assert_eq!(s.response(), bound, "task {i} response mismatch");
                }
            }
        }
    }
}
