//! Bimodal execution times: mostly fast, occasionally worst-case.

use crate::exec::ExecModel;
use crate::rng::job_stream;
use crate::task::{Task, TaskId};
use crate::time::Dur;

/// With probability `p_wcet` a job takes its full WCET; otherwise it takes
/// its BCET.
///
/// This models control software with a rare expensive path (e.g. a mode
/// change) — the regime where WCET-based reservations waste the most time
/// and slack-reclaiming schedulers like LPFPS shine. Used in extension
/// experiments beyond the paper's Gaussian model.
#[derive(Debug, Clone, Copy)]
pub struct Bimodal {
    p_wcet: f64,
}

impl Bimodal {
    /// Creates the model with the given probability of a worst-case job.
    ///
    /// # Panics
    ///
    /// Panics if `p_wcet` is not in `[0, 1]`.
    pub fn new(p_wcet: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_wcet),
            "p_wcet must be a probability, got {p_wcet}"
        );
        Bimodal { p_wcet }
    }
}

impl ExecModel for Bimodal {
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, seed: u64) -> Dur {
        let mut rng = job_stream(seed, task_id.0, job_index);
        if rng.next_f64() < self.p_wcet {
            task.wcet()
        } else {
            task.bcet()
        }
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new("t", Dur::from_us(100), Dur::from_us(40)).with_bcet(Dur::from_us(4))
    }

    #[test]
    fn only_two_outcomes_occur() {
        let m = Bimodal::new(0.3);
        let t = task();
        for job in 0..1_000 {
            let d = m.sample(&t, TaskId(0), job, 5);
            assert!(d == t.bcet() || d == t.wcet());
        }
    }

    #[test]
    fn frequency_matches_probability() {
        let m = Bimodal::new(0.25);
        let t = task();
        let n = 40_000u64;
        let wcet_count = (0..n)
            .filter(|&j| m.sample(&t, TaskId(0), j, 5) == t.wcet())
            .count();
        let p = wcet_count as f64 / n as f64;
        assert!((p - 0.25).abs() < 0.01, "observed p {p} != 0.25");
    }

    #[test]
    fn extremes_are_deterministic() {
        let t = task();
        let always = Bimodal::new(1.0);
        let never = Bimodal::new(0.0);
        for job in 0..100 {
            assert_eq!(always.sample(&t, TaskId(0), job, 1), t.wcet());
            assert_eq!(never.sample(&t, TaskId(0), job, 1), t.bcet());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = Bimodal::new(1.5);
    }
}
