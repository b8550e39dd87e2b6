//! Cyclically modulated execution times: periodic load patterns.
//!
//! Many real control loops have mode-dependent demands that repeat — a
//! video decoder's GOP structure, a radar's scan pattern, a control law
//! alternating estimation and actuation phases. This model makes the
//! per-job mean follow a sinusoid over the job index (period
//! `cycle_jobs`), with clamped Gaussian jitter around it. Unlike i.i.d.
//! models, consecutive jobs are strongly correlated, producing *sustained*
//! stretches of high slack — a stress pattern for slack-reclaiming
//! schedulers that i.i.d. draws never create.
//!
//! Like every model in this crate it is stateless per job (the mean is a
//! pure function of the job index), so all policies see identical
//! realizations.

use crate::exec::{clamp_demand, ExecModel};
use crate::rng::job_stream;
use crate::task::{Task, TaskId};
use crate::time::Dur;

/// Sinusoidal mean with Gaussian jitter, clamped to `[BCET, WCET]`.
#[derive(Debug, Clone, Copy)]
pub struct Cyclic {
    cycle_jobs: u64,
    jitter_frac: f64,
}

impl Cyclic {
    /// Creates the model: the mean demand completes one full low-high-low
    /// cycle every `cycle_jobs` jobs; `jitter_frac` scales the Gaussian
    /// jitter as a fraction of the `[BCET, WCET]` span (0 = deterministic
    /// wave).
    ///
    /// # Panics
    ///
    /// Panics if `cycle_jobs` is zero or `jitter_frac` is not in `[0, 1]`.
    pub fn new(cycle_jobs: u64, jitter_frac: f64) -> Self {
        assert!(cycle_jobs > 0, "the cycle needs at least one job");
        assert!(
            (0.0..=1.0).contains(&jitter_frac),
            "jitter fraction must be in [0, 1]"
        );
        Cyclic {
            cycle_jobs,
            jitter_frac,
        }
    }
}

impl ExecModel for Cyclic {
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, seed: u64) -> Dur {
        let b = task.bcet().as_ns() as f64;
        let w = task.wcet().as_ns() as f64;
        if task.bcet() == task.wcet() {
            return task.wcet();
        }
        let phase = (job_index % self.cycle_jobs) as f64 / self.cycle_jobs as f64;
        // Mean sweeps [BCET, WCET] sinusoidally over the cycle.
        let wave = 0.5 - 0.5 * (2.0 * core::f64::consts::PI * phase).cos();
        let mean = b + (w - b) * wave;
        let demand = if self.jitter_frac == 0.0 {
            mean
        } else {
            let sigma = (w - b) * self.jitter_frac / 6.0;
            let mut rng = job_stream(seed, task_id.0, job_index);
            let z = rng.next_gaussian();
            mean + sigma * z
        };
        clamp_demand(demand, task.bcet(), task.wcet())
    }

    fn name(&self) -> &'static str {
        "cyclic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> Task {
        Task::new("t", Dur::from_us(1_000), Dur::from_us(100)).with_bcet(Dur::from_us(20))
    }

    #[test]
    fn deterministic_wave_touches_both_extremes() {
        let m = Cyclic::new(16, 0.0);
        let t = task();
        // Job 0 sits at the trough (BCET), job 8 at the crest (WCET).
        assert_eq!(m.sample(&t, TaskId(0), 0, 1), t.bcet());
        assert_eq!(m.sample(&t, TaskId(0), 8, 1), t.wcet());
    }

    #[test]
    fn wave_repeats_every_cycle() {
        let m = Cyclic::new(10, 0.0);
        let t = task();
        for j in 0..10 {
            assert_eq!(
                m.sample(&t, TaskId(0), j, 3),
                m.sample(&t, TaskId(0), j + 10, 3)
            );
        }
    }

    #[test]
    fn consecutive_jobs_are_correlated() {
        // Adjacent jobs on a long cycle differ far less than the full span
        // (the property i.i.d. models lack).
        let m = Cyclic::new(100, 0.1);
        let t = task();
        for j in 0..99 {
            let a = m.sample(&t, TaskId(0), j, 5).as_ns() as i64;
            let b = m.sample(&t, TaskId(0), j + 1, 5).as_ns() as i64;
            let span = (t.wcet().as_ns() - t.bcet().as_ns()) as i64;
            assert!((a - b).abs() < span / 4, "jump too large at job {j}");
        }
    }

    #[test]
    fn samples_respect_the_contract() {
        let m = Cyclic::new(7, 0.5);
        let t = task();
        for j in 0..500 {
            let d = m.sample(&t, TaskId(1), j, 9);
            assert!(d >= t.bcet() && d <= t.wcet());
            assert_eq!(d, m.sample(&t, TaskId(1), j, 9), "determinism");
        }
    }

    #[test]
    fn degenerate_range_returns_wcet() {
        let t = Task::new("t", Dur::from_us(100), Dur::from_us(40));
        assert_eq!(Cyclic::new(4, 0.2).sample(&t, TaskId(0), 3, 0), t.wcet());
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_cycle_rejected() {
        let _ = Cyclic::new(0, 0.1);
    }
}
