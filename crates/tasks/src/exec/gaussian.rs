//! The paper's clamped-Gaussian execution-time model (§4, Eqs. 4–5).

use crate::exec::{clamp_demand, DrawTape, ExecModel};
use crate::rng::job_stream;
use crate::task::{Task, TaskId};
use crate::time::Dur;

/// Gaussian execution times with the paper's parameters:
///
/// ```text
/// m     = (BCET + WCET) / 2          (Eq. 4)
/// sigma = (WCET - BCET) / 6          (Eq. 5)
/// ```
///
/// With `WCET = m + 3*sigma`, about 99.7 % of draws land inside
/// `[BCET, WCET]`; the remainder are clamped into that interval (the paper
/// clamps at WCET so no job overruns; we clamp at BCET too, keeping the
/// realized times inside the declared range — the sub-0.2 % of mass this
/// moves is negligible for the power comparison and keeps BCET honest).
///
/// When `BCET = WCET` the distribution degenerates to a constant WCET,
/// which is exactly the right edge of Figure 8.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::exec::{ExecModel, PaperGaussian};
/// use lpfps_tasks::{task::{Task, TaskId}, time::Dur};
///
/// let t = Task::new("t", Dur::from_us(100), Dur::from_us(40))
///     .with_bcet(Dur::from_us(4));
/// let d = PaperGaussian.sample(&t, TaskId(0), 0, 1);
/// assert!(d >= t.bcet() && d <= t.wcet());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperGaussian;

/// Eqs. 4–5 for the standard-normal draw `z`, which is drawn only when
/// BCET < WCET.
fn demand(task: &Task, z: impl FnOnce() -> f64) -> Dur {
    let b = task.bcet().as_ns() as f64;
    let w = task.wcet().as_ns() as f64;
    if task.bcet() == task.wcet() {
        return task.wcet();
    }
    let mean = 0.5 * (b + w);
    let sigma = (w - b) / 6.0;
    clamp_demand(mean + sigma * z(), task.bcet(), task.wcet())
}

impl ExecModel for PaperGaussian {
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, seed: u64) -> Dur {
        demand(task, || {
            job_stream(seed, task_id.0, job_index).next_gaussian()
        })
    }

    fn sample_taped(
        &self,
        task: &Task,
        task_id: TaskId,
        job_index: u64,
        seed: u64,
        tape: &mut DrawTape,
    ) -> Dur {
        demand(task, || tape.gaussian(seed, task_id.0, job_index))
    }

    fn name(&self) -> &'static str {
        "paper-gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(bcet_us: u64, wcet_us: u64) -> Task {
        Task::new("t", Dur::from_us(1_000), Dur::from_us(wcet_us)).with_bcet(Dur::from_us(bcet_us))
    }

    #[test]
    fn samples_stay_in_declared_range() {
        let t = task(10, 100);
        for job in 0..5_000 {
            let d = PaperGaussian.sample(&t, TaskId(0), job, 42);
            assert!(d >= t.bcet() && d <= t.wcet(), "job {job} drew {d}");
        }
    }

    #[test]
    fn mean_matches_eq4() {
        let t = task(20, 100);
        let n = 20_000u64;
        let sum: f64 = (0..n)
            .map(|j| PaperGaussian.sample(&t, TaskId(1), j, 7).as_ns() as f64)
            .sum();
        let mean_us = sum / n as f64 / 1_000.0;
        // m = (20 + 100)/2 = 60 us; clamping is symmetric so the mean holds.
        assert!((mean_us - 60.0).abs() < 1.0, "mean {mean_us} != 60");
    }

    #[test]
    fn spread_matches_eq5() {
        let t = task(20, 100);
        let n = 20_000u64;
        let xs: Vec<f64> = (0..n)
            .map(|j| PaperGaussian.sample(&t, TaskId(1), j, 7).as_us_f64())
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        // sigma = (100-20)/6 = 13.33 us; clamping trims the tails slightly,
        // so allow a loose band.
        let sigma = var.sqrt();
        assert!((sigma - 13.3).abs() < 1.0, "sigma {sigma} != ~13.3");
    }

    #[test]
    fn degenerate_range_returns_wcet() {
        let t = task(50, 50);
        assert_eq!(PaperGaussian.sample(&t, TaskId(0), 9, 3), Dur::from_us(50));
    }

    #[test]
    fn same_job_same_seed_is_reproducible() {
        let t = task(10, 100);
        let a = PaperGaussian.sample(&t, TaskId(2), 33, 5);
        let b = PaperGaussian.sample(&t, TaskId(2), 33, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_realizations() {
        let t = task(10, 100);
        let draws_a: Vec<Dur> = (0..16)
            .map(|j| PaperGaussian.sample(&t, TaskId(0), j, 1))
            .collect();
        let draws_b: Vec<Dur> = (0..16)
            .map(|j| PaperGaussian.sample(&t, TaskId(0), j, 2))
            .collect();
        assert_ne!(draws_a, draws_b);
    }
}
