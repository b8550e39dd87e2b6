//! Seeded workload derivation for multicore experiments.
//!
//! The paper's applications are uniprocessor task sets; a partitioned
//! M-core experiment needs roughly M cores' worth of honest load. Rather
//! than inventing new workloads, [`WorkloadBuilder`] derives them from the
//! reconstructed ones:
//!
//! [`WorkloadBuilder::replicate`] makes n copies of the base set with
//! deterministic task renaming and seeded phase staggering, so replicas
//! are distinguishable, don't release in lockstep, and keep every
//! per-task parameter (period, WCET, BCET, deadline) bit-identical to the
//! original — total utilization scales exactly n×.
//!
//! The derivation is a pure function of `(base set, seed, n)`:
//! the builder draws from the same counter-based SplitMix64 streams as the
//! execution-time models, so a derived workload is byte-identical across
//! runs, hosts, and thread counts.

use lpfps_tasks::rng::job_stream;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// Domain separator for the phase-stagger stream (keeps it disjoint from
/// execution-time and fault streams even under equal seeds).
const DOMAIN_STAGGER: u64 = 0x7F4A_7C15_9E37_79B9;

/// Derives multicore-scale workloads from a base task set. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    base: TaskSet,
    seed: u64,
}

impl WorkloadBuilder {
    /// A builder over `base` with seed 0.
    pub fn new(base: TaskSet) -> Self {
        WorkloadBuilder { base, seed: 0 }
    }

    /// Sets the seed of the phase-stagger stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `n` copies of the base set, RM priorities re-derived over the
    /// union.
    ///
    /// Replica 0 is the base set verbatim (names and phases untouched);
    /// replica `r > 0` renames each task `"{name}.r{r}"` and offsets its
    /// phase by a seeded draw uniform in `[0, min period)`, so replicas
    /// never release in lockstep while periods, WCETs, BCETs and
    /// deadlines stay bit-identical — per-replica utilization is exactly
    /// the base utilization, and the total scales exactly n×.
    ///
    /// `replicate(1)` returns the base set unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn replicate(&self, n: usize) -> TaskSet {
        assert!(n >= 1, "replication factor must be at least 1");
        if n == 1 {
            return self.base.clone();
        }
        let min_period_ns = self
            .base
            .tasks()
            .iter()
            .map(|t| t.period().as_ns())
            .min()
            .unwrap_or(1);
        let mut tasks = Vec::with_capacity(self.base.len() * n);
        for r in 0..n {
            for (i, task) in self.base.tasks().iter().enumerate() {
                if r == 0 {
                    tasks.push(task.clone());
                    continue;
                }
                let stagger = Dur::from_ns(
                    job_stream(self.seed ^ DOMAIN_STAGGER, i, r as u64).next_u64() % min_period_ns,
                );
                let mut replica =
                    Task::new(format!("{}.r{r}", task.name()), task.period(), task.wcet())
                        .with_deadline(task.deadline())
                        .with_phase(task.phase() + stagger);
                if task.bcet() != task.wcet() {
                    replica = replica.with_bcet(task.bcet());
                }
                tasks.push(replica);
            }
        }
        TaskSet::rate_monotonic(format!("{}x{n}", self.base.name()), tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TaskSet {
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
    fn replicate_preserves_per_task_parameters() {
        let ts = WorkloadBuilder::new(base()).with_seed(11).replicate(4);
        assert_eq!(ts.name(), "table1x4");
        assert_eq!(ts.len(), 12);
        let originals = base();
        for r in 0..4 {
            for (i, orig) in originals.tasks().iter().enumerate() {
                let replica = &ts.tasks()[r * originals.len() + i];
                assert_eq!(replica.period(), orig.period());
                assert_eq!(replica.wcet(), orig.wcet());
                assert_eq!(replica.bcet(), orig.bcet());
                assert_eq!(replica.deadline(), orig.deadline());
                if r == 0 {
                    assert_eq!(replica.name(), orig.name());
                    assert_eq!(replica.phase(), orig.phase());
                } else {
                    assert_eq!(replica.name(), format!("{}.r{r}", orig.name()));
                }
            }
        }
    }

    #[test]
    fn replication_scales_total_utilization_exactly_n_times() {
        let b = WorkloadBuilder::new(base()).with_seed(3);
        let u1 = base().utilization();
        for n in [1usize, 2, 4, 8] {
            let un = b.replicate(n).utilization();
            // Per-replica utilizations are bit-identical, so the sum is
            // n x the base up to f64 association (one ulp per addition).
            assert!(
                (un - n as f64 * u1).abs() < 1e-12,
                "replicate({n}): {un} != {}",
                n as f64 * u1
            );
        }
    }

    #[test]
    fn replicate_one_is_the_identity() {
        let ts = WorkloadBuilder::new(base()).with_seed(9).replicate(1);
        assert_eq!(ts.name(), "table1");
        assert_eq!(ts.len(), 3);
        for (a, b) in ts.tasks().iter().zip(base().tasks()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.phase(), b.phase());
        }
    }

    #[test]
    fn phase_stagger_is_seeded_deterministic_and_bounded() {
        let a = WorkloadBuilder::new(base()).with_seed(5).replicate(3);
        let b = WorkloadBuilder::new(base()).with_seed(5).replicate(3);
        for (x, y) in a.tasks().iter().zip(b.tasks()) {
            assert_eq!(x.phase(), y.phase(), "same seed must stagger identically");
        }
        let min_period = Dur::from_us(50);
        assert!(a.tasks().iter().all(|t| t.phase() < min_period));
        // A different seed moves at least one replica phase.
        let c = WorkloadBuilder::new(base()).with_seed(6).replicate(3);
        assert!(
            a.tasks()
                .iter()
                .zip(c.tasks())
                .any(|(x, y)| x.phase() != y.phase()),
            "stagger must depend on the seed"
        );
    }
}
