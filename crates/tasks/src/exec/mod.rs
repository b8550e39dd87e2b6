//! Execution-time models: how long each job *actually* runs.
//!
//! LPFPS's power win comes from jobs finishing before their WCET, so the
//! model generating realized execution times is a first-class part of the
//! evaluation. The paper's model (§4) draws each job's time from a Gaussian
//! with mean `(BCET + WCET)/2` and standard deviation `(WCET - BCET)/6`,
//! clamped so values never exceed the WCET — implemented here as
//! [`PaperGaussian`], alongside simpler alternatives used in tests and
//! ablations.
//!
//! All models are **stateless per job**: the draw for `(task, job_index)`
//! depends only on the seed, never on simulation order, so every scheduling
//! policy sees the identical workload realization (see [`crate::rng`]).
//! That still holds where the kernel serves [`PaperGaussian`]'s draws from
//! a [`DrawTape`] ([`ExecModel::sample_taped`]): the tape stores values of
//! that pure function, so a served draw is the one a fresh stream gives.

mod bimodal;
mod constant;
mod cyclic;
mod gaussian;
mod tape;
mod uniform;

pub use bimodal::Bimodal;
pub use constant::AlwaysWcet;
pub use cyclic::Cyclic;
pub use gaussian::PaperGaussian;
pub use tape::DrawTape;
pub use uniform::UniformBetween;

use crate::task::{Task, TaskId};
use crate::time::Dur;
use core::fmt::Debug;

/// A generator of realized per-job execution demands (at full clock speed).
///
/// Implementations must be deterministic functions of
/// `(task parameters, task_id, job_index, seed)` and must return a value in
/// `[1 ns, task.wcet()]` — the kernel debug-asserts this contract.
pub trait ExecModel: Debug + Send + Sync {
    /// The realized execution demand of job `job_index` of `task`.
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, seed: u64) -> Dur;

    /// [`sample`](Self::sample), bit for bit, reading the model's random
    /// draws from `tape` where it has a taped form. The kernel calls this
    /// with its workspace's tape. The default ignores the tape; only
    /// [`PaperGaussian`] reads it.
    fn sample_taped(
        &self,
        task: &Task,
        task_id: TaskId,
        job_index: u64,
        seed: u64,
        tape: &mut DrawTape,
    ) -> Dur {
        let _ = tape;
        self.sample(task, task_id, job_index, seed)
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// True iff [`sample`](Self::sample) ignores `job_index` entirely —
    /// every job of a task draws the same demand. Kernels exploit this for
    /// steady-state cycle detection: an index-invariant workload repeats
    /// exactly each hyperperiod, while index-dependent draws (the Gaussian
    /// and cyclic models) make every cycle unique. Defaults to `false`,
    /// the conservative answer.
    fn index_invariant(&self) -> bool {
        false
    }
}

/// Clamps a floating-point nanosecond demand into the legal `[min, wcet]`
/// range shared by all models (the paper's "clamping operation").
pub(crate) fn clamp_demand(ns: f64, bcet: Dur, wcet: Dur) -> Dur {
    let lo = bcet.as_ns().min(wcet.as_ns()).max(1);
    let hi = wcet.as_ns();
    if !ns.is_finite() {
        return Dur::from_ns(hi);
    }
    Dur::from_ns((ns.round() as i64).clamp(lo as i64, hi as i64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_keeps_values_in_range() {
        let b = Dur::from_us(10);
        let w = Dur::from_us(20);
        assert_eq!(clamp_demand(5_000.0, b, w), b);
        assert_eq!(clamp_demand(25_000_000.0, b, w), w);
        assert_eq!(clamp_demand(15_000.0, b, w), Dur::from_ns(15_000));
        assert_eq!(clamp_demand(f64::NAN, b, w), w);
        assert_eq!(clamp_demand(-1.0, b, w), b);
    }

    #[test]
    fn clamp_floor_is_one_ns_even_for_degenerate_bcet() {
        // BCET can never actually be zero (Task enforces it), but the clamp
        // is defensive anyway.
        assert_eq!(
            clamp_demand(0.0, Dur::from_ns(1), Dur::from_us(1)),
            Dur::from_ns(1)
        );
    }
}
