//! Sampled invariant checking for sweep runs (the `--check N` flag).
//!
//! A full differential re-simulation of every sweep cell would double the
//! cost of a grid; sampling gives most of the assurance for a fraction of
//! it. `N` evenly-spaced completed cells are re-run fully simulated with a
//! [`Trace`] attached, and their traces pushed through the oracle's
//! invariant checker
//! ([`lpfps_oracle::check_report`]) — any violation means the kernel broke
//! one of the paper's guarantees *inside this very sweep*, pinned to a
//! cell and a trace position.
//!
//! The re-run is exact: a cell is a pure function of its spec, so the
//! traced replay is the same simulation the sweep measured (reports are
//! bit-identical with the fast-forward on or off), plus the event stream.

use crate::cell::{Cell, PolicyChoice};
use crate::runner::SweepOutcome;
use crate::spec::SweepSpec;
use lpfps::driver::effective_cpu;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::Trace;
use lpfps_oracle::{check_report, Violation};

/// The invariant-check outcome of one sampled cell.
#[derive(Debug)]
pub struct CellCheck {
    /// Index of the cell in its spec.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// Violations found (empty = the cell passed).
    pub violations: Vec<Violation>,
}

impl CellCheck {
    /// True when no invariant was violated.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Picks up to `sample` evenly-spaced indices of cells that completed.
fn sample_indices(outcome: &SweepOutcome, sample: usize) -> Vec<usize> {
    let completed: Vec<usize> = outcome
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status.is_ok())
        .map(|(i, _)| i)
        .collect();
    if completed.is_empty() || sample == 0 {
        return Vec::new();
    }
    let n = sample.min(completed.len());
    // Evenly spaced over the completed list: index k picks the cell at
    // floor(k * len / n), so n = len degenerates to "all of them".
    (0..n).map(|k| completed[k * completed.len() / n]).collect()
}

/// Re-runs one cell with a complete trace and checks every trace
/// invariant.
fn check_cell(cell: &Cell, index: usize, horizon_scale: f64) -> CellCheck {
    let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
    // Only completed cells are sampled, and a cell is a pure function of
    // its spec — a replay that fails where the sweep succeeded is itself
    // a determinism violation worth reporting.
    let report = match cell.run_probed_opts(horizon_scale, &mut ws, true, &mut trace) {
        Ok(report) => report,
        Err(err) => {
            return CellCheck {
                index,
                label: cell.label(),
                violations: vec![Violation {
                    index: 0,
                    at: lpfps_tasks::time::Time::ZERO,
                    invariant: "replay-determinism",
                    detail: format!("traced replay of a completed cell failed: {err}"),
                }],
            }
        }
    };
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let cpu = match cell.policy {
        PolicyChoice::Kind(kind) => effective_cpu(&scaled, &cell.cpu, kind),
        PolicyChoice::TimeoutShutdown(_) => cell.cpu.clone(),
    };
    CellCheck {
        index,
        label: cell.label(),
        violations: check_report(&scaled, &cpu, &report, &trace),
    }
}

/// Samples up to `sample` completed cells of a finished sweep and runs
/// each through the invariant checker. Returns one [`CellCheck`] per
/// sampled cell, pass or fail; [`run_sweep`](crate::run_sweep) turns
/// failures into a panic when driven by `--check`.
pub fn check_sampled_cells(
    spec: &SweepSpec,
    outcome: &SweepOutcome,
    sample: usize,
    horizon_scale: f64,
) -> Vec<CellCheck> {
    sample_indices(outcome, sample)
        .into_iter()
        .map(|i| check_cell(&spec.cells[i], i, horizon_scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::ExecKind;
    use crate::runner::{run_sweep, RunOptions};
    use lpfps::driver::PolicyKind;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::taskset::TaskSet;
    use lpfps_tasks::time::Dur;

    fn spec() -> SweepSpec {
        let ts = TaskSet::rate_monotonic(
            "t",
            vec![
                Task::new("a", Dur::from_us(50), Dur::from_us(10)),
                Task::new("b", Dur::from_us(100), Dur::from_us(30)),
            ],
        );
        let mut s = SweepSpec::new("check-test");
        for (seed, kind) in [
            (0, PolicyKind::Fps),
            (1, PolicyKind::Lpfps),
            (2, PolicyKind::Lpfps),
            (3, PolicyKind::CcEdf),
        ] {
            s.push(
                Cell::new(ts.clone(), CpuSpec::arm8(), kind)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.4)
                    .with_seed(seed),
            );
        }
        s
    }

    #[test]
    fn sampled_cells_pass_on_a_healthy_sweep() {
        // Sampling everything covers the EDF cell too, so the checker's
        // edf-dispatch invariant runs against a real sweep replay.
        let spec = spec();
        let outcome = run_sweep(&spec, &RunOptions::serial());
        let checks = check_sampled_cells(&spec, &outcome, 4, 1.0);
        assert_eq!(checks.len(), 4);
        for c in &checks {
            assert!(c.is_ok(), "{}: {}", c.label, c.violations[0]);
        }
    }

    #[test]
    fn sampling_skips_failed_cells() {
        let mut spec = spec();
        let bad = spec.cells[1].clone().with_horizon(Dur::ZERO);
        spec.cells[1] = bad;
        let outcome = run_sweep(&spec, &RunOptions::serial());
        // Ask for more checks than there are completed cells: every
        // completed cell gets checked, the failed one is skipped.
        let checks = check_sampled_cells(&spec, &outcome, 10, 1.0);
        let indices: Vec<usize> = checks.iter().map(|c| c.index).collect();
        assert_eq!(indices, vec![0, 2, 3]);
    }

    #[test]
    fn sample_zero_checks_nothing() {
        let spec = spec();
        let outcome = run_sweep(&spec, &RunOptions::serial());
        assert!(check_sampled_cells(&spec, &outcome, 0, 1.0).is_empty());
    }
}
