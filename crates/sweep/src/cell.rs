//! One simulation cell: everything needed to run a single
//! (workload × policy × BCET fraction × execution model × seed) point.

use lpfps::driver::{default_horizon, run_in, PolicyKind};
use lpfps::TimeoutShutdown;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::FaultConfig;
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::error::SimError;
use lpfps_kernel::probe::{NoProbe, Probe};
use lpfps_kernel::report::SimReport;
use lpfps_obs::HistSummary;
use lpfps_tasks::exec::{AlwaysWcet, ExecModel, PaperGaussian};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// The execution-time models available declaratively. (Cells must be
/// `Send + Sync + Clone`, so the model is named rather than boxed.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecKind {
    /// Every job consumes its full WCET (the grid's deterministic edge).
    AlwaysWcet,
    /// The paper's Gaussian draw over [BCET, WCET] (seeded, deterministic).
    PaperGaussian,
}

impl ExecKind {
    /// The shared model instance behind this kind.
    pub fn model(self) -> &'static dyn ExecModel {
        match self {
            ExecKind::AlwaysWcet => &AlwaysWcet,
            ExecKind::PaperGaussian => &PaperGaussian,
        }
    }
}

/// A scheduling policy as selected by a sweep cell: one of the named
/// driver policies, or the timeout-shutdown baseline (which is
/// parameterized by its timeout and therefore not a `PolicyKind`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    Kind(PolicyKind),
    /// FPS + power-down after the given idle timeout (no exact wake timer).
    TimeoutShutdown(Dur),
}

impl PolicyChoice {
    /// Stable report name (`"timeout-<dur>"` for the shutdown baseline).
    pub fn name(self) -> String {
        match self {
            PolicyChoice::Kind(kind) => kind.name().to_string(),
            PolicyChoice::TimeoutShutdown(t) => format!("timeout-{t}"),
        }
    }
}

impl From<PolicyKind> for PolicyChoice {
    fn from(kind: PolicyKind) -> Self {
        PolicyChoice::Kind(kind)
    }
}

/// A fully-specified simulation cell. Build with [`Cell::new`] and the
/// `with_*` modifiers; run through [`crate::run_sweep`].
///
/// Two cells that compare equal are the same run: `run*` is a pure
/// function of the cell and the horizon scale, so equal cells at the
/// same scale produce the same report.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Label used in results ("avionics", "u0.50/s3", ...). Defaults to the
    /// task-set name.
    pub app: String,
    /// The workload, *unscaled* (the runner applies `bcet_fraction`).
    pub ts: TaskSet,
    /// The processor.
    pub cpu: CpuSpec,
    /// The scheduling policy.
    pub policy: PolicyChoice,
    /// The execution-time model.
    pub exec: ExecKind,
    /// BCET as a fraction of WCET, applied to `ts` before the run.
    pub bcet_fraction: f64,
    /// Seed for the per-job execution-time streams.
    pub seed: u64,
    /// Simulation horizon; `None` picks `default_horizon` of the set.
    pub horizon: Option<Dur>,
    /// Context-switch cost (see [`SimConfig::context_switch`]).
    pub context_switch: Dur,
    /// Per-`SlowDown` scheduler cost (see [`SimConfig::ratio_overhead`]).
    pub ratio_overhead: Dur,
    /// Tick-driven kernel period; `None` = event-driven.
    pub tick: Option<Dur>,
    /// Deterministic fault-injection model ([`FaultConfig::none`] = the
    /// idealized fault-free kernel).
    pub faults: FaultConfig,
}

impl Cell {
    /// A cell with the given workload/processor/policy at WCET (fraction
    /// 1.0), seed 0, `AlwaysWcet`, default horizon, zero overheads.
    pub fn new(ts: TaskSet, cpu: CpuSpec, policy: impl Into<PolicyChoice>) -> Self {
        Cell {
            app: ts.name().to_string(),
            ts,
            cpu,
            policy: policy.into(),
            exec: ExecKind::AlwaysWcet,
            bcet_fraction: 1.0,
            seed: 0,
            horizon: None,
            context_switch: Dur::ZERO,
            ratio_overhead: Dur::ZERO,
            tick: None,
            faults: FaultConfig::none(),
        }
    }

    pub fn with_app(mut self, app: impl Into<String>) -> Self {
        self.app = app.into();
        self
    }

    pub fn with_exec(mut self, exec: ExecKind) -> Self {
        self.exec = exec;
        self
    }

    pub fn with_bcet_fraction(mut self, frac: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac) && frac > 0.0,
            "BCET fraction in (0, 1]"
        );
        self.bcet_fraction = frac;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_horizon(mut self, horizon: Dur) -> Self {
        self.horizon = Some(horizon);
        self
    }

    pub fn with_context_switch(mut self, cs: Dur) -> Self {
        self.context_switch = cs;
        self
    }

    pub fn with_ratio_overhead(mut self, cost: Dur) -> Self {
        self.ratio_overhead = cost;
        self
    }

    pub fn with_tick(mut self, tick: Dur) -> Self {
        self.tick = Some(tick);
        self
    }

    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// A short human-readable label for progress/metrics lines.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/b{:.0}%/s{}",
            self.app,
            self.policy.name(),
            self.bcet_fraction * 100.0,
            self.seed
        );
        if !self.faults.is_none() {
            label.push('/');
            label.push_str(&self.faults.label());
        }
        label
    }

    /// The horizon this cell will simulate, after the runner's
    /// `horizon_scale` stretch factor. `default_horizon` reads only the
    /// periods and the hyperperiod, which BCET scaling leaves alone, so
    /// it takes the unscaled set.
    pub fn effective_horizon(&self, horizon_scale: f64) -> Dur {
        let base = self.horizon.unwrap_or_else(|| default_horizon(&self.ts));
        if horizon_scale == 1.0 {
            base
        } else {
            assert!(horizon_scale > 0.0, "horizon scale must be positive");
            Dur::from_ns(((base.as_ns() as f64) * horizon_scale).round().max(1.0) as u64)
        }
    }

    /// Runs the cell serially. Every input is by-value or `Sync`, so the
    /// parallel runner calls this unchanged — byte-identical results by
    /// construction.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] the underlying simulation rejects the cell with
    /// (invalid inputs, overflow-scale horizons, exhausted budgets).
    pub fn run(&self, horizon_scale: f64) -> Result<SimReport, SimError> {
        self.run_probed_opts(horizon_scale, &mut SimWorkspace::new(), false, &mut NoProbe)
    }

    /// [`Cell::run`] with a caller-provided [`SimWorkspace`]. The parallel
    /// runner gives each worker thread one workspace for its whole batch,
    /// so a sweep's kernel-buffer allocations are O(threads), not O(cells).
    ///
    /// # Errors
    ///
    /// As [`Cell::run`].
    pub fn run_in(&self, horizon_scale: f64, ws: &mut SimWorkspace) -> Result<SimReport, SimError> {
        self.run_probed_opts(horizon_scale, ws, false, &mut NoProbe)
    }

    /// [`Cell::run_in`] with the steady-state fast-forward optionally
    /// forced off (`force_full = true` maps to
    /// [`SimConfig::with_force_full_simulation`]). Reports are
    /// bit-identical either way; the flag exists for A/B timing and
    /// differential testing.
    ///
    /// # Errors
    ///
    /// As [`Cell::run`].
    pub fn run_opts(
        &self,
        horizon_scale: f64,
        ws: &mut SimWorkspace,
        force_full: bool,
    ) -> Result<SimReport, SimError> {
        self.run_probed_opts(horizon_scale, ws, force_full, &mut NoProbe)
    }

    /// [`Cell::run_opts`] with a [`Probe`] attached to the kernel's
    /// observability seam — the one body every other `run*` method calls.
    /// The report is bit-identical to the probe-free run (the kernel's
    /// zero-cost-observability contract); the probe accumulates whatever
    /// it watches on the side.
    ///
    /// A probe only sees events the kernel actually simulates, so callers
    /// that need *complete* event coverage (a
    /// [`Trace`](lpfps_kernel::trace::Trace), histogram collection) must
    /// pass `force_full = true` to disable the steady-state fast-forward.
    ///
    /// # Errors
    ///
    /// As [`Cell::run`].
    pub fn run_probed_opts<P: Probe>(
        &self,
        horizon_scale: f64,
        ws: &mut SimWorkspace,
        force_full: bool,
        probe: &mut P,
    ) -> Result<SimReport, SimError> {
        let scaled = self.ts.with_bcet_fraction(self.bcet_fraction);
        let cfg = self.sim_config(horizon_scale, force_full);
        let exec = self.exec.model();
        let mut report = match self.policy {
            PolicyChoice::Kind(kind) => run_in(&scaled, &self.cpu, kind, exec, &cfg, ws, probe)?,
            PolicyChoice::TimeoutShutdown(timeout) => {
                let policy = &mut TimeoutShutdown::new(timeout);
                simulate_in(&scaled, &self.cpu, policy, exec, &cfg, ws, probe)?
            }
        };
        report.taskset = self.app.clone();
        Ok(report)
    }

    /// The fully-resolved [`SimConfig`] this cell runs under (the
    /// reference oracle reuses it, so a diagnosis always runs the exact
    /// configuration the engine ran).
    pub fn sim_config(&self, horizon_scale: f64, force_full: bool) -> SimConfig {
        let mut cfg = SimConfig::new(self.effective_horizon(horizon_scale))
            .with_seed(self.seed)
            .with_context_switch(self.context_switch)
            .with_ratio_overhead(self.ratio_overhead);
        if force_full {
            cfg = cfg.with_force_full_simulation();
        }
        if let Some(tick) = self.tick {
            cfg = cfg.with_tick(tick);
        }
        cfg.with_faults(self.faults)
    }
}

/// Deterministic per-cell histogram summaries, collected by the sweep
/// runner's [`JobRecorder`](lpfps_obs::JobRecorder) probe when `--hist`
/// is on. Pure functions of the cell (integer bucket counts), so they
/// serialize byte-identically across thread counts like every other
/// [`CellResult`] field. `None` in results predating histogram
/// collection — and in any sweep run without `--hist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellHistograms {
    /// Job response times, nanoseconds.
    pub response_ns: HistSummary,
    /// Per-job busy/ramp energy, femtojoules.
    pub job_energy_fj: HistSummary,
}

/// Why a sweep cell failed: a stable machine-readable kind (the
/// [`SimError::kind`] slug, or `"panic"` for a caught panic), the full
/// human-readable message, and the cell's coordinates in the sweep grid —
/// so a failure inside a thousand-cell results file is self-locating
/// without cross-referencing indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellError {
    /// Stable error-kind slug (`"invalid-config"`, `"budget-exhausted"`,
    /// ..., or `"panic"`).
    pub kind: String,
    /// The rendered error (or panic payload) message.
    pub message: String,
    /// The failing cell's application label.
    pub app: String,
    /// The failing cell's policy report name.
    pub policy: String,
    /// The failing cell's execution-time seed.
    pub seed: u64,
}

impl CellError {
    /// The structured record of a cell a simulation rejected with a typed
    /// error.
    pub fn from_sim(cell: &Cell, err: &SimError) -> Self {
        CellError {
            kind: err.kind().to_string(),
            message: err.to_string(),
            app: cell.app.clone(),
            policy: cell.policy.name(),
            seed: cell.seed,
        }
    }

    /// The structured record of a cell whose execution *panicked* — the
    /// containment path for defects the typed taxonomy missed.
    pub fn from_panic(cell: &Cell, message: String) -> Self {
        CellError {
            kind: "panic".to_string(),
            message,
            app: cell.app.clone(),
            policy: cell.policy.name(),
            seed: cell.seed,
        }
    }
}

/// How a sweep cell finished.
///
/// Deterministic: cell execution is a pure function of the cell, so a
/// given cell either always completes or always fails with the same
/// error — across thread counts and re-runs alike. (Wall-clock facts
/// live in [`CellMetrics`](crate::metrics::CellMetrics), never here.)
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The simulation ran to its horizon.
    Ok,
    /// The cell was rejected with a typed error, or its execution
    /// panicked; [`CellError`] preserves the kind and origin.
    Failed { error: CellError },
}

impl CellStatus {
    /// True if the cell completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }
}

/// The deterministic, serializable summary of one finished cell — what
/// sweep binaries write to `--json`. Contains no wall-clock data, so
/// parallel and serial runs serialize byte-identically. Round-trips
/// through JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Cell label (application or synthetic-set name).
    pub app: String,
    /// Policy report name.
    pub policy: String,
    /// BCET as a fraction of WCET.
    pub bcet_fraction: f64,
    /// Execution-time seed.
    pub seed: u64,
    /// Active fault-model label (`"none"` for the idealized kernel).
    pub faults: String,
    /// Average normalized power (1.0 = flat-out busy processor).
    pub average_power: f64,
    /// Deadline misses observed.
    pub misses: usize,
    /// Watchdog degradations engaged (see
    /// [`Counters::degradations`](lpfps_kernel::report::Counters)).
    pub degradations: u64,
    /// Kernel decision points processed (deterministic work measure).
    pub events: u64,
    /// How the cell finished; the numeric fields above are zero when not
    /// [`CellStatus::Ok`].
    pub status: CellStatus,
    /// Per-cell histogram summaries (`--hist` runs only; `None`
    /// otherwise, including in all results committed before histogram
    /// collection existed).
    pub hist: Option<CellHistograms>,
}

impl CellResult {
    /// Builds the summary from a cell and its finished report.
    pub fn from_report(cell: &Cell, report: &SimReport) -> Self {
        CellResult {
            app: cell.app.clone(),
            policy: cell.policy.name(),
            bcet_fraction: cell.bcet_fraction,
            seed: cell.seed,
            faults: cell.faults.label(),
            average_power: report.average_power(),
            misses: report.misses.len(),
            degradations: report.counters.degradations,
            events: report.counters.events,
            status: CellStatus::Ok,
            hist: None,
        }
    }

    /// The summary of a cell that failed: identity fields from the cell,
    /// zeroed measurements, and the structured error.
    pub fn failed(cell: &Cell, error: CellError) -> Self {
        CellResult {
            app: cell.app.clone(),
            policy: cell.policy.name(),
            bcet_fraction: cell.bcet_fraction,
            seed: cell.seed,
            faults: cell.faults.label(),
            average_power: 0.0,
            misses: 0,
            degradations: 0,
            events: 0,
            status: CellStatus::Failed { error },
            hist: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_failed_json_shape_round_trips() {
        let status = CellStatus::Failed {
            error: CellError {
                kind: "invalid-config".to_string(),
                message: "invalid simulation config: simulation horizon must be positive"
                    .to_string(),
                app: "avionics".to_string(),
                policy: "lpfps".to_string(),
                seed: 7,
            },
        };
        let json = serde_json::to_string(&status).unwrap();
        let back: CellStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, status);
    }

    #[test]
    fn ok_status_round_trips_as_plain_string() {
        let json = serde_json::to_string(&CellStatus::Ok).unwrap();
        assert_eq!(json, "\"Ok\"");
        let back: CellStatus = serde_json::from_str(&json).unwrap();
        assert_eq!(back, CellStatus::Ok);
    }
}
