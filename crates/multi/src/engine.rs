//! The multicore run loop: partition once, then run each core's subset
//! through the uniprocessor kernel.
//!
//! [`MultiCell`] pairs a uniprocessor sweep [`Cell`] with a core count and
//! a [`PartitionerKind`]. Its derived per-core cells are ordinary sweep
//! cells: a grid of fleets runs them through `lpfps_sweep::run_sweep`
//! like any other sweep, and [`MultiCell::assemble`] merges each fleet's
//! reports **in core order**, so the [`MultiReport`] is byte-identical
//! across thread counts. [`MultiEngine`] runs one fleet's cores one after
//! another on the caller's thread, reusing one [`SimWorkspace`], and
//! simulates each distinct per-core cell of the current fleet once.
//!
//! # Bit-identity by construction
//!
//! A derived core cell *is* a uniprocessor cell: same `Cell::run_in` code
//! path, same scaled horizon, with seeds re-keyed per core through
//! [`core_seed`] (identity on core 0) for both the execution-time and the
//! fault streams. Running a core's subset standalone through the
//! single-core kernel therefore reproduces the engine's per-core report
//! bit for bit, and a one-core run reproduces the uniprocessor golden
//! fingerprints (gated in `crates/bench/tests/multicore_golden.rs`).
//! For the same reason a core whose derived cell equals one already run
//! (`Cell: PartialEq`) at the same horizon scale can take that run's
//! report: partitioners that place a fleet alike share their per-core
//! runs, and every report stays byte-identical.

use lpfps_faults::core_seed;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::error::SimError;
use lpfps_kernel::report::SimReport;
use lpfps_sweep::Cell;
use lpfps_tasks::taskset::TaskSet;

use crate::partition::{Partition, Partitioner, PartitionerKind};
use crate::report::{CoreBreakdown, MultiReport};

/// A multicore simulation point: a uniprocessor [`Cell`] (workload,
/// processor, policy, execution model, seed, overheads) plus the core
/// count and the partitioner that splits its task set.
#[derive(Debug, Clone)]
pub struct MultiCell {
    /// The uniprocessor cell the per-core cells derive from. Its `ts` is
    /// the *fleet* task set; its `cpu`/`policy`/overheads apply to every
    /// core (identical cores).
    pub base: Cell,
    /// The number of identical cores.
    pub cores: usize,
    /// The task-to-core allocator.
    pub partitioner: PartitionerKind,
}

impl MultiCell {
    /// A multicore point over `base` with `cores` cores and `partitioner`.
    pub fn new(base: Cell, cores: usize, partitioner: PartitionerKind) -> Self {
        MultiCell {
            base,
            cores,
            partitioner,
        }
    }

    /// Stable display label: `"{base}/m{cores}/{partitioner}"`.
    pub fn label(&self) -> String {
        format!(
            "{}/m{}/{}",
            self.base.label(),
            self.cores,
            self.partitioner.name()
        )
    }

    /// Partitions the fleet task set and derives one uniprocessor [`Cell`]
    /// per non-idle core (`None` for cores that received no tasks).
    ///
    /// Derivation rules (the bit-identity contract):
    /// * core `k` runs the partition's `TaskSet` for core `k` (parent
    ///   declaration order, RM priorities re-derived);
    /// * `seed` and `faults.seed` re-key through [`core_seed`] — identity
    ///   on core 0, so a one-core run is byte-equal to the base cell;
    /// * the horizon is pinned on every core to the base cell's explicit
    ///   horizon, or else the default horizon of the fleet set (the
    ///   base cell's unscaled horizon, shared so per-core reports align);
    /// * `app` becomes `"{base}.c{k}"` (unchanged when `cores == 1`);
    /// * everything else (cpu, policy, exec, BCET fraction, overheads,
    ///   tick) copies verbatim.
    ///
    /// # Errors
    ///
    /// [`SimError::Partition`] when the fleet set is invalid or the
    /// partitioner cannot place every task.
    pub fn derived_cells(&self) -> Result<(Partition, Vec<Option<Cell>>), SimError> {
        let partition = self.partitioner.partition(&self.base.ts, self.cores)?;
        let horizon = self.base.effective_horizon(1.0);
        let mut cells = Vec::with_capacity(self.cores);
        for (k, core_set) in partition.cores.iter().enumerate() {
            let Some(ts) = core_set else {
                cells.push(None);
                continue;
            };
            let mut cell = self.base.clone();
            cell.app = if self.cores == 1 {
                self.base.app.clone()
            } else {
                format!("{}.c{k}", self.base.app)
            };
            cell.ts = ts.clone();
            cell.seed = core_seed(self.base.seed, k);
            cell.faults = self
                .base
                .faults
                .with_seed(core_seed(self.base.faults.seed, k));
            cell.horizon = Some(horizon);
            cells.push(Some(cell));
        }
        Ok((partition, cells))
    }

    /// Merges the per-core reports of one run of this cell into a
    /// [`MultiReport`]. `partition` and `reports` come from
    /// [`Self::derived_cells`] and the runs of its cells: `reports[k]` is
    /// core `k`'s report (`None` for an idle core), run with the same
    /// `horizon_scale` passed here.
    pub fn assemble(
        &self,
        partition: &Partition,
        reports: Vec<Option<SimReport>>,
        horizon_scale: f64,
    ) -> MultiReport {
        let horizon = self.base.effective_horizon(horizon_scale);
        let seconds = horizon.as_secs_f64();
        let mut per_core = Vec::with_capacity(reports.len());
        let mut fleet_energy = 0.0;
        let mut power_sum = 0.0;
        let mut fleet_misses = 0;
        for (k, report) in reports.iter().enumerate() {
            let (average_power, misses) = match report {
                Some(r) => (r.average_power(), r.misses.len()),
                None => (0.0, 0),
            };
            let energy = average_power * seconds;
            fleet_energy += energy;
            power_sum += average_power;
            fleet_misses += misses;
            per_core.push(CoreBreakdown {
                core: k,
                tasks: partition.tasks_on(k),
                utilization: partition.utilizations[k],
                average_power,
                energy,
                misses,
            });
        }
        let cores = reports.len();
        MultiReport {
            policy: self.base.policy.name(),
            partitioner: self.partitioner.name().to_string(),
            cores,
            taskset: self.base.app.clone(),
            horizon,
            assignment: partition.assignment.clone(),
            per_core,
            fleet_energy,
            fleet_average_power: if cores == 0 {
                0.0
            } else {
                power_sum / cores as f64
            },
            fleet_misses,
            reports,
        }
    }
}

/// Runs [`MultiCell`]s serially, reusing one [`SimWorkspace`] across
/// cores and runs (the same allocation-reuse contract as the sweep
/// runner's workers), and simulating each distinct per-core cell of the
/// current fleet once.
///
/// The current fleet is the fleet task set (`mc.base.ts`) of the last
/// run. The engine keeps the report of every per-core cell it has run
/// for that fleet; a derived cell equal to one of them, at the same
/// `horizon_scale` bits, gets a clone of that report instead of a new
/// simulation. Partitioners often place a fleet alike, so grids over
/// partitioners repeat many per-core cells. A run with another fleet
/// drops the stored reports, so memory stays at one fleet's worth.
/// Errors are never stored.
#[derive(Debug, Default)]
pub struct MultiEngine {
    ws: SimWorkspace,
    /// The fleet task set the stored reports belong to.
    fleet: Option<TaskSet>,
    /// Each distinct per-core cell run for `fleet`, with the bits of its
    /// `horizon_scale` and its report.
    runs: Vec<(Cell, u64, SimReport)>,
}

impl MultiEngine {
    /// An engine that runs cores in index order on the caller's thread.
    pub fn serial() -> Self {
        MultiEngine::default()
    }

    /// Runs every core of `mc` to its shared horizon (scaled by
    /// `horizon_scale`) and aggregates the per-core reports with
    /// [`MultiCell::assemble`]. A core whose derived cell this engine
    /// already ran for the same fleet and scale reuses that report.
    ///
    /// # Errors
    ///
    /// [`SimError::Partition`] when partitioning fails; otherwise the
    /// lowest-indexed core's simulation error, if any.
    pub fn run(&mut self, mc: &MultiCell, horizon_scale: f64) -> Result<MultiReport, SimError> {
        let (partition, cells) = mc.derived_cells()?;
        if self.fleet.as_ref() != Some(&mc.base.ts) {
            self.fleet = Some(mc.base.ts.clone());
            self.runs.clear();
        }
        let reports = cells
            .into_iter()
            .map(|cell| {
                cell.map(|cell| self.core_report(cell, horizon_scale))
                    .transpose()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(mc.assemble(&partition, reports, horizon_scale))
    }

    /// The report of one derived core cell: a stored one if this fleet
    /// already ran an equal cell at the same scale, else a new run.
    fn core_report(&mut self, cell: Cell, horizon_scale: f64) -> Result<SimReport, SimError> {
        let scale = horizon_scale.to_bits();
        if let Some((_, _, report)) = self
            .runs
            .iter()
            .find(|(seen, bits, _)| *bits == scale && *seen == cell)
        {
            return Ok(report.clone());
        }
        let report = cell.run_in(horizon_scale, &mut self.ws)?;
        self.runs.push((cell, scale, report.clone()));
        Ok(report)
    }
}
