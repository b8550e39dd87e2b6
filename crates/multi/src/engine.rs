//! The multicore run loop: partition once, then run each core's subset
//! through the uniprocessor kernel.
//!
//! [`MultiCell`] pairs a uniprocessor sweep [`Cell`] with a core count and
//! a [`PartitionerKind`]; [`MultiEngine`] executes the derived per-core
//! cells — serially or over a small work-stealing pool with per-worker
//! [`SimWorkspace`] reuse — and merges the reports **in core order**, so
//! the assembled [`MultiReport`] is byte-identical across thread counts.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lpfps::driver::default_horizon;
use lpfps_faults::core_seed;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::error::SimError;
use lpfps_kernel::report::SimReport;
use lpfps_sweep::Cell;
use lpfps_tasks::time::Dur;

use crate::partition::{Partition, Partitioner, PartitionerKind};
use crate::report::MultiReport;

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

    /// The horizon every derived core cell runs to (before sweep scaling):
    /// the base cell's explicit horizon, or `default_horizon` of the
    /// scaled fleet set — shared across cores so per-core reports align.
    pub fn shared_horizon(&self) -> Dur {
        self.base.horizon.unwrap_or_else(|| {
            default_horizon(&self.base.ts.with_bcet_fraction(self.base.bcet_fraction))
        })
    }

    /// Partitions the fleet task set and derives one uniprocessor [`Cell`]
    /// per non-idle core (`None` for cores that received no tasks).
    ///
    /// Derivation rules (the bit-identity contract):
    /// * core `k` runs the partition's `TaskSet` for core `k` (parent
    ///   declaration order, RM priorities re-derived);
    /// * `seed` and `faults.seed` re-key through [`core_seed`] — identity
    ///   on core 0, so a one-core run is byte-equal to the base cell;
    /// * the horizon is pinned to [`Self::shared_horizon`] on every core;
    /// * `app` becomes `"{base}.c{k}"` (unchanged when `cores == 1`);
    /// * everything else (cpu, policy, exec, BCET fraction, overheads,
    ///   tick) copies verbatim.
    ///
    /// # Errors
    ///
    /// [`SimError::Partition`] when the partitioner cannot place every
    /// task.
    pub fn derived_cells(&self) -> Result<(Partition, Vec<Option<Cell>>), SimError> {
        let partition = self.partitioner.partition(&self.base.ts, self.cores)?;
        let horizon = self.shared_horizon();
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
}

/// Runs [`MultiCell`]s, reusing per-worker simulation workspaces across
/// runs (the same allocation-reuse contract as the sweep runner).
#[derive(Debug, Default)]
pub struct MultiEngine {
    threads: usize,
    workspaces: Vec<SimWorkspace>,
}

impl MultiEngine {
    /// An engine using all available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        MultiEngine {
            threads,
            workspaces: Vec::new(),
        }
    }

    /// A single-threaded engine (cores run in index order on the caller's
    /// thread).
    pub fn serial() -> Self {
        MultiEngine {
            threads: 1,
            workspaces: Vec::new(),
        }
    }

    /// Caps the worker count (0 is treated as 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Runs every core of `mc` to its shared horizon (scaled by
    /// `horizon_scale`) and aggregates the per-core reports.
    ///
    /// Cores execute on up to `threads` workers via an atomic
    /// work-stealing counter; each worker checks a [`SimWorkspace`] out of
    /// the engine's pool for its whole shift. Results land in a slot
    /// vector indexed by core, so the merged [`MultiReport`] is identical
    /// bytes regardless of worker count or completion order.
    ///
    /// # Errors
    ///
    /// [`SimError::Partition`] when partitioning fails; otherwise the
    /// lowest-indexed core's simulation error, if any.
    pub fn run(&mut self, mc: &MultiCell, horizon_scale: f64) -> Result<MultiReport, SimError> {
        let (partition, cells) = mc.derived_cells()?;
        let live: Vec<(usize, &Cell)> = cells
            .iter()
            .enumerate()
            .filter_map(|(k, c)| c.as_ref().map(|c| (k, c)))
            .collect();
        let workers = self.threads.min(live.len()).max(1);
        while self.workspaces.len() < workers {
            self.workspaces.push(SimWorkspace::new());
        }

        let mut slots: Vec<Option<Result<SimReport, SimError>>> = Vec::new();
        slots.resize_with(cells.len(), || None);

        if workers <= 1 {
            let ws = &mut self.workspaces[0];
            for &(k, cell) in &live {
                slots[k] = Some(cell.run_in(horizon_scale, ws));
            }
        } else {
            let pool: Mutex<Vec<SimWorkspace>> =
                Mutex::new(self.workspaces.drain(..workers).collect());
            let shared = Mutex::new(&mut slots);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let mut ws = match pool.lock() {
                            Ok(mut g) => g.pop(),
                            Err(p) => p.into_inner().pop(),
                        }
                        .unwrap_or_default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(k, cell)) = live.get(i) else {
                                break;
                            };
                            let out = cell.run_in(horizon_scale, &mut ws);
                            match shared.lock() {
                                Ok(mut g) => g[k] = Some(out),
                                Err(p) => p.into_inner()[k] = Some(out),
                            }
                        }
                        match pool.lock() {
                            Ok(mut g) => g.push(ws),
                            Err(p) => p.into_inner().push(ws),
                        }
                    });
                }
            });
            let returned = match pool.into_inner() {
                Ok(v) => v,
                Err(p) => p.into_inner(),
            };
            self.workspaces.splice(0..0, returned);
        }

        let mut reports: Vec<Option<SimReport>> = Vec::with_capacity(cells.len());
        for slot in slots {
            match slot {
                Some(Ok(report)) => reports.push(Some(report)),
                Some(Err(e)) => return Err(e),
                None => reports.push(None),
            }
        }
        let horizon = scaled_horizon(mc.shared_horizon(), horizon_scale);
        Ok(MultiReport::assemble(mc, &partition, horizon, reports))
    }
}

/// Mirrors `Cell::effective_horizon`'s scaling so the fleet horizon
/// matches the per-core report horizons.
fn scaled_horizon(h: Dur, scale: f64) -> Dur {
    #[allow(clippy::float_cmp)] // deliberate exact mirror of the cell path
    if scale == 1.0 {
        return h;
    }
    Dur::from_ns(((h.as_ns() as f64) * scale).round().max(1.0) as u64)
}
