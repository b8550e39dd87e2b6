//! Fleet-level aggregation of per-core simulation reports.

use lpfps_kernel::report::SimReport;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// Per-core summary row of a [`MultiReport`] — enough to read load
/// balance and energy split without digging into the full per-core
/// reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreBreakdown {
    /// Core index.
    pub core: usize,
    /// Tasks the partitioner placed here.
    pub tasks: usize,
    /// Total WCET utilization placed here.
    pub utilization: f64,
    /// Average normalized power over the horizon (0 for an idle core).
    pub average_power: f64,
    /// Normalized energy over the horizon (`average_power × seconds`).
    pub energy: f64,
    /// Deadline misses on this core.
    pub misses: usize,
}

/// The result of one multicore run: per-core uniprocessor reports plus
/// fleet aggregates.
///
/// Serialized with the fields in declaration order, so identical runs
/// produce identical bytes, and each entry of `reports` is the
/// *unmodified* uniprocessor `SimReport` of that core (the bit-identity
/// contract — see the crate docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiReport {
    /// Policy name (every core runs the same policy).
    pub policy: String,
    /// Partitioner name (`"ffd"`, `"bfd"`, `"wfd"`, `"rta-ff"`).
    pub partitioner: String,
    /// Core count, including idle cores.
    pub cores: usize,
    /// The fleet workload label (the base cell's `app`).
    pub taskset: String,
    /// The shared simulation horizon (after sweep scaling).
    pub horizon: Dur,
    /// `assignment[i]` = core of the fleet set's task `i` (declaration
    /// order).
    pub assignment: Vec<usize>,
    /// One summary row per core, in core order.
    pub per_core: Vec<CoreBreakdown>,
    /// Total normalized energy across cores.
    pub fleet_energy: f64,
    /// Mean per-core average power (idle cores count as 0), i.e. the
    /// fleet's normalized power draw per core.
    pub fleet_average_power: f64,
    /// Total deadline misses across cores.
    pub fleet_misses: usize,
    /// The per-core uniprocessor reports, in core order (`None` for a
    /// core that received no tasks).
    pub reports: Vec<Option<SimReport>>,
}

impl MultiReport {
    /// The report of core `k`, if that core ran anything.
    pub fn core_report(&self, k: usize) -> Option<&SimReport> {
        self.reports.get(k).and_then(|r| r.as_ref())
    }

    /// True when no core missed a deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.fleet_misses == 0
    }
}
