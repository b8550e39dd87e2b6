//! Fleet-level aggregation of per-core simulation reports.

use lpfps_kernel::report::SimReport;
use lpfps_tasks::time::Dur;
use serde::{value, Deserialize, Error, Map, Serialize, Value};

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
/// Serialization is hand-written in declaration order, matching the
/// repo's stable-JSON conventions: identical runs produce identical
/// bytes, and each entry of `reports` is the *unmodified* uniprocessor
/// `SimReport` of that core (the bit-identity contract — see the crate
/// docs).
#[derive(Debug, Clone)]
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

impl Serialize for MultiReport {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        map.insert(String::from("policy"), self.policy.to_value());
        map.insert(String::from("partitioner"), self.partitioner.to_value());
        map.insert(String::from("cores"), self.cores.to_value());
        map.insert(String::from("taskset"), self.taskset.to_value());
        map.insert(String::from("horizon"), self.horizon.to_value());
        map.insert(String::from("assignment"), self.assignment.to_value());
        map.insert(String::from("per_core"), self.per_core.to_value());
        map.insert(String::from("fleet_energy"), self.fleet_energy.to_value());
        map.insert(
            String::from("fleet_average_power"),
            self.fleet_average_power.to_value(),
        );
        map.insert(String::from("fleet_misses"), self.fleet_misses.to_value());
        map.insert(String::from("reports"), self.reports.to_value());
        Value::Object(map)
    }
}

impl Deserialize for MultiReport {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_object()
            .ok_or_else(|| Error::custom("expected an object for MultiReport"))?;
        let field = |name: &str| value::expect_field(map, "MultiReport", name);
        Ok(MultiReport {
            policy: String::from_value(field("policy")?)?,
            partitioner: String::from_value(field("partitioner")?)?,
            cores: usize::from_value(field("cores")?)?,
            taskset: String::from_value(field("taskset")?)?,
            horizon: Dur::from_value(field("horizon")?)?,
            assignment: Vec::from_value(field("assignment")?)?,
            per_core: Vec::from_value(field("per_core")?)?,
            fleet_energy: f64::from_value(field("fleet_energy")?)?,
            fleet_average_power: f64::from_value(field("fleet_average_power")?)?,
            fleet_misses: usize::from_value(field("fleet_misses")?)?,
            reports: Vec::from_value(field("reports")?)?,
        })
    }
}
