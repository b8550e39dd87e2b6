//! Deterministic task-to-core allocators.
//!
//! All partitioners place tasks in **decreasing-utilization order** (the
//! classic bin-packing heuristic ordering), with an *intrinsic* total
//! order so the result is a pure function of the task set's contents:
//! utilization compared exactly as the rational `wcet/period` (u128
//! cross-multiplication, no f64 ties), then period, then WCET, then name.
//! Partitioning a permuted declaration of the same tasks therefore yields
//! the same task → core mapping (pinned by proptest).
//!
//! The capacity allocators ([`PartitionerKind::Ffd`],
//! [`PartitionerKind::Bfd`], [`PartitionerKind::Wfd`]) admit a task onto a
//! core while the core's utilization stays ≤ 1 (up to 1e-9 of f64
//! rounding); [`PartitionerKind::RtaFf`] instead admits a task only onto a
//! core where the subset — with RM priorities re-derived — still passes
//! exact response-time analysis, so every core it emits is provably
//! schedulable at full speed under WCET demand.
//!
//! Every allocator first checks the parent set once with
//! `validate_task_set` (a deserialized fleet may break the task model's
//! rules), then emits a typed [`Partition`] (each task assigned exactly
//! once; per-core `TaskSet`s keep the parent's declaration order) or a
//! structured [`PartitionError`] — never a panic.

use core::fmt;
use lpfps_kernel::error::SimError;
use lpfps_tasks::analysis::rta_schedulable;
use lpfps_tasks::error::{validate_task_set, TaskSetError};
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;

/// Slack allowed on the unit-capacity check, absorbing f64 rounding of
/// exact rational utilizations (`10us/50us + ... == 1.0` must fit).
const CAPACITY_EPS: f64 = 1e-9;

/// Why a task set could not be partitioned onto the requested cores.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionError {
    /// Zero cores requested.
    NoCores,
    /// The parent task set breaks a rule of the task model (only a
    /// deserialized set can).
    InvalidSet(TaskSetError),
    /// No core has the capacity left for this task (capacity allocators).
    CapacityExceeded {
        /// The task that found every core full.
        task: String,
        /// The core count it was offered.
        cores: usize,
    },
    /// No core admits this task under exact response-time analysis
    /// ([`PartitionerKind::RtaFf`]).
    Unschedulable {
        /// The task every core's RTA refused.
        task: String,
        /// The core count it was offered.
        cores: usize,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoCores => write!(f, "at least one core is required"),
            PartitionError::InvalidSet(e) => write!(f, "invalid task set: {e}"),
            PartitionError::CapacityExceeded { task, cores } => {
                write!(f, "no core of {cores} has capacity left for task `{task}`")
            }
            PartitionError::Unschedulable { task, cores } => write!(
                f,
                "no core of {cores} admits task `{task}` under response-time analysis"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

impl From<PartitionError> for SimError {
    fn from(e: PartitionError) -> Self {
        SimError::Partition {
            reason: e.to_string(),
        }
    }
}

/// The result of a successful partitioning: every task of the parent set
/// assigned to exactly one core.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Per-core task sets, indexed by core. Tasks keep the parent's
    /// declaration order; RM priorities are re-derived over the subset;
    /// the set is named `"{parent}.c{k}"`. `None` for a core that
    /// received no tasks (more cores than tasks).
    pub cores: Vec<Option<TaskSet>>,
    /// `assignment[i]` = the core of the parent's task `i` (declaration
    /// order).
    pub assignment: Vec<usize>,
    /// Per-core total utilization (0.0 for an idle core), summed in
    /// declaration order.
    pub utilizations: Vec<f64>,
}

impl Partition {
    /// How many tasks landed on core `k`.
    pub fn tasks_on(&self, k: usize) -> usize {
        self.assignment.iter().filter(|&&c| c == k).count()
    }
}

/// A deterministic task-to-core allocator ([`PartitionerKind`]).
pub trait Partitioner {
    /// The allocator's stable report name.
    fn name(&self) -> &'static str;

    /// Partitions `ts` onto `cores` identical unit-capacity cores.
    ///
    /// # Errors
    ///
    /// [`PartitionError::NoCores`] or [`PartitionError::InvalidSet`]
    /// before any placement, then a structured [`PartitionError`] when a
    /// task cannot be placed.
    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionError>;
}

/// Task indices in the intrinsic decreasing-utilization order (see the
/// module docs for the tie chain).
fn decreasing_utilization(ts: &TaskSet) -> Vec<usize> {
    let tasks = ts.tasks();
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| {
        let (ta, tb) = (&tasks[a], &tasks[b]);
        // u_a vs u_b as wcet_a/period_a vs wcet_b/period_b, exactly.
        let lhs = ta.wcet().as_ns() as u128 * tb.period().as_ns() as u128;
        let rhs = tb.wcet().as_ns() as u128 * ta.period().as_ns() as u128;
        rhs.cmp(&lhs)
            .then_with(|| ta.period().cmp(&tb.period()))
            .then_with(|| ta.wcet().cmp(&tb.wcet()))
            .then_with(|| ta.name().cmp(tb.name()))
    });
    order
}

/// Builds the typed [`Partition`] from a complete assignment.
fn build(ts: &TaskSet, cores: usize, assignment: Vec<usize>) -> Partition {
    let mut per_core: Vec<Vec<Task>> = vec![Vec::new(); cores];
    let mut utilizations = vec![0.0f64; cores];
    for (i, &k) in assignment.iter().enumerate() {
        per_core[k].push(ts.tasks()[i].clone());
        utilizations[k] += ts.tasks()[i].utilization();
    }
    let sets = per_core
        .into_iter()
        .enumerate()
        .map(|(k, tasks)| {
            (!tasks.is_empty())
                .then(|| TaskSet::rate_monotonic(format!("{}.c{k}", ts.name()), tasks))
        })
        .collect();
    Partition {
        cores: sets,
        assignment,
        utilizations,
    }
}

/// How a capacity allocator picks among the cores that can still hold a
/// task.
#[derive(Clone, Copy)]
enum Fit {
    First,
    Best,
    Worst,
}

/// The capacity allocators, on a valid set (so `C <= T`: every task fits
/// an empty core) and at least one core.
fn capacity_partition(ts: &TaskSet, cores: usize, fit: Fit) -> Result<Partition, PartitionError> {
    let tasks = ts.tasks();
    let mut load = vec![0.0f64; cores];
    let mut assignment = vec![0usize; tasks.len()];
    for &i in &decreasing_utilization(ts) {
        let u = tasks[i].utilization();
        let fits = |k: usize| load[k] + u <= 1.0 + CAPACITY_EPS;
        let chosen = match fit {
            Fit::First => (0..cores).find(|&k| fits(k)),
            // Best fit: the fullest core that still fits (ties: lowest
            // index). Worst fit: the emptiest (ties: lowest index).
            // max_by keeps the *last* maximum, so break load ties toward
            // the lower index explicitly.
            Fit::Best => (0..cores)
                .filter(|&k| fits(k))
                .max_by(|&a, &b| load[a].total_cmp(&load[b]).then(b.cmp(&a))),
            Fit::Worst => (0..cores)
                .filter(|&k| fits(k))
                .min_by(|&a, &b| load[a].total_cmp(&load[b])),
        };
        let Some(k) = chosen else {
            return Err(PartitionError::CapacityExceeded {
                task: tasks[i].name().to_string(),
                cores,
            });
        };
        load[k] += u;
        assignment[i] = k;
    }
    Ok(build(ts, cores, assignment))
}

/// [`PartitionerKind::RtaFf`], on a valid set and at least one core.
fn rta_first_fit(ts: &TaskSet, cores: usize) -> Result<Partition, PartitionError> {
    let tasks = ts.tasks();
    // Per-core lists of task indices, kept in declaration order.
    let mut on_core: Vec<Vec<usize>> = vec![Vec::new(); cores];
    let mut assignment = vec![0usize; tasks.len()];
    for &i in &decreasing_utilization(ts) {
        let mut placed = None;
        for (k, members_on_k) in on_core.iter().enumerate() {
            let mut subset = members_on_k.clone();
            subset.push(i);
            subset.sort_unstable();
            let members: Vec<Task> = subset.iter().map(|&j| tasks[j].clone()).collect();
            if rta_schedulable(&TaskSet::rate_monotonic("rta-candidate", members)) {
                placed = Some((k, subset));
                break;
            }
        }
        let Some((k, subset)) = placed else {
            return Err(PartitionError::Unschedulable {
                task: tasks[i].name().to_string(),
                cores,
            });
        };
        on_core[k] = subset;
        assignment[i] = k;
    }
    Ok(build(ts, cores, assignment))
}

/// The task-to-core allocators (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionerKind {
    /// First-Fit Decreasing: the lowest-indexed core with capacity left.
    Ffd,
    /// Best-Fit Decreasing: the *fullest* core that still fits.
    Bfd,
    /// Worst-Fit Decreasing: the *emptiest* core, which leaves the most
    /// per-core slack for DVS.
    Wfd,
    /// RTA-gated first fit: the lowest-indexed core whose subset still
    /// passes exact response-time analysis, so every core is provably
    /// RM-schedulable at full speed — the premise of the per-core LPFPS
    /// slow-down (Theorem 1).
    RtaFf,
}

impl PartitionerKind {
    /// All allocators, in grid order.
    pub const ALL: [PartitionerKind; 4] = [
        PartitionerKind::Ffd,
        PartitionerKind::Bfd,
        PartitionerKind::Wfd,
        PartitionerKind::RtaFf,
    ];

    /// Parses a stable name (`"ffd"`, `"bfd"`, `"wfd"`, `"rta-ff"`).
    pub fn parse(name: &str) -> Option<Self> {
        PartitionerKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl Partitioner for PartitionerKind {
    fn name(&self) -> &'static str {
        match self {
            PartitionerKind::Ffd => "ffd",
            PartitionerKind::Bfd => "bfd",
            PartitionerKind::Wfd => "wfd",
            PartitionerKind::RtaFf => "rta-ff",
        }
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionError> {
        if cores == 0 {
            return Err(PartitionError::NoCores);
        }
        validate_task_set(ts).map_err(PartitionError::InvalidSet)?;
        match self {
            PartitionerKind::Ffd => capacity_partition(ts, cores, Fit::First),
            PartitionerKind::Bfd => capacity_partition(ts, cores, Fit::Best),
            PartitionerKind::Wfd => capacity_partition(ts, cores, Fit::Worst),
            PartitionerKind::RtaFf => rta_first_fit(ts, cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::time::Dur;

    fn six_tasks() -> TaskSet {
        // Utilizations 0.4, 0.4, 0.25, 0.25, 0.2, 0.2 (total 1.7).
        TaskSet::rate_monotonic(
            "six",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(40)),
                Task::new("b", Dur::from_us(100), Dur::from_us(40)).with_phase(Dur::from_us(7)),
                Task::new("c", Dur::from_us(80), Dur::from_us(20)),
                Task::new("d", Dur::from_us(80), Dur::from_us(20)).with_phase(Dur::from_us(3)),
                Task::new("e", Dur::from_us(50), Dur::from_us(10)),
                Task::new("f", Dur::from_us(50), Dur::from_us(10)).with_phase(Dur::from_us(11)),
            ],
        )
    }

    #[test]
    fn ffd_packs_greedily_in_utilization_order() {
        let p = PartitionerKind::Ffd.partition(&six_tasks(), 2).unwrap();
        // Order a,b,c,d,e,f (ties by name): a+b=0.8 on c0; c would
        // overflow c0 (1.05) -> c1; d -> c1 (0.5); e -> c0 (1.0, exact
        // fit); f no longer fits c0 -> c1 (0.7).
        assert_eq!(p.assignment, vec![0, 0, 1, 1, 0, 1]);
        assert!((p.utilizations[0] - 1.0).abs() < 1e-9);
        assert!((p.utilizations[1] - 0.7).abs() < 1e-9);
    }

    #[test]
    fn wfd_balances_load() {
        let p = PartitionerKind::Wfd.partition(&six_tasks(), 2).unwrap();
        // a -> c0, b -> c1, then alternating onto the emptier core.
        assert!((p.utilizations[0] - 0.85).abs() < 1e-9);
        assert!((p.utilizations[1] - 0.85).abs() < 1e-9);
    }

    #[test]
    fn bfd_fills_the_fullest_fitting_core() {
        let p = PartitionerKind::Bfd.partition(&six_tasks(), 3).unwrap();
        // a->c0, b (fits c0? 0.8 yes, fullest) ->c0; c: c0 at 0.8+0.25
        // overflows, c1 empty vs c2 empty -> c1; d->c1 (0.5, fullest
        // fitting vs c2); e: c0 0.8+0.2=1.0 fits and c0 is fullest ->c0;
        // f: c0 full, c1 0.5 fullest ->c1.
        assert_eq!(p.assignment, vec![0, 0, 1, 1, 0, 1]);
        assert!(p.cores[2].is_none(), "third core stays idle");
        assert_eq!(p.utilizations[2], 0.0);
    }

    #[test]
    fn per_core_sets_keep_declaration_order_and_rm_priorities() {
        let p = PartitionerKind::Ffd.partition(&six_tasks(), 2).unwrap();
        let c0 = p.cores[0].as_ref().unwrap();
        assert_eq!(c0.name(), "six.c0");
        let names: Vec<&str> = c0.tasks().iter().map(|t| t.name()).collect();
        assert_eq!(names, ["a", "b", "e"], "declaration order preserved");
        // RM re-derived: e (50us) outranks a (100us).
        let ids = c0.ids_by_priority();
        assert_eq!(c0.task(ids[0]).name(), "e");
        // Phases survive the rebuild.
        assert_eq!(c0.tasks()[1].phase(), Dur::from_us(7));
    }

    #[test]
    fn rta_first_fit_cores_all_pass_rta() {
        let p = PartitionerKind::RtaFf.partition(&six_tasks(), 2).unwrap();
        for set in p.cores.iter().flatten() {
            assert!(rta_schedulable(set), "{} must pass RTA", set.name());
        }
    }

    #[test]
    fn errors_are_structured() {
        let ts = six_tasks();
        assert!(matches!(
            PartitionerKind::Ffd.partition(&ts, 0),
            Err(PartitionError::NoCores)
        ));
        // Total utilization 1.7 > 1 core.
        let err = PartitionerKind::Ffd.partition(&ts, 1).unwrap_err();
        assert!(matches!(err, PartitionError::CapacityExceeded { .. }));
        let err = PartitionerKind::RtaFf.partition(&ts, 1).unwrap_err();
        assert!(matches!(err, PartitionError::Unschedulable { .. }));
        // And they fold into the kernel taxonomy.
        let sim: SimError = err.into();
        assert_eq!(sim.kind(), "invalid-partition");
        assert!(sim.to_string().starts_with("partitioning failed: "));
    }

    #[test]
    fn heavy_task_is_named() {
        let ts = TaskSet::rate_monotonic(
            "heavy",
            vec![Task::new("whale", Dur::from_us(10), Dur::from_us(10))],
        );
        // u = 1.0 fits exactly; u > 1 breaks C <= T, which the set's
        // validation rejects before any allocator runs.
        let p = PartitionerKind::Ffd.partition(&ts, 1).unwrap();
        assert_eq!(p.assignment, vec![0]);
    }
}
