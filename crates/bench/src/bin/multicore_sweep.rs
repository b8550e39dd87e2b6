//! Multicore experiment: partitioned LPFPS fleets on M identical cores.
//!
//! The paper's slow-down logic is strictly per-processor: Theorem 1
//! reasons about one ready queue and one speed knob. The natural
//! multicore extension is *partitioned* scheduling — allocate tasks to
//! cores once, then run the proven uniprocessor kernel on each core
//! independently. This sweep grids core count × partitioning heuristic ×
//! policy over replicated workloads and reports *fleet* energy: the sum
//! of the per-core normalized energies.
//!
//! Two claims are checked on the full grid:
//!
//! * LPFPS (with or without the watchdog) beats plain FPS on fleet
//!   energy at **every** (workload, cores, partitioner) point — the
//!   per-core savings survive aggregation regardless of how the load is
//!   spread;
//! * every core the RTA-gated allocator (`rta-ff`) admits is miss-free
//!   under all three policies, while the capacity heuristics (which only
//!   check `U ≤ 1`) carry no such guarantee — packing and schedulability
//!   are different contracts.
//!
//! One-core points are also asserted identical across partitioners:
//! with a single core there is nothing to decide, so the allocator must
//! not leak into the results.
//!
//! Every fleet's per-core cells run through the shared sweep runner, so
//! the uniform sweep flags (`--threads`, `--check`, `--hist`,
//! `--trace-out`, `--metrics`) apply per core cell; each fleet's report
//! is then merged in core order. Each distinct per-core cell runs once:
//! a core cell equal to one of the same fleet (partitioners often place
//! a fleet alike) shares its run, so the full grid simulates 168 of its
//! 324 per-core cells, and `--metrics`, `--hist` and `--check` count each
//! distinct per-core simulation once.
//!
//! Usage: `cargo run --release --bin multicore_sweep --
//! [--cores M] [--partitioner NAME] [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::report::SimReport;
use lpfps_multi::{CoreBreakdown, MultiCell, Partition, PartitionerKind};
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, SweepSpec};
use lpfps_tasks::taskset::TaskSet;
use lpfps_workloads::{ins, table1, WorkloadBuilder};
use serde::Serialize;

/// Core counts gridded (1 is the uniprocessor control column).
const CORE_GRID: [usize; 4] = [1, 2, 4, 8];

/// Seed of the replica stagger streams (see `WorkloadBuilder`), shared
/// with the multicore equivalence gates in `tests/multicore_golden.rs`.
const REPLICA_SEED: u64 = 11;

/// Execution-time stream seed of the base cell; per-core streams are
/// re-keyed from it via `core_seed`.
const CELL_SEED: u64 = 42;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
];

/// One grid point: a (workload, cores, partitioner, policy) cell with
/// its fleet aggregates and per-core breakdown.
#[derive(Debug, Serialize)]
struct MultiPoint {
    workload: String,
    cores: usize,
    partitioner: String,
    policy: String,
    /// Cores that actually received tasks.
    cores_used: usize,
    /// Heaviest per-core WCET utilization the allocator produced.
    max_core_utilization: f64,
    fleet_average_power: f64,
    fleet_energy: f64,
    fleet_misses: usize,
    per_core: Vec<CoreBreakdown>,
}

/// Everything `--json` persists. Full per-core `SimReport`s are omitted
/// on purpose — the breakdown rows carry the fleet story, and the
/// bit-identity of the underlying reports is pinned by the test gates.
#[derive(Debug, Serialize)]
struct MultiSweepJson {
    points: Vec<MultiPoint>,
}

/// One fleet of the grid: its multicore cell, its partition, and the
/// spec index of each core's cell (`None` for an idle core).
struct Fleet {
    workload: String,
    mc: MultiCell,
    partition: Partition,
    slots: Vec<Option<usize>>,
}

/// Fleet workloads: the paper's harmonic Table 1 set and the non-harmonic
/// INS avionics set, replicated once per core with staggered seeds.
fn workloads() -> [TaskSet; 2] {
    [table1(), ins()]
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("multicore_sweep: {msg}");
    std::process::exit(2);
}

fn main() {
    let parsed = Cli::new(
        "multicore_sweep",
        "partitioned fleets: cores × partitioner × policy, aggregate power accounting",
    )
    .sweep()
    .opt(
        "--cores",
        "M",
        "simulate M identical cores only [default: grid]",
    )
    .opt(
        "--partitioner",
        "NAME",
        "task-to-core allocator only: ffd, bfd, wfd, rta-ff [default: grid]",
    )
    .parse();

    let core_grid: Vec<usize> = match parsed.value("--cores") {
        Some(v) => match v.parse() {
            Ok(m) if m > 0 => vec![m],
            _ => die(format_args!(
                "flag `--cores`: `{v}` is not a positive integer"
            )),
        },
        None => CORE_GRID.to_vec(),
    };
    let partitioners: Vec<PartitionerKind> = match parsed.value("--partitioner") {
        Some(name) => vec![PartitionerKind::parse(name).unwrap_or_else(|| {
            die(format_args!(
                "flag `--partitioner`: `{name}` is not one of ffd, bfd, wfd, rta-ff"
            ))
        })],
        None => PartitionerKind::ALL.to_vec(),
    };

    // Every fleet's distinct per-core cells go into one sweep, in grid
    // order. Partitioners often place a fleet alike (BFD packs like FFD on
    // replicated sets), so a derived cell equal to one already pushed for
    // the same fleet shares its slot: 168 simulations where the grid
    // derives 324 per-core cells.
    let mut spec = SweepSpec::new("multicore_sweep");
    let mut fleets = Vec::new();
    for base in workloads() {
        for &cores in &core_grid {
            let fleet_start = spec.len();
            for &kind in &partitioners {
                for policy in POLICIES {
                    let fleet = WorkloadBuilder::new(base.clone())
                        .with_seed(REPLICA_SEED)
                        .replicate(cores);
                    let cell = Cell::new(fleet, CpuSpec::arm8(), policy)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(0.5)
                        .with_seed(CELL_SEED);
                    let mc = MultiCell::new(cell, cores, kind);
                    let (partition, cells) = mc
                        .derived_cells()
                        .unwrap_or_else(|e| panic!("{}: {e}", mc.label()));
                    let slots = cells
                        .into_iter()
                        .map(|cell| {
                            cell.map(|cell| {
                                match spec.cells[fleet_start..].iter().position(|c| *c == cell) {
                                    Some(i) => fleet_start + i,
                                    None => {
                                        spec.push(cell);
                                        spec.len() - 1
                                    }
                                }
                            })
                        })
                        .collect();
                    fleets.push(Fleet {
                        workload: base.name().to_string(),
                        mc,
                        partition,
                        slots,
                    });
                }
            }
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());
    let core_report = |i: usize| -> SimReport {
        outcome
            .report(i)
            .cloned()
            .unwrap_or_else(|| panic!("{}: {:?}", spec.cells[i].label(), outcome.results[i].status))
    };

    let mut points = Vec::with_capacity(fleets.len());
    for fleet in &fleets {
        let reports = fleet
            .slots
            .iter()
            .map(|slot| slot.map(core_report))
            .collect();
        let report = fleet
            .mc
            .assemble(&fleet.partition, reports, parsed.horizon_scale);
        points.push(MultiPoint {
            workload: fleet.workload.clone(),
            cores: fleet.mc.cores,
            partitioner: report.partitioner,
            policy: report.policy,
            cores_used: report.per_core.iter().filter(|c| c.tasks > 0).count(),
            max_core_utilization: report
                .per_core
                .iter()
                .map(|c| c.utilization)
                .fold(0.0, f64::max),
            fleet_average_power: report.fleet_average_power,
            fleet_energy: report.fleet_energy,
            fleet_misses: report.fleet_misses,
            per_core: report.per_core,
        });
    }

    println!("Multicore sweep: partitioned fleets, normalized fleet energy");
    println!();
    println!(
        "{:>8} {:>5} {:>7} {:>10} | {:>4} {:>6} {:>8} {:>10} {:>6} {:>8}",
        "workload", "cores", "part", "policy", "used", "maxU", "power", "energy", "miss", "vs fps"
    );
    // Each (workload, cores, partitioner) group starts with its fps row.
    let mut fps_energy = 0.0;
    for p in &points {
        if p.policy == "fps" {
            fps_energy = p.fleet_energy;
        }
        let vs_fps = if fps_energy > 0.0 {
            format!("{:>7.1}%", 100.0 * (1.0 - p.fleet_energy / fps_energy))
        } else {
            String::from("       -")
        };
        println!(
            "{:>8} {:>5} {:>7} {:>10} | {:>4} {:>6.3} {:>8.4} {:>10.4} {:>6} {vs_fps}",
            p.workload,
            p.cores,
            p.partitioner,
            p.policy,
            p.cores_used,
            p.max_core_utilization,
            p.fleet_average_power,
            p.fleet_energy,
            p.fleet_misses,
        );
    }

    // The qualitative claims need the full horizon; a run at
    // `--horizon-scale` below 1 still exercises every grid point but skips
    // them.
    if parsed.horizon_scale >= 1.0 {
        let group = |p: &MultiPoint| (p.workload.clone(), p.cores, p.partitioner.clone());
        for p in &points {
            if p.policy == "fps" {
                let fps = p.fleet_energy;
                for q in points.iter().filter(|q| group(q) == group(p)) {
                    if q.policy != "fps" {
                        assert!(
                            q.fleet_energy < fps,
                            "{}/{}c/{}: {} fleet energy {:.4} must beat fps {:.4}",
                            q.workload,
                            q.cores,
                            q.partitioner,
                            q.policy,
                            q.fleet_energy,
                            fps
                        );
                    }
                }
            }
            // RTA admission is a schedulability proof; capacity packing is
            // not, so only rta-ff points carry the miss-free guarantee.
            if p.partitioner == "rta-ff" {
                assert_eq!(
                    p.fleet_misses, 0,
                    "{}/{}c/rta-ff/{}: RTA-admitted cores must be miss-free",
                    p.workload, p.cores, p.policy
                );
            }
        }
        // One core leaves the allocator nothing to decide: the control
        // column must be partitioner-independent, bit for bit.
        for p in points.iter().filter(|p| p.cores == 1) {
            for q in points
                .iter()
                .filter(|q| q.cores == 1 && q.workload == p.workload && q.policy == p.policy)
            {
                assert!(
                    q.fleet_energy == p.fleet_energy
                        && q.fleet_average_power == p.fleet_average_power
                        && q.fleet_misses == p.fleet_misses,
                    "{}/1c/{}: {} and {} disagree on the uniprocessor column",
                    p.workload,
                    p.policy,
                    p.partitioner,
                    q.partitioner
                );
            }
        }
        println!();
        println!("checked: lpfps & lpfps-wd < fps at every point; rta-ff miss-free; 1-core partitioner-independent");
    }

    parsed.emit(&MultiSweepJson { points }, &spec, &outcome);
}
