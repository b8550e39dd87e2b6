//! The four workloads: how their cells are generated from the workload
//! seed, and how one batch of cells is run, untraced or traced.
//!
//! Every workload is a batch job run as a closed loop: `workers` threads,
//! each taking the next cell as soon as its previous one finishes. One
//! batch is the workload at its stated size; a run repeats batches for
//! its measured time.

use crate::spans::{Recorder, Span, NO_CELL, ROOT};
use lpfps::driver::PolicyKind;
use lpfps_bench::fingerprint::fnv1a;
use lpfps_bench::BCET_FRACTIONS;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_multi::{CoreBreakdown, MultiCell, MultiEngine, MultiReport, PartitionerKind};
use lpfps_sweep::{run_sweep, Cell, CellError, CellResult, ExecKind, RunOptions, SweepSpec};
use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
use lpfps_tasks::taskset::TaskSet;
use lpfps_workloads::{applications, avionics, cnc, ins, table1, WorkloadBuilder};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The workload seed used when `--seed` is absent. At this seed the
/// `fig8-gaussian` and `multicore-fleet` outputs are exactly the
/// committed `results/fig8_power.json` and `results/multicore_sweep.json`.
pub const DEFAULT_SEED: u64 = 0;

/// Execution-time seeds per Figure-8 grid point (as `fig8_power`).
pub const FIG8_SEEDS: u64 = 3;

/// Execution-time seeds per `tiny-cells` grid point.
pub const TINY_SEEDS: u64 = 10;

/// Whole hyperperiods each `long-horizon-wcet` cell simulates.
pub const LONG_CYCLES: u64 = 50;

/// Every policy the driver knows, in declaration order.
pub const ALL_POLICIES: [PolicyKind; 9] = [
    PolicyKind::Fps,
    PolicyKind::FpsPd,
    PolicyKind::LpfpsDvsOnly,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsOptimal,
    PolicyKind::StaticSlowdown,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];

/// The policies of `long-horizon-wcet`.
const LONG_POLICIES: [PolicyKind; 5] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];

/// The `multicore_sweep` grid axes.
const CORE_GRID: [usize; 4] = [1, 2, 4, 8];
const MULTI_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
];

/// `multicore_sweep`'s replica-stagger and cell seeds; the workload seed
/// is added to both.
const REPLICA_SEED: u64 = 11;
const CELL_SEED: u64 = 42;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig8Gaussian,
    LongHorizonWcet,
    TinyCells,
    MulticoreFleet,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig8Gaussian,
        Kind::LongHorizonWcet,
        Kind::TinyCells,
        Kind::MulticoreFleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig8Gaussian => "fig8-gaussian",
            Kind::LongHorizonWcet => "long-horizon-wcet",
            Kind::TinyCells => "tiny-cells",
            Kind::MulticoreFleet => "multicore-fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Rounds of calibration work per calibration (see `calib`): at the
    /// reference speed, about the time-weighted mean latency of the
    /// workload's cells (sum of squared latencies over their sum), so that
    /// a calibration meets the host's fast speed about as often as the
    /// cells that make up most of a batch's time.
    pub fn calibration_rounds(self) -> u32 {
        match self {
            Kind::Fig8Gaussian => 32_000,
            Kind::LongHorizonWcet => 400_000,
            Kind::TinyCells => 500,
            Kind::MulticoreFleet => 330_000,
        }
    }

    /// Closed-loop worker count: `nproc` for `tiny-cells`, 1 otherwise.
    pub fn workers(self, nproc: usize) -> usize {
        match self {
            Kind::TinyCells => nproc.max(1),
            _ => 1,
        }
    }
}

/// One generated workload: the cells the program receives.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    pub workers: usize,
    /// Uniprocessor cells (empty for `multicore-fleet`).
    pub spec: SweepSpec,
    /// Multicore cells (empty for every other workload).
    pub multi: Vec<MultiCell>,
    /// The base workload (`table1`, `ins`) of each multicore cell.
    pub multi_base: Vec<&'static str>,
}

impl Workload {
    /// Generates the workload's cells from its seed.
    pub fn build(kind: Kind, seed: u64, workers: usize) -> Workload {
        let cpu = CpuSpec::arm8();
        let mut spec = SweepSpec::new(kind.name());
        let mut multi = Vec::new();
        let mut multi_base = Vec::new();
        match kind {
            Kind::Fig8Gaussian => {
                let seeds: Vec<u64> = (0..FIG8_SEEDS).map(|i| seed * FIG8_SEEDS + i).collect();
                spec = SweepSpec::grid(
                    kind.name(),
                    &applications(),
                    &cpu,
                    &[PolicyKind::Fps, PolicyKind::Lpfps],
                    &BCET_FRACTIONS,
                    &seeds,
                    ExecKind::PaperGaussian,
                );
            }
            Kind::LongHorizonWcet => {
                for ts in [table1(), avionics(), cnc(), ins()] {
                    let h = hyperperiod(&ts).expect("catalog hyperperiods are representable");
                    let horizon = h
                        .checked_mul(LONG_CYCLES)
                        .expect("50 hyperperiods fit a Dur");
                    for policy in LONG_POLICIES {
                        spec.push(
                            Cell::new(ts.clone(), cpu.clone(), policy)
                                .with_exec(ExecKind::AlwaysWcet)
                                .with_horizon(horizon)
                                .with_seed(seed),
                        );
                    }
                }
                // Every job runs its WCET, so only the cells' seed field
                // (echoed in the results) depends on the workload seed;
                // the simulated work is the same for every seed.
            }
            Kind::TinyCells => {
                let seeds: Vec<u64> = (0..TINY_SEEDS).map(|i| seed * TINY_SEEDS + i).collect();
                spec = SweepSpec::grid(
                    kind.name(),
                    &[table1(), cnc()],
                    &cpu,
                    &ALL_POLICIES,
                    &BCET_FRACTIONS,
                    &seeds,
                    ExecKind::PaperGaussian,
                );
            }
            Kind::MulticoreFleet => {
                for (name, base) in [("table1", table1()), ("ins", ins())] {
                    for cores in CORE_GRID {
                        for part in PartitionerKind::ALL {
                            for policy in MULTI_POLICIES {
                                let fleet = WorkloadBuilder::new(base.clone())
                                    .with_seed(REPLICA_SEED + seed)
                                    .replicate(cores);
                                let cell = Cell::new(fleet, cpu.clone(), policy)
                                    .with_exec(ExecKind::PaperGaussian)
                                    .with_bcet_fraction(0.5)
                                    .with_seed(CELL_SEED + seed);
                                multi.push(MultiCell::new(cell, cores, part));
                                multi_base.push(name);
                            }
                        }
                    }
                }
            }
        }
        Workload {
            kind,
            seed,
            workers,
            spec,
            multi,
            multi_base,
        }
    }

    /// Cells in one batch (multicore cells count once each).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spec.len() + self.multi.len()
    }

    /// The uniprocessor cells whose runs make up the kernel's work: the
    /// sweep cells, or every multicore cell's per-core cells.
    pub fn kernel_cells(&self) -> Vec<Cell> {
        let mut cells = self.spec.cells.clone();
        for mc in &self.multi {
            let (_, derived) = mc
                .derived_cells()
                .expect("the multicore grid partitions at every point");
            cells.extend(derived.into_iter().flatten());
        }
        cells
    }

    /// The distinct task sets (after BCET scaling) the workload simulates.
    pub fn task_sets(&self) -> Vec<TaskSet> {
        let mut sets: Vec<TaskSet> = Vec::new();
        let cells = self
            .spec
            .cells
            .iter()
            .chain(self.multi.iter().map(|m| &m.base));
        for cell in cells {
            let ts = cell.ts.with_bcet_fraction(cell.bcet_fraction);
            if !sets
                .iter()
                .any(|s| s.name() == ts.name() && s.tasks() == ts.tasks())
            {
                sets.push(ts);
            }
        }
        sets
    }

    /// Set-up validation: every distinct task set passes the boundary
    /// validators and has a representable hyperperiod; uniprocessor sets
    /// are RM-schedulable and every multicore cell partitions.
    pub fn validate(&self) -> Result<(), String> {
        let cpu = CpuSpec::arm8();
        lpfps_cpu::validate_cpu_spec(&cpu).map_err(|e| e.to_string())?;
        for ts in self.task_sets() {
            lpfps_tasks::error::validate_task_set(&ts).map_err(|e| e.to_string())?;
            hyperperiod(&ts).ok_or_else(|| format!("{}: hyperperiod overflows", ts.name()))?;
            if self.multi.is_empty() && !rta_schedulable(&ts) {
                return Err(format!("{}: not RM-schedulable", ts.name()));
            }
        }
        for mc in &self.multi {
            mc.derived_cells()
                .map_err(|e| format!("{}: {e}", mc.label()))?;
        }
        Ok(())
    }

    /// Pays lazy set-up before the first timed cell: one FPS run over
    /// one hyperperiod of every uniprocessor application, and the first
    /// two multicore cells, so that its cost hardly depends on the seed.
    pub fn warm_up(&self) {
        let mut ws = SimWorkspace::new();
        let mut seen: Vec<&str> = Vec::new();
        for cell in &self.spec.cells {
            if seen.contains(&cell.ts.name()) {
                continue;
            }
            seen.push(cell.ts.name());
            let h = hyperperiod(&cell.ts).expect("validated task sets have a hyperperiod");
            let _ = Cell::new(cell.ts.clone(), CpuSpec::arm8(), PolicyKind::Fps)
                .with_exec(cell.exec)
                .with_horizon(h)
                .run_in(1.0, &mut ws);
        }
        let mut engine = MultiEngine::serial();
        for mc in self.multi.iter().take(2) {
            let _ = engine.run(mc, 1.0);
        }
    }
}

/// Deterministic work counts of one batch. Every field must repeat
/// exactly from batch to batch, run to run and across worker counts; a
/// difference is a behaviour change, never noise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cells: u64,
    pub events: u64,
    pub sched_passes: u64,
    pub dispatches: u64,
    pub releases: u64,
    pub ramps: u64,
    pub power_downs: u64,
    pub cycles_detected: u64,
    pub events_skipped: u64,
    pub cores_used: u64,
}

impl Counts {
    fn add_report(&mut self, r: &lpfps_kernel::report::SimReport) {
        let c = &r.counters;
        self.events += c.events;
        self.sched_passes += c.sched_passes;
        self.dispatches += c.dispatches;
        self.releases += c.releases;
        self.ramps += c.ramps;
        self.power_downs += c.power_downs;
    }

    /// Decision points the kernel actually simulated (extrapolated ones
    /// excluded).
    pub fn simulated_events(&self) -> u64 {
        self.events - self.events_skipped
    }
}

/// One untraced batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Host time of the whole batch: running every cell plus emitting the
    /// results payload.
    pub wall_ns: u64,
    /// Host time of the running part alone (emission excluded).
    pub run_ns: u64,
    /// Host latency of each cell, in spec order.
    pub cell_ns: Vec<u64>,
    pub counts: Counts,
    /// FNV-1a of the emitted results payload.
    pub digest: u64,
    pub payload: String,
    /// Cells that failed (the sweep runner's structured failures, or
    /// multicore cells whose engine run returned an error).
    pub failed: usize,
    /// Soft-timeout retries the sweep runner made.
    pub retries: u64,
    /// Broken output claims (misses where none may occur, ...).
    pub violations: Vec<String>,
}

/// One grid point of the multicore payload, field for field as
/// `multicore_sweep --json` writes it.
#[derive(Debug, Serialize)]
struct MultiPoint {
    workload: String,
    cores: usize,
    partitioner: String,
    policy: String,
    cores_used: usize,
    max_core_utilization: f64,
    fleet_average_power: f64,
    fleet_energy: f64,
    fleet_misses: usize,
    per_core: Vec<CoreBreakdown>,
}

#[derive(Debug, Serialize)]
struct MultiSweepJson {
    points: Vec<MultiPoint>,
}

fn multi_point(mc: &MultiCell, workload: &str, report: MultiReport) -> MultiPoint {
    MultiPoint {
        workload: workload.to_string(),
        cores: mc.cores,
        partitioner: report.partitioner.clone(),
        policy: report.policy.clone(),
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
    }
}

/// Output claims every batch must uphold.
fn check_results(kind: Kind, results: &[CellResult], counts: &Counts) -> Vec<String> {
    let mut v = Vec::new();
    for r in results.iter().filter(|r| r.status.is_ok()) {
        if matches!(kind, Kind::Fig8Gaussian | Kind::LongHorizonWcet) && r.misses > 0 {
            v.push(format!(
                "{}/{}/s{}: {} deadline misses on a schedulable set",
                r.app, r.policy, r.seed, r.misses
            ));
        }
    }
    if kind == Kind::LongHorizonWcet && counts.cycles_detected == 0 {
        v.push("long-horizon-wcet: the steady-state detector never engaged".into());
    }
    v
}

fn check_multi(points: &[MultiPoint]) -> Vec<String> {
    let mut v = Vec::new();
    for p in points {
        if p.partitioner == "rta-ff" && p.fleet_misses > 0 {
            v.push(format!(
                "{}/{}c/rta-ff/{}: RTA-admitted cores missed",
                p.workload, p.cores, p.policy
            ));
        }
        if p.policy == "fps" {
            for q in points.iter().filter(|q| {
                q.policy != "fps"
                    && q.workload == p.workload
                    && q.cores == p.cores
                    && q.partitioner == p.partitioner
            }) {
                if q.fleet_energy >= p.fleet_energy {
                    v.push(format!(
                        "{}/{}c/{}: {} fleet energy does not beat fps",
                        q.workload, q.cores, q.partitioner, q.policy
                    ));
                }
            }
        }
    }
    v
}

/// Runs one untraced batch of `w` on `workers` closed-loop workers.
pub fn run_batch(w: &Workload, workers: usize) -> Batch {
    if w.kind == Kind::MulticoreFleet {
        return run_multi_batch(w);
    }
    let opts = RunOptions::serial().with_threads(workers);
    let started = Instant::now();
    let outcome = run_sweep(&w.spec, &opts);
    let run_ns = started.elapsed().as_nanos() as u64;
    let payload = serde_json::to_string_pretty(&outcome.results).expect("results serialize");
    let wall_ns = started.elapsed().as_nanos() as u64;

    let mut counts = Counts {
        cells: w.spec.len() as u64,
        ..Counts::default()
    };
    for (report, m) in outcome.reports.iter().zip(&outcome.metrics.per_cell) {
        if let Some(r) = report {
            counts.add_report(r);
            counts.cores_used += 1;
        }
        counts.cycles_detected += m.cycles_detected;
        counts.events_skipped += m.events_skipped;
    }
    let violations = check_results(w.kind, &outcome.results, &counts);
    Batch {
        wall_ns,
        run_ns,
        cell_ns: outcome.metrics.per_cell.iter().map(|m| m.wall_ns).collect(),
        counts,
        digest: fnv1a(payload.as_bytes()),
        payload,
        failed: outcome.metrics.failures,
        retries: outcome
            .metrics
            .per_cell
            .iter()
            .map(|m| u64::from(m.attempts - 1))
            .sum(),
        violations,
    }
}

fn run_multi_batch(w: &Workload) -> Batch {
    let mut engine = MultiEngine::serial();
    let mut cell_ns = Vec::with_capacity(w.multi.len());
    let mut points = Vec::with_capacity(w.multi.len());
    let mut counts = Counts {
        cells: w.multi.len() as u64,
        ..Counts::default()
    };
    let mut failed = 0;
    let mut violations = Vec::new();
    let started = Instant::now();
    for (mc, base) in w.multi.iter().zip(&w.multi_base) {
        let t = Instant::now();
        let out = engine.run(mc, 1.0);
        cell_ns.push(t.elapsed().as_nanos() as u64);
        match out {
            Ok(report) => {
                for r in report.reports.iter().flatten() {
                    counts.add_report(r);
                }
                points.push(multi_point(mc, base, report));
            }
            Err(e) => {
                failed += 1;
                eprintln!("{}: {e}", mc.label());
            }
        }
    }
    let run_ns = started.elapsed().as_nanos() as u64;
    let json = MultiSweepJson { points };
    let payload = serde_json::to_string_pretty(&json).expect("multicore results serialize");
    let wall_ns = started.elapsed().as_nanos() as u64;
    counts.cores_used = json.points.iter().map(|p| p.cores_used as u64).sum();
    violations.extend(check_multi(&json.points));
    Batch {
        wall_ns,
        run_ns,
        cell_ns,
        counts,
        digest: fnv1a(payload.as_bytes()),
        payload,
        failed,
        retries: 0,
        violations,
    }
}

/// One traced batch: the same work as [`run_batch`], run by the
/// benchmark's own closed loop so that a span can wrap each call into a
/// layer.
#[derive(Debug)]
pub struct TracedBatch {
    pub wall_ns: u64,
    pub spans: Vec<Span>,
}

/// Runs one traced batch. `lane_base` keeps span ids unique across
/// batches sharing `epoch`.
pub fn run_traced_batch(w: &Workload, epoch: Instant, lane_base: u32) -> TracedBatch {
    let started = Instant::now();
    let mut rec = Recorder::new(epoch, lane_base);
    let root = rec.open();
    if w.kind == Kind::MulticoreFleet {
        let mut engine = MultiEngine::serial();
        let mut points = Vec::with_capacity(w.multi.len());
        for (i, (mc, base)) in w.multi.iter().zip(&w.multi_base).enumerate() {
            let report = rec.span(root.0, i as u32, "multi", || engine.run(mc, 1.0));
            if let Ok(report) = report {
                points.push(multi_point(mc, base, report));
            }
        }
        rec.span(root.0, NO_CELL, "sweep.emit", || {
            serde_json::to_string_pretty(&MultiSweepJson { points }).expect("serialize")
        });
        rec.close(root, ROOT, NO_CELL, "sweep");
        return TracedBatch {
            wall_ns: started.elapsed().as_nanos() as u64,
            spans: rec.spans,
        };
    }

    let n = w.spec.len();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellResult>>> = Mutex::new(vec![None; n]);
    let worker_spans: Vec<Vec<Span>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.workers)
            .map(|k| {
                let (next, slots) = (&next, &slots);
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, lane_base + 1 + k as u32);
                    let mut ws = SimWorkspace::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = w.spec.cells.get(i) else {
                            break;
                        };
                        let out = rec.span(root.0, i as u32, "kernel", || {
                            cell.run_opts(1.0, &mut ws, false)
                        });
                        let result = match out {
                            Ok(report) => CellResult::from_report(cell, &report),
                            Err(e) => CellResult::failed(cell, CellError::from_sim(cell, &e)),
                        };
                        slots.lock().expect("no worker panicked holding the lock")[i] =
                            Some(result);
                    }
                    rec.spans
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced worker finished"))
            .collect()
    });
    let results: Vec<CellResult> = slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect();
    rec.span(root.0, NO_CELL, "sweep.emit", || {
        serde_json::to_string_pretty(&results).expect("serialize")
    });
    rec.close(root, ROOT, NO_CELL, "sweep");
    let mut spans = rec.spans;
    spans.extend(worker_spans.into_iter().flatten());
    TracedBatch {
        wall_ns: started.elapsed().as_nanos() as u64,
        spans,
    }
}

/// How `MultiEngine::run`'s time splits, measured from outside on one
/// batch: the engine call, the partition-and-derive step, and the
/// per-core kernel runs of the same cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiSplit {
    pub engine_ns: u64,
    pub derive_ns: u64,
    pub cores_ns: u64,
}

pub fn multi_split(w: &Workload) -> MultiSplit {
    let mut engine = MultiEngine::serial();
    let mut ws = SimWorkspace::new();
    let mut split = MultiSplit::default();
    for mc in &w.multi {
        let t = Instant::now();
        let _ = std::hint::black_box(engine.run(mc, 1.0));
        split.engine_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let derived = mc.derived_cells();
        split.derive_ns += t.elapsed().as_nanos() as u64;
        if let Ok((_, cells)) = derived {
            for cell in cells.iter().flatten() {
                let t = Instant::now();
                let _ = std::hint::black_box(cell.run_in(1.0, &mut ws));
                split.cores_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
    split
}

/// Runs every kernel cell once with fast-forward and once forced through
/// the full simulation; returns `(fast_ns, full_ns)` and the cells whose
/// two reports differ in any serialized byte.
pub fn fast_vs_full(cells: &[Cell]) -> (u64, u64, Vec<String>) {
    let mut ws = SimWorkspace::new();
    let (mut fast_ns, mut full_ns) = (0, 0);
    let mut mismatches = Vec::new();
    for cell in cells {
        let t = Instant::now();
        let fast = cell.run_opts(1.0, &mut ws, false);
        fast_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let full = cell.run_opts(1.0, &mut ws, true);
        full_ns += t.elapsed().as_nanos() as u64;
        let same = match (fast, full) {
            (Ok(a), Ok(b)) => serde_json::to_string(&a).ok() == serde_json::to_string(&b).ok(),
            (Err(a), Err(b)) => a.to_string() == b.to_string(),
            _ => false,
        };
        if !same {
            mismatches.push(format!(
                "{}: fast-forward report differs from full",
                cell.label()
            ));
        }
    }
    (fast_ns, full_ns, mismatches)
}

/// The committed result files the default seed must reproduce byte for
/// byte.
const FIG8_COMMITTED: &str = include_str!("../../results/fig8_power.json");
const MULTICORE_COMMITTED: &str = include_str!("../../results/multicore_sweep.json");

/// Re-renders `results/fig8_power.json` from a default-seed
/// `fig8-gaussian` batch payload: per-seed results averaged per grid
/// point, exactly as `fig8_power` does. The committed file predates the
/// sweep runner and lists each application's points by BCET fraction,
/// then policy, so the points are put in that order before rendering.
fn fig8_power_json(payload: &str) -> String {
    let results: Vec<CellResult> = serde_json::from_str(payload).expect("payload parses");
    let mut cells: Vec<lpfps_bench::PowerCell> = results
        .chunks(FIG8_SEEDS as usize)
        .map(|g| lpfps_bench::PowerCell::mean_over_seeds(&g.iter().collect::<Vec<_>>()))
        .collect();
    let apps: Vec<String> = applications()
        .iter()
        .map(|t| t.name().to_string())
        .collect();
    let rank = |c: &lpfps_bench::PowerCell| apps.iter().position(|a| *a == c.app);
    // Stable, so each fraction keeps the grid's policy order.
    cells.sort_by(|a, b| {
        rank(a)
            .cmp(&rank(b))
            .then(a.bcet_fraction.total_cmp(&b.bcet_fraction))
    });
    serde_json::to_string_pretty(&cells).expect("power cells serialize")
}

/// Compares a default-seed batch with the committed result file of its
/// workload, if it has one.
pub fn committed_mismatch(kind: Kind, batch: &Batch) -> Option<String> {
    let (rendered, committed, file) = match kind {
        Kind::Fig8Gaussian => (
            fig8_power_json(&batch.payload),
            FIG8_COMMITTED,
            "results/fig8_power.json",
        ),
        Kind::MulticoreFleet => (
            batch.payload.clone(),
            MULTICORE_COMMITTED,
            "results/multicore_sweep.json",
        ),
        _ => return None,
    };
    (rendered != committed).then(|| format!("{file} is not reproduced byte for byte"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_cells_other_seed_other_cells() {
        for kind in Kind::ALL {
            let a = Workload::build(kind, 7, 1);
            let b = Workload::build(kind, 7, 1);
            let c = Workload::build(kind, 8, 1);
            let labels = |w: &Workload| -> Vec<String> {
                let mut l: Vec<String> = w.spec.cells.iter().map(|c| c.label()).collect();
                l.extend(
                    w.multi
                        .iter()
                        .map(|m| format!("{}/{:?}", m.label(), m.base.ts)),
                );
                l.extend(w.spec.cells.iter().map(|c| format!("{:?}", c.horizon)));
                l
            };
            assert_eq!(labels(&a), labels(&b), "{}", kind.name());
            assert_ne!(labels(&a), labels(&c), "{}", kind.name());
            assert!(a.validate().is_ok(), "{}", kind.name());
        }
    }

    #[test]
    fn stated_sizes() {
        assert_eq!(Workload::build(Kind::Fig8Gaussian, 0, 1).len(), 240);
        assert_eq!(Workload::build(Kind::LongHorizonWcet, 0, 1).len(), 20);
        assert_eq!(
            Workload::build(Kind::TinyCells, 0, 2).len(),
            2 * 9 * 10 * TINY_SEEDS as usize
        );
        assert_eq!(Workload::build(Kind::MulticoreFleet, 0, 1).len(), 96);
    }
}
