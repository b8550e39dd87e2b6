//! The parallel sweep runner.
//!
//! Work-stealing over `std::thread::scope`: workers pull the next cell
//! index from a shared atomic counter, so load balances automatically
//! across heterogeneous cell costs with no work queue and no external
//! dependencies. Each cell simulation is a pure function of the cell
//! (seeded execution-time draws, integer-exact kernel), and results land
//! in their spec-order slot — output is byte-for-byte identical for any
//! thread count, including the serial path.
//!
//! Cells are failure-isolated: a cell the simulation rejects with a typed
//! [`SimError`](lpfps_kernel::error::SimError) — and, as a last line of
//! defense, a cell that *panics* — is recorded as
//! [`CellStatus::Failed`](crate::cell::CellStatus) carrying a structured
//! [`CellError`] (error kind, message, and the cell's grid coordinates),
//! and every other cell still runs to completion. Failure is
//! deterministic (same pure function), so even a sweep containing failing
//! cells serializes byte-identically at any thread count, and
//! [`SweepMetrics::failure_kinds`] counts failures per error kind.

use crate::cell::{Cell, CellError, CellHistograms, CellResult, CellStatus};
use crate::metrics::{CellMetrics, SweepMetrics};
use crate::spec::SweepSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::report::SimReport;
use lpfps_kernel::steady::FastForwardStats;
use lpfps_obs::{JobRecorder, LogHistogram};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Execution options for [`run_sweep`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads. Clamped to the cell count; 1 = serial.
    pub threads: usize,
    /// Stretch factor applied to every cell's horizon (1.0 = as specified).
    pub horizon_scale: f64,
    /// Suppress per-cell progress lines on stderr.
    pub quiet: bool,
    /// After the sweep, re-run this many evenly-spaced completed cells
    /// with a trace attached and push each trace through the oracle's
    /// invariant checker ([`crate::check`]); any violation panics with the
    /// cell and trace position. `0` disables the pass (the default).
    pub check_sample: usize,
    /// Attach a [`JobRecorder`] probe to every cell and aggregate per-job
    /// response-time and energy histograms (per-cell summaries in
    /// [`CellResult::hist`], sweep-wide merges in
    /// [`SweepMetrics::response_ns`]/[`SweepMetrics::job_energy_fj`]).
    /// Implies full simulation for every cell — a probe only sees events
    /// the kernel actually simulates, so the steady-state fast-forward is
    /// disabled to keep histogram coverage complete. The `SimReport`s are
    /// bit-identical either way (the kernel's zero-cost-observability
    /// contract), and the histograms themselves merge associatively, so
    /// all of it is byte-identical across thread counts.
    pub collect_histograms: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            horizon_scale: 1.0,
            quiet: true,
            check_sample: 0,
            collect_histograms: false,
        }
    }
}

impl RunOptions {
    /// Serial execution (the reference for determinism tests).
    pub fn serial() -> Self {
        RunOptions {
            threads: 1,
            ..RunOptions::default()
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// Everything a sweep produces: full reports and deterministic summaries
/// in spec order, plus (nondeterministic) timing metrics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// One full report per cell, in spec order; `None` where the cell
    /// failed (see the matching [`CellResult::status`]).
    pub reports: Vec<Option<SimReport>>,
    /// One deterministic summary per cell, in spec order — including
    /// failed cells, whose [`CellStatus::Failed`](crate::cell::CellStatus)
    /// carries the structured [`CellError`].
    pub results: Vec<CellResult>,
    /// Wall-clock/throughput accounting for this run.
    pub metrics: SweepMetrics,
}

impl SweepOutcome {
    /// The full report of cell `index`, if it completed.
    pub fn report(&self, index: usize) -> Option<&SimReport> {
        self.reports.get(index)?.as_ref()
    }

    /// True when every cell completed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.status.is_ok())
    }

    /// The summaries of cells that failed, in spec order.
    pub fn failures(&self) -> impl Iterator<Item = &CellResult> {
        self.results.iter().filter(|r| !r.status.is_ok())
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked with a non-string payload".to_string()
    }
}

/// Per-cell raw histograms carried from the worker to the assembly loop
/// (response-time, per-job energy).
type CellHists = Option<(LogHistogram, LogHistogram)>;

/// Runs one cell behind the containment boundary: a typed [`SimError`]
/// and a caught panic both land as a structured [`CellError`] (the panic
/// under kind `"panic"`), so the sweep never aborts on a bad cell.
///
/// The returned [`FastForwardStats`] are the workspace's side-channel for
/// this run — read immediately after a completed cell (a panicked cell
/// would leave the previous cell's stats behind, so failures report
/// zeros).
///
/// With `hist = true` the cell runs with a [`JobRecorder`] probe attached
/// and the steady-state fast-forward forced off (a probe only sees
/// simulated events); the raw histograms ride back alongside the report.
fn run_cell(
    cell: &Cell,
    horizon_scale: f64,
    ws: &mut SimWorkspace,
    hist: bool,
) -> (Result<SimReport, CellError>, FastForwardStats, CellHists) {
    let mut rec = hist.then(JobRecorder::new);
    let outcome = catch_unwind(AssertUnwindSafe(|| match rec.as_mut() {
        Some(rec) => cell.run_probed_opts(horizon_scale, ws, true, rec),
        None => cell.run_in(horizon_scale, ws),
    }));
    let outcome = match outcome {
        Ok(result) => result.map_err(|err| CellError::from_sim(cell, &err)),
        Err(payload) => Err(CellError::from_panic(cell, panic_message(payload))),
    };
    match outcome {
        Ok(report) => {
            let hists = rec.map(JobRecorder::into_histograms);
            (Ok(report), ws.fast_forward_stats(), hists)
        }
        Err(error) => (Err(error), FastForwardStats::default(), None),
    }
}

/// Runs every cell of `spec` across `opts.threads` workers.
///
/// Failures inside cell execution — typed
/// [`SimError`](lpfps_kernel::error::SimError)s and panics alike
/// — do **not** propagate: the offending cell is reported as
/// [`CellStatus::Failed`](crate::cell::CellStatus) with a structured
/// [`CellError`] and the sweep completes. Only runner-internal invariant
/// violations (a poisoned slot lock, an unclaimed slot) still panic.
pub fn run_sweep(spec: &SweepSpec, opts: &RunOptions) -> SweepOutcome {
    let n = spec.len();
    let workers = opts.threads.clamp(1, n.max(1));
    let started = Instant::now();

    let next = AtomicUsize::new(0);
    type Slot = (Result<SimReport, CellError>, CellMetrics, CellHists);
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new((0..n).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One workspace per worker for the whole batch: kernel
                // queue/task buffers are allocated O(threads) per sweep,
                // not O(cells). A panicking cell leaves the workspace
                // empty-but-valid (its buffers were moved into the dead
                // engine), so the next cell simply reallocates.
                let mut ws = SimWorkspace::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let cell = &spec.cells[index];
                    let cell_started = Instant::now();
                    let (outcome, ff, hists) =
                        run_cell(cell, opts.horizon_scale, &mut ws, opts.collect_histograms);
                    let wall = cell_started.elapsed();
                    let metrics = CellMetrics {
                        index,
                        label: cell.label(),
                        wall_ns: wall.as_nanos() as u64,
                        events: outcome.as_ref().map_or(0, |r| r.counters.events),
                        attempts: 1,
                        cycles_detected: ff.cycles_detected,
                        events_skipped: ff.events_skipped,
                    };
                    if !opts.quiet {
                        match &outcome {
                            Ok(_) => eprintln!(
                                "[{:>4}/{n}] {:<36} {:>9.3?}",
                                index + 1,
                                metrics.label,
                                wall
                            ),
                            Err(error) => eprintln!(
                                "[{:>4}/{n}] {:<36} FAILED ({}): {}",
                                index + 1,
                                metrics.label,
                                error.kind,
                                error.message
                            ),
                        }
                    }
                    slots.lock().expect("no worker panicked holding the lock")[index] =
                        Some((outcome, metrics, hists));
                }
            });
        }
    });

    let wall_ns = started.elapsed().as_nanos() as u64;
    let mut reports = Vec::with_capacity(n);
    let mut results = Vec::with_capacity(n);
    let mut per_cell = Vec::with_capacity(n);
    // Sweep-wide merges run here, in spec order — but the merge is
    // associative and commutative, so any order (and any worker
    // partition) would produce the identical histograms.
    let mut sweep_response = LogHistogram::new();
    let mut sweep_energy = LogHistogram::new();
    for (index, slot) in slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .enumerate()
    {
        let (outcome, metrics, hists) =
            slot.expect("every index below n was claimed by exactly one worker");
        match outcome {
            Ok(report) => {
                let mut result = CellResult::from_report(&spec.cells[index], &report);
                if let Some((resp, energy)) = &hists {
                    result.hist = Some(CellHistograms {
                        response_ns: resp.summary(),
                        job_energy_fj: energy.summary(),
                    });
                    sweep_response.merge(resp);
                    sweep_energy.merge(energy);
                }
                results.push(result);
                reports.push(Some(report));
            }
            Err(error) => {
                results.push(CellResult::failed(&spec.cells[index], error));
                reports.push(None);
            }
        }
        per_cell.push(metrics);
    }
    let total_events = per_cell.iter().map(|m| m.events).sum();
    let cycles_detected = per_cell.iter().map(|m| m.cycles_detected).sum();
    let events_skipped = per_cell.iter().map(|m| m.events_skipped).sum();
    let failures = results.iter().filter(|r| !r.status.is_ok()).count();
    let mut failure_kinds: BTreeMap<String, usize> = BTreeMap::new();
    for r in &results {
        if let CellStatus::Failed { error } = &r.status {
            *failure_kinds.entry(error.kind.clone()).or_insert(0) += 1;
        }
    }
    let mut cell_wall = LogHistogram::new();
    for m in &per_cell {
        cell_wall.record(m.wall_ns);
    }

    let outcome = SweepOutcome {
        reports,
        results,
        metrics: SweepMetrics {
            sweep: spec.name.clone(),
            cells: n,
            threads: workers,
            wall_ns,
            total_events,
            cycles_detected,
            events_skipped,
            failures,
            failure_kinds,
            cell_wall_ns: cell_wall.summary(),
            response_ns: opts.collect_histograms.then(|| sweep_response.summary()),
            job_energy_fj: opts.collect_histograms.then(|| sweep_energy.summary()),
            per_cell,
        },
    };

    if opts.check_sample > 0 {
        let checks = crate::check::check_sampled_cells(
            spec,
            &outcome,
            opts.check_sample,
            opts.horizon_scale,
        );
        let mut broken = 0;
        for check in &checks {
            if !opts.quiet {
                eprintln!(
                    "[check] {:<36} {}",
                    check.label,
                    if check.is_ok() {
                        "ok".to_string()
                    } else {
                        format!("{} violations", check.violations.len())
                    }
                );
            }
            for v in &check.violations {
                eprintln!("[check] cell {} ({}): {v}", check.index, check.label);
                broken += 1;
            }
        }
        assert!(
            broken == 0,
            "invariant check failed: {broken} violations across {} sampled cells (see stderr)",
            checks.len()
        );
    }

    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellStatus, ExecKind};
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
        let mut s = SweepSpec::new("test");
        for seed in 0..6 {
            s.push(
                Cell::new(ts.clone(), CpuSpec::arm8(), PolicyKind::Lpfps)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.4)
                    .with_seed(seed),
            );
        }
        s
    }

    #[test]
    fn results_arrive_in_spec_order() {
        let out = run_sweep(&spec(), &RunOptions::serial());
        assert_eq!(out.results.len(), 6);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.seed, i as u64);
        }
        assert_eq!(out.metrics.cells, 6);
        assert_eq!(out.metrics.failures, 0);
        assert!(out.all_ok());
        assert_eq!(
            out.metrics.total_events,
            out.reports
                .iter()
                .flatten()
                .map(|r| r.counters.events)
                .sum::<u64>()
        );
        assert!(out.metrics.total_events > 0);
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let spec = spec();
        let serial = run_sweep(&spec, &RunOptions::serial());
        for threads in 2..=4 {
            let parallel = run_sweep(&spec, &RunOptions::serial().with_threads(threads));
            for (a, b) in serial.reports.iter().zip(parallel.reports.iter()) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.counters, b.counters);
                assert_eq!(a.energy.total_energy(), b.energy.total_energy());
                assert_eq!(a.responses, b.responses);
            }
        }
    }

    /// Deterministic cells (AlwaysWcet) settle into a steady state, so
    /// the sweep's fast-forward engages — and must not move a single
    /// result bit relative to the cell's forced-full run.
    #[test]
    fn fast_forward_engages_and_results_match_forced_full() {
        let ts = TaskSet::rate_monotonic(
            "t",
            vec![
                Task::new("a", Dur::from_us(50), Dur::from_us(10)),
                Task::new("b", Dur::from_us(100), Dur::from_us(30)),
            ],
        );
        let mut spec = SweepSpec::new("ff");
        spec.push(Cell::new(ts, CpuSpec::arm8(), PolicyKind::Lpfps));
        let scale = 8.0;
        let opts = RunOptions {
            horizon_scale: scale,
            ..RunOptions::serial()
        };
        let fast = run_sweep(&spec, &opts);
        assert!(fast.metrics.cycles_detected > 0, "detector must engage");
        assert!(fast.metrics.events_skipped > 0);
        let mut ws = SimWorkspace::new();
        let full = spec.cells[0].run_opts(scale, &mut ws, true).unwrap();
        assert_eq!(ws.fast_forward_stats(), FastForwardStats::default());
        let a = serde_json::to_string(&fast.results).unwrap();
        let b = serde_json::to_string(&[CellResult::from_report(&spec.cells[0], &full)]).unwrap();
        assert_eq!(a, b, "fast-forward must not change deterministic results");
        let ra = fast.report(0).unwrap();
        assert_eq!(ra.counters, full.counters);
        assert_eq!(
            ra.energy.total_energy().to_bits(),
            full.energy.total_energy().to_bits()
        );
    }

    /// The tentpole determinism claim: with histogram collection on, the
    /// results payload (now carrying per-cell summaries) and the merged
    /// sweep-wide percentiles are byte-identical at every thread count.
    #[test]
    fn histograms_are_byte_identical_across_thread_counts() {
        let spec = spec();
        let hist = RunOptions {
            collect_histograms: true,
            ..RunOptions::serial()
        };
        let base = run_sweep(&spec, &hist);
        let ref_results = serde_json::to_string(&base.results).unwrap();
        let ref_resp = base.metrics.response_ns.expect("histograms collected");
        let ref_energy = base.metrics.job_energy_fj.expect("histograms collected");
        assert!(ref_resp.count > 0 && ref_energy.count > 0);
        for threads in 2..=8 {
            let out = run_sweep(&spec, &hist.clone().with_threads(threads));
            let json = serde_json::to_string(&out.results).unwrap();
            assert_eq!(json, ref_results, "results diverged at {threads} threads");
            assert_eq!(out.metrics.response_ns.unwrap(), ref_resp);
            assert_eq!(out.metrics.job_energy_fj.unwrap(), ref_energy);
        }
    }

    /// Attaching the histogram probe must not move a bit of the
    /// deterministic report — the kernel's zero-cost-observability
    /// contract, exercised through the runner.
    #[test]
    fn histogram_collection_leaves_reports_untouched() {
        let spec = spec();
        let plain = run_sweep(&spec, &RunOptions::serial());
        let hist = RunOptions {
            collect_histograms: true,
            ..RunOptions::serial()
        };
        let probed = run_sweep(&spec, &hist);
        for (a, b) in plain.reports.iter().zip(probed.reports.iter()) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                serde_json::to_string(a).unwrap(),
                serde_json::to_string(b).unwrap()
            );
        }
        // Without `--hist` every cell's summary slot stays empty; with it,
        // every completed cell gets one, counting that cell's completions.
        assert!(plain.results.iter().all(|r| r.hist.is_none()));
        for (result, report) in probed.results.iter().zip(probed.reports.iter()) {
            let hist = result.hist.expect("completed cell has histograms");
            assert_eq!(
                hist.response_ns.count,
                report.as_ref().unwrap().counters.completions
            );
            assert_eq!(hist.response_ns.count, hist.job_energy_fj.count);
        }
    }

    #[test]
    fn horizon_scale_stretches_the_run() {
        let spec = spec();
        let half = RunOptions {
            horizon_scale: 0.5,
            ..RunOptions::serial()
        };
        let short = run_sweep(&spec, &half);
        let long = run_sweep(&spec, &RunOptions::serial());
        assert!(short.metrics.total_events < long.metrics.total_events);
        assert!(short.report(0).unwrap().horizon < long.report(0).unwrap().horizon);
    }

    #[test]
    fn threads_are_clamped_to_cell_count() {
        let out = run_sweep(&spec(), &RunOptions::serial().with_threads(64));
        assert_eq!(out.metrics.threads, 6);
    }

    /// A spec whose middle cell always fails (zero horizon is rejected by
    /// the kernel's `SimConfig` validation with a typed error).
    fn spec_with_poison() -> SweepSpec {
        let mut s = spec();
        let bad = s.cells[2].clone().with_horizon(Dur::ZERO);
        s.cells[2] = bad;
        s
    }

    #[test]
    fn failing_cell_is_isolated() {
        let spec = spec_with_poison();
        let out = run_sweep(&spec, &RunOptions::serial());
        assert_eq!(out.results.len(), 6);
        assert_eq!(out.metrics.failures, 1);
        assert_eq!(
            out.metrics.failure_kinds.get("invalid-config").copied(),
            Some(1)
        );
        assert_eq!(out.metrics.failure_kinds.len(), 1);
        assert!(!out.all_ok());
        assert!(out.reports[2].is_none());
        assert!(out.report(2).is_none());
        match &out.results[2].status {
            CellStatus::Failed { error } => {
                assert_eq!(error.kind, "invalid-config");
                assert!(
                    error.message.contains("horizon"),
                    "error message should name the offending field, got: {}",
                    error.message
                );
                // The error is self-locating: it carries the cell's
                // coordinates in the sweep grid.
                assert_eq!(error.app, "t");
                assert_eq!(error.policy, "lpfps");
                assert_eq!(error.seed, 2);
            }
            CellStatus::Ok => panic!("poison cell must fail"),
        }
        assert_eq!(out.results[2].events, 0);
        assert_eq!(out.failures().count(), 1);
        // Every other cell still ran to completion.
        for (i, r) in out.results.iter().enumerate() {
            if i != 2 {
                assert!(r.status.is_ok());
                assert!(out.reports[i].is_some());
            }
        }
    }

    /// The last line of defense: a genuine panic inside cell execution
    /// (not a typed error) is still caught and lands under the reserved
    /// `"panic"` kind. Driven through `effective_horizon`'s scale
    /// assertion by building `RunOptions` with a field literal, bypassing
    /// the builder's own validation.
    #[test]
    fn genuine_panic_maps_to_the_panic_kind() {
        let opts = RunOptions {
            horizon_scale: -1.0,
            ..RunOptions::serial()
        };
        let out = run_sweep(&spec(), &opts);
        assert_eq!(out.metrics.failures, 6);
        assert_eq!(out.metrics.failure_kinds.get("panic").copied(), Some(6));
        for r in &out.results {
            match &r.status {
                CellStatus::Failed { error } => {
                    assert_eq!(error.kind, "panic");
                    assert!(error.message.contains("horizon scale"));
                }
                CellStatus::Ok => panic!("every cell must fail under a negative scale"),
            }
        }
    }

    #[test]
    fn failing_sweeps_stay_deterministic_across_thread_counts() {
        let spec = spec_with_poison();
        let reference = serde_json::to_string(&run_sweep(&spec, &RunOptions::serial()).results)
            .expect("results serialize");
        for threads in 1..=8 {
            let out = run_sweep(&spec, &RunOptions::serial().with_threads(threads));
            let json = serde_json::to_string(&out.results).expect("results serialize");
            assert_eq!(json, reference, "results diverged at {threads} threads");
        }
    }

    /// Failures are deterministic, so a failed cell runs exactly once and
    /// reports a single attempt like every other cell.
    #[test]
    fn panicking_cells_are_never_retried() {
        let out = run_sweep(&spec_with_poison(), &RunOptions::serial());
        assert!(out.metrics.per_cell.iter().all(|m| m.attempts == 1));
        assert_eq!(out.metrics.failures, 1);
    }
}
