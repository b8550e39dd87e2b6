//! The multicore subsystem's two load-bearing correctness gates.
//!
//! 1. **One-core reproduction**: `--cores 1` through *any* partitioner
//!    must reproduce the uniprocessor golden fingerprint matrix byte for
//!    byte — the per-core seed derivation is the identity on core 0, the
//!    derived app label is unchanged, and the pinned horizon equals the
//!    default the uniprocessor cell would pick.
//! 2. **Standalone equivalence**: every per-core report of a genuine
//!    multicore run must serialize byte-identically to running that
//!    core's derived cell standalone through the uniprocessor kernel —
//!    the merge step must not perturb a single byte, and neither may
//!    running the derived cells through the parallel sweep runner.

use lpfps::driver::PolicyKind;
use lpfps_bench::fingerprint::report_fingerprint;
use lpfps_bench::golden::{golden_cells, GOLDEN_FAULT_SEED, GOLDEN_FINGERPRINTS, GOLDEN_SEED};
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_multi::{MultiCell, MultiEngine, Partitioner, PartitionerKind};
use lpfps_sweep::{run_sweep, Cell, ExecKind, RunOptions, SweepSpec};
use lpfps_workloads::{ins, table1, WorkloadBuilder};

#[test]
fn one_core_runs_reproduce_the_uniprocessor_golden_matrix() {
    let mut engine = MultiEngine::serial();
    for kind in PartitionerKind::ALL {
        for (cell, (label, expected)) in golden_cells().into_iter().zip(GOLDEN_FINGERPRINTS) {
            let mc = MultiCell::new(cell, 1, kind);
            let report = engine
                .run(&mc, 1.0)
                .unwrap_or_else(|e| panic!("{label} via {}: {e}", kind.name()));
            assert_eq!(report.cores, 1);
            assert_eq!(report.assignment.iter().filter(|&&c| c != 0).count(), 0);
            let core0 = report
                .core_report(0)
                .expect("one-core run must produce a core-0 report");
            assert_eq!(
                report_fingerprint(core0),
                expected,
                "{label} via {} must reproduce the uniprocessor fingerprint",
                kind.name()
            );
        }
    }
}

fn fleet_cell(
    base: lpfps_tasks::TaskSet,
    n: usize,
    policy: PolicyKind,
    faults: FaultConfig,
) -> Cell {
    let fleet = WorkloadBuilder::new(base).with_seed(11).replicate(n);
    Cell::new(fleet, CpuSpec::arm8(), policy)
        .with_exec(ExecKind::PaperGaussian)
        .with_bcet_fraction(0.5)
        .with_seed(GOLDEN_SEED)
        .with_faults(faults)
}

#[test]
fn per_core_reports_are_bit_identical_to_standalone_runs() {
    let overrun = FaultConfig::none()
        .with_seed(GOLDEN_FAULT_SEED)
        .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3));
    let policies = [
        PolicyKind::Fps,
        PolicyKind::Lpfps,
        PolicyKind::LpfpsWatchdog,
    ];
    let mut engine = MultiEngine::serial();
    let mut checked_cores = 0;
    for (base, cores) in [(table1(), 3usize), (ins(), 2)] {
        for policy in policies {
            for faults in [FaultConfig::none(), overrun] {
                for kind in PartitionerKind::ALL {
                    let cell = fleet_cell(base.clone(), cores, policy, faults);
                    let mc = MultiCell::new(cell, cores, kind);
                    let label = mc.label();
                    let multi = engine
                        .run(&mc, 1.0)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let (_, derived) = mc.derived_cells().expect("partition succeeded above");
                    assert_eq!(multi.reports.len(), cores);
                    for (k, maybe_cell) in derived.iter().enumerate() {
                        match (multi.core_report(k), maybe_cell) {
                            (Some(from_engine), Some(standalone_cell)) => {
                                let standalone = standalone_cell
                                    .run(1.0)
                                    .unwrap_or_else(|e| panic!("{label} core {k} standalone: {e}"));
                                assert_eq!(
                                    serde_json::to_string(from_engine).unwrap(),
                                    serde_json::to_string(&standalone).unwrap(),
                                    "{label}: core {k} must match its standalone run"
                                );
                                checked_cores += 1;
                            }
                            (None, None) => {}
                            _ => panic!("{label}: engine and derivation disagree on idle core {k}"),
                        }
                    }
                }
            }
        }
    }
    assert!(checked_cores > 50, "only {checked_cores} cores checked");
}

/// `multicore_sweep`'s path: a fleet's derived cells run through the
/// sweep runner at any thread count and merge, via `MultiCell::assemble`,
/// into the same bytes as the serial engine.
#[test]
fn fleets_through_the_sweep_runner_match_the_serial_engine() {
    let overrun = FaultConfig::none()
        .with_seed(GOLDEN_FAULT_SEED)
        .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3));
    // One engine for both fleets: its workspace reuse must not leak state.
    let mut engine = MultiEngine::serial();
    for faults in [FaultConfig::none(), overrun] {
        let cell = fleet_cell(table1(), 4, PolicyKind::Lpfps, faults);
        let mc = MultiCell::new(cell, 4, PartitionerKind::Wfd);
        let label = mc.label();
        let reference = serde_json::to_string(
            &engine
                .run(&mc, 1.0)
                .unwrap_or_else(|e| panic!("{label}: {e}")),
        )
        .unwrap();
        let (partition, cells) = mc.derived_cells().expect("partition succeeded above");
        let mut spec = SweepSpec::new(label.clone());
        for cell in cells.iter().flatten() {
            spec.push(cell.clone());
        }
        for threads in 1..=8 {
            let outcome = run_sweep(&spec, &RunOptions::serial().with_threads(threads));
            let mut reports = outcome.reports.into_iter();
            let per_core = cells
                .iter()
                .map(|cell| {
                    cell.as_ref()
                        .map(|_| reports.next().flatten().expect("core cell completed"))
                })
                .collect();
            let got = serde_json::to_string(&mc.assemble(&partition, per_core, 1.0)).unwrap();
            assert_eq!(got, reference, "{label}: threads={threads} changed bytes");
        }
    }
}
