//! Golden determinism: the optimized engine must produce byte-identical
//! `SimReport`s to the pre-optimization engine.
//!
//! The pinned fingerprints (`lpfps_bench::golden::GOLDEN_FINGERPRINTS`)
//! were captured on the reference engine before zero-allocation queues
//! and workspace reuse landed. Every hot-path change since must reproduce
//! them exactly: the hash covers the *entire* serialized report —
//! counters, energy buckets, per-task responses and histograms, misses,
//! idle gaps, task energy — so a single flipped byte anywhere fails the
//! matrix entry by name.
//!
//! Regenerating them (only when a change is *meant* to alter behavior,
//! never for a performance change) needs no separate tool: a failing pin
//! is diagnosed through the naive oracle, and when the oracle agrees with
//! the engine the panic message lists all 24 recomputed
//! `("label", 0x…),` rows, ready to paste over the table. Run
//! `cargo test --release -p lpfps-bench --test golden_determinism` and
//! copy them from the failure output.

use lpfps_bench::fingerprint::report_fingerprint;
use lpfps_bench::golden::{diagnose_mismatch, golden_cells, GOLDEN_FINGERPRINTS as GOLDEN};

#[test]
fn reports_match_pre_optimization_engine() {
    let mut checked = 0;
    for (cell, (expected_label, expected)) in golden_cells().into_iter().zip(GOLDEN) {
        let label = cell.label();
        assert_eq!(
            label, expected_label,
            "golden matrix order drifted from the pinned table"
        );
        let report = cell.run(1.0).unwrap();
        let fp = report_fingerprint(&report);
        // On mismatch, don't just dump two hashes: ask the oracle where
        // the report actually diverged (or whether it agrees, meaning the
        // change is intentional and the pins need regenerating).
        if fp != expected {
            panic!(
                "report for `{label}` diverged from the pre-optimization engine \
                 ({fp:#018x} != {expected:#018x})\n{}",
                diagnose_mismatch(&cell, &report)
            );
        }
        checked += 1;
    }
    assert_eq!(checked, GOLDEN.len(), "golden matrix lost cells");
}

/// The workspace-reuse path must be invisible too: running the whole
/// golden matrix through ONE recycled [`SimWorkspace`] — every cell after
/// the first inherits dirty buffers from a *different* workload and
/// policy — still reproduces the pinned pre-optimization fingerprints.
#[test]
fn workspace_reuse_reproduces_the_golden_matrix() {
    use lpfps_bench::golden::golden_cells;
    use lpfps_kernel::engine::SimWorkspace;
    let mut ws = SimWorkspace::new();
    for (cell, (label, expected)) in golden_cells().into_iter().zip(GOLDEN) {
        let report = cell.run_in(1.0, &mut ws).unwrap();
        let fp = report_fingerprint(&report);
        if fp != expected {
            panic!(
                "workspace-reuse report for `{label}` diverged \
                 ({fp:#018x} != {expected:#018x})\n{}",
                diagnose_mismatch(&cell, &report)
            );
        }
    }
}

/// Sweep-equivalence over the per-worker-workspace runner: the full
/// golden matrix as one sweep must fingerprint identically at every
/// thread count 1..=8 (different thread counts slice the cell stream
/// into different per-workspace sequences).
#[test]
fn sweep_reports_identical_across_thread_counts() {
    use lpfps_bench::golden::golden_cells;
    use lpfps_sweep::{run_sweep, RunOptions, SweepSpec};
    let mut spec = SweepSpec::new("golden");
    for cell in golden_cells() {
        spec.push(cell);
    }
    let fingerprints = |threads: usize| -> Vec<u64> {
        run_sweep(&spec, &RunOptions::serial().with_threads(threads))
            .reports
            .iter()
            .map(|r| report_fingerprint(r.as_ref().expect("golden cells complete")))
            .collect()
    };
    let reference = fingerprints(1);
    assert_eq!(reference.len(), GOLDEN.len());
    for threads in 2..=8 {
        assert_eq!(
            fingerprints(threads),
            reference,
            "sweep reports diverged at {threads} threads"
        );
    }
}

/// Observability is free, proven against the pinned history: the full
/// golden matrix run through the probed engine entry points — with a
/// recording [`JobRecorder`] *and* a kernel [`Trace`] attached — must still
/// reproduce the pre-optimization fingerprints byte for byte. Probes may
/// observe the simulation; they may never perturb it (not even its
/// fast-forward eligibility).
#[test]
fn probed_engine_reproduces_the_golden_matrix() {
    use lpfps_bench::golden::golden_cells;
    use lpfps_kernel::engine::SimWorkspace;
    use lpfps_kernel::trace::Trace;
    use lpfps_obs::JobRecorder;
    let mut ws = SimWorkspace::new();
    for (cell, (label, expected)) in golden_cells().into_iter().zip(GOLDEN) {
        let mut rec = JobRecorder::new();
        let report = cell.run_probed_opts(1.0, &mut ws, false, &mut rec).unwrap();
        let fp = report_fingerprint(&report);
        if fp != expected {
            panic!(
                "JobRecorder-probed report for `{label}` diverged \
                 ({fp:#018x} != {expected:#018x})\n{}",
                diagnose_mismatch(&cell, &report)
            );
        }
        let mut trace = Trace::new();
        let report = cell
            .run_probed_opts(1.0, &mut ws, false, &mut trace)
            .unwrap();
        let fp = report_fingerprint(&report);
        if fp != expected {
            panic!(
                "Trace-probed report for `{label}` diverged \
                 ({fp:#018x} != {expected:#018x})\n{}",
                diagnose_mismatch(&cell, &report)
            );
        }
    }
}

#[test]
fn fingerprint_is_sensitive_to_the_config() {
    // Sanity check that the hash actually discriminates: a different seed
    // must flip every workload's fingerprint.
    use lpfps_bench::golden::golden_cells;
    for cell in golden_cells().into_iter().take(3) {
        let label = cell.label();
        let a = report_fingerprint(&cell.clone().run(1.0).unwrap());
        let b = report_fingerprint(&cell.with_seed(43).run(1.0).unwrap());
        assert_ne!(a, b, "fingerprint blind to the seed for `{label}`");
    }
}
