//! Differential oracle run: the optimized kernel against the naive
//! reference simulator (`lpfps-oracle`), field for field.
//!
//! All four catalog workloads × {fps, fps-pd, lpfps, lpfps-wd, edf,
//! cc-edf}, fault-free and under the overrun stream (p = 0.1), with a
//! trace recorded on both sides (engine fully simulated) so the comparison
//! also covers every event and the per-segment energy stream — the EDF
//! columns exercise the shared engine's deadline-ordered
//! dispatch against the oracle's naive transcription. Any divergence
//! prints the first differing field with both values and exits nonzero —
//! this is the CI gate proving the engine's optimizations (power memo,
//! workspace reuse, tuned queues) are behaviorally invisible.
//!
//! A second matrix covers the steady-state fast-forward: the same
//! workload × policy grid under `AlwaysWcet` without a trace (the
//! detector's eligible regime), where each cell is checked two ways —
//! the fast-forwarding engine against the naive oracle (which always
//! simulates every event), and against its own forced-full run
//! byte-for-byte.
//!
//! Usage: `cargo run --release --bin diff_kernel -- [--horizon-scale F]`

use lpfps::driver::PolicyKind;
use lpfps_bench::golden::oracle_report;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::Trace;
use lpfps_kernel::NoProbe;
use lpfps_oracle::{first_divergence, first_trace_divergence};
use lpfps_sweep::{Cell, Cli, ExecKind};
use lpfps_workloads::{avionics, cnc, ins, table1};

fn main() {
    let parsed = Cli::new(
        "diff_kernel",
        "differential check: optimized kernel vs naive oracle simulator",
    )
    .parse();

    let policies = [
        PolicyKind::Fps,
        PolicyKind::FpsPd,
        PolicyKind::Lpfps,
        PolicyKind::LpfpsWatchdog,
        PolicyKind::Edf,
        PolicyKind::CcEdf,
    ];
    let overrun = FaultConfig::none()
        .with_seed(7)
        .with_overrun(OverrunFault::clamped(0.1, 0.3, 1.3));

    let mut cells = Vec::new();
    for faults in [FaultConfig::none(), overrun] {
        for ts in [table1(), avionics(), cnc(), ins()] {
            for policy in policies {
                cells.push(
                    Cell::new(ts.clone(), CpuSpec::arm8(), policy)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(0.5)
                        .with_seed(42)
                        .with_faults(faults),
                );
            }
        }
    }
    if parsed.horizon_scale != 1.0 {
        // The uniform flag scales through the cell horizon so engine and
        // oracle stay on the exact same configuration.
        for cell in &mut cells {
            let h = cell.effective_horizon(parsed.horizon_scale);
            *cell = cell.clone().with_horizon(h);
        }
    }

    println!(
        "{:<42} {:>10} {:>10} {:>8}",
        "cell", "events", "trace", "verdict"
    );
    let mut divergences = 0;
    let mut ws = SimWorkspace::new();
    for cell in &cells {
        let mut engine_trace = Trace::new();
        let engine = cell
            .run_probed_opts(1.0, &mut ws, true, &mut engine_trace)
            .expect("all diff cells are valid simulations");
        let mut oracle_trace = Trace::new();
        let oracle =
            oracle_report(cell, &mut oracle_trace).expect("all diff cells use PolicyKind policies");
        let verdict = match first_divergence(&engine, &oracle)
            .or_else(|| first_trace_divergence(&engine_trace, &oracle_trace))
        {
            None => "ok".to_string(),
            Some(d) => {
                divergences += 1;
                eprintln!("{}: engine diverged from the oracle\n{d}\n", cell.label());
                "DIVERGED".to_string()
            }
        };
        println!(
            "{:<42} {:>10} {:>10} {:>8}",
            cell.label(),
            engine.counters.events,
            engine_trace.len(),
            verdict
        );
    }

    // Second matrix: the steady-state fast-forward's eligible regime
    // (AlwaysWcet, fault-free, no probe). Each cell is diffed two ways:
    // the fast-forwarding engine against the naive oracle, and against
    // its own forced-full run, byte for byte.
    let mut ff_cells = Vec::new();
    for ts in [table1(), avionics(), cnc(), ins()] {
        for policy in policies {
            ff_cells.push(
                Cell::new(ts.clone(), CpuSpec::arm8(), policy)
                    .with_exec(ExecKind::AlwaysWcet)
                    .with_seed(42),
            );
        }
    }
    if parsed.horizon_scale != 1.0 {
        for cell in &mut ff_cells {
            let h = cell.effective_horizon(parsed.horizon_scale);
            *cell = cell.clone().with_horizon(h);
        }
    }

    println!(
        "\nfast-forward matrix (AlwaysWcet, detector eligible):\n{:<42} {:>10} {:>8} {:>8}",
        "cell", "events", "cycles", "verdict"
    );
    for cell in &ff_cells {
        let fast = cell
            .run_opts(1.0, &mut ws, false)
            .expect("all diff cells are valid simulations");
        let cycles = ws.fast_forward_stats().cycles_detected;
        let full = cell
            .run_opts(1.0, &mut ws, true)
            .expect("all diff cells are valid simulations");
        let oracle =
            oracle_report(cell, &mut NoProbe).expect("all diff cells use PolicyKind policies");
        let mut verdict = "ok".to_string();
        if let Some(d) = first_divergence(&fast, &oracle) {
            divergences += 1;
            eprintln!(
                "{}: fast-forward engine diverged from the oracle\n{d}\n",
                cell.label()
            );
            verdict = "DIVERGED".to_string();
        }
        let fast_json = serde_json::to_string(&fast).expect("report serializes");
        let full_json = serde_json::to_string(&full).expect("report serializes");
        if fast_json != full_json {
            divergences += 1;
            eprintln!(
                "{}: fast-forward report is not byte-identical to the forced-full report",
                cell.label()
            );
            verdict = "DIVERGED".to_string();
        }
        println!(
            "{:<42} {:>10} {:>8} {:>8}",
            cell.label(),
            fast.counters.events,
            cycles,
            verdict
        );
    }

    let total = cells.len() + ff_cells.len();
    if divergences > 0 {
        eprintln!("{divergences}/{total} cells diverged from the oracle");
        std::process::exit(1);
    }
    eprintln!("all {total} cells match the naive reference simulator field for field");
}
