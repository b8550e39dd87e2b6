//! Extension: multi-level sleep modes.
//!
//! The paper's §2.1 notes that real processors (PowerPC 603) offer
//! *several* power modes, each trading residual power against wake-up
//! latency, but evaluates LPFPS with the single 5 %/10-cycle sleep mode.
//! This ablation gives LPFPS the whole family — doze (30 %, 5 cycles),
//! nap (10 %, 50), sleep (5 %, 10), deep sleep (2 %, 10⁴ cycles ≈ 100 µs)
//! — and lets it pick the energy-minimizing mode per idle window (the
//! delay-queue head makes the window length *exact*, so the choice is
//! trivially safe).
//!
//! Usage: `cargo run --release --bin ablation_sleep_modes -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, SweepSpec};
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ModeCell {
    app: String,
    bcet_fraction: f64,
    single_mode: f64,
    multi_mode: f64,
    gain: f64,
}

const FRACTIONS: [f64; 3] = [0.2, 0.6, 1.0];

fn main() {
    let parsed = Cli::new(
        "ablation_sleep_modes",
        "single sleep mode vs the full PowerPC-style mode family under LPFPS",
    )
    .sweep()
    .parse();

    // Pairs of cells differing only in the processor's sleep-mode family.
    let mut spec = SweepSpec::new("ablation_sleep_modes");
    for ts in applications() {
        for frac in FRACTIONS {
            for cpu in [CpuSpec::arm8(), CpuSpec::arm8_multimode()] {
                spec.push(
                    Cell::new(ts.clone(), cpu, PolicyKind::Lpfps)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(frac)
                        .with_seed(1),
                );
            }
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());

    println!("Sleep-mode family ablation: LPFPS average power\n");
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>8}",
        "application", "bcet%", "single-mode", "multi-mode", "gain"
    );
    let mut cells = Vec::new();
    let mut pairs = outcome.results.chunks(2);
    for ts in applications() {
        for frac in FRACTIONS {
            let pair = pairs.next().unwrap();
            let (single, multi) = (&pair[0], &pair[1]);
            assert_eq!(single.misses + multi.misses, 0, "{} missed", ts.name());
            let gain = 1.0 - multi.average_power / single.average_power;
            println!(
                "{:<16} {:>6.0} {:>12.4} {:>12.4} {:>7.2}%",
                ts.name(),
                frac * 100.0,
                single.average_power,
                multi.average_power,
                gain * 100.0
            );
            // The richer family can only help: the paper's mode is in it.
            assert!(
                multi.average_power <= single.average_power + 1e-9,
                "{}: more modes must not cost energy",
                ts.name()
            );
            cells.push(ModeCell {
                app: ts.name().into(),
                bcet_fraction: frac,
                single_mode: single.average_power,
                multi_mode: multi.average_power,
                gain,
            });
        }
    }

    println!();
    println!("the multi-mode gain concentrates where idle windows are long enough");
    println!("for deep sleep's 100us relock (avionics, flight control, INS) and");
    println!("vanishes where gaps are short; safety is unaffected because the");
    println!("window length is exact (delay-queue head), never predicted.");
    parsed.emit(&cells, &spec, &outcome);
}
