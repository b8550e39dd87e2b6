//! Ablation: heuristic (Eq. 3) versus optimal speed ratio.
//!
//! The paper's §5 leaves the heuristic/optimal trade-off as future work:
//! the optimal ratio extracts more slack when windows are short relative
//! to the transition delay, at the cost of a more expensive scheduler.
//! This ablation measures the energy side (the scheduler-cost side is
//! perfbench's `core.r_opt_over_r_heu` metric), sweeping BCET on all four
//! applications.
//!
//! Usage: `cargo run --release --bin ablation_ratio -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_bench::BCET_FRACTIONS;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cli, ExecKind, SweepSpec};
use lpfps_workloads::applications;

fn main() {
    let parsed = Cli::new(
        "ablation_ratio",
        "heuristic (Eq. 3) vs optimal (Eq. 2) speed-ratio energy",
    )
    .sweep()
    .parse();

    let spec = SweepSpec::grid(
        "ablation_ratio",
        &applications(),
        &CpuSpec::arm8(),
        &[PolicyKind::Lpfps, PolicyKind::LpfpsOptimal],
        &BCET_FRACTIONS,
        &[1],
        ExecKind::PaperGaussian,
    );
    let outcome = run_sweep(&spec, &parsed.run_options());
    let cells = &outcome.results;
    for c in cells {
        assert_eq!(c.misses, 0, "{}/{} missed deadlines", c.app, c.policy);
    }
    let get = |app: &str, pol: &str, frac: f64| {
        cells
            .iter()
            .find(|c| c.app == app && c.policy == pol && (c.bcet_fraction - frac).abs() < 1e-9)
            .unwrap()
            .average_power
    };

    println!("Heuristic vs optimal speed ratio (average power)\n");
    for ts in applications() {
        println!("== {} ==", ts.name());
        println!(
            "{:>6} {:>11} {:>11} {:>10}",
            "bcet%", "lpfps", "lpfps-opt", "opt gain"
        );
        for &frac in BCET_FRACTIONS.iter() {
            let heu = get(ts.name(), "lpfps", frac);
            let opt = get(ts.name(), "lpfps-opt", frac);
            let gain = 1.0 - opt / heu;
            println!(
                "{:>6.0} {:>11.4} {:>11.4} {:>9.2}%",
                frac * 100.0,
                heu,
                opt,
                gain * 100.0
            );
        }
        println!();
    }

    // The paper's expectation: the optimal ratio helps only marginally for
    // workloads whose windows dwarf the 10 us transition, and most for CNC
    // whose WCETs are comparable to it.
    let avg_gain = |app: &str| {
        BCET_FRACTIONS
            .iter()
            .map(|&f| 1.0 - get(app, "lpfps-opt", f) / get(app, "lpfps", f))
            .sum::<f64>()
            / BCET_FRACTIONS.len() as f64
    };
    for ts in applications() {
        let app = ts.name();
        let g = avg_gain(app);
        println!("{app:<16} mean optimal-ratio gain: {:.3}%", g * 100.0);
        assert!(
            g > -0.02,
            "{app}: the optimal ratio should never cost energy materially"
        );
    }
    parsed.emit(cells, &spec, &outcome);
}
