//! Ablation: which half of LPFPS buys what?
//!
//! Splits the policy into its two mechanisms — the power-down timer
//! (FPS+PD) and the single-task DVS (LPFPS-DVS) — and compares against
//! plain FPS, full LPFPS, and the classical offline static slowdown, at
//! BCET = 50 % of WCET on all four applications.
//!
//! Usage: `cargo run --release --bin ablation_policies -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cli, ExecKind, SweepSpec};
use lpfps_workloads::applications;

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Fps,
    PolicyKind::FpsPd,
    PolicyKind::StaticSlowdown,
    PolicyKind::LpfpsDvsOnly,
    PolicyKind::Lpfps,
];
const FRAC: f64 = 0.5;

fn main() {
    let parsed = Cli::new(
        "ablation_policies",
        "policy ablation: FPS / FPS+PD / static slowdown / DVS-only / LPFPS",
    )
    .sweep()
    .parse();

    let spec = SweepSpec::grid(
        "ablation_policies",
        &applications(),
        &CpuSpec::arm8(),
        &POLICIES,
        &[FRAC],
        &[1],
        ExecKind::PaperGaussian,
    );
    let outcome = run_sweep(&spec, &parsed.run_options());
    let cells = &outcome.results;
    for c in cells {
        assert_eq!(c.misses, 0, "{}/{} missed deadlines", c.app, c.policy);
    }

    println!(
        "Policy ablation at BCET = {}% of WCET\n",
        (FRAC * 100.0) as u32
    );
    print!("{:<16}", "application");
    for p in POLICIES {
        print!(" {:>11}", p.name());
    }
    println!();
    for ts in applications() {
        print!("{:<16}", ts.name());
        for policy in POLICIES {
            let cell = cells
                .iter()
                .find(|c| c.app == ts.name() && c.policy == policy.name())
                .unwrap();
            print!(" {:>11.4}", cell.average_power);
        }
        println!();
    }

    let power = |app: &str, pol: PolicyKind| {
        cells
            .iter()
            .find(|c| c.app == app && c.policy == pol.name())
            .unwrap()
            .average_power
    };
    // The orderings need the full horizon; a run at `--horizon-scale`
    // below 1 still exercises every cell but skips them.
    if parsed.horizon_scale >= 1.0 {
        println!();
        for ts in applications() {
            let app = ts.name();
            assert!(
                power(app, PolicyKind::FpsPd) < power(app, PolicyKind::Fps),
                "{app}: power-down alone must beat FPS"
            );
            assert!(
                power(app, PolicyKind::Lpfps) < power(app, PolicyKind::FpsPd),
                "{app}: full LPFPS must beat power-down alone"
            );
            assert!(
                power(app, PolicyKind::Lpfps) < power(app, PolicyKind::LpfpsDvsOnly),
                "{app}: full LPFPS must beat DVS alone"
            );
        }
        println!("invariants verified: fps > fps-pd > lpfps and fps > lpfps-dvs > lpfps.");
        println!(
            "static slowdown wins only what offline analysis can prove; LPFPS\n\
             reclaims the dynamic slack it cannot see."
        );
    }
    parsed.emit(cells, &spec, &outcome);
}
