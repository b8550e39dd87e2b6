//! Fixed-priority vs. earliest-deadline-first through the one shared
//! kernel.
//!
//! The discipline refactor's payoff experiment: Table 1, the flight
//! controller, and the INS workload, each run under {fps, lpfps,
//! lpfps-wd, edf, cc-edf} with identical execution streams (PaperGaussian
//! at BCET = 50 % of WCET). The FP columns are the paper's scheduler; the
//! EDF columns are the same engine with the run queue ordered by absolute
//! deadline — `edf` is the full-speed baseline, `cc-edf` runs the LPFPS
//! power manager (exact power-down + lone-task DVS) under EDF dispatch,
//! in the spirit of Pillai & Shin's cycle-conserving EDF.
//!
//! Asserted invariants:
//! * every cell keeps every deadline (all three sets are schedulable, and
//!   EDF is optimal on a uniprocessor, so its columns must be clean);
//! * `edf` at full speed burns the same power as `fps` — both are
//!   work-conserving full-speed schedules of the same jobs, so only the
//!   dispatch order differs;
//! * `cc-edf` strictly beats full-speed `edf`, mirroring `lpfps` vs
//!   `fps` on the fixed-priority side.
//!
//! Usage: `cargo run --release --bin fp_vs_edf -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cli, ExecKind, SweepSpec};
use lpfps_tasks::taskset::TaskSet;
use lpfps_workloads::{flight_control, ins, table1};

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];
const FRAC: f64 = 0.5;

fn apps() -> Vec<TaskSet> {
    vec![table1(), flight_control(), ins()]
}

fn main() {
    let parsed = Cli::new(
        "fp_vs_edf",
        "fixed-priority vs EDF dispatch through the shared kernel",
    )
    .sweep()
    .parse();

    let spec = SweepSpec::grid(
        "fp_vs_edf",
        &apps(),
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
        "FP vs EDF dispatch, one kernel, BCET = {}% of WCET\n",
        (FRAC * 100.0) as u32
    );
    print!("{:<16}", "application");
    for p in POLICIES {
        print!(" {:>11}", p.name());
    }
    println!();
    for ts in apps() {
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
    for ts in apps() {
        let app = ts.name();
        assert!(
            (power(app, PolicyKind::Edf) - power(app, PolicyKind::Fps)).abs() < 1e-9,
            "{app}: full-speed EDF and FPS are both work-conserving full-speed \
             schedules; their power must coincide"
        );
    }
    // The power manager's wins need the full horizon; a run at
    // `--horizon-scale` below 1 still exercises every cell but skips them.
    if parsed.horizon_scale >= 1.0 {
        println!();
        for ts in apps() {
            let app = ts.name();
            assert!(
                power(app, PolicyKind::CcEdf) < power(app, PolicyKind::Edf),
                "{app}: cycle-conserving EDF must beat full-speed EDF"
            );
            assert!(
                power(app, PolicyKind::Lpfps) < power(app, PolicyKind::Fps),
                "{app}: LPFPS must beat FPS"
            );
        }
        println!(
            "invariants verified: edf == fps at full speed, cc-edf < edf, lpfps < fps.\n\
             One engine serves both dispatch families; the power manager's wins\n\
             carry over from fixed priorities to deadline order."
        );
    }
    parsed.emit(cells, &spec, &outcome);
}
