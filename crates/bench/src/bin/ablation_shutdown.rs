//! Ablation: exact-knowledge power-down versus timeout-based shutdown.
//!
//! §2.1 of the paper argues that conventional timeout shutdown "fails to
//! obtain a large reduction in energy when the idle interval occurs
//! intermittently and its length is short", while LPFPS's delay-queue
//! timer enters power-down immediately with an exact wake-up. This
//! ablation quantifies the gap on every application, sweeping the idle
//! timeout.
//!
//! Usage: `cargo run --release --bin ablation_shutdown -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, PolicyChoice, SweepSpec};
use lpfps_tasks::time::Dur;
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ShutdownCell {
    app: String,
    policy: String,
    timeout_us: Option<u64>,
    average_power: f64,
}

const TIMEOUTS_US: [u64; 4] = [50, 200, 1_000, 5_000];

fn main() {
    let parsed = Cli::new(
        "ablation_shutdown",
        "exact-knowledge power-down vs timeout shutdown (idle-gap ablation)",
    )
    .sweep()
    .parse();

    // Per app: FPS baseline, LPFPS's exact power-down (FPS+PD), then the
    // timeout ladder — one column order per row of the printed table.
    let choices: Vec<(PolicyChoice, Option<u64>, &str)> = [
        (PolicyChoice::Kind(PolicyKind::Fps), None, "fps"),
        (PolicyChoice::Kind(PolicyKind::FpsPd), None, "exact-pd"),
    ]
    .into_iter()
    .chain(TIMEOUTS_US.iter().map(|&t| {
        (
            PolicyChoice::TimeoutShutdown(Dur::from_us(t)),
            Some(t),
            "timeout-pd",
        )
    }))
    .collect();

    let mut spec = SweepSpec::new("ablation_shutdown");
    for ts in applications() {
        for (choice, _, _) in &choices {
            spec.push(
                Cell::new(ts.clone(), CpuSpec::arm8(), *choice)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.5)
                    .with_seed(1),
            );
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());

    println!("Idle shutdown ablation at BCET = 50% of WCET (average power)\n");
    print!("{:<16} {:>9} {:>9}", "application", "fps", "exact-pd");
    for t in TIMEOUTS_US {
        print!(" {:>8}us", t);
    }
    println!();

    let mut cells = Vec::new();
    let per_app = choices.len();
    for (app_index, ts) in applications().iter().enumerate() {
        let row = &outcome.results[app_index * per_app..(app_index + 1) * per_app];
        let fps = row[0].average_power;
        let exact = row[1].average_power;
        print!("{:<16} {:>9.4} {:>9.4}", ts.name(), fps, exact);
        for (result, (_, timeout_us, name)) in row.iter().zip(&choices) {
            assert_eq!(result.misses, 0, "{}/{} missed", result.app, result.policy);
            if timeout_us.is_some() {
                // The timeout policy can never beat exact knowledge, and
                // can never lose to plain FPS.
                assert!(result.average_power >= exact - 1e-9);
                assert!(result.average_power <= fps + 1e-9);
                print!(" {:>10.4}", result.average_power);
            }
            cells.push(ShutdownCell {
                app: result.app.clone(),
                policy: name.to_string(),
                timeout_us: *timeout_us,
                average_power: result.average_power,
            });
        }
        println!();
    }

    println!();
    println!("idle-gap distributions (why timeouts hurt short-gap workloads):");
    for (app_index, ts) in applications().iter().enumerate() {
        // The FPS report is the first cell of each app's row.
        let report = outcome
            .report(app_index * per_app)
            .expect("ablation cells are fault-free and complete");
        println!("  {:<16} {}", ts.name(), report.idle_gaps);
    }
    println!();
    println!("exact-pd <= timeout-pd <= fps verified for every timeout; the gap");
    println!("widens with the timeout, worst where idle intervals are short (CNC).");
    parsed.emit(&cells, &spec, &outcome);
}
