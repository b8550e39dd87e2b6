//! Extension experiment: LPFPS gain versus task-set utilization on
//! synthetic UUniFast workloads.
//!
//! The paper observes that FPS power tracks utilization while LPFPS power
//! does not (INS, with high but concentrated utilization, gains most).
//! This sweep quantifies that: for each target utilization, generate
//! random 8-task sets (UUniFast utilizations, log-uniform 1–100 ms
//! periods), keep the RM-schedulable ones, and measure both policies at
//! BCET = 50 % of WCET.
//!
//! Usage: `cargo run --release --bin sweep_utilization -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cli, ExecKind, SweepSpec};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SweepPoint {
    utilization: f64,
    sets: usize,
    fps_power: f64,
    lpfps_power: f64,
    reduction: f64,
}

const UTILIZATIONS: [f64; 8] = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];
const SETS_PER_POINT: usize = 8;

fn main() {
    let parsed = Cli::new(
        "sweep_utilization",
        "LPFPS gain vs utilization on synthetic UUniFast task sets",
    )
    .sweep()
    .parse();

    let spec = SweepSpec::utilization(
        "sweep_utilization",
        &CpuSpec::arm8(),
        &UTILIZATIONS,
        SETS_PER_POINT,
        8,
        &[PolicyKind::Fps, PolicyKind::Lpfps],
        0.5,
        ExecKind::PaperGaussian,
    );
    let outcome = run_sweep(&spec, &parsed.run_options());
    for r in &outcome.results {
        assert_eq!(r.misses, 0, "{}/{} missed deadlines", r.app, r.policy);
    }

    println!("Utilization sweep: 8-task UUniFast sets, BCET = 50% WCET\n");
    println!(
        "{:>5} {:>6} {:>11} {:>11} {:>10}",
        "U", "#sets", "fps", "lpfps", "reduction"
    );
    // The builder emits one (fps, lpfps) pair per kept set, utilization-major.
    let mut points = Vec::new();
    let per_point = SETS_PER_POINT * 2;
    for (chunk, u) in outcome.results.chunks(per_point).zip(UTILIZATIONS) {
        let fps_power = chunk
            .iter()
            .filter(|r| r.policy == "fps")
            .map(|r| r.average_power)
            .sum::<f64>()
            / SETS_PER_POINT as f64;
        let lpfps_power = chunk
            .iter()
            .filter(|r| r.policy == "lpfps")
            .map(|r| r.average_power)
            .sum::<f64>()
            / SETS_PER_POINT as f64;
        let reduction = 1.0 - lpfps_power / fps_power;
        println!(
            "{u:>5.1} {SETS_PER_POINT:>6} {fps_power:>11.4} {lpfps_power:>11.4} {:>9.1}%",
            reduction * 100.0
        );
        points.push(SweepPoint {
            utilization: u,
            sets: SETS_PER_POINT,
            fps_power,
            lpfps_power,
            reduction,
        });
    }

    // The orderings need the full horizon; a run at `--horizon-scale`
    // below 1 still exercises every cell but skips them.
    if parsed.horizon_scale >= 1.0 {
        // FPS power must track utilization (the paper's observation)...
        for pair in points.windows(2) {
            assert!(
                pair[1].fps_power > pair[0].fps_power,
                "FPS power should grow with utilization"
            );
        }
        // ...and LPFPS must win everywhere.
        for p in &points {
            assert!(p.reduction > 0.0, "LPFPS should win at U={}", p.utilization);
        }
        println!("\nFPS power tracks utilization; LPFPS wins at every load level.");
    }
    parsed.emit(&points, &spec, &outcome);
}
