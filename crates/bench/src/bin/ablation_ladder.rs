//! Extension: how fine must the frequency ladder be?
//!
//! The paper's processor steps in 1 MHz increments (93 levels). Real DVS
//! parts often expose far fewer operating points. Because LPFPS quantizes
//! the desired ratio *upward*, a coarser ladder wastes the gap between
//! the ideal ratio and the next level — this ablation measures how much.
//!
//! Usage: `cargo run --release --bin ablation_ladder -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::ladder::FrequencyLadder;
use lpfps_cpu::power::PowerModel;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, SweepSpec};
use lpfps_tasks::freq::Freq;
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct LadderCell {
    app: String,
    step_mhz: u64,
    levels: usize,
    lpfps_power: f64,
}

const STEPS_MHZ: [u64; 4] = [1, 4, 23, 92];

fn ladder_cpu(step: u64) -> CpuSpec {
    let ladder = FrequencyLadder::new(Freq::from_mhz(8), Freq::from_mhz(100), Freq::from_mhz(step));
    CpuSpec::new(ladder, PowerModel::default(), 0.07, 10)
}

fn main() {
    let parsed = Cli::new(
        "ablation_ladder",
        "frequency-ladder granularity: LPFPS power vs operating-point count",
    )
    .sweep()
    .parse();

    let mut spec = SweepSpec::new("ablation_ladder");
    for ts in applications() {
        for step in STEPS_MHZ {
            spec.push(
                Cell::new(ts.clone(), ladder_cpu(step), PolicyKind::Lpfps)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.4)
                    .with_seed(1),
            );
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());

    println!("Frequency-ladder granularity ablation (LPFPS, BCET = 40% of WCET)\n");
    print!("{:<16}", "application");
    for s in STEPS_MHZ {
        print!(" {:>7}MHz", s);
    }
    println!("   (ladder step; 92 MHz = on/off DVS)");

    let mut cells = Vec::new();
    let mut rows = outcome.results.chunks(STEPS_MHZ.len());
    for ts in applications() {
        let row = rows.next().unwrap();
        print!("{:<16}", ts.name());
        let mut prev = 0.0;
        for (result, step) in row.iter().zip(STEPS_MHZ) {
            assert_eq!(result.misses, 0, "{} step {step}", ts.name());
            let p = result.average_power;
            print!(" {:>10.4}", p);
            // Coarser ladders can only cost energy (upward quantization).
            assert!(
                p + 1e-9 >= prev,
                "{}: coarser ladder got cheaper?",
                ts.name()
            );
            prev = p;
            cells.push(LadderCell {
                app: ts.name().into(),
                step_mhz: step,
                levels: ladder_cpu(step).ladder().level_count(),
                lpfps_power: p,
            });
        }
        println!();
    }

    println!();
    println!("a handful of levels captures most of the benefit: the jump from 93");
    println!("levels (1 MHz) to 24 (4 MHz) costs almost nothing, and even the");
    println!("2-level on/off ladder retains the power-down half of the saving.");
    parsed.emit(&cells, &spec, &outcome);
}
