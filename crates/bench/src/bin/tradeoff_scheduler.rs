//! The paper's §5 future work, carried out: the heuristic/optimal
//! trade-off including scheduler cost.
//!
//! "The heuristic solution may fail to obtain the full potential of power
//! saving when the timing parameters are comparable to the delay
//! [of changing speed] ... In this case, we can use the optimal solution
//! at the cost of increased execution time and power consumption of the
//! scheduler; this approach needs a trade-off analysis, which is included
//! in our future work."
//!
//! Here the trade-off is measured: every `SlowDown` decision charges the
//! scheduler's ratio computation as real processor work (Eq. 3 is a
//! division; Eq. 2 adds a square root — call it several times the cost),
//! and the two methods are compared as that cost grows. The crossover —
//! where the optimal ratio's energy win no longer pays for its own
//! computation — lands quickly, vindicating the paper's choice of the
//! heuristic; CNC (windows comparable to the 10 µs ramp) holds out
//! longest, exactly as §5 anticipates.
//!
//! Usage: `cargo run --release --bin tradeoff_scheduler -- [--json out.json]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cell, Cli, ExecKind, SweepSpec};
use lpfps_tasks::time::Dur;
use lpfps_workloads::applications;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct TradeoffCell {
    app: String,
    overhead_ns: u64,
    heuristic_power: f64,
    optimal_power: f64,
    optimal_wins: bool,
    misses: usize,
}

/// Scheduler cost per SlowDown for the heuristic (one division on a
/// 100 MHz core: O(10) cycles) and the sweep of optimal-ratio costs.
const HEU_COST_NS: u64 = 100;
const OPT_COSTS_NS: [u64; 4] = [100, 1_000, 5_000, 20_000];

fn main() {
    let parsed = Cli::new(
        "tradeoff_scheduler",
        "SS5 trade-off: heuristic vs optimal ratio with scheduler cost charged",
    )
    .sweep()
    .parse();

    // Per app: one heuristic reference cell, then the optimal-cost ladder.
    let mut spec = SweepSpec::new("tradeoff_scheduler");
    for ts in applications() {
        spec.push(
            Cell::new(ts.clone(), CpuSpec::arm8(), PolicyKind::Lpfps)
                .with_exec(ExecKind::PaperGaussian)
                .with_bcet_fraction(0.4)
                .with_seed(1)
                .with_ratio_overhead(Dur::from_ns(HEU_COST_NS)),
        );
        for opt_ns in OPT_COSTS_NS {
            spec.push(
                Cell::new(ts.clone(), CpuSpec::arm8(), PolicyKind::LpfpsOptimal)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.4)
                    .with_seed(1)
                    .with_ratio_overhead(Dur::from_ns(opt_ns)),
            );
        }
    }
    let outcome = run_sweep(&spec, &parsed.run_options());

    println!("SS5 trade-off: heuristic vs optimal ratio with scheduler cost charged\n");
    println!("(BCET = 40% of WCET; heuristic charged {HEU_COST_NS} ns per slow-down)\n");
    println!(
        "{:<16} {:>9} {:>11} {:>11} {:>9} {:>7}",
        "application", "opt_ns", "heuristic", "optimal", "opt wins", "misses"
    );
    let mut cells = Vec::new();
    let mut rows = outcome.results.chunks(1 + OPT_COSTS_NS.len());
    for ts in applications() {
        let row = rows.next().unwrap();
        let heu = &row[0];
        assert_eq!(heu.misses, 0, "{} heuristic", ts.name());
        for (opt, opt_ns) in row[1..].iter().zip(OPT_COSTS_NS) {
            let wins = opt.average_power < heu.average_power;
            println!(
                "{:<16} {:>9} {:>11.5} {:>11.5} {:>9} {:>7}",
                ts.name(),
                opt_ns,
                heu.average_power,
                opt.average_power,
                wins,
                opt.misses
            );
            cells.push(TradeoffCell {
                app: ts.name().into(),
                overhead_ns: opt_ns,
                heuristic_power: heu.average_power,
                optimal_power: opt.average_power,
                optimal_wins: wins,
                misses: opt.misses,
            });
        }
        println!();
    }

    // Nothing ever misses a deadline: the overhead is charged on the
    // dispatch path but both ratios keep their safety margins.
    assert!(cells.iter().all(|c| c.misses == 0));
    // What the measurement establishes needs the full horizon; a run at
    // `--horizon-scale` below 1 still exercises every cell but skips it.
    if parsed.horizon_scale >= 1.0 {
        for ts in applications() {
            let app_cells: Vec<&TradeoffCell> =
                cells.iter().filter(|c| c.app == ts.name()).collect();
            // (1) The stakes are tiny: heuristic and optimal stay within 1%.
            for c in &app_cells {
                let rel = (c.optimal_power - c.heuristic_power).abs() / c.heuristic_power;
                assert!(rel < 0.01, "{}: gap {rel} too large", ts.name());
            }
            // (2) Optimal-ratio power is monotone in its own scheduler cost.
            for pair in app_cells.windows(2) {
                assert!(
                    pair[1].optimal_power + 1e-12 >= pair[0].optimal_power,
                    "{}: costlier scheduler cannot burn less",
                    ts.name()
                );
            }
        }
        println!("the stakes are within 1% of total power everywhere; microsecond-");
        println!("scale computation costs erase the optimal ratio's edge on the");
        println!("millisecond-scale workloads (ins, avionics, flight), while CNC —");
        println!("whose windows rival the 10us ramp, exactly SS5's scenario — keeps");
        println!("a sliver of benefit. The paper's choice of the heuristic stands.");
    }
    parsed.emit(&cells, &spec, &outcome);
}
