//! Reproduces **Figure 8**: simulation results for (a) Avionics, (b) INS,
//! (c) Flight control, and (d) CNC.
//!
//! For each application, the BCET is varied from 10 % to 100 % of the WCET
//! (execution times drawn from the paper's clamped Gaussian, Eqs. 4–5) and
//! the average normalized power of FPS and LPFPS is measured; the final
//! column gives LPFPS's power reduction relative to FPS at the same BCET.
//! `--svg DIR` also draws the four panels as `DIR/fig8_<app>.svg`, from
//! the same seed-averaged cells the table prints.
//!
//! Usage: `cargo run --release --bin fig8_power -- [--json out.json]
//! [--svg DIR] [--seeds N] [--threads N] [--help]` (see `lpfps_sweep::Cli`).

use lpfps::driver::PolicyKind;
use lpfps_bench::chart::{render_line_chart, ChartSpec, Series};
use lpfps_bench::{render_power_table, PowerCell, BCET_FRACTIONS};
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, CellResult, Cli, ExecKind, SweepSpec};
use lpfps_workloads::applications;

fn main() {
    let parsed = Cli::new(
        "fig8_power",
        "Figure 8: average power of FPS vs LPFPS over the BCET/WCET sweep",
    )
    .sweep()
    .default_seeds(3)
    .opt("--svg", "DIR", "draw the panels as DIR/fig8_<app>.svg")
    .parse();

    let spec = SweepSpec::grid(
        "fig8_power",
        &applications(),
        &CpuSpec::arm8(),
        &[PolicyKind::Fps, PolicyKind::Lpfps],
        &BCET_FRACTIONS,
        &parsed.seed_list(),
        ExecKind::PaperGaussian,
    );
    let outcome = run_sweep(&spec, &parsed.run_options());

    // Correctness first (previously asserted per seed inside power_cell):
    // these sets are schedulable, so no policy may miss at any seed.
    for r in &outcome.results {
        assert_eq!(
            r.misses, 0,
            "{}/{} missed at seed {}",
            r.app, r.policy, r.seed
        );
    }

    // The Figure-8 metric averages power across seeds per (app, policy,
    // fraction); the grid puts seeds innermost, so each group is one
    // contiguous chunk of the spec-ordered results.
    let mut cells: Vec<PowerCell> = outcome
        .results
        .chunks(parsed.seeds as usize)
        .map(|group| PowerCell::mean_over_seeds(&group.iter().collect::<Vec<&CellResult>>()))
        .collect();
    // `results/fig8_power.json` lists each application's points by BCET
    // fraction, then policy. The sort is stable, so each fraction keeps
    // the grid's policy order.
    let apps = applications();
    let rank = |c: &PowerCell| apps.iter().position(|ts| ts.name() == c.app);
    cells.sort_by(|a, b| {
        rank(a)
            .cmp(&rank(b))
            .then(a.bcet_fraction.total_cmp(&b.bcet_fraction))
    });

    println!("Figure 8: average power (1.0 = busy at full speed), FPS vs LPFPS\n");
    for ts in applications() {
        println!(
            "{}",
            render_power_table(ts.name(), &["fps", "lpfps"], &cells)
        );
    }

    // The paper's qualitative claims, asserted. They need the full
    // horizon; a run at `--horizon-scale` below 1 still exercises every
    // cell but skips them.
    if parsed.horizon_scale >= 1.0 {
        let power = |app: &str, pol: &str, frac: f64| {
            cells
                .iter()
                .find(|c| c.app == app && c.policy == pol && (c.bcet_fraction - frac).abs() < 1e-9)
                .unwrap()
                .average_power
        };
        for ts in applications() {
            let app = ts.name();
            // LPFPS wins at every BCET fraction, including BCET = WCET.
            for &f in BCET_FRACTIONS.iter() {
                assert!(
                    power(app, "lpfps", f) < power(app, "fps", f),
                    "{app}: LPFPS must beat FPS at frac {f}"
                );
            }
            // The gain grows as BCET shrinks.
            let red = |f: f64| 1.0 - power(app, "lpfps", f) / power(app, "fps", f);
            assert!(
                red(0.1) > red(1.0),
                "{app}: gain must grow with execution-time variation"
            );
        }
        // INS gains the most (the paper's headline observation).
        let best_red = |app: &str| 1.0 - power(app, "lpfps", 0.1) / power(app, "fps", 0.1);
        for other in ["avionics", "flight_control", "cnc"] {
            assert!(
                best_red("ins") >= best_red(other),
                "INS should show the largest reduction (ins {:.3} vs {other} {:.3})",
                best_red("ins"),
                best_red(other)
            );
        }
        println!(
            "largest LPFPS reduction: INS at BCET=10%: {:.1}%",
            best_red("ins") * 100.0
        );
        println!("(paper: up to 62% for INS; see EXPERIMENTS.md for the metric discussion)");
        println!("\nall Figure 8 qualitative claims verified.");
    }

    if let Some(dir) = parsed.value("--svg") {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {dir}: {e}"));
        for ts in &apps {
            let points = |policy: &str| -> Vec<(f64, f64)> {
                cells
                    .iter()
                    .filter(|c| c.app == ts.name() && c.policy == policy)
                    .map(|c| (c.bcet_fraction, c.average_power))
                    .collect()
            };
            let chart = ChartSpec {
                title: format!("Figure 8: {} — average power vs BCET/WCET", ts.name()),
                x_label: "BCET as a fraction of WCET".into(),
                y_label: "normalized average power".into(),
                ..ChartSpec::default()
            };
            let svg = render_line_chart(
                &chart,
                &[
                    Series {
                        label: "FPS".into(),
                        points: points("fps"),
                        color: "#d62728".into(),
                    },
                    Series {
                        label: "LPFPS".into(),
                        points: points("lpfps"),
                        color: "#1f77b4".into(),
                    },
                ],
            );
            let path = format!("{dir}/fig8_{}.svg", ts.name());
            std::fs::write(&path, svg).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    parsed.emit(&cells, &spec, &outcome);
}
