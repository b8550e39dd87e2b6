//! Renders the paper's Figure 8 panels as standalone SVG charts from
//! freshly measured data.
//!
//! Usage: `cargo run --release --bin report_svg -- [--out results]`
//!
//! Writes `fig8_<app>.svg` (average power vs BCET fraction, FPS vs LPFPS).

use lpfps::driver::PolicyKind;
use lpfps_bench::chart::{render_line_chart, ChartSpec, Series};
use lpfps_bench::BCET_FRACTIONS;
use lpfps_cpu::spec::CpuSpec;
use lpfps_sweep::{run_sweep, Cli, ExecKind, SweepSpec};
use lpfps_workloads::applications;

fn main() {
    let parsed = Cli::new("report_svg", "render Figure 8 panels as SVG charts")
        .sweep()
        .opt_default("--out", "DIR", "output directory", "results")
        .parse();
    let dir = parsed.value("--out").unwrap().to_string();
    std::fs::create_dir_all(&dir).expect("create output directory");

    let spec = SweepSpec::grid(
        "report_svg",
        &applications(),
        &CpuSpec::arm8(),
        &[PolicyKind::Fps, PolicyKind::Lpfps],
        &BCET_FRACTIONS,
        &[1],
        ExecKind::PaperGaussian,
    );
    let outcome = run_sweep(&spec, &parsed.run_options());
    for r in &outcome.results {
        assert_eq!(r.misses, 0, "{}/{} missed deadlines", r.app, r.policy);
    }

    for ts in applications() {
        let points = |policy: &str| -> Vec<(f64, f64)> {
            outcome
                .results
                .iter()
                .filter(|r| r.app == ts.name() && r.policy == policy)
                .map(|r| (r.bcet_fraction, r.average_power))
                .collect()
        };
        let spec = ChartSpec {
            title: format!("Figure 8: {} — average power vs BCET/WCET", ts.name()),
            x_label: "BCET as a fraction of WCET".into(),
            y_label: "normalized average power".into(),
            ..ChartSpec::default()
        };
        let svg = render_line_chart(
            &spec,
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
        std::fs::write(&path, svg).expect("write svg");
        println!("wrote {path}");
    }
    parsed.emit(&outcome.results, &spec, &outcome);
}
