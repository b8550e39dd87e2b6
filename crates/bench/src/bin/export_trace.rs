//! Exports a Perfetto / Chrome-trace-event rendering of the Figure 2
//! cell: Table 1 under LPFPS with the paper's clamped Gaussian at
//! BCET = 50 % of WCET, seed 42, over one 400 µs window.
//!
//! The output JSON carries one lane per task (execution segments from the
//! traced schedule), a CPU condition lane (run / ramp / power-down /
//! idle spans with instant markers at each transition), and counter
//! tracks for instantaneous power, cumulative energy, and clock
//! frequency. Load it in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The default output path is the committed golden snapshot
//! (`results/fig2_trace.perfetto.json`); the obs crate's snapshot test
//! pins that file byte for byte, so regenerate it with this binary only
//! when a change is *meant* to alter the schedule or the exporter.
//!
//! Usage: `cargo run --release --bin export_trace -- [--trace-out PATH]`

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::Trace;
use lpfps_obs::{export_chrome_trace, validate_chrome_trace};
use lpfps_sweep::{Cell, Cli, ExecKind};
use lpfps_tasks::time::{Dur, Time};
use lpfps_workloads::table1;

const DEFAULT_OUT: &str = "results/fig2_trace.perfetto.json";

fn main() {
    let parsed = Cli::new(
        "export_trace",
        "Perfetto/Chrome trace-event export of the Figure 2 schedule",
    )
    .parse();

    let cell = Cell::new(table1(), CpuSpec::arm8(), PolicyKind::Lpfps)
        .with_exec(ExecKind::PaperGaussian)
        .with_bcet_fraction(0.5)
        .with_seed(42)
        .with_horizon(Dur::from_us(400));
    // A trace is a probe: the fast-forward is forced off so it is complete.
    let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
    cell.run_probed_opts(parsed.horizon_scale, &mut ws, true, &mut trace)
        .expect("the Figure 2 cell simulates");
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let end = Time::ZERO + cell.effective_horizon(parsed.horizon_scale);

    let json = export_chrome_trace(&trace, &scaled, end);
    let stats = validate_chrome_trace(&json).expect("freshly exported trace validates");

    let path = parsed.trace_out.as_deref().unwrap_or(DEFAULT_OUT);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!(
        "wrote {path}: {} events ({} spans, {} instants, {} counter samples) from {} trace events",
        stats.events,
        stats.spans,
        stats.instants,
        stats.counters,
        trace.len()
    );
    println!("load it in chrome://tracing or https://ui.perfetto.dev");
}
