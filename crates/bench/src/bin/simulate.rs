//! A small CLI around the simulator: pick an application, a policy, a
//! BCET fraction, and get the detailed report (states, per-task energy,
//! idle gaps), optionally with a Gantt chart.
//!
//! Usage:
//! ```text
//! cargo run --release --bin simulate -- \
//!     [--app avionics|ins|flight_control|cnc|table1 | --taskset <file.json>] \
//!     [--policy fps|fps-pd|static|lpfps-dvs|lpfps|lpfps-opt] \
//!     [--bcet <fraction in (0, 1]>] [--seed <n>] [--horizon-ms <n>] \
//!     [--gantt <us-per-col>] [--json <out.json>]
//! ```
//!
//! `--taskset` loads a JSON task set (the serde form of
//! [`lpfps_tasks::taskset::TaskSet`]; see
//! `examples/data/custom_taskset.json` for the shape).

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::Trace;
use lpfps_obs::gantt::Gantt;
use lpfps_obs::text::render_detailed;
use lpfps_sweep::{run_sweep, Cell, CellStatus, Cli, ExecKind, SweepSpec};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use std::num::NonZeroU64;

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("simulate: {msg}");
    std::process::exit(2);
}

fn workload(name: &str) -> TaskSet {
    match name {
        "avionics" => lpfps_workloads::avionics(),
        "ins" => lpfps_workloads::ins(),
        "flight_control" => lpfps_workloads::flight_control(),
        "cnc" => lpfps_workloads::cnc(),
        "table1" => lpfps_workloads::table1(),
        other => die(format_args!(
            "unknown app `{other}` (expected avionics, ins, flight_control, cnc, or table1)"
        )),
    }
}

fn policy(name: &str) -> PolicyKind {
    PolicyKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .unwrap_or_else(|| {
            let names: Vec<_> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
            die(format_args!(
                "unknown policy `{name}` (expected one of: {})",
                names.join(", ")
            ))
        })
}

fn main() {
    let parsed = Cli::new(
        "simulate",
        "run one simulation cell and print the full report",
    )
    .sweep()
    .opt_default("--app", "NAME", "named application workload", "table1")
    .opt("--taskset", "FILE", "load a task-set JSON instead of --app")
    .opt_default("--policy", "NAME", "scheduling policy", "lpfps")
    .opt_default("--bcet", "F", "BCET as a fraction of WCET", "0.5")
    .opt_default("--seed", "N", "execution-time seed", "0")
    .opt("--horizon-ms", "N", "simulation horizon in milliseconds")
    .opt(
        "--gantt",
        "US_PER_COL",
        "render a Gantt chart from the trace",
    )
    .parse();

    let base = match parsed.value("--taskset") {
        Some(path) => {
            let body = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format_args!("cannot read {path}: {e}")));
            let ts = serde_json::from_str::<TaskSet>(&body)
                .unwrap_or_else(|e| die(format_args!("{path} is not a valid task-set JSON: {e}")));
            // Deserialization is shape-only; check the scheduling rules
            // here so a broken file dies with the precise task-set error
            // instead of a downstream symptom (e.g. a zero hyperperiod).
            lpfps_tasks::error::validate_task_set(&ts)
                .unwrap_or_else(|e| die(format_args!("{path}: invalid task set: {e}")));
            ts
        }
        None => workload(parsed.value("--app").unwrap()),
    };
    let bcet: f64 = parsed
        .value("--bcet")
        .unwrap()
        .parse()
        .ok()
        .filter(|f| *f > 0.0 && *f <= 1.0)
        .unwrap_or_else(|| die("flag `--bcet` takes a fraction in (0, 1]"));
    let seed: u64 = parsed
        .value("--seed")
        .unwrap()
        .parse()
        .unwrap_or_else(|_| die("flag `--seed` takes a non-negative integer"));
    let gantt: Option<NonZeroU64> = parsed.value("--gantt").map(|v| {
        v.parse().unwrap_or_else(|_| {
            die("flag `--gantt` takes a positive number of microseconds per column")
        })
    });

    let mut cell = Cell::new(
        base.clone(),
        CpuSpec::arm8(),
        policy(parsed.value("--policy").unwrap()),
    )
    .with_exec(ExecKind::PaperGaussian)
    .with_bcet_fraction(bcet)
    .with_seed(seed);
    if let Some(ms) = parsed.value("--horizon-ms") {
        let ms = ms
            .parse()
            .unwrap_or_else(|_| die("flag `--horizon-ms` takes an integer"));
        let horizon = Dur::from_ms(1).checked_mul(ms).unwrap_or_else(|| {
            let max = Dur::MAX.as_ns() / Dur::from_ms(1).as_ns();
            die(format_args!(
                "flag `--horizon-ms` takes at most {max} milliseconds"
            ))
        });
        cell = cell.with_horizon(horizon);
    }
    let horizon = cell.effective_horizon(parsed.horizon_scale);

    let mut spec = SweepSpec::new("simulate");
    spec.push(cell.clone());
    let outcome = run_sweep(&spec, &parsed.run_options());
    let report = match outcome.report(0) {
        Some(report) => report,
        None => match &outcome.results[0].status {
            CellStatus::Failed { error } => die(format_args!("{}", error.message)),
            CellStatus::Ok => die("simulation produced no report"),
        },
    };

    let ts = base.with_bcet_fraction(bcet);
    println!("{ts}");
    print!("{}", render_detailed(report, &ts));
    if !report.all_deadlines_met() {
        println!("  DEADLINE MISSES: {:?}", report.misses);
    }
    if let Some(cols) = gantt {
        // The chart needs a complete trace: re-run the (deterministic)
        // cell fully simulated with a trace attached.
        let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
        cell.run_probed_opts(parsed.horizon_scale, &mut ws, true, &mut trace)
            .unwrap_or_else(|e| die(e));
        println!();
        print!(
            "{}",
            Gantt::from_trace(&trace, Time::ZERO + horizon).render(&ts, cols)
        );
    }
    parsed.emit(&outcome.results, &spec, &outcome);
}
