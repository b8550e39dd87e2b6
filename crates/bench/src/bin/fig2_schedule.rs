//! Reproduces **Figure 2** (and the queue snapshots of **Figures 3 and
//! 5**): schedules of the Table 1 task set.
//!
//! * Figure 2(a): every task at its WCET under plain FPS.
//! * Figure 2(b): the paper's narrated scenario — the first three
//!   instances of tau2 and the first instance of tau3 complete early —
//!   under LPFPS, showing the slow-down at t = 50 and t = 160 and the
//!   power-down entries at t = 90 and t = 180.
//!
//! Usage: `cargo run --release --bin fig2_schedule`

use lpfps::LpfpsPolicy;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::policy::{AlwaysFullSpeed, PowerPolicy};
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_obs::gantt::Gantt;
use lpfps_obs::text::render_trace;
use lpfps_tasks::exec::{AlwaysWcet, ExecModel};
use lpfps_tasks::task::{Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use lpfps_workloads::table1;
use std::num::NonZeroU64;

/// Gantt resolution: 80 columns across the 400 µs horizon.
const US_PER_COL: NonZeroU64 = NonZeroU64::new(5).unwrap();

/// Scripted execution times reproducing the early completions of
/// Figure 2(b); jobs beyond the script run at their WCET.
#[derive(Debug)]
struct Figure2b;

impl ExecModel for Figure2b {
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, _seed: u64) -> Dur {
        let us = match (task_id.0, job_index) {
            (1, 0) => Some(15), // tau2 first instance
            (1, 1) => Some(10), // tau2 second instance: 80..90
            (1, 2) => Some(10), // tau2 third instance: half its WCET
            (2, 0) => Some(25), // tau3 first instance
            _ => None,
        };
        us.map(Dur::from_us).unwrap_or_else(|| task.wcet())
    }

    fn name(&self) -> &'static str {
        "figure2b-script"
    }
}

fn queue_snapshot(
    trace: &Trace,
    n_tasks: usize,
    at: Time,
) -> (Vec<usize>, Vec<usize>, Option<usize>) {
    // Replay the trace up to *and including* instant `at` to reconstruct
    // queue membership: (run queue, delay queue, active task).
    let mut delay: Vec<usize> = (0..n_tasks).collect();
    let mut run: Vec<usize> = Vec::new();
    let mut active: Option<usize> = None;
    for (t, e) in trace.iter() {
        if t > at {
            break;
        }
        match e {
            TraceEvent::Release { task, .. } => {
                delay.retain(|&x| x != task.0);
                run.push(task.0);
            }
            TraceEvent::Dispatch { task, .. } => {
                run.retain(|&x| x != task.0);
                active = Some(task.0);
            }
            TraceEvent::Preempt { task, .. } => {
                if active == Some(task.0) {
                    active = None;
                }
                run.push(task.0);
            }
            TraceEvent::Complete { task, .. } => {
                if active == Some(task.0) {
                    active = None;
                }
                delay.push(task.0);
            }
            _ => {}
        }
    }
    run.sort_unstable();
    delay.sort_unstable();
    (run, delay, active)
}

fn print_snapshot(label: &str, trace: &Trace, at: Time) {
    let (run, delay, active) = queue_snapshot(trace, 3, at);
    let names = ["tau1", "tau2", "tau3"];
    let fmt = |v: &[usize]| {
        if v.is_empty() {
            "(empty)".to_string()
        } else {
            v.iter().map(|&i| names[i]).collect::<Vec<_>>().join(", ")
        }
    };
    println!(
        "{label}: active = {}, run queue = [{}], delay queue = [{}]",
        active.map(|i| names[i]).unwrap_or("none"),
        fmt(&run),
        fmt(&delay)
    );
}

/// Simulates one schedule with its complete trace (a trace is a probe,
/// so the fast-forward is forced off).
fn traced(
    ts: &TaskSet,
    cpu: &CpuSpec,
    policy: &mut dyn PowerPolicy,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
) -> (SimReport, Trace) {
    let cfg = cfg.clone().with_force_full_simulation();
    let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
    let report = simulate_in(ts, cpu, policy, exec, &cfg, &mut ws, &mut trace).expect("valid cell");
    (report, trace)
}

fn main() {
    // No outputs beyond stdout, but the shared CLI still rejects typos.
    let _ = lpfps_sweep::Cli::new(
        "fig2_schedule",
        "Figures 2/3/5: Table 1 schedules and queue snapshots",
    )
    .parse();
    let ts = table1();
    let cpu = CpuSpec::arm8();
    let horizon = Dur::from_us(400);
    let cfg = SimConfig::new(horizon);

    println!("=== Figure 2(a): Table 1 at WCET under FPS ===\n");
    let (fps, trace_a) = traced(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg);
    let gantt = Gantt::from_trace(&trace_a, Time::from_us(400));
    print!("{}", gantt.render(&ts, US_PER_COL));
    println!("\nevents:");
    print!("{}", render_trace(&trace_a));
    assert!(fps.all_deadlines_met());

    println!("\n--- Figure 3: queue snapshots under FPS ---");
    print_snapshot("t =   0 (Fig. 3a)", &trace_a, Time::from_us(0));
    print_snapshot("t =  50 (Fig. 3b)", &trace_a, Time::from_us(50));

    println!("\n=== Figure 2(b): early completions under LPFPS ===\n");
    let (lp, trace_b) = traced(&ts, &cpu, &mut LpfpsPolicy::new(), &Figure2b, &cfg);
    let gantt = Gantt::from_trace(&trace_b, Time::from_us(400));
    print!("{}", gantt.render(&ts, US_PER_COL));
    println!("\nevents:");
    print!("{}", render_trace(&trace_b));
    assert!(lp.all_deadlines_met(), "misses: {:?}", lp.misses);

    println!("\n--- Figure 5: queue snapshots under LPFPS ---");
    print_snapshot("t = 160 (Fig. 5a)", &trace_b, Time::from_us(160));
    print_snapshot("t = 180 (Fig. 5b)", &trace_b, Time::from_us(180));

    // The narrated events of the paper, asserted so this binary doubles as
    // an executable regression check of the example.
    let slowdown_at_160 = trace_b
        .window(Time::from_us(160), Time::from_us(170))
        .any(|(_, e)| matches!(e, TraceEvent::RampStart { .. }));
    assert!(slowdown_at_160, "expected the t=160 slow-down of Example 2");
    let powerdown_at_180 = trace_b
        .window(Time::from_us(180), Time::from_us(200))
        .any(|(_, e)| matches!(e, TraceEvent::EnterPowerDown { .. }));
    assert!(
        powerdown_at_180,
        "expected the t=180 power-down of Example 2"
    );
    let powerdown_at_90 = trace_b
        .window(Time::from_us(90), Time::from_us(100))
        .any(|(_, e)| matches!(e, TraceEvent::EnterPowerDown { .. }));
    assert!(powerdown_at_90, "expected the t=90 power-down of Fig. 2(b)");

    println!(
        "\nFPS   average power over 400us: {:.4}",
        fps.average_power()
    );
    println!("LPFPS average power over 400us: {:.4}", lp.average_power());
    println!(
        "reduction: {:.1}%",
        (1.0 - lp.average_power() / fps.average_power()) * 100.0
    );
    println!("\nall Figure 2 narrated events verified.");
}
