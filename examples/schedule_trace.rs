//! Inspecting a schedule: run the CNC machine controller under LPFPS with
//! full event tracing, render the Gantt chart, and list every frequency
//! change and power-down the scheduler performed.
//!
//! Run with: `cargo run --release --example schedule_trace`

use lpfps::driver::run_in;
use lpfps::{PolicyKind, SimConfig};
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_obs::gantt::Gantt;
use lpfps_obs::text::render_detailed;
use lpfps_tasks::exec::PaperGaussian;
use lpfps_tasks::time::{Dur, Time};
use lpfps_workloads::cnc;
use std::num::NonZeroU64;

fn main() {
    let ts = cnc().with_bcet_fraction(0.4);
    let cpu = CpuSpec::arm8();
    let horizon = Dur::from_us(9_600); // one CNC hyperperiod
                                       // The trace is a probe; it is complete only with fast-forward off.
    let cfg = SimConfig::new(horizon)
        .with_seed(3)
        .with_force_full_simulation();

    let mut trace = Trace::new();
    let mut ws = SimWorkspace::new();
    let report = run_in(
        &ts,
        &cpu,
        PolicyKind::Lpfps,
        &PaperGaussian,
        &cfg,
        &mut ws,
        &mut trace,
    )
    .unwrap();
    assert!(report.all_deadlines_met(), "misses: {:?}", report.misses);

    println!("CNC controller, one hyperperiod ({horizon}) under LPFPS\n");
    let gantt = Gantt::from_trace(&trace, Time::ZERO + horizon);
    print!("{}", gantt.render(&ts, NonZeroU64::new(100).unwrap()));
    println!("  (one column = 100us; '#' run, '~' ramp, 'z' power-down, '.' idle)\n");

    println!("power management actions:");
    for (t, e) in trace.iter() {
        match e {
            TraceEvent::RampStart { from, to } => println!("  {t:>10}  ramp {from} -> {to}"),
            TraceEvent::EnterPowerDown { wake_at } => {
                println!("  {t:>10}  power-down until {wake_at}")
            }
            _ => {}
        }
    }

    println!();
    println!("per-task worst/mean response vs deadline:");
    for (id, task, _) in ts.iter() {
        let stats = &report.responses[id.0];
        println!(
            "  {:<22} jobs={:<3} max={:<10} mean={:<10} deadline={}",
            task.name(),
            stats.completed,
            stats.max_response.to_string(),
            stats.mean_response().to_string(),
            task.deadline()
        );
    }
    println!();
    print!("{}", render_detailed(&report, &ts));
}
