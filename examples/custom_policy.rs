//! Extending the kernel: write your own power policy.
//!
//! The kernel exposes the same hook LPFPS uses — a [`PowerPolicy`] that
//! receives the scheduler's view (queues, the active job's WCET-remaining
//! work, the next arrival) and answers with a power directive. This
//! example implements a deliberately conservative policy that only ever
//! halves the clock (never lower), compares it against FPS and full
//! LPFPS, and verifies that all three keep every deadline.
//!
//! Run with: `cargo run --release --example custom_policy`

use lpfps::driver::{default_horizon, run, PolicyKind};
use lpfps::SimConfig;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::simulate;
use lpfps_kernel::policy::{PolicyCore, PowerDirective, PowerPolicy, SchedulerContext};
use lpfps_obs::text::summary_line;
use lpfps_tasks::exec::PaperGaussian;
use lpfps_tasks::freq::Freq;
use lpfps_workloads::ins;

/// Halve the clock when the active task has at least 2x slack; power down
/// when idle. Simpler than LPFPS (no ratio computation, one precomputed
/// ramp budget) — the kind of policy a kernel might ship when multiply/
/// divide in the scheduler is unwelcome.
#[derive(Debug)]
struct HalfOrFull {
    half: Freq,
}

impl HalfOrFull {
    fn new(cpu: &CpuSpec) -> Self {
        HalfOrFull {
            half: Freq::from_khz(cpu.reference_freq().as_khz() / 2),
        }
    }
}

impl PolicyCore for HalfOrFull {
    fn name(&self) -> &'static str {
        "half-or-full"
    }
}

impl PowerPolicy for HalfOrFull {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        if !ctx.run_queue.is_empty() {
            return PowerDirective::FullSpeed;
        }
        match ctx.active {
            None => match ctx.next_arrival() {
                Some(head) => {
                    let wake_at = head.saturating_sub(ctx.cpu.wakeup_delay());
                    if wake_at > ctx.now {
                        PowerDirective::PowerDown { wake_at, mode: 0 }
                    } else {
                        PowerDirective::FullSpeed
                    }
                }
                None => PowerDirective::FullSpeed,
            },
            Some(active) => {
                let Some(bound) = ctx.safe_completion_bound() else {
                    return PowerDirective::FullSpeed;
                };
                let window = bound.saturating_since(ctx.now);
                let remaining = active.wcet_remaining.time_at(ctx.cpu.reference_freq());
                let ramp_back = ctx.cpu.ramp_duration(self.half, ctx.cpu.full_freq());
                // Safe iff the halved clock finishes the WCET-remaining work
                // before the ramp back to full speed must begin.
                let budget = window.saturating_sub(ramp_back);
                if remaining * 2 <= budget {
                    let speedup_at = bound.saturating_sub(ramp_back);
                    if speedup_at > ctx.now {
                        return PowerDirective::SlowDown {
                            freq: self.half,
                            speedup_at,
                        };
                    }
                }
                PowerDirective::FullSpeed
            }
        }
    }
}

fn main() {
    let ts = ins().with_bcet_fraction(0.4);
    let cpu = CpuSpec::arm8();
    let cfg = SimConfig::new(default_horizon(&ts)).with_seed(11);
    let exec = PaperGaussian;

    let fps = run(&ts, &cpu, PolicyKind::Fps, &exec, &cfg).unwrap();
    let mine = simulate(&ts, &cpu, &mut HalfOrFull::new(&cpu), &exec, &cfg).unwrap();
    let lpfps = run(&ts, &cpu, PolicyKind::Lpfps, &exec, &cfg).unwrap();

    for r in [&fps, &mine, &lpfps] {
        assert!(r.all_deadlines_met(), "{} missed deadlines", r.policy);
        println!("{}", summary_line(r));
    }

    println!();
    println!(
        "the custom policy captures {:.0}% of LPFPS's saving with a much simpler rule",
        100.0 * (fps.average_power() - mine.average_power())
            / (fps.average_power() - lpfps.average_power())
    );
}
