//! Cache-replay property: the event-horizon cache must be a pure
//! memoization. For any task set, fault schedule, and directive stream,
//! running the engine with the cache enabled (default) and with
//! [`SimConfig::with_force_event_recompute`] (every `next_event_time`
//! query recomputed from scratch) must produce byte-identical serialized
//! reports — trace included, so the comparison covers every event stamp
//! and every energy segment, not just the end-of-run aggregates.
//!
//! The directive stream is driven by a chaos policy (random legal
//! slow-downs and sleeps) so the cache is exercised across the
//! transitions the disciplined policies rarely produce: mid-ramp
//! retargets, sleeps with tiny windows, speed-up timers landing between
//! releases.

use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault, RampDegradation, ReleaseJitter, WakeupJitter};
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::policy::{
    AlwaysFullSpeed, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext,
};
use lpfps_kernel::trace::Trace;
use lpfps_tasks::exec::PaperGaussian;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::rng::SplitMix64;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use proptest::prelude::*;

/// Random legal directives, as in `chaos_policy.rs`: sleeps that wake
/// before the head release, slow-downs to random ladder rungs with
/// random speed-up points.
#[derive(Debug)]
struct ChaosPolicy {
    rng: SplitMix64,
}

impl PolicyCore for ChaosPolicy {
    fn name(&self) -> &'static str {
        "chaos"
    }
}

impl PowerPolicy for ChaosPolicy {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        let roll = self.rng.next_u64() % 4;
        match (ctx.active, roll) {
            (None, 0 | 1) if ctx.run_queue.is_empty() => {
                let Some(head) = ctx.next_arrival() else {
                    return PowerDirective::FullSpeed;
                };
                let modes = ctx.cpu.sleep_modes();
                let mode = (self.rng.next_u64() as usize) % modes.len();
                let wake_at =
                    head.saturating_sub(modes[mode].wakeup_delay(ctx.cpu.reference_freq()));
                if wake_at <= ctx.now {
                    return PowerDirective::FullSpeed;
                }
                PowerDirective::PowerDown { wake_at, mode }
            }
            (Some(_), 0..=2) if ctx.run_queue.is_empty() => {
                let ladder = ctx.cpu.ladder();
                let steps = ladder.level_count() as u64;
                let khz =
                    ladder.min().as_khz() + (self.rng.next_u64() % steps) * ladder.step().as_khz();
                let freq = Freq::from_khz(khz);
                let Some(bound) = ctx.safe_completion_bound() else {
                    return PowerDirective::FullSpeed;
                };
                let slack = bound.saturating_since(ctx.now);
                if slack.is_zero() {
                    return PowerDirective::FullSpeed;
                }
                let offset = Dur::from_ns(self.rng.next_u64() % slack.as_ns().max(1));
                let speedup_at = ctx.now + offset;
                if speedup_at <= ctx.now {
                    return PowerDirective::FullSpeed;
                }
                PowerDirective::SlowDown { freq, speedup_at }
            }
            _ => PowerDirective::FullSpeed,
        }
    }
}

fn random_taskset(periods: &[u64]) -> TaskSet {
    let tasks: Vec<Task> = periods
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            Task::new(
                format!("t{i}"),
                Dur::from_us(p),
                Dur::from_us((p / 10).max(1)),
            )
            .with_bcet_fraction(0.4)
        })
        .collect();
    TaskSet::rate_monotonic("cache-replay", tasks)
}

/// Runs fully simulated with a [`Trace`] attached and serializes the
/// report together with the trace; byte equality of this string is the
/// property under test.
fn traced_json(
    ts: &TaskSet,
    cpu: &CpuSpec,
    policy: &mut dyn PowerPolicy,
    cfg: &SimConfig,
) -> String {
    let cfg = cfg.clone().with_force_full_simulation();
    let (mut ws, mut trace) = (SimWorkspace::new(), Trace::new());
    let report = simulate_in(ts, cpu, policy, &PaperGaussian, &cfg, &mut ws, &mut trace).unwrap();
    serde_json::to_string(&(report, trace)).expect("reports and traces serialize")
}

fn replay_pair(
    ts: &TaskSet,
    cpu: &CpuSpec,
    cfg: &SimConfig,
    seed: u64,
    chaos: bool,
) -> (String, String) {
    let run = |cfg: &SimConfig| {
        if chaos {
            let mut policy = ChaosPolicy {
                rng: SplitMix64::new(seed),
            };
            traced_json(ts, cpu, &mut policy, cfg)
        } else {
            traced_json(ts, cpu, &mut AlwaysFullSpeed, cfg)
        }
    };
    (run(cfg), run(&cfg.clone().with_force_event_recompute()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random chaos-directive schedules under a fault-free stream: the
    /// cached and force-recompute runs must serialize identically.
    #[test]
    fn chaos_replay_is_cache_invariant(
        periods in proptest::collection::vec(100u64..2_000, 1..5),
        seed in 0u64..10_000,
        multimode in proptest::bool::ANY,
    ) {
        let ts = random_taskset(&periods);
        let cpu = if multimode {
            CpuSpec::arm8_multimode()
        } else {
            CpuSpec::arm8()
        };
        let cfg = SimConfig::new(Dur::from_ms(20)).with_seed(seed);
        let (cached, recomputed) = replay_pair(&ts, &cpu, &cfg, seed, true);
        prop_assert_eq!(cached, recomputed);
    }

    /// Random fault schedules (overrun + release jitter + wakeup jitter +
    /// ramp degradation, random seeds and magnitudes) on top of random
    /// directives: the cache must stay invisible even when fault hooks
    /// perturb every event class it indexes.
    #[test]
    fn faulted_replay_is_cache_invariant(
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        overrun_pct in 0u32..40,
        jitter_us in 0u64..200,
        wake_us in 0u64..100,
        chaos in proptest::bool::ANY,
    ) {
        let ts = random_taskset(&[700, 1_300, 2_900]);
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none()
            .with_seed(fault_seed)
            .with_overrun(OverrunFault::clamped(f64::from(overrun_pct) / 100.0, 0.3, 1.3))
            .with_release_jitter(ReleaseJitter::uniform(Dur::from_us(jitter_us)))
            .with_wakeup_jitter(WakeupJitter::uniform(Dur::from_us(wake_us)))
            .with_ramp_degradation(RampDegradation::uniform(0.5, 1.0));
        let cfg = SimConfig::new(Dur::from_ms(25))
            .with_seed(seed)
            .with_faults(faults);
        let (cached, recomputed) = replay_pair(&ts, &cpu, &cfg, seed, chaos);
        prop_assert_eq!(cached, recomputed);
    }

    /// Tick-driven kernels and context-switch / ratio overheads insert
    /// synthetic events between task events — exactly where a stale
    /// horizon would first surface.
    #[test]
    fn overhead_replay_is_cache_invariant(
        seed in 0u64..5_000,
        tick_us in 1u64..500,
        cs_us in 0u64..20,
    ) {
        let ts = random_taskset(&[500, 1_100, 2_300]);
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(15))
            .with_seed(seed)
            .with_tick(Dur::from_us(tick_us))
            .with_context_switch(Dur::from_us(cs_us))
            .with_ratio_overhead(Dur::from_us(1));
        let (cached, recomputed) = replay_pair(&ts, &cpu, &cfg, seed, true);
        prop_assert_eq!(cached, recomputed);
    }
}

/// Deterministic companion: the intentional stale-cache injection hook
/// must *break* replay equality on a cell where the differential suite
/// relies on it being caught — guarding the property tests themselves
/// against a hook that silently became a no-op.
#[test]
fn stale_cache_injection_breaks_replay_equality() {
    let ts = random_taskset(&[700, 1_300, 2_900]);
    let cpu = CpuSpec::arm8();
    let cfg = SimConfig::new(Dur::from_ms(25)).with_seed(11);
    let chaos = || ChaosPolicy {
        rng: SplitMix64::new(11),
    };
    assert_ne!(
        traced_json(&ts, &cpu, &mut chaos(), &cfg),
        traced_json(
            &ts,
            &cpu,
            &mut chaos(),
            &cfg.clone().with_stale_dispatch_cache()
        ),
        "the stale-dispatch-cache injection hook no longer changes behavior; \
         the sabotage tests in crates/oracle are vacuous"
    );
}
