//! The LPFPS scheduler policy — the paper's Figure 4, lines L12–L21.
//!
//! The conventional part of the scheduler (queue moves, preemption, and
//! the L1–L4 rule that any invocation at reduced speed first raises the
//! clock to maximum) lives in `lpfps-kernel`; this policy supplies the two
//! power decisions LPFPS adds when the run queue is empty:
//!
//! * **no active task** (L13–L15) — every task sits in the delay queue, so
//!   the head's release time is the exact next busy instant: set the wake
//!   timer to `release - wakeup_delay` and enter power-down mode;
//! * **only the active task** (L16–L19) — the processor belongs to it until
//!   the next arrival `t_a`: compute the speed ratio from its WCET-remaining
//!   work, pick the lowest ladder frequency at or above it, and slow down.
//!
//! Knobs (each an ablation in the benchmark suite): the ratio method
//! (heuristic Eq. 3 vs optimal), and independently disabling the
//! power-down or DVS halves of the policy.

use crate::speed::{r_heu, r_opt_trapezoid};
use lpfps_kernel::discipline::Discipline;
use lpfps_kernel::policy::{
    ActiveView, FaultEvent, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext,
};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::{Dur, Time};

/// How the speed ratio is computed (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RatioMethod {
    /// Eq. 3: `r = (C_i - E_i) / (t_a - t_c)` — the paper's recommended
    /// run-time choice (safe by Theorem 1, trivially cheap to compute).
    #[default]
    Heuristic,
    /// The optimal ratio, solved against the simulator's linear-ramp
    /// capacity model (see [`crate::speed`] for why this differs from
    /// Eq. 2 by a factor of two in the ramp credit).
    Optimal,
}

/// The LPFPS policy of Shin & Choi with ablation switches.
///
/// # Examples
///
/// ```
/// use lpfps::LpfpsPolicy;
/// use lpfps_kernel::policy::PolicyCore;
///
/// assert_eq!(LpfpsPolicy::new().name(), "lpfps");
/// assert_eq!(LpfpsPolicy::power_down_only().name(), "fps-pd");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LpfpsPolicy {
    method: RatioMethod,
    enable_powerdown: bool,
    enable_dvs: bool,
    name: &'static str,
    /// Graceful-degradation cooldown: after a kernel watchdog report the
    /// policy answers `FullSpeed` (no DVS, no power-down) for this long.
    /// `None` is the paper's vanilla policy, which ignores faults.
    watchdog_cooldown: Option<Dur>,
    /// End of the current degraded window, if one is in force.
    degraded_until: Option<Time>,
    /// WCET inflation margin for the slow-down budget, `>= 1.0`. Vanilla
    /// LPFPS plans the stretch against `C_i - E_i`; with a margin `m` it
    /// plans against `m*C_i - E_i`, reserving headroom for overruns of up
    /// to `m` times the WCET — Theorem 1's argument then holds with the
    /// inflated budget, so clamped overruns within `m` cannot push a
    /// slowed job past the window even before the watchdog reacts.
    overrun_margin: f64,
}

impl LpfpsPolicy {
    /// Full LPFPS with the heuristic ratio (the paper's evaluated
    /// configuration).
    pub fn new() -> Self {
        LpfpsPolicy {
            method: RatioMethod::Heuristic,
            enable_powerdown: true,
            enable_dvs: true,
            name: "lpfps",
            watchdog_cooldown: None,
            degraded_until: None,
            overrun_margin: 1.0,
        }
    }

    /// Full LPFPS with the optimal ratio (the paper's future-work variant).
    pub fn with_optimal_ratio() -> Self {
        LpfpsPolicy {
            name: "lpfps-opt",
            method: RatioMethod::Optimal,
            ..LpfpsPolicy::new()
        }
    }

    /// Power-down only, no DVS: the "FPS + power-down" baseline — what a
    /// conventional kernel gains from the delay-queue timer trick alone.
    pub fn power_down_only() -> Self {
        LpfpsPolicy {
            name: "fps-pd",
            enable_dvs: false,
            ..LpfpsPolicy::new()
        }
    }

    /// DVS only, no power-down: idle intervals burn the NOP loop, but the
    /// lone active task still runs slowed.
    pub fn dvs_only() -> Self {
        LpfpsPolicy {
            name: "lpfps-dvs",
            enable_powerdown: false,
            ..LpfpsPolicy::new()
        }
    }

    /// Full LPFPS with the graceful-degradation watchdog: after any kernel
    /// fault report ([`FaultEvent`]) the policy reverts to full speed and
    /// suppresses both DVS and power-down until `cooldown` has elapsed,
    /// then resumes normal operation. Theorem 1's guarantee assumes jobs
    /// stay within their WCET; when that assumption breaks at run time,
    /// this is the recovery: stop stretching work and burn through the
    /// backlog at maximum speed.
    ///
    /// # Panics
    ///
    /// Panics if the cooldown is zero (a zero-length degraded window would
    /// make the watchdog a no-op and silently mimic vanilla LPFPS).
    pub fn with_watchdog(cooldown: Dur) -> Self {
        assert!(!cooldown.is_zero(), "watchdog cooldown must be positive");
        LpfpsPolicy {
            name: "lpfps-wd",
            watchdog_cooldown: Some(cooldown),
            ..LpfpsPolicy::new()
        }
    }

    /// The cycle-conserving EDF configuration: the same exact-knowledge
    /// power-down and lone-task slow-down decisions, intended to run under
    /// the kernel's [`Edf`](lpfps_kernel::discipline::Edf) discipline
    /// (see [`PolicyKind::CcEdf`](crate::driver::PolicyKind)). The decision
    /// logic is discipline-independent — it consumes only queue occupancy,
    /// the delay-queue head, and the active job's WCET-remaining work — so
    /// this is the deadline-driven counterpart of LPFPS in the spirit of
    /// Pillai & Shin's cycle-conserving EDF: unused cycles (early
    /// completions shrink `C_i - E_i`) immediately lower the speed the
    /// lone-task stretch plans with.
    pub fn cc_edf() -> Self {
        LpfpsPolicy {
            name: "cc-edf",
            ..LpfpsPolicy::new()
        }
    }

    /// Adds a defensive slow-down margin: the stretch budget becomes
    /// `margin * C_i - E_i` instead of `C_i - E_i`, trading DVS savings
    /// for tolerance of WCET overruns up to `margin` times the budget.
    /// Composes with [`LpfpsPolicy::with_watchdog`]: the margin prevents
    /// the miss a clamped overrun could cause *before* detection, the
    /// watchdog cleans up everything past the margin.
    ///
    /// # Panics
    ///
    /// Panics if the margin is not finite or below 1.0.
    pub fn with_overrun_margin(mut self, margin: f64) -> Self {
        assert!(
            margin.is_finite() && margin >= 1.0,
            "overrun margin must be >= 1"
        );
        self.overrun_margin = margin;
        self
    }

    /// The slow-down stretch budget at this decision point: the active
    /// job's WCET-view remaining work (inflated by the overrun margin) and
    /// the window to the safe completion bound, or `None` when there is no
    /// exploitable slack (no bound, or `remaining >= window`).
    ///
    /// Pure with respect to the policy state, and the *single* place this
    /// arithmetic lives: [`PowerPolicy::decide`] consumes it to pick the
    /// ladder frequency, and [`RatioLogger`](crate::ratio_log::RatioLogger)
    /// consumes it to record the `(r_heu, r_opt)` pair per decision, so
    /// the instrumented view cannot drift from what the policy actually
    /// computed.
    pub fn slowdown_budget<D: Discipline>(
        &self,
        ctx: &SchedulerContext<'_, D>,
        active: &ActiveView,
    ) -> Option<(Dur, Dur)> {
        let bound = ctx.safe_completion_bound()?;
        if bound <= ctx.now {
            return None;
        }
        let window = bound.saturating_since(ctx.now);
        let reference = ctx.cpu.reference_freq();
        let mut remaining = active.wcet_remaining.time_at(reference);
        if self.overrun_margin > 1.0 {
            let wcet = ctx.taskset.tasks()[active.task.0].wcet();
            let headroom = ((self.overrun_margin - 1.0) * wcet.as_ns() as f64).ceil() as u64;
            remaining += Dur::from_ns(headroom);
        }
        (remaining < window).then_some((remaining, window))
    }
}

impl Default for LpfpsPolicy {
    fn default() -> Self {
        LpfpsPolicy::new()
    }
}

impl PolicyCore for LpfpsPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_fault(&mut self, event: &FaultEvent) -> bool {
        let Some(cooldown) = self.watchdog_cooldown else {
            return false; // vanilla LPFPS: Theorem 1 is trusted blindly
        };
        // Repeated faults extend the window from the latest report.
        self.degraded_until = Some(event.time() + cooldown);
        true
    }

    fn steady_digest(&self, now: Time) -> Option<u64> {
        // The only run-time state is the watchdog cooldown. Canonical form:
        // an expired window digests exactly like no window at all, because
        // `decide` lazily clears it and behaves identically either way; a
        // live window digests its *remaining* span (re-based to `now`).
        match self.degraded_until {
            Some(until) if until > now => {
                Some(until.saturating_since(now).as_ns().saturating_add(1))
            }
            _ => Some(0),
        }
    }
}

// Generic over the discipline: the L12–L21 decisions read only queue
// occupancy and the delay-queue head, which exist under any discipline.
// Under `FixedPriority` this is the paper's LPFPS; under `Edf` it is the
// cycle-conserving EDF configuration (see [`LpfpsPolicy::cc_edf`]).
impl<D: Discipline> PowerPolicy<D> for LpfpsPolicy {
    fn decide(&mut self, ctx: &SchedulerContext<'_, D>) -> PowerDirective {
        // Watchdog degraded mode: after a fault report, no power
        // management at all until the cooldown elapses — the kernel's
        // L1–L4 rule then keeps the processor at maximum throughput.
        if let Some(until) = self.degraded_until {
            if ctx.now < until {
                return PowerDirective::FullSpeed;
            }
            self.degraded_until = None;
        }
        // L12: LPFPS acts only when the run queue is empty.
        if !ctx.run_queue.is_empty() {
            return PowerDirective::FullSpeed;
        }
        match ctx.active {
            // L13–L15: nothing to run until the head of the delay queue.
            None => {
                if !self.enable_powerdown {
                    return PowerDirective::FullSpeed;
                }
                let Some(head) = ctx.next_arrival() else {
                    return PowerDirective::FullSpeed;
                };
                let window = head.saturating_since(ctx.now);
                if window.is_zero() {
                    return PowerDirective::FullSpeed;
                }
                let reference = ctx.cpu.reference_freq();
                // Pick the sleep mode minimizing the window's energy (the
                // paper's processor has exactly one; Fig. 4's L14 is the
                // single-mode special case of this selection).
                let modes = ctx.cpu.sleep_modes();
                let Some((mode, sleep_energy)) =
                    lpfps_cpu::modes::best_mode_for(modes, window, reference)
                else {
                    // The next arrival is within every wake-up latency:
                    // sleeping would oversleep it.
                    return PowerDirective::FullSpeed;
                };
                // Sleeping must actually beat spinning the NOP loop.
                if sleep_energy >= ctx.cpu.power().idle_nop() * window.as_secs_f64() {
                    return PowerDirective::FullSpeed;
                }
                let wake_at = head.saturating_sub(modes[mode].wakeup_delay(reference));
                if wake_at <= ctx.now {
                    return PowerDirective::FullSpeed;
                }
                PowerDirective::PowerDown { wake_at, mode }
            }
            // L16–L19: the processor is dedicated to the active task.
            Some(active) => {
                if !self.enable_dvs {
                    return PowerDirective::FullSpeed;
                }
                let Some((remaining, window)) = self.slowdown_budget(ctx, &active) else {
                    return PowerDirective::FullSpeed;
                };
                let reference = ctx.cpu.reference_freq();
                let ratio = match self.method {
                    RatioMethod::Heuristic => r_heu(remaining, window),
                    RatioMethod::Optimal => {
                        r_opt_trapezoid(remaining, window, ctx.cpu.ramp_rate_per_us())
                    }
                };
                // L18: the minimum allowable ladder frequency at or above
                // ratio * reference.
                let target_khz = (ratio * reference.as_khz() as f64).ceil() as u64;
                let freq = ctx
                    .cpu
                    .ladder()
                    .quantize_up(Freq::from_khz(target_khz.max(1)));
                if freq >= ctx.cpu.full_freq() {
                    return PowerDirective::FullSpeed;
                }
                // Latest instant to begin ramping back so the processor is
                // at full speed when the next task arrives (§3.2: "the
                // active task should complete ahead by this delay").
                let ramp_back = ctx.cpu.ramp_duration(freq, ctx.cpu.full_freq());
                let speedup_at = (ctx.now + window).saturating_sub(ramp_back);
                if speedup_at <= ctx.now {
                    return PowerDirective::FullSpeed;
                }
                PowerDirective::SlowDown { freq, speedup_at }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::policy::ActiveView;
    use lpfps_kernel::queues::{DelayQueue, RunQueue};
    use lpfps_tasks::cycles::Cycles;
    use lpfps_tasks::task::{Priority, Task, TaskId};
    use lpfps_tasks::taskset::TaskSet;
    use lpfps_tasks::time::{Dur, Time};

    /// True while a watchdog degraded window is in force at `now`.
    fn is_degraded(policy: &LpfpsPolicy, now: Time) -> bool {
        policy.degraded_until.is_some_and(|until| now < until)
    }

    struct Fixture {
        ts: TaskSet,
        cpu: CpuSpec,
        run: RunQueue,
        delay: DelayQueue,
    }

    fn fixture() -> Fixture {
        Fixture {
            ts: TaskSet::rate_monotonic(
                "t",
                vec![
                    Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                    Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
                ],
            ),
            cpu: CpuSpec::arm8(),
            run: RunQueue::new(),
            delay: DelayQueue::new(),
        }
    }

    fn ctx<'a>(f: &'a Fixture, now: Time, active: Option<ActiveView>) -> SchedulerContext<'a> {
        SchedulerContext {
            now,
            active,
            run_queue: &f.run,
            delay_queue: &f.delay,
            cpu: &f.cpu,
            taskset: &f.ts,
        }
    }

    #[test]
    fn busy_run_queue_means_full_speed() {
        let mut f = fixture();
        f.run.insert(TaskId(0), Priority::new(0));
        let c = ctx(&f, Time::ZERO, None);
        assert_eq!(LpfpsPolicy::new().decide(&c), PowerDirective::FullSpeed);
    }

    #[test]
    fn idle_kernel_powers_down_to_head_release() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        f.delay
            .insert(TaskId(1), Priority::new(1), Time::from_us(240));
        let c = ctx(&f, Time::from_us(180), None);
        // Paper L14: timer = head release - wakeup delay = 200us - 100ns.
        assert_eq!(
            LpfpsPolicy::new().decide(&c),
            PowerDirective::PowerDown {
                wake_at: Time::from_ns(200_000 - 100),
                mode: 0
            }
        );
    }

    #[test]
    fn imminent_arrival_blocks_power_down() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_ns(180_050));
        let c = ctx(&f, Time::from_us(180), None);
        // 50 ns away < 100 ns wake-up latency: must stay awake.
        assert_eq!(LpfpsPolicy::new().decide(&c), PowerDirective::FullSpeed);
    }

    #[test]
    fn paper_example2_slows_to_half_speed() {
        // t = 160: tau2 active with full 20 us WCET remaining; tau1 (and
        // tau3 in the paper) arrive at 200 -> ratio 0.5 -> 50 MHz.
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000), // 20 us at 100 MHz
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        match LpfpsPolicy::new().decide(&c) {
            PowerDirective::SlowDown { freq, speedup_at } => {
                assert_eq!(freq, Freq::from_mhz(50));
                // Ramp 50->100 MHz at 0.07/us takes ceil(0.5/0.07) us.
                let ramp = f.cpu.ramp_duration(Freq::from_mhz(50), Freq::from_mhz(100));
                assert_eq!(speedup_at, Time::from_us(200).saturating_sub(ramp));
                assert!(speedup_at > c.now);
            }
            other => panic!("expected SlowDown, got {other:?}"),
        }
    }

    #[test]
    fn ratio_quantizes_upward_to_ladder() {
        // 13 us of work in a 40 us window -> 0.325 -> 33 MHz (not 32).
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(1_300),
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        match LpfpsPolicy::new().decide(&c) {
            PowerDirective::SlowDown { freq, .. } => assert_eq!(freq, Freq::from_mhz(33)),
            other => panic!("expected SlowDown, got {other:?}"),
        }
    }

    #[test]
    fn no_slack_stays_at_full_speed() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(180));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000), // 20 us in a 20 us window
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        assert_eq!(LpfpsPolicy::new().decide(&c), PowerDirective::FullSpeed);
    }

    #[test]
    fn own_deadline_clamps_the_window() {
        // Delay head at 10 ms, but the active job's deadline is 240 us:
        // the ratio must use the deadline, not the distant arrival.
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_ms(10));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000),
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        match LpfpsPolicy::new().decide(&c) {
            PowerDirective::SlowDown { freq, .. } => {
                // 20 us work / 80 us window = 0.25 -> 25 MHz.
                assert_eq!(freq, Freq::from_mhz(25));
            }
            other => panic!("expected SlowDown, got {other:?}"),
        }
    }

    #[test]
    fn dvs_only_never_powers_down() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(500));
        let c = ctx(&f, Time::ZERO, None);
        assert_eq!(
            LpfpsPolicy::dvs_only().decide(&c),
            PowerDirective::FullSpeed
        );
    }

    #[test]
    fn power_down_only_never_slows() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(500));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000),
            release: Time::ZERO,
            deadline: Time::from_us(80),
        };
        let c = ctx(&f, Time::ZERO, Some(active));
        assert_eq!(
            LpfpsPolicy::power_down_only().decide(&c),
            PowerDirective::FullSpeed
        );
    }

    #[test]
    fn multimode_picks_deep_sleep_for_long_windows() {
        let mut f = fixture();
        f.cpu = CpuSpec::arm8_multimode();
        // 10 ms of guaranteed idle: deep sleep (index 3) wins.
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_ms(10));
        let c = ctx(&f, Time::ZERO, None);
        match LpfpsPolicy::new().decide(&c) {
            PowerDirective::PowerDown { wake_at, mode } => {
                assert_eq!(mode, 3, "expected deep sleep");
                // Wake timer compensates deep sleep's 100us relock.
                assert_eq!(wake_at, Time::from_us(10_000 - 100));
            }
            other => panic!("expected PowerDown, got {other:?}"),
        }
    }

    #[test]
    fn multimode_falls_back_to_light_sleep_for_short_windows() {
        let mut f = fixture();
        f.cpu = CpuSpec::arm8_multimode();
        // 200 us window: deep sleep cannot amortize its wake-up.
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let c = ctx(&f, Time::ZERO, None);
        match LpfpsPolicy::new().decide(&c) {
            PowerDirective::PowerDown { mode, .. } => {
                assert_eq!(mode, 2, "expected the paper's 5% sleep mode");
            }
            other => panic!("expected PowerDown, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_degrades_after_fault_and_recovers() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000),
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let mut wd = LpfpsPolicy::with_watchdog(Dur::from_us(30));
        assert_eq!(wd.name(), "lpfps-wd");

        // Before any fault it behaves exactly like vanilla LPFPS.
        let c = ctx(&f, Time::from_us(160), Some(active));
        assert!(matches!(wd.decide(&c), PowerDirective::SlowDown { .. }));

        // A fault at t = 165 degrades until 195: full speed only.
        let engaged = wd.on_fault(&FaultEvent::BudgetOverrun {
            task: TaskId(1),
            now: Time::from_us(165),
        });
        assert!(engaged);
        assert!(is_degraded(&wd, Time::from_us(170)));
        let c = ctx(&f, Time::from_us(170), Some(active));
        assert_eq!(wd.decide(&c), PowerDirective::FullSpeed);

        // Power-down is suppressed too.
        let c = ctx(&f, Time::from_us(170), None);
        assert_eq!(wd.decide(&c), PowerDirective::FullSpeed);

        // After the cooldown the policy resumes power management (with a
        // window that still has slack to exploit).
        assert!(!is_degraded(&wd, Time::from_us(195)));
        let mut late = fixture();
        late.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(300));
        let c = ctx(&late, Time::from_us(196), Some(active));
        assert!(matches!(wd.decide(&c), PowerDirective::SlowDown { .. }));
    }

    #[test]
    fn repeated_faults_extend_the_degraded_window() {
        let mut wd = LpfpsPolicy::with_watchdog(Dur::from_us(30));
        wd.on_fault(&FaultEvent::TimingViolation {
            now: Time::from_us(100),
        });
        wd.on_fault(&FaultEvent::TimingViolation {
            now: Time::from_us(120),
        });
        assert!(is_degraded(&wd, Time::from_us(140)));
        assert!(!is_degraded(&wd, Time::from_us(150)));
    }

    #[test]
    fn vanilla_lpfps_ignores_faults() {
        let mut vanilla = LpfpsPolicy::new();
        let engaged = vanilla.on_fault(&FaultEvent::TimingViolation {
            now: Time::from_us(100),
        });
        assert!(!engaged);
        assert!(!is_degraded(&vanilla, Time::from_us(100)));
    }

    #[test]
    #[should_panic(expected = "cooldown must be positive")]
    fn zero_watchdog_cooldown_rejected() {
        let _ = LpfpsPolicy::with_watchdog(Dur::ZERO);
    }

    #[test]
    fn overrun_margin_reserves_headroom_in_the_ratio() {
        // Paper Example 2 fixture: 20 us of WCET in a 40 us window gives
        // vanilla LPFPS ratio 0.5. A 1.5x margin plans for 20 + 10 = 30 us
        // of possible demand -> ratio 0.75.
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000),
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        let vanilla = match LpfpsPolicy::new().decide(&c) {
            PowerDirective::SlowDown { freq, .. } => freq,
            other => panic!("{other:?}"),
        };
        let margined = match LpfpsPolicy::new().with_overrun_margin(1.5).decide(&c) {
            PowerDirective::SlowDown { freq, .. } => freq,
            other => panic!("{other:?}"),
        };
        assert_eq!(vanilla, Freq::from_mhz(50));
        assert_eq!(margined, Freq::from_mhz(75));
    }

    #[test]
    #[should_panic(expected = "margin must be >= 1")]
    fn sub_unit_overrun_margin_rejected() {
        let _ = LpfpsPolicy::new().with_overrun_margin(0.9);
    }

    #[test]
    fn optimal_ratio_is_at_most_the_heuristic() {
        let mut f = fixture();
        f.delay
            .insert(TaskId(0), Priority::new(0), Time::from_us(200));
        let active = ActiveView {
            task: TaskId(1),
            wcet_remaining: Cycles::new(2_000),
            release: Time::from_us(160),
            deadline: Time::from_us(240),
        };
        let c = ctx(&f, Time::from_us(160), Some(active));
        let heu = match LpfpsPolicy::new().decide(&c) {
            PowerDirective::SlowDown { freq, .. } => freq,
            other => panic!("{other:?}"),
        };
        let opt = match LpfpsPolicy::with_optimal_ratio().decide(&c) {
            PowerDirective::SlowDown { freq, .. } => freq,
            other => panic!("{other:?}"),
        };
        assert!(
            opt <= heu,
            "optimal {opt} should not exceed heuristic {heu}"
        );
    }
}
