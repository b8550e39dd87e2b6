//! Baseline schedulers LPFPS is compared against.
//!
//! * **FPS** — the paper's comparison point: a conventional fixed-priority
//!   scheduler that burns idle time in a NOP busy-wait loop at full clock
//!   and voltage. Exported here as [`Fps`] (the kernel's trivial policy).
//! * **FPS+PD / DVS-only** — ablation halves of LPFPS, built by
//!   [`LpfpsPolicy::power_down_only`](crate::LpfpsPolicy::power_down_only)
//!   and [`LpfpsPolicy::dvs_only`](crate::LpfpsPolicy::dvs_only).
//! * **Static slowdown** — the classical static alternative (§2.2 of the
//!   paper discusses static voltage scheduling): pick, *offline*, the
//!   lowest single frequency at which the task set remains schedulable by
//!   exact response-time analysis, and run the whole schedule there. This
//!   module computes that frequency; the driver simulates it by derating
//!   the processor.

use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::policy::{PolicyCore, PowerDirective, PowerPolicy, SchedulerContext};
use lpfps_tasks::analysis::response_time::rta_schedulable;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// The conventional fixed-priority scheduler (NOP busy-wait when idle).
pub use lpfps_kernel::policy::AlwaysFullSpeed as Fps;

/// The classic timeout-based shutdown of conventional portable systems
/// (paper §2.1): the processor spins its idle loop for a fixed timeout
/// and only then enters power-down.
///
/// Contrast with LPFPS's power-down, which enters *immediately* because
/// the delay-queue head gives the exact idle length: the timeout policy
/// wastes `min(timeout, idle length)` of NOP energy on every idle
/// interval, and gains nothing at all from intervals shorter than the
/// timeout — precisely the failure mode the paper describes.
#[derive(Debug, Clone, Copy)]
pub struct TimeoutShutdown {
    timeout: Dur,
}

impl TimeoutShutdown {
    /// Creates the policy with the given idle timeout.
    ///
    /// # Panics
    ///
    /// Panics if the timeout is zero (use LPFPS's immediate power-down
    /// for that).
    pub fn new(timeout: Dur) -> Self {
        assert!(!timeout.is_zero(), "a zero timeout is immediate power-down");
        TimeoutShutdown { timeout }
    }

    /// The configured idle timeout.
    pub fn timeout(&self) -> Dur {
        self.timeout
    }
}

impl PolicyCore for TimeoutShutdown {
    fn name(&self) -> &'static str {
        "timeout-pd"
    }

    fn steady_digest(&self, _now: lpfps_tasks::time::Time) -> Option<u64> {
        // Run-time stateless: the timeout is configuration, not history.
        Some(0)
    }
}

impl PowerPolicy for TimeoutShutdown {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        if ctx.active.is_some() || !ctx.run_queue.is_empty() {
            return PowerDirective::FullSpeed;
        }
        let Some(head) = ctx.next_arrival() else {
            return PowerDirective::FullSpeed;
        };
        let enter_at = ctx.now + self.timeout;
        let wake_at = head.saturating_sub(ctx.cpu.wakeup_delay());
        if wake_at <= enter_at {
            // The idle interval is shorter than the timeout: power-down
            // never engages, exactly the short-idle failure mode.
            return PowerDirective::FullSpeed;
        }
        PowerDirective::PowerDownAt { enter_at, wake_at }
    }
}

/// The lowest ladder frequency at which `ts` stays schedulable when every
/// WCET stretches by `reference / f`, or `None` if the set is
/// unschedulable even at full speed.
///
/// This is the static-slowdown operating point: running the entire
/// schedule at this frequency preserves all deadlines (exact RTA), with no
/// run-time adaptation. Deadlines do not scale — only execution times do.
///
/// # Examples
///
/// ```
/// use lpfps::baselines::static_slowdown_freq;
/// use lpfps_cpu::spec::CpuSpec;
/// use lpfps_tasks::{task::Task, taskset::TaskSet, time::Dur};
///
/// // A lightly loaded set can run far below full speed.
/// let ts = TaskSet::rate_monotonic("light", vec![
///     Task::new("t", Dur::from_us(1000), Dur::from_us(100)),
/// ]);
/// let f = static_slowdown_freq(&ts, &CpuSpec::arm8()).unwrap();
/// assert!(f < lpfps_tasks::freq::Freq::from_mhz(20));
/// ```
pub fn static_slowdown_freq(ts: &TaskSet, cpu: &CpuSpec) -> Option<Freq> {
    if !rta_schedulable(ts) {
        return None;
    }
    let reference = cpu.reference_freq();
    let feasible = |f: Freq| -> bool {
        let alpha = reference.as_khz() as f64 / f.as_khz() as f64;
        scaled_set_with_margin(ts, alpha).is_some_and(|s| rta_schedulable(&s))
    };
    // Binary search the ladder for the lowest feasible level (feasibility
    // is monotone in frequency).
    let ladder = cpu.ladder();
    let levels: Vec<Freq> = ladder.iter().collect();
    let mut lo = 0usize;
    let mut hi = levels.len() - 1;
    if !feasible(levels[hi]) {
        // Exactly-schedulable sets (like the paper's Table 1) can sit on a
        // knife edge that the rounding margin rejects at every derated
        // level. Running at the reference frequency itself involves no
        // stretching and no rounding, so plain RTA (already checked above)
        // suffices there.
        return (levels[hi] == reference).then_some(reference);
    }
    if feasible(levels[lo]) {
        return Some(levels[lo]);
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if feasible(levels[mid]) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(levels[hi])
}

/// A derated processor locked to the static-slowdown frequency of `ts`,
/// or `None` if the set is unschedulable at any ladder level.
pub fn static_slowdown_spec(ts: &TaskSet, cpu: &CpuSpec) -> Option<CpuSpec> {
    static_slowdown_freq(ts, cpu).map(|f| cpu.derated_to(f))
}

/// Safety margin added to every stretched WCET in the static-slowdown
/// feasibility test.
///
/// Real-arithmetic RTA is exact, but the simulator (like real hardware)
/// rounds each execution segment up to whole clock granules; when a
/// stretched response lands *exactly* on a release instant, that epsilon
/// tips the job into another full round of preemption — a discontinuous
/// jump RTA would miss by a nanosecond. One microsecond of per-job
/// inflation dominates any realistic accumulation of segment roundings
/// and costs at most one ladder step of extra frequency.
const STATIC_SLOWDOWN_MARGIN: Dur = Dur::from_us(1);

/// Stretches every WCET by `alpha` (rounded up) plus the safety margin;
/// `None` if any stretched WCET no longer fits its period (trivially
/// infeasible).
fn scaled_set_with_margin(ts: &TaskSet, alpha: f64) -> Option<TaskSet> {
    use lpfps_tasks::task::Task;
    let mut tasks = Vec::with_capacity(ts.len());
    for (_, t, _) in ts.iter() {
        let stretched =
            (t.wcet().as_ns() as f64 * alpha).ceil() as u64 + STATIC_SLOWDOWN_MARGIN.as_ns();
        if stretched > t.period().as_ns() || stretched > t.deadline().as_ns() {
            return None;
        }
        let mut s = Task::new(t.name(), t.period(), Dur::from_ns(stretched)).with_phase(t.phase());
        if t.deadline() != t.period() {
            s = s.with_deadline(t.deadline());
        }
        tasks.push(s);
    }
    let prios = (0..ts.len())
        .map(|i| ts.priority(lpfps_tasks::task::TaskId(i)))
        .collect();
    Some(TaskSet::with_priorities(ts.name(), tasks, prios))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::breakdown::scale_wcets;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::time::Dur;

    fn set(params: &[(u64, u64)]) -> TaskSet {
        let tasks = params
            .iter()
            .enumerate()
            .map(|(i, &(t, c))| Task::new(format!("t{i}"), Dur::from_us(t), Dur::from_us(c)))
            .collect();
        TaskSet::rate_monotonic("test", tasks)
    }

    #[test]
    fn harmonic_half_load_runs_near_half_speed() {
        // U = 0.5 harmonic: RM schedulable up to U = 1. Exactly 50 MHz sits
        // on the knife edge (R = D), so the rounding margin settles one
        // ladder step above it.
        let ts = set(&[(100, 25), (200, 50)]);
        let f = static_slowdown_freq(&ts, &CpuSpec::arm8()).unwrap();
        assert_eq!(f, Freq::from_mhz(51));
    }

    #[test]
    fn exactly_schedulable_set_falls_back_to_reference() {
        // Table 1 is *exactly* schedulable (tau3 completes on a release
        // boundary): no derated level survives the rounding margin, so the
        // static operating point is the reference frequency itself.
        let ts = set(&[(50, 10), (80, 20), (100, 40)]);
        let f = static_slowdown_freq(&ts, &CpuSpec::arm8()).unwrap();
        assert_eq!(f, Freq::from_mhz(100));
    }

    #[test]
    fn unschedulable_set_has_no_operating_point() {
        let ts = set(&[(10, 6), (20, 12)]);
        assert_eq!(static_slowdown_freq(&ts, &CpuSpec::arm8()), None);
    }

    #[test]
    fn result_is_actually_feasible_and_near_tight() {
        let ts = set(&[(100, 20), (300, 60), (900, 120)]);
        let cpu = CpuSpec::arm8();
        let f = static_slowdown_freq(&ts, &cpu).unwrap();
        let alpha = |freq: Freq| cpu.reference_freq().as_khz() as f64 / freq.as_khz() as f64;
        // Feasible by plain (margin-free) RTA at the chosen frequency...
        assert!(rta_schedulable(&scale_wcets(&ts, alpha(f))));
        // ...and within a couple of steps of the margin-free optimum (the
        // 1 us inflation may cost at most a step or two on tiny WCETs).
        let two_lower = Freq::from_khz(f.as_khz() - 2 * cpu.ladder().step().as_khz());
        if cpu.ladder().contains(two_lower) {
            assert!(
                !rta_schedulable(&scale_wcets(&ts, alpha(two_lower))),
                "chosen {f} is more than 2 steps above the margin-free optimum"
            );
        }
    }

    #[test]
    fn timeout_shutdown_wastes_idle_energy_vs_lpfps() {
        use crate::LpfpsPolicy;
        use lpfps_kernel::engine::{simulate, SimConfig};
        use lpfps_tasks::exec::AlwaysWcet;

        // One task, 25% utilization: 75 us idle per 100 us period.
        let ts = set(&[(100, 25)]);
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(1));
        let lpfps_pd = simulate(
            &ts,
            &cpu,
            &mut LpfpsPolicy::power_down_only(),
            &AlwaysWcet,
            &cfg,
        )
        .unwrap();
        let mut timeout = TimeoutShutdown::new(Dur::from_us(50));
        let with_timeout = simulate(&ts, &cpu, &mut timeout, &AlwaysWcet, &cfg).unwrap();
        let mut fps = Fps;
        let plain = simulate(&ts, &cpu, &mut fps, &AlwaysWcet, &cfg).unwrap();

        assert!(with_timeout.all_deadlines_met());
        // The timeout policy sits strictly between FPS and exact power-down.
        assert!(with_timeout.average_power() < plain.average_power());
        assert!(lpfps_pd.average_power() < with_timeout.average_power());
        // And with a timeout longer than every idle interval it degenerates
        // to plain FPS.
        let mut long = TimeoutShutdown::new(Dur::from_us(80));
        let degenerate = simulate(&ts, &cpu, &mut long, &AlwaysWcet, &cfg).unwrap();
        assert!((degenerate.average_power() - plain.average_power()).abs() < 1e-9);
        assert_eq!(degenerate.counters.power_downs, 0);
    }

    #[test]
    fn timeout_shutdown_respects_wakeup_margin() {
        use lpfps_kernel::engine::{simulate, SimConfig};
        use lpfps_tasks::exec::AlwaysWcet;
        // Idle interval 75us, timeout 74.95us: enter+wake margin collapses.
        let ts = set(&[(100, 25)]);
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(1));
        let mut tight = TimeoutShutdown::new(Dur::from_ns(74_950));
        let report = simulate(&ts, &cpu, &mut tight, &AlwaysWcet, &cfg).unwrap();
        assert!(report.all_deadlines_met());
    }

    #[test]
    #[should_panic(expected = "zero timeout")]
    fn zero_timeout_rejected() {
        let _ = TimeoutShutdown::new(Dur::ZERO);
    }

    #[test]
    fn derated_spec_matches_frequency() {
        let ts = set(&[(100, 25), (200, 50)]);
        let cpu = CpuSpec::arm8();
        let spec = static_slowdown_spec(&ts, &cpu).unwrap();
        assert_eq!(spec.full_freq(), Freq::from_mhz(51));
        assert_eq!(spec.reference_freq(), Freq::from_mhz(100));
    }
}
