//! Per-decision speed-ratio instrumentation.
//!
//! Theorem 1 of the paper proves the heuristic ratio of Eq. 3 is always
//! safe: `r_heu >= r_opt`, so stretching the active task by `1/r_heu`
//! never over-commits the window to the next arrival. The simulator's
//! policy computes only the ratio it acts on; this wrapper records the
//! *pair* at every slow-down decision so the invariant checker
//! (`lpfps-oracle`) can machine-check Theorem 1 on real schedules instead
//! of trusting the unit tests of [`crate::speed`] alone.

use crate::lpfps_policy::LpfpsPolicy;
use crate::speed::{r_heu, r_opt_trapezoid};
use lpfps_kernel::policy::{FaultEvent, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::{Dur, Time};

/// One recorded slow-down decision: the budget the policy planned with
/// and both speed ratios evaluated on it.
#[derive(Debug, Clone, Copy)]
pub struct RatioSample {
    /// Scheduler invocation instant (`t_c` in the paper).
    pub now: Time,
    /// WCET-view remaining work `C_i - E_i` (margin-inflated if the
    /// policy carries an overrun margin), as time at the reference clock.
    pub remaining: Dur,
    /// Window to the safe completion bound (`t_a - t_c`).
    pub window: Dur,
    /// Eq. 3's heuristic ratio — what LPFPS acts on.
    pub r_heu: f64,
    /// The trapezoid-consistent optimal ratio for the same budget.
    pub r_opt: f64,
    /// The ladder frequency the policy actually chose.
    pub freq: Freq,
}

/// A [`PowerPolicy`] wrapper around [`LpfpsPolicy`] that records a
/// [`RatioSample`] for every `SlowDown` the inner policy issues, without
/// changing a single directive.
///
/// The budget in each sample comes from the same
/// [`LpfpsPolicy::slowdown_budget`] call the policy itself decides on, so
/// the log is an exact transcript of the decisions, not a re-derivation
/// that could drift.
#[derive(Debug)]
pub struct RatioLogger {
    inner: LpfpsPolicy,
    samples: Vec<RatioSample>,
}

impl RatioLogger {
    /// Wraps a policy; directives pass through unchanged.
    pub fn new(inner: LpfpsPolicy) -> Self {
        RatioLogger {
            inner,
            samples: Vec::new(),
        }
    }

    /// All recorded slow-down decisions, in time order.
    pub fn samples(&self) -> &[RatioSample] {
        &self.samples
    }
}

impl PolicyCore for RatioLogger {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_fault(&mut self, event: &FaultEvent) -> bool {
        self.inner.on_fault(event)
    }
}

impl PowerPolicy for RatioLogger {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        let directive = self.inner.decide(ctx);
        if let PowerDirective::SlowDown { freq, .. } = directive {
            // A slow-down implies an active task with exploitable slack;
            // if either ever fails to hold, drop the sample rather than
            // abort the simulation — the log is diagnostic, not load-
            // bearing.
            if let Some(active) = ctx.active {
                if let Some((remaining, window)) = self.inner.slowdown_budget(ctx, &active) {
                    self.samples.push(RatioSample {
                        now: ctx.now,
                        remaining,
                        window,
                        r_heu: r_heu(remaining, window),
                        r_opt: r_opt_trapezoid(remaining, window, ctx.cpu.ramp_rate_per_us()),
                        freq,
                    });
                }
            }
        }
        directive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::engine::{simulate, SimConfig};
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::taskset::TaskSet;

    fn table1() -> TaskSet {
        TaskSet::rate_monotonic(
            "table1",
            vec![
                Task::new("tau1", Dur::from_us(50), Dur::from_us(10)),
                Task::new("tau2", Dur::from_us(80), Dur::from_us(20)),
                Task::new("tau3", Dur::from_us(100), Dur::from_us(40)),
            ],
        )
    }

    #[test]
    fn logger_is_transparent_and_records_every_slowdown() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(2));
        let plain = simulate(&ts, &cpu, &mut LpfpsPolicy::new(), &AlwaysWcet, &cfg).unwrap();
        let mut logger = RatioLogger::new(LpfpsPolicy::new());
        let logged = simulate(&ts, &cpu, &mut logger, &AlwaysWcet, &cfg).unwrap();
        assert_eq!(plain.counters, logged.counters);
        assert_eq!(plain.energy.total_energy(), logged.energy.total_energy());
        assert!(!logger.samples().is_empty(), "table1 must exercise DVS");
        // Every slow-down starts a downward ramp (and later one back up).
        assert!(logger.samples().len() as u64 <= logged.counters.ramps);
    }

    #[test]
    fn theorem1_holds_on_the_motivating_example() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let mut logger = RatioLogger::new(LpfpsPolicy::new());
        simulate(
            &ts,
            &cpu,
            &mut logger,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(2)),
        )
        .unwrap();
        for s in logger.samples() {
            assert!(s.r_heu > 0.0 && s.r_heu <= 1.0, "ratio in (0, 1]: {s:?}");
            assert!(s.r_heu >= s.r_opt, "Theorem 1 violated: {s:?}");
        }
    }
}
