//! The experiment driver: run a (policy, workload, execution model) cell
//! and report its average power — the machinery behind every figure and
//! table reproduction in `lpfps-bench`.

use crate::baselines::{static_slowdown_spec, Fps};
use crate::lpfps_policy::LpfpsPolicy;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::discipline::{Discipline, Edf as EdfDispatch};
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::error::SimError;
use lpfps_kernel::policy::PowerPolicy;
use lpfps_kernel::probe::{NoProbe, Probe};
use lpfps_kernel::report::SimReport;
use lpfps_tasks::analysis::hyperperiod::hyperperiod;
use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// The scheduling policies available to experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Conventional fixed-priority scheduling; idle burns the NOP loop.
    Fps,
    /// FPS plus the power-down half of LPFPS (no DVS).
    FpsPd,
    /// The DVS half of LPFPS only (no power-down).
    LpfpsDvsOnly,
    /// Full LPFPS with the heuristic ratio (Eq. 3) — the paper's system.
    Lpfps,
    /// Full LPFPS with the optimal ratio (trapezoid-consistent Eq. 2).
    LpfpsOptimal,
    /// Offline static slowdown: the whole schedule runs at the lowest
    /// single frequency that keeps the set RTA-schedulable.
    StaticSlowdown,
    /// Full LPFPS with the graceful-degradation watchdog (see
    /// [`LpfpsPolicy::with_watchdog`]): identical to `Lpfps` on fault-free
    /// runs, but reverts to full speed for a cooldown after every kernel
    /// fault report. Not part of [`PolicyKind::ALL`] — it only differs
    /// from `Lpfps` under an injected fault model, so the paper-figure
    /// sweeps skip it.
    LpfpsWatchdog,
    /// Plain earliest-deadline-first at full speed (NOP idle loop): the
    /// deadline-driven counterpart of [`PolicyKind::Fps`], dispatched by
    /// the kernel's [`Edf`](lpfps_kernel::Edf) discipline. Not part of
    /// [`PolicyKind::ALL`] — the paper's figures are fixed-priority only;
    /// the EDF columns live in the `fp_vs_edf` experiment.
    Edf,
    /// Cycle-conserving EDF (Pillai & Shin, SOSP 2001, in spirit): the
    /// LPFPS power manager — exact power-down from the delay queue plus
    /// lone-task DVS — running under EDF dispatch instead of fixed
    /// priorities. Not part of [`PolicyKind::ALL`] for the same reason as
    /// [`PolicyKind::Edf`].
    CcEdf,
}

impl PolicyKind {
    /// All fault-free policies, in report order (`LpfpsWatchdog` is
    /// excluded: it coincides with `Lpfps` except under injected faults).
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fps,
        PolicyKind::FpsPd,
        PolicyKind::StaticSlowdown,
        PolicyKind::LpfpsDvsOnly,
        PolicyKind::Lpfps,
        PolicyKind::LpfpsOptimal,
    ];

    /// The default watchdog cooldown used by [`PolicyKind::LpfpsWatchdog`]:
    /// long enough to drain a burst of overruns at full speed on the
    /// paper-scale task sets (periods of tens to hundreds of µs), short
    /// enough that power management resumes within a few hyperperiods.
    pub const DEFAULT_WATCHDOG_COOLDOWN: Dur = Dur::from_ms(1);

    /// The stable report name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fps => "fps",
            PolicyKind::FpsPd => "fps-pd",
            PolicyKind::LpfpsDvsOnly => "lpfps-dvs",
            PolicyKind::Lpfps => "lpfps",
            PolicyKind::LpfpsOptimal => "lpfps-opt",
            PolicyKind::StaticSlowdown => "static",
            PolicyKind::LpfpsWatchdog => "lpfps-wd",
            PolicyKind::Edf => "edf",
            PolicyKind::CcEdf => "cc-edf",
        }
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs one simulation cell.
///
/// `StaticSlowdown` derates the processor to its offline operating point
/// first (falling back to the full-speed processor if the set has no
/// feasible slowdown) and then runs the plain FPS policy on it.
///
/// # Errors
///
/// As [`lpfps_kernel::engine::simulate`]: malformed inputs (which can
/// arrive unvalidated via `Deserialize`) and an exhausted event budget
/// surface as a typed [`SimError`] instead of a panic.
pub fn run(
    ts: &TaskSet,
    cpu: &CpuSpec,
    kind: PolicyKind,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    run_in(
        ts,
        cpu,
        kind,
        exec,
        cfg,
        &mut SimWorkspace::new(),
        &mut NoProbe,
    )
}

/// [`run`] with a caller-provided [`SimWorkspace`] and an observability
/// [`Probe`]: batch drivers (the sweep runner's worker threads) recycle
/// the kernel's queue and task buffers across cells, and the probe sees
/// the event stream of whichever policy/discipline `kind` selects. Pass
/// `&mut NoProbe` to observe nothing; the report is byte-identical either
/// way ([`lpfps_kernel::probe`]).
///
/// # Errors
///
/// As [`run`].
pub fn run_in<P: Probe>(
    ts: &TaskSet,
    cpu: &CpuSpec,
    kind: PolicyKind,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    ws: &mut SimWorkspace,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    run_with(&mut Kernel(exec, cfg, ws, probe), ts, cpu, kind)
}

/// A simulator with everything bound but the task set, the processor and
/// the policy with its dispatch discipline: the optimized kernel behind
/// [`run_in`], or the naive reference simulator of `lpfps-oracle`. Both
/// go through [`run_with`], so a [`PolicyKind`] means the same run on
/// either side of the differential.
pub trait Simulator {
    /// Simulates `ts` on `cpu` under `policy`, dispatching jobs by `D`.
    ///
    /// # Errors
    ///
    /// As [`simulate_in`].
    fn simulate<D: Discipline>(
        &mut self,
        ts: &TaskSet,
        cpu: &CpuSpec,
        policy: &mut dyn PowerPolicy<D>,
    ) -> Result<SimReport, SimError>;
}

/// The optimized kernel as a [`Simulator`]: [`simulate_in`] with the rest
/// of [`run_in`]'s arguments bound, in order (`exec`, `cfg`, `ws`, `probe`).
struct Kernel<'a, P>(
    &'a dyn ExecModel,
    &'a SimConfig,
    &'a mut SimWorkspace,
    &'a mut P,
);

impl<P: Probe> Simulator for Kernel<'_, P> {
    fn simulate<D: Discipline>(
        &mut self,
        ts: &TaskSet,
        cpu: &CpuSpec,
        policy: &mut dyn PowerPolicy<D>,
    ) -> Result<SimReport, SimError> {
        simulate_in(ts, cpu, policy, self.0, self.1, self.2, self.3)
    }
}

/// Runs `kind` on `sim`: the one place a [`PolicyKind`] becomes a policy
/// object, a dispatch discipline, a processor ([`effective_cpu`]) and a
/// report name.
///
/// # Errors
///
/// As [`Simulator::simulate`].
pub fn run_with<S: Simulator>(
    sim: &mut S,
    ts: &TaskSet,
    cpu: &CpuSpec,
    kind: PolicyKind,
) -> Result<SimReport, SimError> {
    let mut fp = |cpu: &CpuSpec, policy: &mut dyn PowerPolicy| sim.simulate(ts, cpu, policy);
    let mut report = match kind {
        PolicyKind::Fps => fp(cpu, &mut Fps),
        PolicyKind::FpsPd => fp(cpu, &mut LpfpsPolicy::power_down_only()),
        PolicyKind::LpfpsDvsOnly => fp(cpu, &mut LpfpsPolicy::dvs_only()),
        PolicyKind::Lpfps => fp(cpu, &mut LpfpsPolicy::new()),
        PolicyKind::LpfpsOptimal => fp(cpu, &mut LpfpsPolicy::with_optimal_ratio()),
        PolicyKind::LpfpsWatchdog => fp(
            cpu,
            &mut LpfpsPolicy::with_watchdog(PolicyKind::DEFAULT_WATCHDOG_COOLDOWN),
        ),
        PolicyKind::StaticSlowdown => fp(&effective_cpu(ts, cpu, kind), &mut Fps),
        PolicyKind::Edf => sim.simulate::<EdfDispatch>(ts, cpu, &mut Fps),
        PolicyKind::CcEdf => sim.simulate::<EdfDispatch>(ts, cpu, &mut LpfpsPolicy::cc_edf()),
    }?;
    report.policy = kind.name().to_string();
    Ok(report)
}

/// The processor `kind` actually runs on: the derated static operating
/// point for [`PolicyKind::StaticSlowdown`] (the full-speed processor if
/// the set has no feasible slowdown), `cpu` itself for every other kind.
/// The invariant checker compares segment powers against this spec.
pub fn effective_cpu(ts: &TaskSet, cpu: &CpuSpec, kind: PolicyKind) -> CpuSpec {
    match kind {
        PolicyKind::StaticSlowdown => static_slowdown_spec(ts, cpu).unwrap_or_else(|| cpu.clone()),
        _ => cpu.clone(),
    }
}

/// A sensible simulation horizon for a task set: around five of the
/// longest periods, rounded up to whole hyperperiods when the hyperperiod
/// is in reach (so synchronous schedules are sampled over full cycles).
///
/// An empty set (possible only via `Deserialize`) yields a zero horizon,
/// which the kernel then rejects with a typed error; extreme periods
/// saturate rather than wrap, and the oversized horizon is likewise
/// rejected downstream.
pub fn default_horizon(ts: &TaskSet) -> Dur {
    let max_period = ts
        .iter()
        .map(|(_, t, _)| t.period())
        .max()
        .unwrap_or(Dur::ZERO);
    let target = max_period.checked_mul(5).unwrap_or(Dur::MAX);
    match hyperperiod(ts) {
        Some(h) if !h.is_zero() && h <= target => {
            let k = target.as_ns().div_ceil(h.as_ns());
            h.checked_mul(k).unwrap_or(Dur::MAX)
        }
        Some(h) if h <= target.checked_mul(2).unwrap_or(Dur::MAX) => h,
        _ => target,
    }
}

/// The paper's headline metric: the power reduction of `candidate`
/// relative to `baseline`, as a fraction (`0.62` = "62 % power reduction").
pub fn power_reduction(baseline: &SimReport, candidate: &SimReport) -> f64 {
    1.0 - candidate.average_power() / baseline.average_power()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;

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

    /// Shadows `super::run` for the (valid-input) tests below, which all
    /// expect a report, not a `Result`.
    fn run(
        ts: &TaskSet,
        cpu: &CpuSpec,
        kind: PolicyKind,
        exec: &dyn ExecModel,
        cfg: &SimConfig,
    ) -> SimReport {
        super::run(ts, cpu, kind, exec, cfg).unwrap()
    }

    #[test]
    fn default_horizon_covers_whole_hyperperiods() {
        // Table 1: max period 100 us -> target 500 us -> 2 hyperperiods.
        assert_eq!(default_horizon(&table1()), Dur::from_us(800));
    }

    #[test]
    fn every_policy_meets_deadlines_on_table1_at_wcet() {
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&table1()));
        for kind in PolicyKind::ALL {
            let report = run(&table1(), &cpu, kind, &AlwaysWcet, &cfg);
            assert!(
                report.all_deadlines_met(),
                "{kind} missed deadlines: {:?}",
                report.misses
            );
            assert_eq!(report.policy, kind.name());
        }
    }

    #[test]
    fn lpfps_beats_fps_even_at_wcet() {
        // The right edge of Figure 8: with zero execution-time variation
        // LPFPS still wins on inherent schedule slack.
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&table1()));
        let fps = run(&table1(), &cpu, PolicyKind::Fps, &AlwaysWcet, &cfg);
        let lpfps = run(&table1(), &cpu, PolicyKind::Lpfps, &AlwaysWcet, &cfg);
        assert!(
            lpfps.average_power() < fps.average_power(),
            "lpfps {} !< fps {}",
            lpfps.average_power(),
            fps.average_power()
        );
        assert!(power_reduction(&fps, &lpfps) > 0.0);
    }

    #[test]
    fn ablation_ordering_holds_on_table1() {
        // Each half of LPFPS helps; the whole beats either half.
        let cpu = CpuSpec::arm8();
        let ts = table1().with_bcet_fraction(0.5);
        let cfg = SimConfig::new(default_horizon(&ts)).with_seed(7);
        let exec = lpfps_tasks::exec::PaperGaussian;
        let fps = run(&ts, &cpu, PolicyKind::Fps, &exec, &cfg).average_power();
        let pd = run(&ts, &cpu, PolicyKind::FpsPd, &exec, &cfg).average_power();
        let full = run(&ts, &cpu, PolicyKind::Lpfps, &exec, &cfg).average_power();
        assert!(pd < fps, "power-down alone must beat FPS: {pd} !< {fps}");
        assert!(
            full < pd,
            "full LPFPS must beat power-down alone: {full} !< {pd}"
        );
    }

    #[test]
    fn static_slowdown_beats_fps_on_slack_sets() {
        let ts = TaskSet::rate_monotonic(
            "light",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(20)),
                Task::new("b", Dur::from_us(400), Dur::from_us(80)),
            ],
        );
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&ts));
        let fps = run(&ts, &cpu, PolicyKind::Fps, &AlwaysWcet, &cfg);
        let stat = run(&ts, &cpu, PolicyKind::StaticSlowdown, &AlwaysWcet, &cfg);
        assert!(stat.all_deadlines_met(), "misses: {:?}", stat.misses);
        assert!(stat.average_power() < fps.average_power());
    }

    #[test]
    fn policy_names_are_unique() {
        let mut names: Vec<_> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        names.push(PolicyKind::LpfpsWatchdog.name());
        names.push(PolicyKind::Edf.name());
        names.push(PolicyKind::CcEdf.name());
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len() + 3);
    }

    #[test]
    fn edf_kinds_run_through_the_shared_kernel() {
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(default_horizon(&table1()));
        let edf = run(&table1(), &cpu, PolicyKind::Edf, &AlwaysWcet, &cfg);
        assert_eq!(edf.policy, "edf");
        assert_eq!(edf.discipline, "edf");
        assert!(edf.all_deadlines_met(), "misses: {:?}", edf.misses);
        let cc = run(&table1(), &cpu, PolicyKind::CcEdf, &AlwaysWcet, &cfg);
        assert_eq!(cc.policy, "cc-edf");
        assert_eq!(cc.discipline, "edf");
        assert!(cc.all_deadlines_met(), "misses: {:?}", cc.misses);
        // The power manager only helps: cc-edf never burns more than
        // full-speed EDF on the same schedule.
        assert!(cc.average_power() < edf.average_power());
        // FP runs stay tagged with the default discipline.
        let fps = run(&table1(), &cpu, PolicyKind::Fps, &AlwaysWcet, &cfg);
        assert_eq!(fps.discipline, "fp");
    }

    #[test]
    fn watchdog_matches_vanilla_lpfps_on_fault_free_runs() {
        let cpu = CpuSpec::arm8();
        let ts = table1().with_bcet_fraction(0.5);
        let cfg = SimConfig::new(default_horizon(&ts)).with_seed(7);
        let exec = lpfps_tasks::exec::PaperGaussian;
        let vanilla = run(&ts, &cpu, PolicyKind::Lpfps, &exec, &cfg);
        let wd = run(&ts, &cpu, PolicyKind::LpfpsWatchdog, &exec, &cfg);
        assert_eq!(wd.policy, "lpfps-wd");
        assert_eq!(vanilla.energy.total_energy(), wd.energy.total_energy());
        assert_eq!(vanilla.responses, wd.responses);
        assert_eq!(wd.counters.degradations, 0);
    }

    #[test]
    fn watchdog_recovers_overruns_that_break_vanilla_lpfps() {
        use lpfps_faults::{FaultConfig, OverrunFault};
        // A slack-rich set: schedulable at full speed even with every job
        // inflated 1.5x, so FPS never misses — but vanilla LPFPS stretches
        // jobs against WCET-based slack that overruns then consume.
        let ts = TaskSet::rate_monotonic(
            "slack",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(15)),
                Task::new("b", Dur::from_us(200), Dur::from_us(30)),
                Task::new("c", Dur::from_us(400), Dur::from_us(60)),
            ],
        );
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none()
            .with_seed(21)
            .with_overrun(OverrunFault::clamped(0.3, 0.5, 1.5));
        let cfg = SimConfig::new(Dur::from_ms(20))
            .with_seed(9)
            .with_faults(faults);
        let exec = AlwaysWcet;
        let vanilla = run(&ts, &cpu, PolicyKind::Lpfps, &exec, &cfg);
        let wd = run(&ts, &cpu, PolicyKind::LpfpsWatchdog, &exec, &cfg);
        assert!(vanilla.counters.overruns > 0);
        assert!(wd.counters.degradations > 0, "watchdog never engaged");
        assert!(
            wd.misses.len() <= vanilla.misses.len(),
            "watchdog ({}) must not miss more than vanilla ({})",
            wd.misses.len(),
            vanilla.misses.len()
        );
        assert!(
            wd.all_deadlines_met(),
            "watchdog LPFPS missed: {:?}",
            wd.misses
        );
    }
}
