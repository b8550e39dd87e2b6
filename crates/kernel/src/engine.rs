//! The discrete-event simulation engine.
//!
//! The engine advances from decision point to decision point; between two
//! points the processor state is constant (settled execution, a linear
//! ramp segment, NOP idling, power-down, or wake-up), so energy and
//! retired work integrate exactly. Decision points are:
//!
//! * the next release at the head of the delay queue,
//! * the completion of the active job under the current speed profile,
//! * the end of a voltage/clock ramp,
//! * the power-down wake-up timer and the end of the wake-up latency,
//! * the speed-up timer armed by a `SlowDown` directive (the latest start
//!   of the ramp back to full speed before the next arrival), and
//! * the simulation horizon.
//!
//! Scheduler passes — queue moves, context switches, and the policy's
//! power decision — run only when the processor is settled at full speed,
//! implementing the paper's L1–L4: any scheduler invocation at reduced or
//! changing speed first raises the clock and the supply voltage to the
//! maximum (retargeting an in-flight ramp from its instantaneous ratio)
//! and re-runs once the transition settles.
//!
//! All scheduling state is integer-exact; `f64` appears only inside ramp
//! geometry (conservatively rounded) and energy reporting, so runs are
//! bit-reproducible.

use crate::discipline::{Discipline, EdfKey};
use crate::error::{PartialDiagnostic, SimError};
use crate::policy::{ActiveView, FaultEvent, PowerDirective, PowerPolicy, SchedulerContext};
use crate::power_table::PowerTable;
use crate::probe::{NoProbe, Probe};
use crate::queues::{DelayQueue, RunQueue};
use crate::report::{Counters, DeadlineMiss, ResponseStats, SimReport};
use crate::stats::{IntervalStats, ResponseHistogram};
use crate::steady::{
    Checkpoint, CycleBaseline, FastForwardStats, JobSnapshot, ModeSnapshot, SteadyDetector,
    SteadySnapshot, TaskSnapshot,
};
use crate::trace::TraceEvent;
use lpfps_cpu::energy::{Charge, FoldScratch};
use lpfps_cpu::error::validate_cpu_spec;
use lpfps_cpu::ramp::Ramp;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::CpuState;
use lpfps_cpu::EnergyMeter;
use lpfps_faults::FaultConfig;
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::error::{validate_task_set, MAX_TIME_PARAM};
use lpfps_tasks::exec::{DrawTape, ExecModel};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// How long to simulate.
    pub horizon: Dur,
    /// Seed for the per-job execution-time streams.
    pub seed: u64,
    /// Cost of loading a different task's context, charged as processor
    /// work (at the current speed) before the incoming job progresses.
    /// Zero reproduces the paper's setup.
    pub context_switch: Dur,
    /// Processor time consumed by the scheduler's speed-ratio computation,
    /// charged as work on the active task's dispatch path whenever the
    /// policy issues a `SlowDown` (the paper's §5 trade-off: the optimal
    /// ratio is costlier to compute, and scheduler execution burns both
    /// time and power). Zero reproduces the paper's idealized scheduler.
    pub ratio_overhead: Dur,
    /// Timer-tick granularity of a tick-driven kernel (Katcher et al.):
    /// releases are *noticed* only at the next tick boundary, adding up to
    /// one tick of release jitter (analyzable with
    /// [`RtaConfig::with_release_jitter`](lpfps_tasks::analysis::RtaConfig)).
    /// `None` (the default, and the paper's model) notices releases
    /// immediately (event-driven kernel). Completions remain event-driven
    /// either way.
    pub tick: Option<Dur>,
    /// Deterministic fault-injection model: WCET overruns, release-notice
    /// jitter beyond the tick model, wake-up-latency variance, and ramp
    /// degradation. [`FaultConfig::none`] (the default) reproduces the
    /// paper's idealized fault-free model exactly.
    pub faults: FaultConfig,
    /// Cooperative budget on decision points (events): when the count
    /// exceeds the limit the run stops with
    /// [`SimError::BudgetExhausted`](crate::error::SimError) carrying
    /// partial progress, instead of grinding on. `None` (the default) is
    /// unbounded and reproduces all committed results exactly.
    pub max_events: Option<u64>,
    /// Disable the steady-state cycle detector and simulate every event of
    /// the horizon, even when the run is eligible for fast-forwarding.
    /// Reports are bit-identical either way (the equivalence gates assert
    /// it); this switch keeps the slow path reachable for A/B comparison
    /// and benchmarking. See DESIGN.md §12.
    pub force_full_simulation: bool,
}

impl SimConfig {
    /// A config with the given horizon, seed 0, zero overhead.
    pub fn new(horizon: Dur) -> Self {
        SimConfig {
            horizon,
            seed: 0,
            context_switch: Dur::ZERO,
            ratio_overhead: Dur::ZERO,
            tick: None,
            faults: FaultConfig::none(),
            max_events: None,
            force_full_simulation: false,
        }
    }

    /// Sets the execution-time seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the context-switch cost.
    pub fn with_context_switch(mut self, cs: Dur) -> Self {
        self.context_switch = cs;
        self
    }

    /// Sets the per-`SlowDown` scheduler cost (speed-ratio computation).
    pub fn with_ratio_overhead(mut self, cost: Dur) -> Self {
        self.ratio_overhead = cost;
        self
    }

    /// Makes the kernel tick-driven with the given tick period.
    ///
    /// # Panics
    ///
    /// Panics if the tick is zero.
    pub fn with_tick(mut self, tick: Dur) -> Self {
        assert!(
            !tick.is_zero(),
            "a tick-driven kernel needs a positive tick"
        );
        self.tick = Some(tick);
        self
    }

    /// Injects the given fault model into the run.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Caps the number of decision points (see [`SimConfig::max_events`]).
    pub fn with_max_events(mut self, limit: u64) -> Self {
        self.max_events = Some(limit);
        self
    }

    /// Disables steady-state fast-forwarding (see
    /// [`SimConfig::force_full_simulation`]).
    pub fn with_force_full_simulation(mut self) -> Self {
        self.force_full_simulation = true;
        self
    }
}

/// The boundary check of a config, which [`simulate_in`] runs first: a
/// zero horizon or tick is [`SimError::InvalidConfig`], a horizon beyond
/// [`MAX_TIME_PARAM`] is [`SimError::TimeOverflow`]. Public so the
/// reference oracle applies the byte-identical checks, keeping error paths
/// diffable field for field.
pub fn validate_sim_config(cfg: &SimConfig) -> Result<(), SimError> {
    if cfg.horizon.is_zero() {
        return Err(SimError::InvalidConfig {
            reason: "simulation horizon must be positive".to_string(),
        });
    }
    if cfg.horizon > MAX_TIME_PARAM {
        return Err(SimError::TimeOverflow {
            what: "simulation horizon",
        });
    }
    if let Some(tick) = cfg.tick {
        if tick.is_zero() {
            return Err(SimError::InvalidConfig {
                reason: "a tick-driven kernel needs a positive tick".to_string(),
            });
        }
    }
    Ok(())
}

/// One live (released, unfinished) job.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    index: u64,
    release: Time,
    deadline: Time,
    /// Actual remaining demand (hidden from the policy).
    realized_remaining: Cycles,
    /// WCET-view remaining demand `C_i - E_i` (what the scheduler sees).
    wcet_remaining: Cycles,
    /// The watchdog already reported this job's budget overrun (each job
    /// fires at most one [`FaultEvent::BudgetOverrun`]).
    budget_exceeded: bool,
}

/// Per-task runtime bookkeeping.
#[derive(Debug, Clone, Copy)]
struct TaskRt {
    /// True arrival time of the job currently waiting in the delay queue
    /// (its delay-queue key may be later under a tick-driven kernel).
    pending_arrival: Time,
    next_index: u64,
    job: Option<LiveJob>,
}

/// Processor operating mode between decision points.
#[derive(Debug, Clone, Copy)]
enum ProcMode {
    /// Settled at a frequency (full speed unless a `SlowDown` is in force).
    Settled(Freq),
    /// Mid-transition; the active job (if any) executes along the ramp.
    /// `from` and `to` are the ramp's endpoint ratios rounded to kHz once,
    /// when it starts: the endpoints of the `CpuState` every segment of
    /// the transition reports.
    Ramping {
        ramp: Ramp,
        started: Time,
        end: Time,
        target: Freq,
        from: Freq,
        to: Freq,
    },
    /// Power-down (in the given sleep mode) until the wake timer fires.
    PowerDown { wake_at: Time, mode: usize },
    /// Returning to full power (no work retires).
    WakingUp { until: Time },
}

struct Engine<'a, D: Discipline, P: Probe = NoProbe> {
    ts: &'a TaskSet,
    /// The observability sink (see [`crate::probe`]). Monomorphized: for
    /// [`NoProbe`] every tap site is a compile-time dead branch, so the
    /// hot path is byte-for-byte the pre-seam engine.
    probe: &'a mut P,
    cpu: &'a CpuSpec,
    exec: &'a dyn ExecModel,
    cfg: &'a SimConfig,
    now: Time,
    horizon_end: Time,
    run_q: RunQueue<D::Key>,
    delay_q: DelayQueue,
    tasks: Vec<TaskRt>,
    wcet_cycles: Vec<Cycles>,
    active: Option<TaskId>,
    mode: ProcMode,
    speedup_at: Option<Time>,
    /// Pending timeout-shutdown: (enter power-down at, wake at).
    pd_timer: Option<(Time, Time)>,
    pending_overhead: Cycles,
    last_dispatched: Option<TaskId>,
    was_idle: bool,
    meter: EnergyMeter,
    counters: Counters,
    responses: Vec<ResponseStats>,
    misses: Vec<DeadlineMiss>,
    idle_gaps: IntervalStats,
    gap_start: Option<Time>,
    task_energy: Vec<f64>,
    histograms: Vec<ResponseHistogram>,
    /// Scratch buffer for due releases, reused across scheduler passes
    /// (see [`DelayQueue::pop_due_into`]).
    due_scratch: Vec<(TaskId, Time)>,
    /// Busy- and ramp-state powers already computed under this spec's
    /// power model, adopted from the workspace (see
    /// [`crate::power_table`]).
    power_table: PowerTable,
    /// Standard-normal job draws already computed, lent by the workspace
    /// (see [`DrawTape`]).
    draws: DrawTape,
    /// Per-accumulator state for the fast-forward's energy fold, lent by
    /// the workspace.
    fold: FoldScratch,
    /// Energy segments integrated so far. Engine-local on purpose: it
    /// backs the partial diagnostics, and must *not* live in [`Counters`]
    /// (which is serialized into every report and would perturb the
    /// committed result fingerprints).
    segments_done: u64,
    /// The steady-state cycle detector; `None` when the run is ineligible
    /// (see [`SteadyDetector::for_run`]) or after it fired once.
    steady: Option<SteadyDetector>,
    /// What the detector did — side-channel output through the workspace,
    /// never part of the serialized report.
    ff_stats: FastForwardStats,
}

/// Reusable simulation buffers, for callers that run many simulations in
/// sequence (sweeps): [`simulate_in`] recycles these allocations across
/// runs, so a worker thread allocates queue and bookkeeping storage once
/// instead of once per cell.
///
/// # Lifetime contract
///
/// Only buffers that never escape into the [`SimReport`] live here — the
/// run/delay queues, per-task runtime slots, WCET cycle counts, the
/// release scratch buffer, the energy fold's per-accumulator state — and
/// two caches of pure functions: a table of
/// busy- and ramp-state powers and a [`DrawTape`] of standard-normal job
/// draws.
/// Report fields (responses, histograms, energy, misses, traces) are
/// freshly allocated by every run *by design*: sweeps keep all reports
/// alive side by side, so recycling them is impossible. The buffers are
/// inert between runs (cleared on entry, contents unspecified after a
/// run). The two caches are what is kept across runs. The power table
/// holds values of `CpuSpec::state_power`, recorded with the
/// `PowerModel` they were computed under, and a run whose processor has
/// another model (compared bit for bit) empties it on entry. The tape
/// holds values of `job_stream(seed, task, job).next_gaussian()`, which
/// reads nothing else, so no run invalidates it. So the workspace carries
/// no result state, and reusing one across different cells cannot couple
/// their reports.
///
/// # Examples
///
/// ```
/// use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
/// use lpfps_kernel::policy::AlwaysFullSpeed;
/// use lpfps_kernel::{FixedPriority, NoProbe};
/// use lpfps_cpu::spec::CpuSpec;
/// use lpfps_tasks::exec::AlwaysWcet;
/// use lpfps_tasks::task::Task;
/// use lpfps_tasks::taskset::TaskSet;
/// use lpfps_tasks::time::Dur;
///
/// let ts = TaskSet::rate_monotonic(
///     "solo",
///     vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
/// );
/// let cpu = CpuSpec::arm8();
/// let cfg = SimConfig::new(Dur::from_us(400));
/// let mut ws = SimWorkspace::new();
/// let (policy, exec) = (&mut AlwaysFullSpeed, &AlwaysWcet);
/// let a = simulate_in::<FixedPriority, _>(&ts, &cpu, policy, exec, &cfg, &mut ws, &mut NoProbe);
/// let b = simulate_in::<FixedPriority, _>(&ts, &cpu, policy, exec, &cfg, &mut ws, &mut NoProbe);
/// assert_eq!(a.unwrap().counters, b.unwrap().counters);
/// ```
#[derive(Debug, Default)]
pub struct SimWorkspace {
    // Each discipline recycles its own run-queue allocation (the key types
    // differ); `Discipline::take_run_queue` picks the matching field.
    pub(crate) run_q: RunQueue,
    pub(crate) edf_run_q: RunQueue<EdfKey>,
    delay_q: DelayQueue,
    tasks: Vec<TaskRt>,
    wcet_cycles: Vec<Cycles>,
    due_scratch: Vec<(TaskId, Time)>,
    power_table: PowerTable,
    draws: DrawTape,
    fold: FoldScratch,
    /// Steady-state detector statistics of the most recent run on this
    /// workspace (success *or* failure; overwritten every run, so stale
    /// values never leak across cells).
    ff_stats: FastForwardStats,
}

impl SimWorkspace {
    /// An empty workspace; buffers grow on first use and are kept after.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// What the steady-state detector did during the most recent run on
    /// this workspace: zero cycles when the run was ineligible (faults,
    /// an event budget, an index-dependent execution model, ...) or when
    /// no recurrence was observed. Side-channel on purpose — the numbers
    /// must not live in [`SimReport`], whose serialized form is asserted
    /// bit-identical with the detector on and off.
    pub fn fast_forward_stats(&self) -> FastForwardStats {
        self.ff_stats
    }
}

/// Rounds an arrival up to the next tick boundary (identity for
/// event-driven kernels).
fn quantize_to_tick(arrival: Time, tick: Option<Dur>) -> Time {
    match tick {
        None => arrival,
        Some(t) => {
            // Saturates instead of overflowing: a release quantized past
            // `Time::MAX` can only come from an (unbounded) injected
            // jitter, and a saturated instant simply never comes due
            // within any horizon.
            let ticks = arrival.as_ns().div_ceil(t.as_ns());
            Time::from_ns(ticks.saturating_mul(t.as_ns()))
        }
    }
}

/// When the kernel *notices* the release of job `job_index` of `tid`:
/// the true arrival, plus any injected interrupt-delivery jitter, rounded
/// up to the tick boundary. Deadlines and response times always use the
/// true arrival.
fn noticed_release(cfg: &SimConfig, tid: TaskId, job_index: u64, arrival: Time) -> Time {
    let jittered = match &cfg.faults.release_jitter {
        // Saturating: the jitter bound is caller-controlled and unbounded.
        Some(j) => arrival.saturating_add(j.delay(cfg.seed, cfg.faults.seed, tid.0, job_index)),
        None => arrival,
    };
    quantize_to_tick(jittered, cfg.tick)
}

/// Runs one simulation of `ts` on `cpu` under `policy`, with realized
/// execution times drawn from `exec`.
///
/// Deadline misses are **not** errors; they are recorded in the report so
/// experiments can observe unschedulable configurations.
///
/// # Errors
///
/// [`SimError`] if the inputs fail boundary validation (zero horizon,
/// malformed task set or processor spec — both can arrive unvalidated via
/// `Deserialize`), if a configured event budget runs out, or if the
/// policy issues an illegal directive (power-down with runnable work, a
/// slow-down frequency outside the ladder, ...). On valid inputs with no
/// event budget the run is infallible in practice and byte-identical to
/// the pre-taxonomy engine.
pub fn simulate(
    ts: &TaskSet,
    cpu: &CpuSpec,
    policy: &mut dyn PowerPolicy,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    simulate_in(
        ts,
        cpu,
        policy,
        exec,
        cfg,
        &mut SimWorkspace::new(),
        &mut NoProbe,
    )
}

/// The general entry point: [`simulate`] under an explicit dispatch
/// [`Discipline`] `D`, with caller-provided buffer storage and an
/// observability [`Probe`] attached.
///
/// * `D` decides dispatch order and preemption; the event machinery,
///   fault model and energy accounting are shared. [`simulate`] is the
///   fixed-priority, probe-free specialization.
/// * Queue and bookkeeping allocations are recycled from `ws` and
///   returned to it afterwards — the per-worker fast path of sweep
///   runners. Reports are byte-for-byte the same as with a fresh
///   workspace.
/// * `probe` receives every simulated kernel event and cannot influence
///   the run: the report is byte-identical to the [`NoProbe`] run by
///   construction (see [`crate::probe`]). A [`Trace`](crate::trace::Trace)
///   is a probe; a complete one needs
///   [`SimConfig::force_full_simulation`], since a fast-forwarded span
///   emits no events.
///
/// # Errors
///
/// As [`simulate`]. The buffers return to `ws` on the error path too, so
/// a failing cell costs a sweep worker nothing on the next cell.
pub fn simulate_in<D: Discipline, P: Probe>(
    ts: &TaskSet,
    cpu: &CpuSpec,
    policy: &mut dyn PowerPolicy<D>,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    ws: &mut SimWorkspace,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    // Boundary validation: `TaskSet` and `CpuSpec` implement
    // `Deserialize`, so malformed values can exist without any
    // constructor assert having fired. After these checks every time
    // parameter is at most `u64::MAX / 4` ns, which makes the engine's
    // remaining raw time arithmetic provably overflow-free (any sum of
    // two in-range quantities fits in `u64::MAX / 2`).
    validate_sim_config(cfg)?;
    validate_task_set(ts)?;
    validate_cpu_spec(cpu)?;
    let mut engine = Engine::<D, P>::new(ts, cpu, exec, cfg, ws, probe);
    let outcome = engine.run(policy);
    engine.restore_workspace(ws);
    outcome.map(|()| engine.into_report(policy.name()))
}

impl<'a, D: Discipline, P: Probe> Engine<'a, D, P> {
    fn new(
        ts: &'a TaskSet,
        cpu: &'a CpuSpec,
        exec: &'a dyn ExecModel,
        cfg: &'a SimConfig,
        ws: &mut SimWorkspace,
        probe: &'a mut P,
    ) -> Self {
        let reference = cpu.reference_freq();
        // Adopt the workspace buffers (cleared; contents between runs are
        // unspecified). They return to `ws` in `restore_workspace`.
        let mut run_q = D::take_run_queue(ws);
        run_q.clear();
        let mut delay_q = std::mem::take(&mut ws.delay_q);
        delay_q.clear();
        let mut tasks = std::mem::take(&mut ws.tasks);
        tasks.clear();
        let mut wcet_cycles = std::mem::take(&mut ws.wcet_cycles);
        wcet_cycles.clear();
        let mut due_scratch = std::mem::take(&mut ws.due_scratch);
        due_scratch.clear();
        let mut power_table = std::mem::take(&mut ws.power_table);
        power_table.adopt(cpu.power());
        let draws = std::mem::take(&mut ws.draws);
        let fold = std::mem::take(&mut ws.fold);
        tasks.reserve(ts.len());
        wcet_cycles.reserve(ts.len());
        for (id, task, prio) in ts.iter() {
            let arrival = Time::ZERO + task.phase();
            delay_q.insert(id, prio, noticed_release(cfg, id, 0, arrival));
            tasks.push(TaskRt {
                pending_arrival: arrival,
                next_index: 0,
                job: None,
            });
            wcet_cycles.push(Cycles::from_time_at(task.wcet(), reference).max(Cycles::new(1)));
        }
        Engine {
            ts,
            probe,
            cpu,
            exec,
            cfg,
            now: Time::ZERO,
            horizon_end: Time::ZERO + cfg.horizon,
            run_q,
            delay_q,
            tasks,
            wcet_cycles,
            active: None,
            mode: ProcMode::Settled(cpu.full_freq()),
            speedup_at: None,
            pd_timer: None,
            pending_overhead: Cycles::ZERO,
            last_dispatched: None,
            was_idle: false,
            meter: EnergyMeter::new(),
            counters: Counters::default(),
            responses: vec![ResponseStats::default(); ts.len()],
            misses: Vec::new(),
            idle_gaps: IntervalStats::new(),
            gap_start: Some(Time::ZERO),
            task_energy: vec![0.0; ts.len()],
            histograms: vec![ResponseHistogram::new(); ts.len()],
            due_scratch,
            power_table,
            draws,
            fold,
            segments_done: 0,
            steady: SteadyDetector::for_run(cfg, exec, ts),
            ff_stats: FastForwardStats::default(),
        }
    }

    fn run(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        loop {
            let t_next = self.next_event_time().min(self.horizon_end);
            self.advance_to(t_next);
            if self.now >= self.horizon_end {
                break;
            }
            // Checkpoint *before* this decision point's events are counted
            // or handled: a detected recurrence shifts the whole live state
            // forward by `k` hyperperiods, and the iteration then processes
            // the shifted instant's events exactly as a full simulation
            // arriving there would.
            self.steady_checkpoint(policy)?;
            if self.now >= self.horizon_end {
                // Fast-forward landed exactly on the horizon. A full run
                // never handles events *at* the horizon (the break above
                // fires first), so neither may we.
                break;
            }
            self.counters.events += 1;
            self.check_budget()?;
            self.handle_events(policy)?;
        }
        if let Some(start) = self.gap_start.take() {
            self.idle_gaps
                .record(self.horizon_end.saturating_since(start));
        }
        self.record_unfinished_misses();
        debug_assert_eq!(
            self.meter.total_residency(),
            self.cfg.horizon,
            "energy residency must cover the whole horizon"
        );
        Ok(())
    }

    /// The cooperative event budget, checked once per decision point: a
    /// pathological (but valid) configuration surfaces as a typed error
    /// with partial progress attached instead of an unbounded loop.
    fn check_budget(&self) -> Result<(), SimError> {
        match self.cfg.max_events {
            Some(limit) if self.counters.events > limit => Err(SimError::BudgetExhausted {
                limit,
                diagnostic: PartialDiagnostic {
                    sim_time: self.now,
                    events: self.counters.events,
                    segments: self.segments_done,
                    completions: self.counters.completions,
                    deadline_misses: self.misses.len(),
                },
            }),
            _ => Ok(()),
        }
    }

    // ----- event timing ---------------------------------------------------

    /// The next decision point: the earliest of the delay-queue head, the
    /// active job's completion and budget exhaustion, the mode's end and
    /// the armed timers. Computed fresh at every call, as the oracle does:
    /// the completion and budget candidates change between any two calls
    /// (the active job retires work, the active task changes or the mode
    /// changes), so memoizing them would never pay.
    fn next_event_time(&self) -> Time {
        let mut t = Time::MAX;
        if let Some(r) = self.delay_q.head_release() {
            t = t.min(r);
        }
        if let Some(c) = self.completion_time() {
            t = t.min(c);
        }
        if let Some(b) = self.budget_exhaust_time() {
            t = t.min(b);
        }
        match self.mode {
            ProcMode::Ramping { end, .. } => t = t.min(end),
            ProcMode::PowerDown { wake_at, .. } => t = t.min(wake_at),
            ProcMode::WakingUp { until } => t = t.min(until),
            ProcMode::Settled(_) => {}
        }
        if let Some(s) = self.speedup_at {
            t = t.min(s);
        }
        if let Some((enter, _)) = self.pd_timer {
            t = t.min(enter);
        }
        // An overrunning task re-enters the delay queue with a release
        // already in the past; it is due immediately.
        t.max(self.now)
    }

    /// Total work in front of the processor: dispatch overhead first, then
    /// the active job's realized demand.
    fn frontier_work(&self) -> Option<Cycles> {
        let tid = self.active?;
        let job = self.tasks[tid.0].job.as_ref()?;
        Some(self.pending_overhead + job.realized_remaining)
    }

    fn completion_time(&self) -> Option<Time> {
        self.time_to_retire_total(self.frontier_work()?)
    }

    /// When the active job's WCET budget exhausts with realized work still
    /// outstanding — the watchdog's budget-timer event. Only an injected
    /// overrun can make `realized > wcet`, so this is `None` in fault-free
    /// runs; it also stops firing once the job's overrun was reported.
    fn budget_exhaust_time(&self) -> Option<Time> {
        let tid = self.active?;
        let job = self.tasks[tid.0].job.as_ref()?;
        if job.budget_exceeded || job.wcet_remaining >= job.realized_remaining {
            return None;
        }
        self.time_to_retire_total(self.pending_overhead + job.wcet_remaining)
    }

    /// When the processor will have retired `total` cycles under the
    /// current mode (`None` while asleep or waking, or if the in-flight
    /// ramp segment cannot retire that much — the ramp end is already an
    /// event candidate and the time is recomputed once settled).
    fn time_to_retire_total(&self, total: Cycles) -> Option<Time> {
        if total.is_zero() {
            return Some(self.now);
        }
        let reference = self.cpu.reference_freq();
        // Saturating adds: `time_at`/`time_to_retire` saturate to "never"
        // (`Dur::MAX`) on degenerate inputs, and a candidate clamped at
        // `Time::MAX` is equally "never" once min'd with the horizon.
        match self.mode {
            ProcMode::Settled(f) => Some(self.now.saturating_add(total.time_at(f))),
            ProcMode::Ramping { ramp, started, .. } => {
                let off = self.now.saturating_since(started);
                let done = ramp.work_by(off, reference);
                ramp.time_to_retire(done + total, reference)
                    .map(|t_off| started.saturating_add(t_off))
            }
            ProcMode::PowerDown { .. } | ProcMode::WakingUp { .. } => None,
        }
    }

    // ----- physics --------------------------------------------------------

    fn current_cpu_state(&self) -> CpuState {
        let executing = self
            .active
            .map(|tid| self.tasks[tid.0].job.is_some())
            .unwrap_or(false)
            || !self.pending_overhead.is_zero();
        match self.mode {
            ProcMode::Settled(f) => {
                if executing {
                    CpuState::Busy(f)
                } else {
                    CpuState::IdleNop
                }
            }
            ProcMode::Ramping { from, to, .. } => {
                if executing {
                    CpuState::Ramping { from, to }
                } else {
                    CpuState::RampingIdle { from, to }
                }
            }
            ProcMode::PowerDown { mode, .. } => CpuState::PowerDown {
                power_frac: self.cpu.sleep_modes()[mode].power_frac(),
            },
            ProcMode::WakingUp { .. } => CpuState::WakingUp,
        }
    }

    fn ratio_to_freq(&self, r: f64) -> Freq {
        let khz = (r * self.cpu.reference_freq().as_khz() as f64)
            .round()
            .max(1.0) as u64;
        Freq::from_khz(khz)
    }

    fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.now);
        let dur = t.saturating_since(self.now);
        if dur.is_zero() {
            self.now = t;
            return;
        }
        let state = self.current_cpu_state();
        let power = self.power_table.state_power(self.cpu, state);
        self.segments_done += 1;
        let energy = self.meter.accumulate_with_power(state, power, dur);
        if let Some(d) = self.steady.as_mut() {
            // Record the cycle's energy tape (only once a first checkpoint
            // anchors it): these exact energies, added again in order, are
            // what the full run adds in every later cycle.
            if d.last.is_some() {
                d.tape.push(Charge {
                    energy,
                    // `for_run` arms only for task indices that fit a u32.
                    task: match self.active {
                        Some(tid) if state.executes_work() => tid.0 as u32,
                        _ => Charge::NO_TASK,
                    },
                    kind: state.kind(),
                });
            }
        }
        // Stamped at the segment *start* (`self.now` is still the old
        // instant here): consecutive segments tile the horizon exactly,
        // which the oracle's invariant checker relies on.
        self.push_trace(TraceEvent::EnergySegment { state, power, dur });
        if state.executes_work() {
            if let Some(tid) = self.active {
                self.task_energy[tid.0] += energy;
            }
            let reference = self.cpu.reference_freq();
            let retired = match self.mode {
                ProcMode::Settled(f) => Cycles::from_time_at(dur, f),
                ProcMode::Ramping { ramp, started, .. } => {
                    let a = self.now.saturating_since(started);
                    let b = t.saturating_since(started);
                    ramp.work_by(b, reference) - ramp.work_by(a, reference)
                }
                _ => Cycles::ZERO,
            };
            self.retire(retired);
        }
        self.now = t;
    }

    /// Consumes retired cycles: dispatch overhead first, then job demand.
    fn retire(&mut self, mut retired: Cycles) {
        if !self.pending_overhead.is_zero() {
            let eaten = self.pending_overhead.min(retired);
            self.pending_overhead -= eaten;
            retired -= eaten;
        }
        if retired.is_zero() {
            return;
        }
        if let Some(tid) = self.active {
            if let Some(job) = self.tasks[tid.0].job.as_mut() {
                job.realized_remaining = job.realized_remaining.saturating_sub(retired);
                job.wcet_remaining = job.wcet_remaining.saturating_sub(retired);
            }
        }
    }

    // ----- event handling ---------------------------------------------------

    fn handle_events(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        let mut need_sched = false;

        // Ramp settles.
        if let ProcMode::Ramping { end, target, .. } = self.mode {
            if self.now >= end {
                self.mode = ProcMode::Settled(target);
                self.push_trace(TraceEvent::RampEnd { freq: target });
                if target == self.cpu.full_freq() {
                    need_sched = true;
                }
            }
        }
        // Wake timer fires / wake-up completes.
        match self.mode {
            ProcMode::PowerDown { wake_at, mode } if self.now >= wake_at => {
                let mut delay =
                    self.cpu.sleep_modes()[mode].wakeup_delay(self.cpu.reference_freq());
                if let Some(j) = &self.cfg.faults.wakeup_jitter {
                    // Keyed by the power-down ordinal: the counter was
                    // incremented when this sleep was entered.
                    delay += j.extra(
                        self.cfg.seed,
                        self.cfg.faults.seed,
                        self.counters.power_downs,
                    );
                }
                self.mode = ProcMode::WakingUp {
                    // Saturating: injected wake-up jitter is unbounded.
                    until: self.now.saturating_add(delay),
                };
                self.push_trace(TraceEvent::Wakeup);
            }
            ProcMode::WakingUp { until } if self.now >= until => {
                self.mode = ProcMode::Settled(self.cpu.full_freq());
                need_sched = true;
            }
            _ => {}
        }
        // Releases (the scheduler's L5-L7). The head peek skips the drain
        // entirely on the (majority of) decision points with nothing due;
        // the scratch buffer is moved out while job spawns borrow `self`
        // and put back afterwards, so steady-state passes allocate nothing.
        if self.delay_q.head_release().is_some_and(|r| r <= self.now) {
            let mut due = std::mem::take(&mut self.due_scratch);
            self.delay_q.pop_due_into(self.now, &mut due);
            // Watchdog invariant: a release must find the processor settled
            // at full speed, or at worst at an instant where a planned
            // return to full has already come due (instant-ramp and
            // zero-latency-wake processors hit exactly the boundary). The
            // policy's own timers guarantee this fault-free; injected
            // wake-up or ramp faults break it.
            let overslept = match self.mode {
                ProcMode::Settled(f) => {
                    f != self.cpu.full_freq() && self.speedup_at.is_none_or(|s| s > self.now)
                }
                ProcMode::Ramping { .. } => true,
                ProcMode::PowerDown { .. } => true,
                ProcMode::WakingUp { until } => until > self.now,
            };
            if overslept {
                self.counters.watchdog_faults += 1;
                self.push_trace(TraceEvent::TimingViolation);
                if policy.on_fault(&FaultEvent::TimingViolation { now: self.now }) {
                    self.counters.degradations += 1;
                }
            }
            for &(tid, _) in &due {
                self.spawn_job(tid);
            }
            need_sched = true;
            self.due_scratch = due;
        }
        // Completion of the active job.
        if let Some(total) = self.frontier_work() {
            if total.is_zero() {
                self.complete_active()?;
                need_sched = true;
            }
        }
        // Budget exhaustion: the active job retired its full WCET budget
        // with work still outstanding (only possible under an injected
        // overrun). Reported once per job, exactly when the budget
        // timer would fire in a real kernel.
        if let Some(tid) = self.active {
            let exhausted = self.tasks[tid.0].job.as_ref().is_some_and(|job| {
                !job.budget_exceeded
                    && job.wcet_remaining.is_zero()
                    && !job.realized_remaining.is_zero()
            });
            if exhausted {
                if let Some(job) = self.tasks[tid.0].job.as_mut() {
                    job.budget_exceeded = true;
                }
                self.counters.watchdog_faults += 1;
                self.push_trace(TraceEvent::BudgetOverrun { task: tid });
                if policy.on_fault(&FaultEvent::BudgetOverrun {
                    task: tid,
                    now: self.now,
                }) {
                    self.counters.degradations += 1;
                }
                need_sched = true;
            }
        }
        // Speed-up timer (latest moment to begin ramping back to full).
        if let Some(s) = self.speedup_at {
            if self.now >= s {
                self.speedup_at = None;
                need_sched = true;
            }
        }
        // Timeout-shutdown timer: enter power-down if the kernel is still
        // idle when the timeout elapses.
        if let Some((enter, wake_at)) = self.pd_timer {
            if self.now >= enter {
                self.pd_timer = None;
                let idle = self.active.is_none()
                    && self.run_q.is_empty()
                    && matches!(self.mode, ProcMode::Settled(f) if f == self.cpu.full_freq());
                if idle && wake_at > self.now {
                    self.mode = ProcMode::PowerDown { wake_at, mode: 0 };
                    self.counters.power_downs += 1;
                    self.push_trace(TraceEvent::EnterPowerDown { wake_at });
                }
            }
        }

        if need_sched {
            self.scheduler_step(policy)?;
        }
        self.track_idle_gap();
        Ok(())
    }

    /// Opens/closes the "no task runnable" gap around the current instant.
    fn track_idle_gap(&mut self) {
        let runnable = self.active.is_some() || !self.run_q.is_empty();
        match (runnable, self.gap_start) {
            (true, Some(start)) => {
                self.idle_gaps.record(self.now.saturating_since(start));
                self.gap_start = None;
            }
            (false, None) => self.gap_start = Some(self.now),
            _ => {}
        }
    }

    fn spawn_job(&mut self, tid: TaskId) {
        let task = self.ts.task(tid);
        let prio = self.ts.priority(tid);
        let (index, seed) = (self.tasks[tid.0].next_index, self.cfg.seed);
        let sample = self
            .exec
            .sample_taped(task, tid, index, seed, &mut self.draws);
        debug_assert_eq!(
            sample,
            self.exec.sample(task, tid, index, seed),
            "the draw tape served another demand than a fresh sample"
        );
        debug_assert!(
            sample <= task.wcet() && !sample.is_zero(),
            "execution model must return demands in (0, WCET]"
        );
        let realized = Cycles::from_time_at(sample, self.cpu.reference_freq()).max(Cycles::new(1));
        let rt = &mut self.tasks[tid.0];
        debug_assert!(rt.job.is_none(), "a task has at most one live job");
        // Response times and deadlines are measured from the *true*
        // arrival, even when a tick-driven kernel noticed it late.
        let arrival = rt.pending_arrival;
        let wcet = self.wcet_cycles[tid.0];
        // An injected overrun blows through the entire WCET budget and
        // keeps going: realized demand becomes `wcet + extra`. The
        // scheduler still sees only the WCET view.
        let mut demand = realized.min(wcet);
        if let Some(o) = &self.cfg.faults.overrun {
            let extra = o.extra_cycles(self.cfg.seed, self.cfg.faults.seed, tid.0, index, wcet);
            if !extra.is_zero() {
                demand = wcet + extra;
                self.counters.overruns += 1;
            }
        }
        // Overflow-free: the job spawned because its release came due, so
        // `arrival < horizon_end`, and every validated time parameter is
        // at most `u64::MAX / 4` ns.
        let deadline = arrival + task.deadline();
        rt.job = Some(LiveJob {
            index,
            release: arrival,
            deadline,
            realized_remaining: demand,
            wcet_remaining: wcet,
            budget_exceeded: false,
        });
        rt.next_index += 1;
        rt.pending_arrival = arrival + task.period();
        self.counters.releases += 1;
        self.push_trace(TraceEvent::Release {
            task: tid,
            job: index,
        });
        self.run_q.insert(tid, D::key(prio, deadline, tid));
    }

    fn complete_active(&mut self) -> Result<(), SimError> {
        let Some(tid) = self.active.take() else {
            return Err(SimError::InternalInvariant {
                what: "completion without an active task",
            });
        };
        let prio = self.ts.priority(tid);
        let rt = &mut self.tasks[tid.0];
        let Some(job) = rt.job.take() else {
            return Err(SimError::InternalInvariant {
                what: "active task must hold a live job",
            });
        };
        let response = self.now.saturating_since(job.release);
        let met = self.now <= job.deadline;
        self.responses[tid.0].record(response)?;
        self.histograms[tid.0].record(response, self.ts.task(tid).deadline());
        self.counters.completions += 1;
        if !met {
            self.misses.push(DeadlineMiss {
                task: tid,
                job: job.index,
                deadline: job.deadline,
                completed_at: Some(self.now),
            });
        }
        let next_arrival = rt.pending_arrival;
        let next_index = rt.next_index;
        self.push_trace(TraceEvent::Complete {
            task: tid,
            job: job.index,
            response,
            met,
        });
        self.delay_q.insert(
            tid,
            prio,
            noticed_release(self.cfg, tid, next_index, next_arrival),
        );
        Ok(())
    }

    // ----- the scheduler ----------------------------------------------------

    fn scheduler_step(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        let full = self.cpu.full_freq();
        match self.mode {
            ProcMode::Settled(f) if f == full => self.full_pass(policy),
            // L1-L4: any invocation at reduced speed raises the clock and
            // voltage to the maximum first; the pass re-runs when settled.
            ProcMode::Settled(f) => {
                let r = f.ratio_to(self.cpu.reference_freq());
                self.begin_ramp_from_ratio(r, full, policy)
            }
            ProcMode::Ramping {
                ramp,
                started,
                target,
                ..
            } => {
                if target != full {
                    let r_now = ramp.ratio_at(self.now.saturating_since(started));
                    self.begin_ramp_from_ratio(r_now, full, policy)
                } else {
                    // Already heading to full: the pass runs at ramp end.
                    Ok(())
                }
            }
            // The pass runs when the wake-up completes.
            ProcMode::PowerDown { .. } | ProcMode::WakingUp { .. } => Ok(()),
        }
    }

    fn full_pass(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        self.counters.sched_passes += 1;
        // L8-L11: preemption / dispatch, decided by the discipline. Under
        // `FixedPriority` this is exactly the paper's priority test.
        if let Some(head_key) = self.run_q.head_key() {
            let switch = match self.active {
                None => true,
                Some(cur) => D::preempts(head_key, self.key_of(cur)?),
            };
            if switch {
                let Some(next) = self.run_q.pop() else {
                    return Err(SimError::InternalInvariant {
                        what: "run queue emptied between head peek and pop",
                    });
                };
                if let Some(cur) = self.active.take() {
                    self.counters.preemptions += 1;
                    self.push_trace(TraceEvent::Preempt {
                        task: cur,
                        by: next,
                    });
                    let cur_key = self.key_of(cur)?;
                    self.run_q.insert(cur, cur_key);
                }
                let Some(job) = self.tasks[next.0].job.as_ref() else {
                    return Err(SimError::InternalInvariant {
                        what: "queued task holds a live job",
                    });
                };
                let job_index = job.index;
                self.counters.dispatches += 1;
                self.push_trace(TraceEvent::Dispatch {
                    task: next,
                    job: job_index,
                });
                if self.last_dispatched != Some(next) && !self.cfg.context_switch.is_zero() {
                    self.pending_overhead +=
                        Cycles::from_time_at(self.cfg.context_switch, self.cpu.reference_freq());
                }
                self.last_dispatched = Some(next);
                self.active = Some(next);
            }
        }

        // L12-L21: the policy's power decision. Any previously armed
        // timeout-shutdown is superseded by the fresh decision.
        self.pd_timer = None;
        let directive = {
            let ctx = SchedulerContext {
                now: self.now,
                active: self.active_view(),
                run_queue: &self.run_q,
                delay_queue: &self.delay_q,
                cpu: self.cpu,
                taskset: self.ts,
            };
            policy.decide(&ctx)
        };
        self.apply_directive(directive, policy)?;
        self.note_idle_transition();
        Ok(())
    }

    /// The discipline key of a task's live job (dispatchable tasks always
    /// hold one: a preempted task keeps its `LiveJob` in `TaskRt.job`).
    fn key_of(&self, task: TaskId) -> Result<D::Key, SimError> {
        let Some(job) = self.tasks[task.0].job.as_ref() else {
            return Err(SimError::InternalInvariant {
                what: "a runnable task holds a live job",
            });
        };
        Ok(D::key(self.ts.priority(task), job.deadline, task))
    }

    fn active_view(&self) -> Option<ActiveView> {
        let tid = self.active?;
        let job = self.tasks[tid.0].job.as_ref()?;
        Some(ActiveView {
            task: tid,
            wcet_remaining: job.wcet_remaining,
            release: job.release,
            deadline: job.deadline,
        })
    }

    /// Applies the policy's decision, refusing illegal directives with
    /// [`SimError::InvalidDirective`]: policies are pluggable (and may act
    /// on deserialized, hostile-adjacent state), so their directives are
    /// checked like any other untrusted input.
    fn apply_directive(
        &mut self,
        directive: PowerDirective,
        policy: &mut dyn PowerPolicy<D>,
    ) -> Result<(), SimError> {
        match directive {
            PowerDirective::FullSpeed => Ok(()),
            PowerDirective::PowerDown { wake_at, mode } => {
                if self.active.is_some() || !self.run_q.is_empty() {
                    return Err(SimError::InvalidDirective {
                        reason: "power-down requires an idle kernel \
                                 (no active task, empty run queue)",
                    });
                }
                if wake_at < self.now {
                    return Err(SimError::InvalidDirective {
                        reason: "wake-up timer must not be in the past",
                    });
                }
                if mode >= self.cpu.sleep_modes().len() {
                    return Err(SimError::InvalidDirective {
                        reason: "sleep mode index out of range",
                    });
                }
                let Some(head) = self.delay_q.head_release() else {
                    return Err(SimError::InternalInvariant {
                        what: "with all tasks waiting, the delay queue cannot be empty",
                    });
                };
                let delay = self.cpu.sleep_modes()[mode].wakeup_delay(self.cpu.reference_freq());
                // Checked: `wake_at` is policy-supplied and unbounded; an
                // overflowing wake instant certainly misses the release.
                if wake_at.checked_add(delay).is_none_or(|w| w > head) {
                    return Err(SimError::InvalidDirective {
                        reason: "the processor must be awake before the next release",
                    });
                }
                self.mode = ProcMode::PowerDown { wake_at, mode };
                self.counters.power_downs += 1;
                self.push_trace(TraceEvent::EnterPowerDown { wake_at });
                Ok(())
            }
            PowerDirective::PowerDownAt { enter_at, wake_at } => {
                if self.active.is_some() || !self.run_q.is_empty() {
                    return Err(SimError::InvalidDirective {
                        reason: "timeout shutdown requires an idle kernel",
                    });
                }
                if enter_at < self.now {
                    return Err(SimError::InvalidDirective {
                        reason: "shutdown timeout must not be in the past",
                    });
                }
                if wake_at <= enter_at {
                    return Err(SimError::InvalidDirective {
                        reason: "wake-up must follow the shutdown instant",
                    });
                }
                let Some(head) = self.delay_q.head_release() else {
                    return Err(SimError::InternalInvariant {
                        what: "with all tasks waiting, the delay queue cannot be empty",
                    });
                };
                if wake_at
                    .checked_add(self.cpu.wakeup_delay())
                    .is_none_or(|w| w > head)
                {
                    return Err(SimError::InvalidDirective {
                        reason: "the processor must be awake before the next release",
                    });
                }
                if enter_at == self.now {
                    self.mode = ProcMode::PowerDown { wake_at, mode: 0 };
                    self.counters.power_downs += 1;
                    self.push_trace(TraceEvent::EnterPowerDown { wake_at });
                } else {
                    self.pd_timer = Some((enter_at, wake_at));
                }
                Ok(())
            }
            PowerDirective::SlowDown { freq, speedup_at } => {
                if self.active.is_none() || !self.run_q.is_empty() {
                    return Err(SimError::InvalidDirective {
                        reason: "slow-down requires exactly the active task to be runnable",
                    });
                }
                if !self.cpu.ladder().contains(freq) {
                    return Err(SimError::InvalidDirective {
                        reason: "slow-down frequency must be a ladder level",
                    });
                }
                if freq >= self.cpu.full_freq() || speedup_at <= self.now {
                    return Ok(()); // nothing to gain; stay at full speed
                }
                // The ratio computation itself costs scheduler cycles,
                // executed before the task's work continues (paper §5).
                if !self.cfg.ratio_overhead.is_zero() {
                    self.pending_overhead +=
                        Cycles::from_time_at(self.cfg.ratio_overhead, self.cpu.reference_freq());
                }
                self.speedup_at = Some(speedup_at);
                self.begin_ramp_from_ratio(1.0, freq, policy)
            }
        }
    }

    fn begin_ramp_from_ratio(
        &mut self,
        r_from: f64,
        target: Freq,
        policy: &mut dyn PowerPolicy<D>,
    ) -> Result<(), SimError> {
        let full = self.cpu.full_freq();
        if target == full {
            self.speedup_at = None;
        }
        let r_to = target.ratio_to(self.cpu.reference_freq());
        let mut rate = self.cpu.ramp_rate_per_us();
        if let Some(d) = &self.cfg.faults.ramp_degradation {
            // A degraded regulator ramps slower than the spec the policy
            // planned with; keyed by the ramp ordinal.
            rate *= d.factor(self.cfg.seed, self.cfg.faults.seed, self.counters.ramps);
        }
        let ramp = Ramp::from_ratios(r_from.clamp(0.0, 1.0), r_to, rate);
        let dur = ramp.duration();
        if dur.is_zero() {
            self.mode = ProcMode::Settled(target);
            if target == full {
                self.full_pass(policy)?;
            }
            return Ok(());
        }
        self.push_trace(TraceEvent::RampStart {
            from: self.ratio_to_freq(r_from),
            to: target,
        });
        self.counters.ramps += 1;
        self.mode = ProcMode::Ramping {
            ramp,
            started: self.now,
            // Saturating: a degenerate (but valid) ramp rate can make the
            // duration astronomically long; an end clamped at `Time::MAX`
            // just never settles within the horizon.
            end: self.now.saturating_add(dur),
            target,
            from: self.ratio_to_freq(ramp.r_from()),
            to: self.ratio_to_freq(ramp.r_to()),
        };
        Ok(())
    }

    fn note_idle_transition(&mut self) {
        let idle = self.active.is_none()
            && self.run_q.is_empty()
            && matches!(self.mode, ProcMode::Settled(f) if f == self.cpu.full_freq());
        if idle && !self.was_idle {
            self.push_trace(TraceEvent::IdleStart);
        }
        self.was_idle = idle;
    }

    // ----- steady-state cycle detection ---------------------------------------

    /// Takes a state snapshot at the first decision point at (or past) the
    /// detector's target instant. When the snapshot equals the previous one
    /// and the two sit exactly one hyperperiod apart, the simulation is in
    /// steady state and [`Engine::fast_forward`] jumps over every remaining
    /// whole cycle; otherwise the snapshot becomes the new reference (this
    /// also rides out start-of-run transients — offsets and phases only
    /// delay the first match, they never prevent it).
    fn steady_checkpoint(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        let Some(mut d) = self.steady.take() else {
            return Ok(());
        };
        if self.now < d.next_target {
            self.steady = Some(d);
            return Ok(());
        }
        // An opaque policy (digest `None`) disables the detector for the
        // rest of the run: leave `self.steady` empty.
        let Some(digest) = policy.steady_digest(self.now) else {
            return Ok(());
        };
        let snapshot = self.capture_snapshot(digest);
        match d.last.take() {
            Some(cp)
                if self.now.saturating_since(cp.at) == d.hyperperiod && cp.snapshot == snapshot =>
            {
                // Steady state proven. Skip every remaining whole cycle;
                // the detector is spent either way (after the jump the tail
                // is shorter than one hyperperiod).
                let k = self.horizon_end.saturating_since(self.now) / d.hyperperiod;
                if k > 0 {
                    self.fast_forward(k, d.hyperperiod, &cp.baseline, &d.tape)?;
                }
            }
            _ => {
                d.last = Some(Checkpoint {
                    at: self.now,
                    snapshot,
                    baseline: self.capture_baseline(),
                });
                d.tape.clear();
                d.next_target = self.now.saturating_add(d.hyperperiod);
                self.steady = Some(d);
            }
        }
        Ok(())
    }

    /// The complete decision-relevant state at `self.now`, with every
    /// absolute instant re-based to `self.now` (signed: a delay-queue
    /// release sits in the past after a late completion). Excludes
    /// accumulators (extrapolated instead), the power table (it only
    /// caches `state_power`), and the per-job indices (strictly growing;
    /// eligibility guarantees nothing decision-relevant reads them).
    fn capture_snapshot(&self, policy_digest: u64) -> SteadySnapshot {
        let now = self.now.as_ns() as i128;
        let rel = |t: Time| t.as_ns() as i128 - now;
        SteadySnapshot {
            run_q: self.run_q.iter().collect(),
            delay_q: self.delay_q.iter().map(|(t, r)| (t, rel(r))).collect(),
            tasks: self
                .tasks
                .iter()
                .map(|rt| TaskSnapshot {
                    pending_arrival: rel(rt.pending_arrival),
                    job: rt.job.as_ref().map(|j| JobSnapshot {
                        release: rel(j.release),
                        deadline: rel(j.deadline),
                        realized_remaining: j.realized_remaining,
                        wcet_remaining: j.wcet_remaining,
                        budget_exceeded: j.budget_exceeded,
                    }),
                })
                .collect(),
            active: self.active,
            mode: match self.mode {
                ProcMode::Settled(f) => ModeSnapshot::Settled(f),
                ProcMode::Ramping {
                    ramp,
                    started,
                    end,
                    target,
                    ..
                } => ModeSnapshot::Ramping {
                    ramp,
                    started: rel(started),
                    end: rel(end),
                    target,
                },
                ProcMode::PowerDown { wake_at, mode } => ModeSnapshot::PowerDown {
                    wake_at: rel(wake_at),
                    mode,
                },
                ProcMode::WakingUp { until } => ModeSnapshot::WakingUp { until: rel(until) },
            },
            speedup_at: self.speedup_at.map(rel),
            pd_timer: self.pd_timer.map(|(a, b)| (rel(a), rel(b))),
            pending_overhead: self.pending_overhead,
            last_dispatched: self.last_dispatched,
            was_idle: self.was_idle,
            gap_start: self.gap_start.map(rel),
            policy_digest,
        }
    }

    /// Accumulator values at the current checkpoint; the next checkpoint's
    /// values minus these are exactly one steady-state cycle's worth.
    fn capture_baseline(&self) -> CycleBaseline {
        CycleBaseline {
            meter: self.meter.clone(),
            counters: self.counters,
            responses: self.responses.clone(),
            histograms: self.histograms.clone(),
            idle_gaps: self.idle_gaps,
            misses_len: self.misses.len(),
            next_index: self.tasks.iter().map(|rt| rt.next_index).collect(),
        }
    }

    /// Jumps the simulation forward by `k` whole hyperperiods `h`:
    ///
    /// 1. extrapolates every integer accumulator by `k` copies of its
    ///    per-cycle delta, checked: an overflow is a
    ///    [`SimError::TimeOverflow`] before anything below grows;
    /// 2. adds the recorded energy tape `k` more times through
    ///    [`EnergyMeter::repeat_cycle`], with the exact bits of the full
    ///    run's additions in `O(log k)` passes;
    /// 3. appends time/index-shifted copies of the cycle's deadline
    ///    misses in chronological order;
    /// 4. shifts every absolute instant of the live state by `k * h` and
    ///    rebuilds the run queue (EDF keys embed absolute deadlines),
    ///    preserving the equal-key pop order.
    ///
    /// Afterwards the engine state equals — bit for bit — what a full
    /// simulation would hold on arriving at the shifted instant, so the
    /// caller simply continues the event loop through the residual tail.
    fn fast_forward(
        &mut self,
        k: u64,
        h: Dur,
        baseline: &CycleBaseline,
        tape: &[Charge],
    ) -> Result<(), SimError> {
        let shift = h * k;
        let overflow = |what| SimError::TimeOverflow { what };
        // Integer statistics: add k copies of the per-cycle delta.
        let events_per_cycle = self.counters.events - baseline.counters.events;
        self.counters = self
            .counters
            .extrapolate_from(&baseline.counters, k)
            .ok_or(overflow("an extrapolated event count"))?;
        for (r, b) in self.responses.iter_mut().zip(&baseline.responses) {
            *r = r
                .extrapolate_from(b, k)
                .ok_or(overflow("summed response time"))?;
        }
        for (hg, b) in self.histograms.iter_mut().zip(&baseline.histograms) {
            *hg = hg
                .extrapolate_from(b, k)
                .ok_or(overflow("an extrapolated event count"))?;
        }
        self.idle_gaps = self
            .idle_gaps
            .extrapolate_from(&baseline.idle_gaps, k)
            .ok_or(overflow("summed idle time"))?;
        self.meter
            .extrapolate_residency(&baseline.meter, k)
            .ok_or(overflow("state residency"))?;
        // Energy: the cycle's charges, k more times.
        self.meter
            .repeat_cycle(&mut self.task_energy, tape, k, &mut self.fold);
        self.segments_done = self
            .segments_done
            .saturating_add((tape.len() as u64).saturating_mul(k));
        // Deadline misses: each skipped cycle repeats the recorded cycle's
        // misses with job indices and instants shifted; appending cycle by
        // cycle preserves the report's chronological order.
        let recorded = baseline.misses_len..self.misses.len();
        if !recorded.is_empty() {
            for c in 1..=k {
                let off = h * c;
                for i in recorded.clone() {
                    let m = self.misses[i];
                    let t = m.task.0;
                    let jobs_per_cycle = self.tasks[t].next_index - baseline.next_index[t];
                    self.misses.push(DeadlineMiss {
                        task: m.task,
                        job: m.job + c * jobs_per_cycle,
                        deadline: m.deadline + off,
                        completed_at: m.completed_at.map(|t| t + off),
                    });
                }
            }
        }
        // Live state: shift every absolute instant by k hyperperiods.
        for (rt, &base) in self.tasks.iter_mut().zip(&baseline.next_index) {
            let per_cycle = rt.next_index - base;
            rt.pending_arrival += shift;
            rt.next_index += k * per_cycle;
            if let Some(job) = rt.job.as_mut() {
                job.index += k * per_cycle;
                job.release += shift;
                job.deadline += shift;
            }
        }
        self.delay_q.shift(shift);
        self.mode = match self.mode {
            ProcMode::Settled(f) => ProcMode::Settled(f),
            ProcMode::Ramping {
                ramp,
                started,
                end,
                target,
                from,
                to,
            } => ProcMode::Ramping {
                ramp,
                started: started + shift,
                end: end + shift,
                target,
                from,
                to,
            },
            ProcMode::PowerDown { wake_at, mode } => ProcMode::PowerDown {
                wake_at: wake_at + shift,
                mode,
            },
            ProcMode::WakingUp { until } => ProcMode::WakingUp {
                until: until + shift,
            },
        };
        self.speedup_at = self.speedup_at.map(|t| t + shift);
        self.pd_timer = self
            .pd_timer
            .map(|(enter, wake)| (enter + shift, wake + shift));
        self.gap_start = self.gap_start.map(|t| t + shift);
        self.now += shift;
        // Rebuild the run queue through the shifted deadlines (EDF keys
        // embed absolute time). Re-inserting in reverse iteration order —
        // least urgent first — preserves the "most recent insert pops
        // first" tie convention among equal keys.
        let order: Vec<TaskId> = self.run_q.iter().collect();
        self.run_q.clear();
        for &tid in order.iter().rev() {
            let key = self.key_of(tid)?;
            self.run_q.insert(tid, key);
        }
        self.ff_stats.cycles_detected = k;
        self.ff_stats.events_skipped = events_per_cycle * k;
        Ok(())
    }

    // ----- finishing ----------------------------------------------------------

    fn record_unfinished_misses(&mut self) {
        let active = self.active;
        let overhead = self.pending_overhead;
        for (i, rt) in self.tasks.iter().enumerate() {
            if let Some(job) = rt.job {
                // A job whose work retired exactly at the horizon boundary
                // has effectively completed there; the loop just exited
                // before its completion event was processed. Judged under
                // the single convention documented on `DeadlineMiss`:
                // completing at the deadline is on time, so a boundary
                // completion misses only a strictly earlier deadline, and
                // an unfinished job misses any deadline at or before the
                // horizon end.
                let done_at_boundary = active == Some(TaskId(i))
                    && job.realized_remaining.is_zero()
                    && overhead.is_zero();
                let completed_at = done_at_boundary.then_some(self.horizon_end);
                let missed = match completed_at {
                    Some(t) => job.deadline < t,
                    None => job.deadline <= self.horizon_end,
                };
                if missed {
                    self.misses.push(DeadlineMiss {
                        task: TaskId(i),
                        job: job.index,
                        deadline: job.deadline,
                        completed_at,
                    });
                }
            }
        }
    }

    fn push_trace(&mut self, event: TraceEvent) {
        // The probe tap: `P::ACTIVE` is an associated constant, so for
        // `NoProbe` this whole body is compile-time dead.
        if P::ACTIVE {
            self.probe.on_event(self.now, &event);
        }
    }

    /// Hands the recycled buffers and the detector statistics back to the
    /// workspace — after failed runs too, so a failed cell leaks nothing.
    fn restore_workspace(&mut self, ws: &mut SimWorkspace) {
        D::restore_run_queue(ws, std::mem::take(&mut self.run_q));
        ws.delay_q = std::mem::take(&mut self.delay_q);
        ws.tasks = std::mem::take(&mut self.tasks);
        ws.wcet_cycles = std::mem::take(&mut self.wcet_cycles);
        ws.due_scratch = std::mem::take(&mut self.due_scratch);
        ws.power_table = std::mem::take(&mut self.power_table);
        ws.draws = std::mem::take(&mut self.draws);
        ws.fold = std::mem::take(&mut self.fold);
        ws.ff_stats = self.ff_stats;
    }

    fn into_report(self, policy_name: &str) -> SimReport {
        SimReport {
            policy: policy_name.to_string(),
            discipline: D::NAME,
            taskset: self.ts.name().to_string(),
            horizon: self.cfg.horizon,
            energy: self.meter,
            misses: self.misses,
            responses: self.responses,
            counters: self.counters,
            idle_gaps: self.idle_gaps,
            task_energy: self.task_energy,
            histograms: self.histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::FixedPriority;
    use crate::policy::AlwaysFullSpeed;
    use crate::trace::Trace;
    use lpfps_cpu::state::StateKind;
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

    /// Shadows [`super::simulate`] with an unwrapping wrapper: every test
    /// in this module runs valid inputs, where the `Result` surface is
    /// infallible by construction. Error-path tests call
    /// `super::simulate` explicitly.
    fn simulate(
        ts: &TaskSet,
        cpu: &CpuSpec,
        policy: &mut dyn PowerPolicy,
        exec: &dyn ExecModel,
        cfg: &SimConfig,
    ) -> SimReport {
        super::simulate(ts, cpu, policy, exec, cfg).unwrap()
    }

    /// [`simulate`] with a [`Trace`] probe attached and full simulation
    /// forced, so the trace holds every event of the run.
    fn simulate_traced(
        ts: &TaskSet,
        policy: &mut dyn PowerPolicy,
        cfg: SimConfig,
    ) -> (SimReport, Trace) {
        let cfg = cfg.with_force_full_simulation();
        let (cpu, mut ws, mut trace) = (CpuSpec::arm8(), SimWorkspace::new(), Trace::new());
        let report = super::simulate_in(ts, &cpu, policy, &AlwaysWcet, &cfg, &mut ws, &mut trace);
        (report.unwrap(), trace)
    }

    fn run_fps(ts: &TaskSet, horizon: Dur) -> SimReport {
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(horizon);
        simulate(ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg)
    }

    fn trace_fps(ts: &TaskSet, horizon: Dur) -> (SimReport, Trace) {
        simulate_traced(ts, &mut AlwaysFullSpeed, SimConfig::new(horizon))
    }

    /// The canonical Figure 2(a) check: with every task at its WCET, the
    /// schedule over one hyperperiod (400 us) follows the paper exactly.
    #[test]
    fn figure2a_schedule_under_fps() {
        let (report, trace) = trace_fps(&table1(), Dur::from_us(400));
        assert!(report.all_deadlines_met());

        let completions: Vec<(u64, usize, u64)> = trace
            .iter()
            .filter_map(|(t, e)| match e {
                TraceEvent::Complete { task, job, .. } => Some((t.as_us(), task.0, job)),
                _ => None,
            })
            .collect();
        // Figure 2(a): tau1 completes at 10, 60, 110, ...; tau2 at 30, 100,
        // and (third job, released 160, running flat out) 180; tau3 at 80
        // and 150. (The paper's figure shows the 160-release stretching to
        // 200 only under LPFPS at half speed.)
        assert!(completions.contains(&(10, 0, 0)));
        assert!(completions.contains(&(30, 1, 0)));
        assert!(completions.contains(&(80, 2, 0)));
        assert!(completions.contains(&(60, 0, 1)));
        assert!(completions.contains(&(100, 1, 1)));
        assert!(completions.contains(&(150, 2, 1)));
        assert!(completions.contains(&(180, 1, 2)));
    }

    #[test]
    fn figure2a_preemption_at_t50() {
        // At t=50 the second tau1 release preempts tau3 (paper Example 1).
        let (_, trace) = trace_fps(&table1(), Dur::from_us(100));
        let preempt = trace
            .find(|e| {
                matches!(
                    e,
                    TraceEvent::Preempt {
                        task: TaskId(2),
                        by: TaskId(0)
                    }
                )
            })
            .expect("tau3 preempted by tau1");
        assert_eq!(preempt.0, Time::from_us(50));
    }

    #[test]
    fn fps_idles_in_nop_loop() {
        // Table 1 at WCET has 15% idle (U = 0.85): FPS burns it in the NOP
        // loop, so average power = 0.85 * 1.0 + 0.15 * 0.2 = 0.88.
        let report = run_fps(&table1(), Dur::from_us(400));
        let idle_frac = report.residency_fraction(StateKind::IdleNop);
        assert!((idle_frac - 0.15).abs() < 1e-6, "idle fraction {idle_frac}");
        assert!((report.average_power() - 0.88).abs() < 1e-6);
        assert_eq!(report.counters.power_downs, 0);
        assert_eq!(report.counters.ramps, 0);
    }

    #[test]
    fn counters_match_hyperperiod_job_math() {
        // One hyperperiod (400 us): 8 + 5 + 4 = 17 releases; all complete.
        let report = run_fps(&table1(), Dur::from_us(400));
        assert_eq!(report.counters.releases, 17);
        assert_eq!(report.counters.completions, 17);
    }

    #[test]
    fn responses_match_rta_bounds() {
        use lpfps_tasks::analysis::{response_times, RtaConfig};
        let ts = table1();
        let report = run_fps(&ts, Dur::from_ms(4));
        let rta = response_times(&ts, &RtaConfig::default());
        for (i, stats) in report.responses.iter().enumerate() {
            let bound = rta[i].response().expect("schedulable");
            assert!(
                stats.max_response <= bound,
                "task {i}: observed {} > RTA bound {}",
                stats.max_response,
                bound
            );
        }
        // The synchronous release at t=0 is the critical instant, so the
        // worst case is actually attained.
        assert_eq!(report.responses[2].max_response, Dur::from_us(80));
    }

    #[test]
    fn overutilized_set_reports_misses() {
        let ts = TaskSet::rate_monotonic(
            "over",
            vec![
                Task::new("a", Dur::from_us(10), Dur::from_us(6)),
                Task::new("b", Dur::from_us(20), Dur::from_us(12)),
            ],
        );
        let report = run_fps(&ts, Dur::from_us(200));
        assert!(!report.all_deadlines_met());
        assert!(!report.misses.is_empty());
    }

    #[test]
    fn single_task_alternates_run_and_idle() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let report = run_fps(&ts, Dur::from_ms(1));
        assert!(report.all_deadlines_met());
        assert!((report.residency_fraction(StateKind::Busy) - 0.25).abs() < 1e-6);
        assert!((report.residency_fraction(StateKind::IdleNop) - 0.75).abs() < 1e-6);
        // avg power = 0.25*1 + 0.75*0.2 = 0.4.
        assert!((report.average_power() - 0.4).abs() < 1e-6);
    }

    /// A hand-written test policy that powers down whenever the kernel is
    /// idle — exercising the PowerDown directive path without depending on
    /// the `lpfps` crate (which implements the real policies).
    #[derive(Debug)]
    struct PowerDownWhenIdle;

    impl crate::policy::PolicyCore for PowerDownWhenIdle {
        fn name(&self) -> &'static str {
            "test-pd"
        }
    }

    impl PowerPolicy for PowerDownWhenIdle {
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
            if ctx.active.is_none() && ctx.run_queue.is_empty() {
                if let Some(head) = ctx.next_arrival() {
                    let wake = head.saturating_sub(ctx.cpu.wakeup_delay());
                    if wake > ctx.now {
                        return PowerDirective::PowerDown {
                            wake_at: wake,
                            mode: 0,
                        };
                    }
                }
            }
            PowerDirective::FullSpeed
        }
    }

    #[test]
    fn power_down_policy_sleeps_through_idle() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(1));
        let report = simulate(&ts, &cpu, &mut PowerDownWhenIdle, &AlwaysWcet, &cfg);
        assert!(report.all_deadlines_met());
        assert_eq!(report.counters.power_downs, 10);
        // Idle burns at 5% instead of 20%: avg ~ 0.25*1 + 0.75*0.05 = 0.2875
        // (plus negligible wake-up energy).
        let p = report.average_power();
        assert!((p - 0.2875).abs() < 0.001, "avg power {p}");
        // And it must still beat plain FPS.
        let fps = run_fps(&ts, Dur::from_ms(1));
        assert!(p < fps.average_power());
    }

    /// A test policy that halves the clock whenever only the active task
    /// remains, exercising the SlowDown directive and the speed-up timer.
    #[derive(Debug)]
    struct HalfSpeedWhenAlone;

    impl crate::policy::PolicyCore for HalfSpeedWhenAlone {
        fn name(&self) -> &'static str {
            "test-slow"
        }
    }

    impl PowerPolicy for HalfSpeedWhenAlone {
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
            let Some(_active) = ctx.active else {
                return PowerDirective::FullSpeed;
            };
            if !ctx.run_queue.is_empty() {
                return PowerDirective::FullSpeed;
            }
            let Some(bound) = ctx.safe_completion_bound() else {
                return PowerDirective::FullSpeed;
            };
            let freq = Freq::from_mhz(50);
            let ramp_back = ctx.cpu.ramp_duration(freq, ctx.cpu.full_freq());
            let speedup_at = bound.saturating_sub(ramp_back);
            PowerDirective::SlowDown { freq, speedup_at }
        }
    }

    #[test]
    fn slow_down_policy_keeps_deadlines_and_saves_energy() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(1));
        let report = simulate(&ts, &cpu, &mut HalfSpeedWhenAlone, &AlwaysWcet, &cfg);
        assert!(report.all_deadlines_met(), "misses: {:?}", report.misses);
        assert!(report.counters.ramps > 0);
        let fps = run_fps(&ts, Dur::from_ms(1));
        assert!(report.average_power() < fps.average_power());
    }

    #[test]
    fn determinism_same_seed_same_report() {
        use lpfps_tasks::exec::PaperGaussian;
        let ts = table1().with_bcet_fraction(0.3);
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(10)).with_seed(42);
        let a = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &PaperGaussian, &cfg);
        let b = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &PaperGaussian, &cfg);
        assert_eq!(a.energy.total_energy(), b.energy.total_energy());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.responses, b.responses);
    }

    #[test]
    fn different_seeds_differ() {
        use lpfps_tasks::exec::PaperGaussian;
        let ts = table1().with_bcet_fraction(0.3);
        let cpu = CpuSpec::arm8();
        let a = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &PaperGaussian,
            &SimConfig::new(Dur::from_ms(10)).with_seed(1),
        );
        let b = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &PaperGaussian,
            &SimConfig::new(Dur::from_ms(10)).with_seed(2),
        );
        assert_ne!(a.energy.total_energy(), b.energy.total_energy());
    }

    #[test]
    fn context_switch_overhead_extends_busy_time() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let plain = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_us(400)),
        );
        let loaded = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_us(400)).with_context_switch(Dur::from_us(1)),
        );
        assert!(
            loaded.energy.bucket(StateKind::Busy).residency
                > plain.energy.bucket(StateKind::Busy).residency
        );
        // Still schedulable with 1 us switches? tau3 was tight; overhead can
        // push it over. Either way the run must complete without panicking
        // and account every nanosecond.
        assert_eq!(loaded.energy.total_residency(), Dur::from_us(400));
    }

    #[test]
    fn phase_offsets_shift_first_releases() {
        let ts = TaskSet::rate_monotonic(
            "phased",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(10)).with_phase(Dur::from_us(30)),
                Task::new("b", Dur::from_us(200), Dur::from_us(10)),
            ],
        );
        let (report, trace) = trace_fps(&ts, Dur::from_us(300));
        let first_a = trace
            .find(|e| {
                matches!(
                    e,
                    TraceEvent::Release {
                        task: TaskId(0),
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(first_a.0, Time::from_us(30));
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn idle_gaps_partition_the_schedule() {
        // Table 1 at WCET over one hyperperiod: idle intervals are
        // [80..100)? No - at 80 tau2's second job runs. Figure 2(a) shows
        // idle at [180..200), [260..300), [340..350), [360..400):
        // 20 + 40 + 10 + 40 = 110us... minus what tau2#3 (released 240)
        // and friends consume. Instead of hand-deriving, assert the
        // accounting identity: gap total == horizon - time with runnable
        // work, which for FPS at WCET equals the NOP-idle residency.
        let report = run_fps(&table1(), Dur::from_us(400));
        assert_eq!(
            report.idle_gaps.total(),
            report.energy.bucket(StateKind::IdleNop).residency
        );
        assert!(report.idle_gaps.count() >= 2);
    }

    #[test]
    fn task_energy_attribution_sums_to_busy_energy() {
        let report = run_fps(&table1(), Dur::from_us(400));
        let attributed: f64 = report.task_energy.iter().sum();
        let busy = report.energy.bucket(StateKind::Busy).energy
            + report.energy.bucket(StateKind::Ramping).energy;
        assert!((attributed - busy).abs() < 1e-12, "{attributed} != {busy}");
        // At WCET, task energy is proportional to utilization share.
        let total: f64 = report.task_energy.iter().sum();
        assert!((report.task_energy[2] / total - 0.16 / 0.34).abs() < 0.01);
    }

    #[test]
    fn tick_driven_kernel_delays_release_notice() {
        // Task phased to release at t = 30us with a 100us tick: the kernel
        // notices it at t = 100us, but responses count from t = 30us.
        let ts = TaskSet::rate_monotonic(
            "ticked",
            vec![Task::new("t", Dur::from_us(1_000), Dur::from_us(10)).with_phase(Dur::from_us(30))],
        );
        let cfg = SimConfig::new(Dur::from_ms(1)).with_tick(Dur::from_us(100));
        let (report, trace) = simulate_traced(&ts, &mut AlwaysFullSpeed, cfg);
        let (t, _) = trace
            .find(|e| matches!(e, TraceEvent::Release { .. }))
            .unwrap();
        assert_eq!(t, Time::from_us(100), "noticed at the tick boundary");
        // Response = notice delay (70us) + execution (10us) = 80us.
        assert_eq!(report.responses[0].max_response, Dur::from_us(80));
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn tick_jitter_agrees_with_jitter_aware_rta() {
        use lpfps_tasks::analysis::{response_times, RtaConfig, RtaOutcome};
        let cpu = CpuSpec::arm8();
        let tick = Dur::from_us(7); // off-beat vs every period below

        // (a) Table 1 has zero slack: jitter-RTA rejects tau3, and the
        // tick-driven simulation indeed misses exactly that task.
        let tight = table1();
        let rta = response_times(&tight, &RtaConfig::default().with_release_jitter(tick));
        assert_eq!(rta[2], RtaOutcome::Unschedulable);
        let report = simulate(
            &tight,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(8)).with_tick(tick),
        );
        assert!(report.misses.iter().all(|m| m.task == TaskId(2)));
        assert!(!report.misses.is_empty());

        // (b) A set with slack: jitter-RTA admits every task and its bounds
        // dominate the tick-driven simulation.
        let slack = TaskSet::rate_monotonic(
            "slacked",
            vec![
                Task::new("a", Dur::from_us(50), Dur::from_us(8)),
                Task::new("b", Dur::from_us(80), Dur::from_us(16)),
                Task::new("c", Dur::from_us(100), Dur::from_us(30)),
            ],
        );
        let rta = response_times(&slack, &RtaConfig::default().with_release_jitter(tick));
        let report = simulate(
            &slack,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(8)).with_tick(tick),
        );
        assert!(report.all_deadlines_met(), "misses: {:?}", report.misses);
        for (i, stats) in report.responses.iter().enumerate() {
            let bound = rta[i].response().expect("admitted with jitter");
            assert!(
                stats.max_response <= bound,
                "task {i}: {} > jitter-RTA bound {}",
                stats.max_response,
                bound
            );
        }
    }

    #[test]
    fn tick_aligned_releases_match_event_driven_kernel() {
        // When every period is a multiple of the tick, quantization is the
        // identity and the two kernels behave identically.
        let ts = table1(); // periods 50/80/100us, tick 10us divides all
        let cpu = CpuSpec::arm8();
        let event = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_us(400)),
        );
        let ticked = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_us(400)).with_tick(Dur::from_us(10)),
        );
        assert_eq!(event.responses, ticked.responses);
        assert_eq!(event.energy.total_energy(), ticked.energy.total_energy());
    }

    // ----- horizon boundary convention (see `DeadlineMiss` docs) ----------

    #[test]
    fn deadline_exactly_at_horizon_met_when_work_retires_at_boundary() {
        // U = 1.0: the job's 100 us of work retires exactly at the 100 us
        // horizon, where its deadline also lies. Completing *at* the
        // deadline is on time, so this must not be recorded as a miss.
        let ts = TaskSet::rate_monotonic(
            "boundary",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(100))],
        );
        let report = run_fps(&ts, Dur::from_us(100));
        assert!(
            report.all_deadlines_met(),
            "boundary completion misreported: {:?}",
            report.misses
        );
    }

    #[test]
    fn deadline_exactly_at_horizon_missed_when_work_remains() {
        // U = 1.2: task b cannot finish its first job by t = 100 us, where
        // both its deadline and the horizon lie. The deadline has passed
        // without completion, so the miss must be recorded even though the
        // completion event itself lies beyond the simulated window.
        let ts = TaskSet::rate_monotonic(
            "boundary-miss",
            vec![
                Task::new("a", Dur::from_us(50), Dur::from_us(30)),
                Task::new("b", Dur::from_us(100), Dur::from_us(60)),
            ],
        );
        let report = run_fps(&ts, Dur::from_us(100));
        let miss = report
            .misses
            .iter()
            .find(|m| m.task == TaskId(1))
            .expect("task b's first job must miss at the horizon");
        assert_eq!(miss.deadline, Time::from_us(100));
        assert_eq!(miss.completed_at, None);
    }

    // ----- fault injection and the watchdog -------------------------------

    use lpfps_faults::{FaultConfig, OverrunFault, RampDegradation, ReleaseJitter, WakeupJitter};

    #[test]
    fn fault_free_runs_report_no_faults() {
        // Across all three directive paths (full speed, power-down,
        // slow-down) the idealized model never trips the watchdog.
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_ms(1));
        let policies: [&mut dyn PowerPolicy; 3] = [
            &mut AlwaysFullSpeed,
            &mut PowerDownWhenIdle,
            &mut HalfSpeedWhenAlone,
        ];
        for policy in policies {
            let report = simulate(&ts, &cpu, policy, &AlwaysWcet, &cfg);
            assert_eq!(report.counters.overruns, 0, "{}", report.policy);
            assert_eq!(report.counters.watchdog_faults, 0, "{}", report.policy);
            assert_eq!(report.counters.degradations, 0, "{}", report.policy);
        }
    }

    #[test]
    fn overrun_faults_inject_and_budget_watchdog_detects() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none()
            .with_seed(7)
            .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3));
        let cfg = SimConfig::new(Dur::from_ms(4))
            .with_seed(3)
            .with_faults(faults);
        let report = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg);
        assert!(report.counters.overruns > 0, "no overruns fired");
        assert!(report.counters.watchdog_faults > 0, "watchdog silent");
        // At full speed the only detectable fault is a budget overrun, and
        // each overrunning job fires at most once.
        assert!(report.counters.watchdog_faults <= report.counters.overruns);
        // The default policy ignores faults.
        assert_eq!(report.counters.degradations, 0);
    }

    #[test]
    fn overrun_injection_is_deterministic() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none()
            .with_seed(11)
            .with_overrun(OverrunFault::unbounded(0.3, 0.2));
        let cfg = SimConfig::new(Dur::from_ms(4))
            .with_seed(5)
            .with_faults(faults);
        let a = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg);
        let b = simulate(&ts, &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.energy.total_energy(), b.energy.total_energy());
        assert_eq!(a.misses, b.misses);
    }

    #[test]
    fn wakeup_jitter_trips_the_timing_watchdog() {
        // The policy wakes exactly `wakeup_delay` before the next release;
        // any extra latency means the release catches the processor still
        // waking up — a timing violation, but not (here) a deadline miss.
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none()
            .with_seed(9)
            .with_wakeup_jitter(WakeupJitter::uniform(Dur::from_us(5)));
        let cfg = SimConfig::new(Dur::from_ms(1)).with_faults(faults);
        let report = simulate(&ts, &cpu, &mut PowerDownWhenIdle, &AlwaysWcet, &cfg);
        assert!(report.counters.power_downs > 0);
        assert!(
            report.counters.watchdog_faults > 0,
            "late wake-ups must be caught"
        );
        // 5 us of start latency against 75 us of slack: still on time.
        assert!(report.all_deadlines_met(), "misses: {:?}", report.misses);
    }

    /// A set where the slowed low-priority task is still running when the
    /// speed-up timer fires, so the up-ramp back to full is on the critical
    /// path to the next release — exactly where ramp degradation bites.
    fn ramp_critical_set() -> TaskSet {
        TaskSet::rate_monotonic(
            "ramp-critical",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(10)),
                Task::new("b", Dur::from_us(400), Dur::from_us(150)),
            ],
        )
    }

    #[test]
    fn ramp_degradation_slows_transitions_and_is_detected() {
        // At half the nominal ramp rate, the up-ramp the policy planned to
        // finish exactly at the next release is still in flight when the
        // release pops.
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none().with_ramp_degradation(RampDegradation::constant(0.5));
        let cfg = SimConfig::new(Dur::from_ms(1)).with_faults(faults);
        let report = simulate(
            &ramp_critical_set(),
            &cpu,
            &mut HalfSpeedWhenAlone,
            &AlwaysWcet,
            &cfg,
        );
        assert!(report.counters.ramps > 0);
        assert!(
            report.counters.watchdog_faults > 0,
            "degraded ramps must be caught oversleeping"
        );
    }

    #[test]
    fn release_jitter_delays_notice_but_not_deadlines() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let clean = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(1)),
        );
        let faults = FaultConfig::none()
            .with_seed(13)
            .with_release_jitter(ReleaseJitter::uniform(Dur::from_us(10)));
        let jittered = simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(1)).with_faults(faults),
        );
        // Responses are measured from the true arrival, so delayed notice
        // inflates them; 10 us of jitter against 75 us of slack stays safe.
        assert!(jittered.responses[0].max_response > clean.responses[0].max_response);
        assert!(jittered.all_deadlines_met());
    }

    /// A policy that degrades on faults: full speed (no power management)
    /// for a cooldown after every watchdog report — the kernel-level test
    /// double for the real `lpfps-wd` policy in the `lpfps` crate.
    struct DegradeOnFault {
        inner: HalfSpeedWhenAlone,
        degraded_until: Option<Time>,
    }

    impl crate::policy::PolicyCore for DegradeOnFault {
        fn name(&self) -> &'static str {
            "test-degrade"
        }
        fn on_fault(&mut self, event: &FaultEvent) -> bool {
            self.degraded_until = Some(event.time() + Dur::from_us(500));
            true
        }
    }

    impl PowerPolicy for DegradeOnFault {
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
            if self.degraded_until.is_some_and(|t| ctx.now < t) {
                return PowerDirective::FullSpeed;
            }
            self.degraded_until = None;
            self.inner.decide(ctx)
        }
    }

    #[test]
    fn degrading_policy_counts_degradations_and_recovers() {
        let ts = ramp_critical_set();
        let cpu = CpuSpec::arm8();
        let faults = FaultConfig::none().with_ramp_degradation(RampDegradation::constant(0.5));
        let cfg = SimConfig::new(Dur::from_ms(5)).with_faults(faults);
        let mut policy = DegradeOnFault {
            inner: HalfSpeedWhenAlone,
            degraded_until: None,
        };
        let report = simulate(&ts, &cpu, &mut policy, &AlwaysWcet, &cfg);
        assert!(report.counters.degradations > 0);
        assert_eq!(
            report.counters.degradations,
            report.counters.watchdog_faults
        );
        // The cooldown (500 us) is shorter than the horizon (5 ms), so the
        // policy resumes slowing down and gets caught again: more than one
        // degradation episode, yet still more ramps than faults.
        assert!(report.counters.degradations > 1);
        assert!(report.all_deadlines_met(), "misses: {:?}", report.misses);
    }

    #[test]
    fn zero_horizon_rejected() {
        let cpu = CpuSpec::arm8();
        let err = super::simulate(
            &table1(),
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::ZERO),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-config");
        assert!(
            err.to_string().contains("horizon must be positive"),
            "message was: {err}"
        );
    }

    #[test]
    fn oversized_horizon_is_a_time_overflow() {
        use lpfps_tasks::error::MAX_TIME_PARAM;
        let cpu = CpuSpec::arm8();
        let err = super::simulate(
            &table1(),
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ns(MAX_TIME_PARAM.as_ns() + 1)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "time-overflow");
        // And the largest admissible horizon must still run (the engine's
        // internal arithmetic is overflow-free right up to the bound).
        let ts = TaskSet::rate_monotonic(
            "huge",
            vec![Task::new(
                "t",
                Dur::from_ns(MAX_TIME_PARAM.as_ns()),
                Dur::from_us(1),
            )],
        );
        let report = super::simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(MAX_TIME_PARAM),
        )
        .unwrap();
        assert_eq!(report.counters.releases, 1);
    }

    #[test]
    fn deserialized_malformed_task_set_is_rejected_not_aborted() {
        // Serde bypasses the panicking constructors: a zero-period task
        // can exist in memory. The boundary validation must catch it.
        let json = serde_json::to_string(&table1()).unwrap();
        let doctored = json.replace("\"period\":50000", "\"period\":0");
        assert_ne!(json, doctored);
        let ts: TaskSet = serde_json::from_str(&doctored).unwrap();
        let cpu = CpuSpec::arm8();
        let err = super::simulate(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_us(400)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-task-set");
        assert!(err.to_string().contains("period must be positive"));
    }

    #[test]
    fn event_budget_cuts_off_with_partial_progress() {
        use crate::error::SimError;
        let cfg = SimConfig::new(Dur::from_ms(10)).with_max_events(50);
        let cpu = CpuSpec::arm8();
        let err =
            super::simulate(&table1(), &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg).unwrap_err();
        let SimError::BudgetExhausted { limit, diagnostic } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        assert_eq!(limit, 50);
        assert_eq!(diagnostic.events, 51);
        assert!(diagnostic.sim_time > Time::ZERO);
        assert!(diagnostic.completions > 0, "made no progress at all?");
        // A budget at least as large as the run's demand never trips.
        let full = SimConfig::new(Dur::from_ms(10)).with_max_events(1_000_000);
        let report =
            super::simulate(&table1(), &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &full).unwrap();
        assert!(report.all_deadlines_met());
    }

    #[test]
    fn summed_response_overflow_is_a_typed_error() {
        // Under a tick of MAX_TIME_PARAM / 16 every release after the
        // first waits for the next tick, so each response is about a
        // tick long and a few dozen of them pass `u64` nanoseconds.
        let mut cfg = SimConfig::new(MAX_TIME_PARAM);
        cfg.tick = Some(MAX_TIME_PARAM / 16);
        let cpu = CpuSpec::arm8();
        let err =
            super::simulate(&table1(), &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &cfg).unwrap_err();
        assert_eq!(
            err,
            SimError::TimeOverflow {
                what: "summed response time"
            }
        );
    }

    #[test]
    fn budgeted_run_that_finishes_is_byte_identical_to_unbudgeted() {
        // Budgets are cooperative cut-offs, not behavior: a run that fits
        // its budget must produce exactly the report of an unbounded run.
        let cpu = CpuSpec::arm8();
        let plain = SimConfig::new(Dur::from_us(400));
        let budgeted = SimConfig::new(Dur::from_us(400)).with_max_events(1_000_000);
        let a = simulate(&table1(), &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &plain);
        let b = simulate(
            &table1(),
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &budgeted,
        );
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.energy.total_energy(), b.energy.total_energy());
    }

    /// A deliberately broken policy: powers down with a wake timer that
    /// lands after the next release (minus its wake-up latency).
    #[derive(Debug)]
    struct OversleepingPolicy;

    impl crate::policy::PolicyCore for OversleepingPolicy {
        fn name(&self) -> &'static str {
            "test-oversleep"
        }
    }

    impl PowerPolicy for OversleepingPolicy {
        fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
            if ctx.active.is_none() && ctx.run_queue.is_empty() {
                if let Some(head) = ctx.next_arrival() {
                    return PowerDirective::PowerDown {
                        wake_at: head, // too late: wake-up latency overshoots
                        mode: 0,
                    };
                }
            }
            PowerDirective::FullSpeed
        }
    }

    #[test]
    fn illegal_directive_is_a_typed_error_not_a_panic() {
        let ts = TaskSet::rate_monotonic(
            "solo",
            vec![Task::new("t", Dur::from_us(100), Dur::from_us(25))],
        );
        let cpu = CpuSpec::arm8();
        let err = super::simulate(
            &ts,
            &cpu,
            &mut OversleepingPolicy,
            &AlwaysWcet,
            &SimConfig::new(Dur::from_ms(1)),
        )
        .unwrap_err();
        assert_eq!(err.kind(), "invalid-directive");
        assert!(err.to_string().contains("awake before the next release"));
    }

    #[test]
    fn workspace_survives_a_failing_run() {
        // The buffers must come back to the workspace on the error path:
        // a valid run through the same workspace afterwards matches a
        // fresh-workspace run exactly.
        let cpu = CpuSpec::arm8();
        let mut ws = SimWorkspace::new();
        let bad = SimConfig::new(Dur::from_ms(10)).with_max_events(10);
        let err = simulate_in::<FixedPriority, _>(
            &table1(),
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &bad,
            &mut ws,
            &mut NoProbe,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "budget-exhausted");
        let good = SimConfig::new(Dur::from_us(400));
        let reused = simulate_in::<FixedPriority, _>(
            &table1(),
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &good,
            &mut ws,
            &mut NoProbe,
        )
        .unwrap();
        let fresh = simulate(&table1(), &cpu, &mut AlwaysFullSpeed, &AlwaysWcet, &good);
        assert_eq!(reused.counters, fresh.counters);
        assert_eq!(reused.responses, fresh.responses);
        assert_eq!(reused.energy.total_energy(), fresh.energy.total_energy());
    }
}
