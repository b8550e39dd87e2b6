//! The naive reference simulator: a direct transcription of the paper's
//! Figure 4 pseudo-code onto the shared processor model.
//!
//! This is the half of the differential oracle that re-implements the
//! kernel. It consumes the exact same inputs ([`TaskSet`], [`CpuSpec`],
//! [`PowerPolicy`], [`ExecModel`], [`SimConfig`]) and emits the exact
//! same [`SimReport`], but deliberately refuses every optimization the
//! engine carries:
//!
//! * **no power table** — `CpuSpec::state_power` runs on every advance;
//!   the engine serves a busy or ramp state it has met before under the
//!   same power model from a per-workspace table, skipping the `V²f`
//!   evaluation or the Simpson quadrature;
//! * **no workspace reuse** — every run allocates fresh buffers;
//! * **naive queues** — an insertion-ordered `Vec` scanned linearly and a
//!   `BTreeSet`, not the kernel's sorted vectors (see `crate::queues`).
//!
//! Everything *semantic* is kept identical on purpose: the decision-point
//! loop, the handler order within a decision point (ramp settle, wake,
//! releases L5–L7, completion, budget watchdog, speed-up timer, timeout
//! shutdown), the L1–L4 raise-to-max rule, the L8–L11 dispatch/preempt
//! pass, and the integer-exact time/cycle arithmetic. Because `f64`
//! enters only through the same pure functions applied to the same
//! segment sequence in the same order, a correct engine must match this
//! simulator *bit for bit* — which is exactly what the differential
//! harness asserts.

use crate::queues::{NaiveDelayQueue, NaiveRunQueue};
use lpfps_cpu::error::validate_cpu_spec;
use lpfps_cpu::ramp::Ramp;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::CpuState;
use lpfps_cpu::EnergyMeter;
use lpfps_kernel::discipline::Discipline;
use lpfps_kernel::engine::{validate_sim_config, SimConfig};
use lpfps_kernel::error::{PartialDiagnostic, SimError};
use lpfps_kernel::policy::{ActiveView, FaultEvent, PowerDirective, PowerPolicy, SchedulerContext};
use lpfps_kernel::probe::Probe;
use lpfps_kernel::report::{Counters, DeadlineMiss, ResponseStats, SimReport};
use lpfps_kernel::stats::{IntervalStats, ResponseHistogram};
use lpfps_kernel::trace::TraceEvent;
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::error::validate_task_set;
use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};

/// One live (released, unfinished) job.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    index: u64,
    release: Time,
    deadline: Time,
    realized_remaining: Cycles,
    wcet_remaining: Cycles,
    budget_exceeded: bool,
}

/// Per-task runtime bookkeeping.
#[derive(Debug, Clone, Copy)]
struct TaskRt {
    pending_arrival: Time,
    next_index: u64,
    job: Option<LiveJob>,
}

/// Processor operating mode between decision points.
#[derive(Debug, Clone, Copy)]
enum ProcMode {
    Settled(Freq),
    Ramping {
        ramp: Ramp,
        started: Time,
        end: Time,
        target: Freq,
    },
    PowerDown {
        wake_at: Time,
        mode: usize,
    },
    WakingUp {
        until: Time,
    },
}

struct Oracle<'a, D: Discipline, P: Probe> {
    ts: &'a TaskSet,
    probe: &'a mut P,
    cpu: &'a CpuSpec,
    exec: &'a dyn ExecModel,
    cfg: &'a SimConfig,
    now: Time,
    horizon_end: Time,
    run_q: NaiveRunQueue<D::Key>,
    delay_q: NaiveDelayQueue,
    tasks: Vec<TaskRt>,
    wcet_cycles: Vec<Cycles>,
    active: Option<TaskId>,
    mode: ProcMode,
    speedup_at: Option<Time>,
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
    /// Energy segments integrated so far, for the partial diagnostic —
    /// mirroring the engine's (and, like it, kept out of the serialized
    /// [`Counters`]).
    segments_done: u64,
}

/// Rounds an arrival up to the next tick boundary (identity for
/// event-driven kernels).
fn quantize_to_tick(arrival: Time, tick: Option<Dur>) -> Time {
    match tick {
        None => arrival,
        Some(t) => {
            let ticks = arrival.as_ns().div_ceil(t.as_ns());
            Time::from_ns(ticks.saturating_mul(t.as_ns()))
        }
    }
}

/// When the kernel notices the release of job `job_index` of `tid`.
fn noticed_release(cfg: &SimConfig, tid: TaskId, job_index: u64, arrival: Time) -> Time {
    let jittered = match &cfg.faults.release_jitter {
        // Jitter is policy-shaped, not validated: saturate to the "never"
        // sentinel rather than wrap (mirrors the engine).
        Some(j) => arrival.saturating_add(j.delay(cfg.seed, cfg.faults.seed, tid.0, job_index)),
        None => arrival,
    };
    quantize_to_tick(jittered, cfg.tick)
}

/// Runs one reference simulation of `ts` on `cpu` under `policy` and
/// dispatch discipline `D`, with a [`Probe`] receiving every event — the
/// reference counterpart of [`lpfps_kernel::engine::simulate_in`]. The
/// oracle never fast-forwards, so a
/// [`Trace`](lpfps_kernel::trace::Trace) probe always records the
/// complete run.
///
/// Same contract as the engine: malformed inputs, an exhausted event
/// budget, and illegal policy directives surface as the *same* typed
/// [`SimError`] the engine returns (the validators are shared, so error
/// paths stay diffable field for field); deadline misses are recorded,
/// not fatal. On
/// success the report must equal the engine's field for field (see the
/// differential tests).
///
/// # Errors
///
/// As [`lpfps_kernel::engine::simulate_in`].
pub fn oracle_simulate_for<D: Discipline, P: Probe>(
    ts: &TaskSet,
    cpu: &CpuSpec,
    policy: &mut dyn PowerPolicy<D>,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    probe: &mut P,
) -> Result<SimReport, SimError> {
    // Same validators in the same order as `simulate_in`, so a rejected
    // input rejects identically on both sides of the diff.
    validate_sim_config(cfg)?;
    validate_task_set(ts)?;
    validate_cpu_spec(cpu)?;
    let mut oracle = Oracle::<D, P>::new(ts, cpu, exec, cfg, probe);
    oracle.run(policy)?;
    Ok(oracle.into_report(policy.name()))
}

impl<'a, D: Discipline, P: Probe> Oracle<'a, D, P> {
    fn new(
        ts: &'a TaskSet,
        cpu: &'a CpuSpec,
        exec: &'a dyn ExecModel,
        cfg: &'a SimConfig,
        probe: &'a mut P,
    ) -> Self {
        let reference = cpu.reference_freq();
        let mut delay_q = NaiveDelayQueue::new();
        let mut tasks = Vec::with_capacity(ts.len());
        let mut wcet_cycles = Vec::with_capacity(ts.len());
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
        Oracle {
            ts,
            probe,
            cpu,
            exec,
            cfg,
            now: Time::ZERO,
            horizon_end: Time::ZERO + cfg.horizon,
            run_q: NaiveRunQueue::new(),
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
            segments_done: 0,
        }
    }

    fn run(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        loop {
            let t_next = self.next_event_time().min(self.horizon_end);
            self.advance_to(t_next);
            if self.now >= self.horizon_end {
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
        Ok(())
    }

    /// The cooperative event budget, checked once per decision point —
    /// the same placement and threshold as the engine's, so it trips at
    /// the identical event with the identical diagnostic.
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

    // ----- event timing (recomputed fresh at every query) -------------------

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
        t.max(self.now)
    }

    fn frontier_work(&self) -> Option<Cycles> {
        let tid = self.active?;
        let job = self.tasks[tid.0].job.as_ref()?;
        Some(self.pending_overhead + job.realized_remaining)
    }

    fn completion_time(&self) -> Option<Time> {
        self.time_to_retire_total(self.frontier_work()?)
    }

    fn budget_exhaust_time(&self) -> Option<Time> {
        let tid = self.active?;
        let job = self.tasks[tid.0].job.as_ref()?;
        if job.budget_exceeded || job.wcet_remaining >= job.realized_remaining {
            return None;
        }
        self.time_to_retire_total(self.pending_overhead + job.wcet_remaining)
    }

    fn time_to_retire_total(&self, total: Cycles) -> Option<Time> {
        if total.is_zero() {
            return Some(self.now);
        }
        let reference = self.cpu.reference_freq();
        // Saturating: a completion beyond the representable range is
        // "never", and the horizon minimum cuts it off (mirrors the
        // engine).
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

    // ----- physics (no table: state_power reruns every advance) -------------

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
            ProcMode::Ramping { ramp, .. } => {
                let from = self.ratio_to_freq(ramp.r_from());
                let to = self.ratio_to_freq(ramp.r_to());
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
        // The naive path: one full voltage-curve evaluation per advance.
        // `state_power` is pure, so this is the same `f64` the engine's
        // power table serves — energy stays bitwise comparable.
        let power = self.cpu.state_power(state);
        self.segments_done += 1;
        self.meter.accumulate_with_power(state, power, dur);
        self.push_trace(TraceEvent::EnergySegment { state, power, dur });
        if state.executes_work() {
            if let Some(tid) = self.active {
                self.task_energy[tid.0] += power * dur.as_secs_f64();
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

    // ----- event handling (same order as the kernel, Fig. 4 L1–L21) --------

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
        // Wake timer fires / wake-up completes (two decision points even
        // for a zero-latency wake, like the kernel).
        match self.mode {
            ProcMode::PowerDown { wake_at, mode } if self.now >= wake_at => {
                let mut delay =
                    self.cpu.sleep_modes()[mode].wakeup_delay(self.cpu.reference_freq());
                if let Some(j) = &self.cfg.faults.wakeup_jitter {
                    delay += j.extra(
                        self.cfg.seed,
                        self.cfg.faults.seed,
                        self.counters.power_downs,
                    );
                }
                self.mode = ProcMode::WakingUp {
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
        // Releases (L5–L7), with the watchdog's overslept check.
        if self.delay_q.head_release().is_some_and(|r| r <= self.now) {
            let due = self.delay_q.pop_due(self.now);
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
            for &(tid, release) in &due {
                self.spawn_job(tid, release);
            }
            need_sched = true;
        }
        // Completion of the active job.
        if let Some(total) = self.frontier_work() {
            if total.is_zero() {
                self.complete_active()?;
                need_sched = true;
            }
        }
        // Budget exhaustion (watchdog, one report per job).
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
        // Speed-up timer.
        if let Some(s) = self.speedup_at {
            if self.now >= s {
                self.speedup_at = None;
                need_sched = true;
            }
        }
        // Timeout-shutdown timer.
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

    fn spawn_job(&mut self, tid: TaskId, _noticed: Time) {
        let task = self.ts.task(tid);
        let prio = self.ts.priority(tid);
        let sample = self
            .exec
            .sample(task, tid, self.tasks[tid.0].next_index, self.cfg.seed);
        let realized = Cycles::from_time_at(sample, self.cpu.reference_freq()).max(Cycles::new(1));
        let rt = &mut self.tasks[tid.0];
        let index = rt.next_index;
        let arrival = rt.pending_arrival;
        let wcet = self.wcet_cycles[tid.0];
        let mut demand = realized.min(wcet);
        if let Some(o) = &self.cfg.faults.overrun {
            let extra = o.extra_cycles(self.cfg.seed, self.cfg.faults.seed, tid.0, index, wcet);
            if !extra.is_zero() {
                demand = wcet + extra;
                self.counters.overruns += 1;
            }
        }
        rt.job = Some(LiveJob {
            index,
            release: arrival,
            deadline: arrival + task.deadline(),
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
        self.run_q
            .insert(tid, D::key(prio, arrival + task.deadline(), tid));
    }

    /// The discipline key of a runnable (queued or active) task.
    fn key_of(&self, task: TaskId) -> Result<D::Key, SimError> {
        let Some(job) = self.tasks[task.0].job.as_ref() else {
            return Err(SimError::InternalInvariant {
                what: "a runnable task holds a live job",
            });
        };
        Ok(D::key(self.ts.priority(task), job.deadline, task))
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
            // L1–L4: raise to maximum first, re-run when settled.
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
                    Ok(())
                }
            }
            ProcMode::PowerDown { .. } | ProcMode::WakingUp { .. } => Ok(()),
        }
    }

    fn full_pass(&mut self, policy: &mut dyn PowerPolicy<D>) -> Result<(), SimError> {
        self.counters.sched_passes += 1;
        // L8–L11: preemption / dispatch, in the discipline's key order.
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

        // L12–L21: the policy's power decision, over materialized kernel
        // queue views (content-identical to the engine's queues).
        self.pd_timer = None;
        let directive = {
            let run_view = self.run_q.materialize();
            let delay_view = self.delay_q.materialize();
            let ctx = SchedulerContext {
                now: self.now,
                active: self.active_view(),
                run_queue: &run_view,
                delay_queue: &delay_view,
                cpu: self.cpu,
                taskset: self.ts,
            };
            policy.decide(&ctx)
        };
        self.apply_directive(directive, policy)?;
        self.note_idle_transition();
        Ok(())
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
                        reason:
                            "power-down requires an idle kernel (no active task, empty run queue)",
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
                // `wake_at` is policy-supplied and unbounded: checked, not
                // raw, addition before the oversleep comparison.
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
                    return Ok(());
                }
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
            // A degenerate (fault-injected) ramp rate can stretch past the
            // representable range; the horizon minimum cuts it off.
            end: self.now.saturating_add(dur),
            target,
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

    // ----- finishing --------------------------------------------------------

    fn record_unfinished_misses(&mut self) {
        let active = self.active;
        let overhead = self.pending_overhead;
        for (i, rt) in self.tasks.iter().enumerate() {
            if let Some(job) = rt.job {
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
        self.probe.on_event(self.now, &event);
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
