//! Per-layer costs, measured from outside the program.
//!
//! An observation pass runs the workload's kernel cells once with a
//! [`Probe`] attached and records, from the event stream, what each
//! layer was asked to do: the speed-ratio decisions, the ramps whose
//! power the CPU model integrated, the energy segments it accumulated,
//! the queue operations the events imply. Each layer's public functions
//! are then timed in isolation on those recorded inputs. A layer's share
//! of the kernel's busy time is *estimated* as its isolated ns/op times
//! the workload's operation count; measuring it with spans inside the
//! program is later work.

use crate::stats::median;
use crate::workload::{Kind, Workload};
use lpfps::driver::PolicyKind;
use lpfps::speed::{r_heu, r_opt};
use lpfps::{LpfpsPolicy, RatioLogger};
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::{CpuState, EnergyMeter, Ramp};
use lpfps_kernel::engine::{simulate, SimConfig, SimWorkspace};
use lpfps_kernel::queues::{DelayQueue, RunQueue};
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::TraceEvent;
use lpfps_multi::Partitioner;
use lpfps_multi::PartitionerKind;
use lpfps_sweep::{Cell, ExecKind, PolicyChoice};
use lpfps_tasks::analysis::{hyperperiod, response_times, RtaConfig};
use lpfps_tasks::exec::{AlwaysWcet, ExecModel, PaperGaussian};
use lpfps_tasks::task::{Priority, Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use lpfps_tasks::Freq;
use std::hint::black_box;
use std::time::Instant;

/// Recorded inputs per layer are capped at this many items.
const SAMPLE_CAP: usize = 4096;
/// Recorded queue operations are capped at this many.
const QUEUE_OP_CAP: usize = 1 << 16;
/// Reports kept for the serialization timing.
const REPORT_CAP: usize = 64;

/// One run-queue or delay-queue operation implied by the event stream.
#[derive(Debug, Clone, Copy)]
enum RunOp {
    Insert(TaskId, Priority),
    Pop,
}

#[derive(Debug, Clone, Copy)]
enum DelayOp {
    Insert(TaskId, Priority, Time),
    PopDue(Time),
}

/// What the layers were asked to do in one batch, as seen by a probe.
/// Counts cover every kernel cell; samples are capped.
#[derive(Debug, Default)]
pub struct Observed {
    /// Energy segments the CPU model accumulated.
    pub segments: u64,
    /// Segments entering a ramp state: the kernel's per-segment power
    /// memo misses and `state_power` runs one Simpson quadrature each.
    pub ramp_evals: u64,
    /// Downward ramps: one slow-down decision (one speed-ratio
    /// evaluation acted on) each.
    pub slowdowns: u64,
    /// Jobs released: one execution-time draw each.
    pub releases: u64,
    /// Queue operations implied by the events.
    pub run_ops: u64,
    pub delay_ops: u64,
    states: Vec<CpuState>,
    segment_samples: Vec<(CpuState, f64, Dur)>,
    ramps: Vec<(Freq, Freq)>,
    run_trace: Vec<Vec<RunOp>>,
    delay_trace: Vec<Vec<DelayOp>>,
    reports: Vec<SimReport>,
}

/// Shadow queue state turning one cell's events into queue operations.
struct QueueShadow<'a> {
    ts: &'a TaskSet,
    run: Vec<TaskId>,
    delay: Vec<(Time, TaskId)>,
    last_release: Vec<Option<Time>>,
    run_ops: Vec<RunOp>,
    delay_ops: Vec<DelayOp>,
    run_count: u64,
    delay_count: u64,
    record: bool,
}

impl<'a> QueueShadow<'a> {
    fn new(ts: &'a TaskSet, record: bool) -> Self {
        QueueShadow {
            ts,
            run: Vec::new(),
            delay: Vec::new(),
            last_release: vec![None; ts.len()],
            run_ops: Vec::new(),
            delay_ops: Vec::new(),
            run_count: 0,
            delay_count: 0,
            record,
        }
    }

    fn run_op(&mut self, op: RunOp) {
        self.run_count += 1;
        if self.record {
            self.run_ops.push(op);
        }
    }

    fn delay_op(&mut self, op: DelayOp) {
        self.delay_count += 1;
        if self.record {
            self.delay_ops.push(op);
        }
    }

    fn on_event(&mut self, at: Time, ev: &TraceEvent) {
        match *ev {
            TraceEvent::Release { task, job } => {
                let prio = self.ts.priority(task);
                if job == 0 {
                    // The task's first release waits in the delay queue
                    // from the start of the run.
                    self.delay.push((at, task));
                    self.delay_op(DelayOp::Insert(task, prio, at));
                }
                if self.delay.iter().any(|&(r, _)| r <= at) {
                    self.delay.retain(|&(r, _)| r > at);
                    self.delay_op(DelayOp::PopDue(at));
                }
                self.last_release[task.0] = Some(at);
                if !self.run.contains(&task) {
                    self.run.push(task);
                    self.run_op(RunOp::Insert(task, prio));
                }
            }
            TraceEvent::Dispatch { task, .. } => {
                let head = self
                    .run
                    .iter()
                    .copied()
                    .min_by_key(|&t| (self.ts.priority(t), t.0));
                if head == Some(task) {
                    self.run.retain(|&t| t != task);
                    self.run_op(RunOp::Pop);
                }
            }
            TraceEvent::Preempt { task, .. } if !self.run.contains(&task) => {
                self.run.push(task);
                self.run_op(RunOp::Insert(task, self.ts.priority(task)));
            }
            TraceEvent::Complete { task, .. } => {
                let period = self.ts.tasks()[task.0].period();
                if let Some(last) = self.last_release[task.0] {
                    if !self.delay.iter().any(|&(_, t)| t == task) {
                        let next = last + period;
                        self.delay.push((next, task));
                        self.delay_op(DelayOp::Insert(task, self.ts.priority(task), next));
                    }
                }
            }
            _ => {}
        }
    }
}

/// Runs every kernel cell once with a probe attached and records what
/// each layer was asked to do.
pub fn observe(cells: &[Cell]) -> Observed {
    let mut obs = Observed::default();
    let mut ws = SimWorkspace::new();
    let mut queue_ops = 0usize;
    for cell in cells {
        let ts = cell.ts.with_bcet_fraction(cell.bcet_fraction);
        let mut shadow = QueueShadow::new(&ts, queue_ops < QUEUE_OP_CAP);
        let mut prev: Option<CpuState> = None;
        let mut probe = |at: Time, ev: &TraceEvent| {
            shadow.on_event(at, ev);
            match *ev {
                TraceEvent::EnergySegment { state, power, dur } => {
                    obs.segments += 1;
                    if prev != Some(state) {
                        if matches!(
                            state,
                            CpuState::Ramping { .. } | CpuState::RampingIdle { .. }
                        ) {
                            obs.ramp_evals += 1;
                        }
                        if obs.states.len() < SAMPLE_CAP {
                            obs.states.push(state);
                        }
                    }
                    prev = Some(state);
                    if obs.segment_samples.len() < SAMPLE_CAP {
                        obs.segment_samples.push((state, power, dur));
                    }
                }
                TraceEvent::RampStart { from, to } => {
                    if to < from {
                        obs.slowdowns += 1;
                    }
                    if obs.ramps.len() < SAMPLE_CAP {
                        obs.ramps.push((from, to));
                    }
                }
                TraceEvent::Release { .. } => obs.releases += 1,
                _ => {}
            }
        };
        let report = cell.run_probed_opts(1.0, &mut ws, false, &mut probe);
        if let Ok(report) = report {
            if obs.reports.len() < REPORT_CAP {
                obs.reports.push(report);
            }
        }
        obs.run_ops += shadow.run_count;
        obs.delay_ops += shadow.delay_count;
        if shadow.record {
            queue_ops += shadow.run_ops.len() + shadow.delay_ops.len();
            obs.run_trace.push(shadow.run_ops);
            obs.delay_trace.push(shadow.delay_ops);
        }
    }
    obs
}

/// Median ns per operation of `f`, which performs `ops` operations per
/// call: nine samples of about 2 ms each.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let inner = (2_000_000 / once).clamp(1, 100_000) as usize;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_nanos() as f64 / (inner * ops) as f64
        })
        .collect();
    median(&samples)
}

/// `(remaining, window)` budgets of real slow-down decisions: the first
/// few LPFPS cells rerun under a [`RatioLogger`].
fn ratio_samples(cells: &[Cell]) -> Vec<(Dur, Dur)> {
    let mut out = Vec::new();
    for cell in cells
        .iter()
        .filter(|c| c.policy == PolicyChoice::Kind(PolicyKind::Lpfps))
    {
        let ts = cell.ts.with_bcet_fraction(cell.bcet_fraction);
        let cfg = SimConfig::new(cell.effective_horizon(1.0)).with_seed(cell.seed);
        let mut logger = RatioLogger::new(LpfpsPolicy::new());
        if simulate(&ts, &cell.cpu, &mut logger, cell.exec.model(), &cfg).is_ok() {
            out.extend(logger.samples().iter().map(|s| (s.remaining, s.window)));
        }
        if out.len() >= SAMPLE_CAP {
            out.truncate(SAMPLE_CAP);
            break;
        }
    }
    out
}

/// Monomorphized execution-time draw (no `dyn` dispatch).
fn sample_direct<M: ExecModel>(m: &M, inputs: &[(Task, TaskId, u64)], seed: u64) -> u64 {
    inputs
        .iter()
        .map(|(t, id, j)| m.sample(black_box(t), *id, *j, seed).as_ns())
        .sum()
}

fn sample_dyn(m: &dyn ExecModel, inputs: &[(Task, TaskId, u64)], seed: u64) -> u64 {
    inputs
        .iter()
        .map(|(t, id, j)| m.sample(black_box(t), *id, *j, seed).as_ns())
        .sum()
}

/// Isolated per-operation costs of every layer, on the workload's own
/// recorded inputs.
#[derive(Debug, Default)]
pub struct LayerCosts {
    pub r_heu_ns: f64,
    pub r_opt_ns: f64,
    pub ramp_average_ns: f64,
    pub state_power_ns: f64,
    pub accumulate_ns: f64,
    pub quantize_up_ns: f64,
    pub exec_dyn_ns: f64,
    pub exec_direct_ns: f64,
    pub rta_ns: f64,
    pub hyperperiod_ns: f64,
    pub run_queue_ns: f64,
    pub delay_queue_ns: f64,
    pub report_serialize_ns: f64,
    pub report_bytes: f64,
    /// Per partitioner, in `PartitionerKind::ALL` order.
    pub partition_ns: [f64; 4],
}

pub fn measure(w: &Workload, cells: &[Cell], obs: &Observed) -> LayerCosts {
    let cpu = CpuSpec::arm8();
    let mut c = LayerCosts::default();

    // core: the two speed ratios on real decision budgets.
    let budgets = ratio_samples(cells);
    let rho = cpu.ramp_rate_per_us();
    c.r_heu_ns = ns_per_op(budgets.len(), || {
        for &(rem, win) in &budgets {
            black_box(r_heu(black_box(rem), black_box(win)));
        }
    });
    c.r_opt_ns = ns_per_op(budgets.len(), || {
        for &(rem, win) in &budgets {
            black_box(r_opt(black_box(rem), black_box(win), rho));
        }
    });

    // cpu: quadrature, state power, energy accumulation, ladder rounding.
    let ramps: Vec<Ramp> = obs.ramps.iter().map(|&(a, b)| cpu.ramp(a, b)).collect();
    c.ramp_average_ns = ns_per_op(ramps.len(), || {
        for r in &ramps {
            black_box(cpu.power().ramp_average(black_box(r)));
        }
    });
    c.state_power_ns = ns_per_op(obs.states.len(), || {
        for &s in &obs.states {
            black_box(cpu.state_power(black_box(s)));
        }
    });
    c.accumulate_ns = ns_per_op(obs.segment_samples.len(), || {
        let mut meter = EnergyMeter::new();
        for &(s, p, d) in &obs.segment_samples {
            meter.accumulate_with_power(black_box(s), p, d);
        }
        black_box(meter.total_energy());
    });
    let reference = cpu.reference_freq();
    let targets: Vec<Freq> = budgets
        .iter()
        .map(|&(rem, win)| {
            let khz = (r_heu(rem, win) * reference.as_khz() as f64).ceil() as u64;
            Freq::from_khz(khz.max(1))
        })
        .collect();
    c.quantize_up_ns = ns_per_op(targets.len(), || {
        for &f in &targets {
            black_box(cpu.ladder().quantize_up(black_box(f)));
        }
    });

    // tasks: execution-time draws (dyn vs direct), RTA, hyperperiod.
    let sets = w.task_sets();
    let draws: Vec<(Task, TaskId, u64)> = sets
        .iter()
        .flat_map(|ts| ts.iter().map(|(id, t, _)| (t.clone(), id)))
        .flat_map(|(t, id)| (0..64u64).map(move |j| (t.clone(), id, j)))
        .take(SAMPLE_CAP)
        .collect();
    let exec = cells.first().map_or(ExecKind::PaperGaussian, |c| c.exec);
    let seed = w.seed;
    let model: &dyn ExecModel = black_box(exec.model());
    c.exec_dyn_ns = ns_per_op(draws.len(), || {
        black_box(sample_dyn(model, &draws, seed));
    });
    c.exec_direct_ns = match exec {
        ExecKind::PaperGaussian => ns_per_op(draws.len(), || {
            black_box(sample_direct(&PaperGaussian, &draws, seed));
        }),
        ExecKind::AlwaysWcet => ns_per_op(draws.len(), || {
            black_box(sample_direct(&AlwaysWcet, &draws, seed));
        }),
    };
    let rta = RtaConfig::default();
    c.rta_ns = ns_per_op(sets.len(), || {
        for ts in &sets {
            black_box(response_times(black_box(ts), &rta));
        }
    });
    c.hyperperiod_ns = ns_per_op(sets.len(), || {
        for ts in &sets {
            black_box(hyperperiod(black_box(ts)));
        }
    });

    // kernel.queues: the recorded operation sequences, replayed.
    let run_ops: usize = obs.run_trace.iter().map(Vec::len).sum();
    let mut rq: RunQueue = RunQueue::new();
    c.run_queue_ns = ns_per_op(run_ops, || {
        for ops in &obs.run_trace {
            rq.clear();
            for &op in ops {
                match op {
                    RunOp::Insert(t, p) => rq.insert(t, p),
                    RunOp::Pop => {
                        black_box(rq.pop());
                    }
                }
            }
        }
    });
    let delay_ops: usize = obs.delay_trace.iter().map(Vec::len).sum();
    let mut dq = DelayQueue::new();
    let mut due = Vec::new();
    c.delay_queue_ns = ns_per_op(delay_ops, || {
        for ops in &obs.delay_trace {
            dq.clear();
            for &op in ops {
                match op {
                    DelayOp::Insert(t, p, at) => dq.insert(t, p, at),
                    DelayOp::PopDue(now) => {
                        dq.pop_due_into(now, &mut due);
                        black_box(due.len());
                    }
                }
            }
        }
    });

    // kernel.report: serializing full reports.
    c.report_serialize_ns = ns_per_op(obs.reports.len(), || {
        for r in &obs.reports {
            black_box(serde_json::to_string(black_box(r)).expect("reports serialize"));
        }
    });
    let bytes: usize = obs
        .reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("reports serialize").len())
        .sum();
    c.report_bytes = bytes as f64 / obs.reports.len().max(1) as f64;

    // multi: each partitioner on the multicore grid's fleets.
    let fleets = fleets(w.seed);
    for (slot, kind) in PartitionerKind::ALL.into_iter().enumerate() {
        c.partition_ns[slot] = ns_per_op(fleets.len(), || {
            for (ts, cores) in &fleets {
                let _ = black_box(kind.partition(black_box(ts), *cores));
            }
        });
    }
    c
}

/// The distinct `(fleet task set, cores)` inputs of the multicore grid at
/// `seed`.
fn fleets(seed: u64) -> Vec<(TaskSet, usize)> {
    let mut out: Vec<(TaskSet, usize)> = Vec::new();
    for mc in Workload::build(Kind::MulticoreFleet, seed, 1).multi {
        if !out
            .iter()
            .any(|(ts, n)| *n == mc.cores && ts.tasks() == mc.base.ts.tasks())
        {
            out.push((mc.base.ts.clone(), mc.cores));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_workloads::table1;

    /// The probe's slow-down count is the number of ratio evaluations the
    /// policy acted on: on LPFPS cells it equals the RatioLogger's count.
    #[test]
    fn downward_ramps_count_slowdown_decisions() {
        let cells: Vec<Cell> = (0..4)
            .map(|s| {
                Cell::new(table1(), CpuSpec::arm8(), PolicyKind::Lpfps)
                    .with_exec(ExecKind::PaperGaussian)
                    .with_bcet_fraction(0.5)
                    .with_seed(s)
            })
            .collect();
        let obs = observe(&cells);
        assert!(obs.slowdowns > 0);
        assert_eq!(obs.slowdowns as usize, ratio_samples(&cells).len());
    }

    /// The queue shadow yields operation sequences the real queues accept
    /// (no double insert), with every release feeding the run queue.
    #[test]
    fn queue_replay_is_well_formed() {
        let w = Workload::build(Kind::Fig8Gaussian, 0, 1);
        let obs = observe(&w.spec.cells[..8]);
        assert!(obs.run_ops >= obs.releases);
        assert!(obs.delay_ops > 0);
        let costs = measure(&w, &w.spec.cells[..8], &obs);
        assert!(costs.run_queue_ns > 0.0 && costs.delay_queue_ns > 0.0);
    }
}
