//! Recording probes: concrete implementations of the kernel's
//! [`Probe`] seam.
//!
//! A probe watches the engine's event stream without touching the
//! simulation: the kernel guarantees (and the `obs_free_prop` suite
//! proves) that attaching any probe leaves the `SimReport` bit-identical
//! to a probe-free run. The kernel's own `Trace` records the raw stream;
//! [`JobRecorder`] streams per-job response times and per-job energy into
//! deterministic [`LogHistogram`]s, the data source for the sweep
//! engine's `--hist` percentiles.

use crate::hist::LogHistogram;
use lpfps_kernel::probe::Probe;
use lpfps_kernel::trace::TraceEvent;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::time::Time;

/// Femtojoules per joule: the quantization unit for per-job energy.
/// `u64` femtojoules covers ~18 kJ — far beyond any simulated job.
pub const FJ_PER_J: f64 = 1e15;

/// A probe that aggregates per-job observables into histograms.
///
/// Responses are recorded in nanoseconds straight from each `Complete`
/// event. Energy is attributed by replaying the engine's own accounting:
/// every `EnergySegment` whose state retires work
/// ([`executes_work`](lpfps_cpu::state::CpuState::executes_work)) is
/// charged to the task dispatched at the segment's start — the engine
/// emits the segment *before* the decision-point events that change the
/// active task, so the probe's view of "who was running" matches the
/// engine's. On completion the accumulated joules are quantized to
/// femtojoules ([`FJ_PER_J`]) so the histogram stays integral.
#[derive(Debug, Default)]
pub struct JobRecorder {
    /// The task currently holding the processor, per the event stream.
    active: Option<TaskId>,
    /// Accumulated energy (joules) of each task's in-flight job.
    acc_joules: Vec<f64>,
    /// Response times, in nanoseconds.
    response_ns: LogHistogram,
    /// Per-job busy/ramp energy, in femtojoules.
    job_energy_fj: LogHistogram,
    /// Events seen (any kind).
    events: u64,
}

impl JobRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        JobRecorder::default()
    }

    /// Response-time histogram (nanoseconds).
    pub fn response_ns(&self) -> &LogHistogram {
        &self.response_ns
    }

    /// Per-job energy histogram (femtojoules).
    pub fn job_energy_fj(&self) -> &LogHistogram {
        &self.job_energy_fj
    }

    /// Total events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Consumes the recorder, yielding `(response_ns, job_energy_fj)`.
    pub fn into_histograms(self) -> (LogHistogram, LogHistogram) {
        (self.response_ns, self.job_energy_fj)
    }

    fn slot(&mut self, task: TaskId) -> &mut f64 {
        if task.0 >= self.acc_joules.len() {
            self.acc_joules.resize(task.0 + 1, 0.0);
        }
        &mut self.acc_joules[task.0]
    }
}

impl Probe for JobRecorder {
    fn on_event(&mut self, _at: Time, event: &TraceEvent) {
        self.events = self.events.saturating_add(1);
        match *event {
            TraceEvent::Dispatch { task, .. } => self.active = Some(task),
            TraceEvent::Preempt { task, .. } if self.active == Some(task) => {
                self.active = None;
            }
            TraceEvent::EnergySegment { state, power, dur } if state.executes_work() => {
                if let Some(task) = self.active {
                    *self.slot(task) += power * dur.as_secs_f64();
                }
            }
            TraceEvent::Complete { task, response, .. } => {
                if self.active == Some(task) {
                    self.active = None;
                }
                self.response_ns.record(response.as_ns());
                let joules = core::mem::take(self.slot(task));
                // Saturating float-to-int cast: quantize to femtojoules.
                self.job_energy_fj
                    .record((joules * FJ_PER_J).round() as u64);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
    use lpfps_kernel::policy::AlwaysFullSpeed;
    use lpfps_kernel::FixedPriority;
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;
    use lpfps_tasks::taskset::TaskSet;
    use lpfps_tasks::time::Dur;

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
    fn job_recorder_counts_every_completion() {
        let ts = table1();
        let cpu = CpuSpec::arm8();
        // A probe only sees events that are actually simulated, so
        // histogram collection always forces full simulation.
        let cfg = SimConfig::new(Dur::from_us(400)).with_force_full_simulation();
        let mut rec = JobRecorder::new();
        let mut ws = SimWorkspace::default();
        let report = simulate_in::<FixedPriority, _>(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &cfg,
            &mut ws,
            &mut rec,
        )
        .unwrap();
        // 400us hyperperiod at WCET: 8 + 5 + 4 = 17 jobs.
        assert_eq!(rec.response_ns().count(), 17);
        assert_eq!(rec.job_energy_fj().count(), 17);
        assert_eq!(report.counters.completions, rec.response_ns().count());
        assert!(rec.events() > 0);
    }

    #[test]
    fn job_energy_sums_to_busy_energy() {
        // Under AlwaysFullSpeed the only work-retiring state is Busy at
        // full clock, so per-job energies must sum to the report's busy
        // bucket (up to femtojoule quantization: one ulp per job).
        let ts = table1();
        let cpu = CpuSpec::arm8();
        let cfg = SimConfig::new(Dur::from_us(400)).with_force_full_simulation();
        let mut rec = JobRecorder::new();
        let mut ws = SimWorkspace::default();
        let report = simulate_in::<FixedPriority, _>(
            &ts,
            &cpu,
            &mut AlwaysFullSpeed,
            &AlwaysWcet,
            &cfg,
            &mut ws,
            &mut rec,
        )
        .unwrap();
        let _ = report;
        // Every job completes by the horizon, so nothing is left in the
        // per-task accumulators.
        assert!(rec.acc_joules.iter().all(|&j| j == 0.0));
        // The largest job is tau3's 40us at full busy power (1.0 W
        // normalized): 4e10 fJ, recorded exactly in the histogram max.
        let max_fj = rec.job_energy_fj().max() as f64;
        assert!((max_fj - 4e10).abs() / 4e10 < 1e-6, "max_fj = {max_fj}");
    }
}
