//! Simulation results: energy, timing statistics, and counters.

use crate::error::SimError;
use crate::stats::{IntervalStats, ResponseHistogram};
use lpfps_cpu::energy::EnergyMeter;
use lpfps_cpu::state::StateKind;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::time::{Dur, Time};
use serde::{value, Deserialize, Error, Serialize, Serializer, Value};

/// Per-task response-time statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponseStats {
    /// Completed jobs.
    pub completed: u64,
    /// Worst observed response time.
    pub max_response: Dur,
    /// Sum of response times (for the mean).
    pub total_response: Dur,
}

impl ResponseStats {
    /// Records one completion.
    ///
    /// # Errors
    ///
    /// [`SimError::TimeOverflow`] if the summed response time leaves
    /// `u64` nanoseconds (tick-delayed releases on a horizon near
    /// [`MAX_TIME_PARAM`](lpfps_tasks::error::MAX_TIME_PARAM) get there);
    /// the stats are then unchanged.
    pub fn record(&mut self, response: Dur) -> Result<(), SimError> {
        let Some(total) = self.total_response.checked_add(response) else {
            return Err(SimError::TimeOverflow {
                what: "summed response time",
            });
        };
        self.total_response = total;
        self.completed += 1;
        self.max_response = self.max_response.max(response);
        Ok(())
    }

    /// The mean response time, or zero if nothing completed.
    pub fn mean_response(&self) -> Dur {
        if self.completed == 0 {
            Dur::ZERO
        } else {
            self.total_response / self.completed
        }
    }
}

/// A recorded deadline miss.
///
/// # Boundary convention
///
/// A job is on time **iff it completes at or before its deadline**;
/// completing *exactly at* the deadline is on time. The same rule is
/// applied at the simulation horizon: a job whose work retires exactly at
/// the horizon boundary counts as completed there, so it misses only if
/// its deadline lies strictly before the horizon end, while a job with
/// work still remaining at the horizon misses whenever its deadline is at
/// or before the horizon end (`deadline <= horizon_end`) — by then the
/// deadline has passed without completion. Jobs whose deadlines lie
/// beyond the horizon are never judged (the simulation cannot know their
/// fate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadlineMiss {
    /// The violating task.
    pub task: TaskId,
    /// The job index within the task.
    pub job: u64,
    /// The absolute deadline that was missed.
    pub deadline: Time,
    /// When the job actually completed (`None` if still unfinished at the
    /// simulation horizon).
    pub completed_at: Option<Time>,
}

/// Activity counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Decision points processed by the engine's event loop (release,
    /// completion, ramp end, wake-up, timer). Deterministic for a given
    /// configuration, and the denominator-free measure of simulation work
    /// behind the sweep engine's events/sec throughput metric.
    pub events: u64,
    /// Scheduler passes executed at full speed (the paper's L8-L21 path).
    pub sched_passes: u64,
    /// Jobs released.
    pub releases: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Preemptions (a running job displaced by a higher-priority release).
    pub preemptions: u64,
    /// Dispatches (context loads), including first starts and resumptions.
    pub dispatches: u64,
    /// Voltage/clock ramps initiated.
    pub ramps: u64,
    /// Power-down entries.
    pub power_downs: u64,
    /// Jobs released with an injected WCET overrun (realized demand above
    /// the budget). Zero without a fault model.
    pub overruns: u64,
    /// Watchdog detections: budget exhaustions plus timing violations
    /// (releases caught while the processor was not settled at full
    /// speed). Zero under the idealized model.
    pub watchdog_faults: u64,
    /// Faults after which the policy reported engaging a degraded mode
    /// (see [`PowerPolicy::on_fault`](crate::policy::PowerPolicy)).
    pub degradations: u64,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Policy name ("fps", "lpfps", ...).
    pub policy: String,
    /// The dispatch discipline the run was scheduled under
    /// ([`Discipline::NAME`](crate::discipline::Discipline::NAME): "fp",
    /// "edf"). Serialized only when it differs from `"fp"`, so every
    /// fixed-priority report keeps its pre-discipline byte layout; absent
    /// tags deserialize as `"fp"`.
    pub discipline: &'static str,
    /// Task-set name.
    pub taskset: String,
    /// Simulated horizon.
    pub horizon: Dur,
    /// Energy and state-residency accounting.
    pub energy: EnergyMeter,
    /// Deadline misses (empty on a correct run of a schedulable set).
    pub misses: Vec<DeadlineMiss>,
    /// Per-task response statistics, indexed by task id.
    pub responses: Vec<ResponseStats>,
    /// Activity counters.
    pub counters: Counters,
    /// Distribution of intervals during which no task was runnable.
    pub idle_gaps: IntervalStats,
    /// Normalized energy attributed to each task's execution (busy and
    /// busy-ramp time while that task held the processor), indexed by
    /// task id. Idle/power-down/wake-up energy is unattributed.
    pub task_energy: Vec<f64>,
    /// Per-task response-time histograms (deadline-relative buckets),
    /// indexed by task id.
    pub histograms: Vec<ResponseHistogram>,
}

// Hand-written (not derived) to keep every report — including the
// committed results and the golden fingerprint matrix — byte-identical to
// the layout those were recorded in: the `discipline` tag is emitted only
// when it differs from "fp", and a constant `"trace": null` closes the
// object (traces are recorded by a probe, never stored in the report).
// All other fields follow the derive's declaration-order layout.
impl Serialize for SimReport {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.entry("policy", &self.policy);
        if self.discipline != "fp" {
            s.entry("discipline", self.discipline);
        }
        s.entry("taskset", &self.taskset);
        s.entry("horizon", &self.horizon);
        s.entry("energy", &self.energy);
        s.entry("misses", &self.misses);
        s.entry("responses", &self.responses);
        s.entry("counters", &self.counters);
        s.entry("idle_gaps", &self.idle_gaps);
        s.entry("task_energy", &self.task_energy);
        s.entry("histograms", &self.histograms);
        s.key("trace");
        s.null();
        s.end_object();
    }
}

impl Deserialize for SimReport {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let map = v
            .as_object()
            .ok_or_else(|| Error::custom("expected an object for SimReport"))?;
        let field = |name: &str| value::expect_field(map, "SimReport", name);
        Ok(SimReport {
            policy: String::from_value(field("policy")?)?,
            discipline: match map.get("discipline") {
                Some(tag) => <&'static str>::from_value(tag)?,
                None => "fp",
            },
            taskset: String::from_value(field("taskset")?)?,
            horizon: Dur::from_value(field("horizon")?)?,
            energy: EnergyMeter::from_value(field("energy")?)?,
            misses: Vec::from_value(field("misses")?)?,
            responses: Vec::from_value(field("responses")?)?,
            counters: Counters::from_value(field("counters")?)?,
            idle_gaps: IntervalStats::from_value(field("idle_gaps")?)?,
            task_energy: Vec::from_value(field("task_energy")?)?,
            histograms: Vec::from_value(field("histograms")?)?,
        })
    }
}

impl SimReport {
    /// Average normalized power over the run — the paper's Figure 8 metric
    /// (1.0 = a processor busy at full speed for the whole horizon).
    pub fn average_power(&self) -> f64 {
        self.energy.average_power(self.horizon)
    }

    /// True if every job met its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.misses.is_empty()
    }

    /// Fraction of the horizon spent in each state kind.
    pub fn residency_fraction(&self, kind: StateKind) -> f64 {
        self.energy.bucket(kind).residency.as_ns() as f64 / self.horizon.as_ns() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_stats_track_extremes_and_mean() {
        let mut s = ResponseStats::default();
        s.record(Dur::from_us(10)).unwrap();
        s.record(Dur::from_us(30)).unwrap();
        s.record(Dur::from_us(20)).unwrap();
        assert_eq!(s.completed, 3);
        assert_eq!(s.max_response, Dur::from_us(30));
        assert_eq!(s.mean_response(), Dur::from_us(20));
    }

    #[test]
    fn empty_stats_have_zero_mean() {
        assert_eq!(ResponseStats::default().mean_response(), Dur::ZERO);
    }

    #[test]
    fn discipline_tag_serializes_only_for_non_fp_runs() {
        let mut report = SimReport {
            policy: "fps".into(),
            discipline: "fp",
            taskset: "table1".into(),
            horizon: Dur::from_ms(1),
            energy: EnergyMeter::new(),
            misses: vec![],
            responses: vec![],
            counters: Counters::default(),
            idle_gaps: IntervalStats::new(),
            task_energy: vec![],
            histograms: vec![],
        };
        // FP reports keep the pre-discipline byte layout: no tag at all.
        let fp = serde_json::to_value(&report).expect("fp report serializes");
        assert!(fp.get("discipline").is_none());
        assert_eq!(fp.get("trace"), Some(&Value::Null));
        let back = SimReport::from_value(&fp).expect("fp round-trip");
        assert_eq!(back.discipline, "fp");

        report.discipline = "edf";
        let edf = serde_json::to_value(&report).expect("edf report serializes");
        assert_eq!(edf["discipline"], "edf");
        let back = SimReport::from_value(&edf).expect("edf round-trip");
        assert_eq!(back.discipline, "edf");
    }
}
