//! Simulation traces: a timestamped record of everything the kernel did.
//!
//! Traces reproduce the paper's Figure 2 schedules (and the queue
//! snapshots of Figures 3 and 5) and back the assertions in the
//! integration tests. A [`Trace`] is a [`Probe`]: attach one to a run to
//! record it (see [`crate::probe`] for what a probe sees).

use crate::probe::Probe;
use lpfps_cpu::state::CpuState;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// One kernel event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Job `job` of `task` was released (moved delay queue -> run queue).
    Release { task: TaskId, job: u64 },
    /// `task` started or resumed executing on the processor.
    Dispatch { task: TaskId, job: u64 },
    /// `task` was preempted by `by` and returned to the run queue.
    Preempt { task: TaskId, by: TaskId },
    /// Job `job` of `task` completed with the given response time; `met`
    /// says whether it beat its deadline.
    Complete {
        task: TaskId,
        job: u64,
        response: Dur,
        met: bool,
    },
    /// A voltage/clock ramp began.
    RampStart { from: Freq, to: Freq },
    /// The ramp settled at `freq`.
    RampEnd { freq: Freq },
    /// The processor entered power-down mode with the timer set to `wake_at`.
    EnterPowerDown { wake_at: Time },
    /// The wake-up timer fired; the processor is returning to full power.
    Wakeup,
    /// The processor began spinning the NOP idle loop.
    IdleStart,
    /// The watchdog caught `task` exhausting its WCET budget with work
    /// still outstanding (an injected overrun; see
    /// [`FaultEvent`](crate::policy::FaultEvent)).
    BudgetOverrun { task: TaskId },
    /// The watchdog caught a release while the processor was not settled
    /// at full speed (a power transition overslept its plan).
    TimingViolation,
    /// One constant-power span between two decision points, stamped at the
    /// span's *start* instant: the processor state it occupied, the power
    /// it drew, and how long it lasted. The engine emits one for every
    /// non-zero advance, so consecutive segments tile the horizon exactly;
    /// the invariant checker (`lpfps-oracle`) replays them through a fresh
    /// [`EnergyMeter`](lpfps_cpu::EnergyMeter) to re-derive the report's
    /// energy integral bit-for-bit and to prove busy-time conservation.
    EnergySegment {
        state: CpuState,
        power: f64,
        dur: Dur,
    },
}

/// A timestamped sequence of kernel events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<(Time, TraceEvent)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last recorded event
    /// (traces are time-ordered by construction).
    pub fn push(&mut self, at: Time, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|&(t, _)| t <= at),
            "trace must be appended in time order"
        );
        self.events.push((at, event));
    }

    /// The number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates all `(time, event)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (Time, TraceEvent)> + '_ {
        self.events.iter().copied()
    }

    /// Iterates events in the half-open window `[from, to)`.
    pub fn window(&self, from: Time, to: Time) -> impl Iterator<Item = (Time, TraceEvent)> + '_ {
        self.events
            .iter()
            .copied()
            .filter(move |&(t, _)| t >= from && t < to)
    }

    /// The first event matching `pred`, with its time.
    pub fn find(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<(Time, TraceEvent)> {
        self.events.iter().copied().find(|(_, e)| pred(e))
    }

    /// Counts events matching `pred`.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}

/// Records the event stream verbatim. The trace is complete only for a
/// run with [`SimConfig::force_full_simulation`] set: a fast-forwarded
/// span emits no events.
///
/// [`SimConfig::force_full_simulation`]: crate::engine::SimConfig::force_full_simulation
impl Probe for Trace {
    fn on_event(&mut self, at: Time, event: &TraceEvent) {
        self.push(at, *event);
    }
}

impl core::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            TraceEvent::Release { task, job } => write!(f, "release {task}#{job}"),
            TraceEvent::Dispatch { task, job } => write!(f, "dispatch {task}#{job}"),
            TraceEvent::Preempt { task, by } => write!(f, "preempt {task} by {by}"),
            TraceEvent::Complete {
                task,
                job,
                response,
                met,
            } => write!(
                f,
                "complete {task}#{job} (response {response}, {})",
                if met { "met" } else { "MISSED" }
            ),
            TraceEvent::RampStart { from, to } => write!(f, "ramp start {from} -> {to}"),
            TraceEvent::RampEnd { freq } => write!(f, "ramp end at {freq}"),
            TraceEvent::EnterPowerDown { wake_at } => {
                write!(f, "power-down (wake at {wake_at})")
            }
            TraceEvent::Wakeup => write!(f, "wake-up"),
            TraceEvent::IdleStart => write!(f, "idle (NOP loop)"),
            TraceEvent::BudgetOverrun { task } => write!(f, "budget overrun by {task}"),
            TraceEvent::TimingViolation => {
                write!(f, "timing violation (release while not at full speed)")
            }
            TraceEvent::EnergySegment { state, power, dur } => {
                write!(f, "energy segment {state:?} for {dur} at {power:.6} W")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query_roundtrip() {
        let mut tr = Trace::new();
        tr.push(
            Time::from_us(0),
            TraceEvent::Release {
                task: TaskId(0),
                job: 0,
            },
        );
        tr.push(
            Time::from_us(0),
            TraceEvent::Dispatch {
                task: TaskId(0),
                job: 0,
            },
        );
        tr.push(
            Time::from_us(10),
            TraceEvent::Complete {
                task: TaskId(0),
                job: 0,
                response: Dur::from_us(10),
                met: true,
            },
        );
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.count(|e| matches!(e, TraceEvent::Dispatch { .. })), 1);
        let (t, _) = tr
            .find(|e| matches!(e, TraceEvent::Complete { .. }))
            .expect("complete recorded");
        assert_eq!(t, Time::from_us(10));
    }

    #[test]
    fn window_is_half_open() {
        let mut tr = Trace::new();
        for us in [0u64, 50, 100] {
            tr.push(Time::from_us(us), TraceEvent::IdleStart);
        }
        assert_eq!(tr.window(Time::from_us(0), Time::from_us(100)).count(), 2);
        assert_eq!(tr.window(Time::from_us(50), Time::from_us(101)).count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics_in_debug() {
        let mut tr = Trace::new();
        tr.push(Time::from_us(10), TraceEvent::IdleStart);
        tr.push(Time::from_us(5), TraceEvent::IdleStart);
    }
}
