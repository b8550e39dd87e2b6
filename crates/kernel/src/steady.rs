//! Steady-state cycle detection: the data structures behind the engine's
//! analytic fast-forward of long horizons.
//!
//! A synchronous periodic task set driven by an index-invariant execution
//! model repeats its entire (dispatch, speed, power-mode) pattern once the
//! *complete* simulator state recurs one hyperperiod apart. The engine
//! snapshots its state at hyperperiod-spaced decision points; when two
//! consecutive snapshots are equal, every remaining whole cycle is a
//! byte-identical repeat, so the engine extrapolates the integer statistics
//! in O(1), adds the recorded energy tape once more per skipped cycle with
//! the full run's exact bits through
//! [`EnergyMeter::repeat_cycle`](lpfps_cpu::EnergyMeter::repeat_cycle)
//! (in O(log k) passes, not k), shifts the live state forward, and
//! simulates only the residual tail. See DESIGN.md §12.
//!
//! Everything here is engine-internal except [`FastForwardStats`], the
//! side-channel counters surfaced through
//! [`SimWorkspace`](crate::engine::SimWorkspace) — deliberately *not* part
//! of [`SimReport`](crate::report::SimReport), whose serialized form must
//! stay identical whether or not the detector engaged.

use crate::engine::SimConfig;
use crate::report::Counters;
use crate::report::ResponseStats;
use crate::stats::{IntervalStats, ResponseHistogram};
use lpfps_cpu::energy::{Charge, EnergyMeter};
use lpfps_cpu::ramp::Ramp;
use lpfps_tasks::analysis::hyperperiod;
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};

/// What the steady-state detector did during one run.
///
/// Lives outside the report on purpose: the detector defaults on, and the
/// committed result fingerprints must not move, so these counters travel
/// through the workspace
/// ([`SimWorkspace::fast_forward_stats`](crate::engine::SimWorkspace::fast_forward_stats))
/// instead of the serialized [`SimReport`](crate::report::SimReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastForwardStats {
    /// Whole hyperperiod cycles skipped analytically (0 when the detector
    /// was ineligible or never matched).
    pub cycles_detected: u64,
    /// Decision-point events those skipped cycles would have simulated.
    pub events_skipped: u64,
}

/// The processor mode with all absolute instants re-based to the snapshot
/// time (signed: a delay-queue release can sit in the past after a late
/// completion, and nothing constrains the sign of a re-based instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ModeSnapshot {
    Settled(Freq),
    Ramping {
        ramp: Ramp,
        started: i128,
        end: i128,
        target: Freq,
    },
    PowerDown {
        wake_at: i128,
        mode: usize,
    },
    WakingUp {
        until: i128,
    },
}

/// A live job with instants re-based to the snapshot time. The job `index`
/// is deliberately absent: it grows every cycle, and eligibility already
/// guarantees (via [`ExecModel::index_invariant`]) that nothing downstream
/// depends on it except the report fields the fast-forward extrapolates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JobSnapshot {
    pub release: i128,
    pub deadline: i128,
    pub realized_remaining: Cycles,
    pub wcet_remaining: Cycles,
    pub budget_exceeded: bool,
}

/// Per-task runtime state, re-based. `next_index` is excluded for the same
/// reason as the job index (it is the per-cycle *delta* of `next_index`
/// that matters, and that lives in [`CycleBaseline`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskSnapshot {
    pub pending_arrival: i128,
    pub job: Option<JobSnapshot>,
}

/// The complete decision-relevant simulator state at one instant, with
/// every absolute time re-based to that instant. Two equal snapshots one
/// hyperperiod apart prove the simulation is in steady state: all inputs
/// (releases, execution demands, tick boundaries) are hyperperiod-periodic
/// under the eligibility rules, so equal state evolves identically.
///
/// Accumulators (energy meter, counters, response stats, misses,
/// histograms, idle gaps, task energy) are excluded by design — they grow
/// monotonically and are extrapolated instead. The engine's power table
/// is excluded because it only caches `CpuSpec::state_power`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SteadySnapshot {
    /// Run-queue contents in iteration (most-urgent-first) order. The keys
    /// themselves are derivable from static priorities and the per-job
    /// deadlines captured below, so storing the order fixes the queue.
    pub run_q: Vec<TaskId>,
    /// Delay-queue `(task, re-based release)` pairs in queue order.
    pub delay_q: Vec<(TaskId, i128)>,
    pub tasks: Vec<TaskSnapshot>,
    pub active: Option<TaskId>,
    pub mode: ModeSnapshot,
    pub speedup_at: Option<i128>,
    pub pd_timer: Option<(i128, i128)>,
    pub pending_overhead: Cycles,
    pub last_dispatched: Option<TaskId>,
    pub was_idle: bool,
    pub gap_start: Option<i128>,
    /// The policy's self-reported state digest
    /// ([`PolicyCore::steady_digest`](crate::policy::PolicyCore::steady_digest)).
    pub policy_digest: u64,
}

/// Accumulator values at a checkpoint: the per-cycle deltas (current minus
/// baseline at the *next* checkpoint) are what one steady-state cycle
/// contributes, and every skipped cycle contributes exactly the same.
#[derive(Debug, Clone)]
pub(crate) struct CycleBaseline {
    /// The meter, for its residencies (energies fold from the tape).
    pub meter: EnergyMeter,
    pub counters: Counters,
    pub responses: Vec<ResponseStats>,
    pub histograms: Vec<ResponseHistogram>,
    pub idle_gaps: IntervalStats,
    pub misses_len: usize,
    /// Per-task `next_index` — the delta is the task's jobs-per-cycle.
    pub next_index: Vec<u64>,
}

/// One stored checkpoint: where it was taken, the state snapshot, and the
/// accumulator baseline for delta extraction.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    pub at: Time,
    pub snapshot: SteadySnapshot,
    pub baseline: CycleBaseline,
}

/// The engine's steady-state detector: armed only for eligible runs, it
/// checkpoints at hyperperiod-spaced decision points and records the energy
/// tape of the cycle in between.
#[derive(Debug)]
pub(crate) struct SteadyDetector {
    pub hyperperiod: Dur,
    /// The next instant at (or after) which to take a checkpoint.
    pub next_target: Time,
    pub last: Option<Checkpoint>,
    /// Energy charges since the last checkpoint (they tile exactly one
    /// hyperperiod when two checkpoints sit one hyperperiod apart).
    pub tape: Vec<Charge>,
}

impl SteadyDetector {
    /// Arms the detector for a run, or returns `None` when any eligibility
    /// rule fails and the run must simulate in full:
    ///
    /// * `force_full_simulation` — the explicit A/B escape hatch;
    /// * any injected fault stream — fault draws are keyed by job index
    ///   and engine ordinals, which are not hyperperiod-periodic;
    /// * a `max_events` budget — it counts *simulated* work, and a
    ///   fast-forwarded run would finish where a full run exhausts;
    /// * an execution model whose draws depend on the job index;
    /// * a hyperperiod that overflows `u64` nanoseconds ([`hyperperiod`]
    ///   returns `None` for co-prime hostile sets) or exceeds the horizon;
    /// * a tick that does not divide the hyperperiod (the release
    ///   quantization pattern would not repeat cycle to cycle);
    /// * a task index that does not fit a [`Charge`]'s `u32`.
    pub fn for_run(cfg: &SimConfig, exec: &dyn ExecModel, ts: &TaskSet) -> Option<Self> {
        if cfg.force_full_simulation
            || !cfg.faults.is_none()
            || cfg.max_events.is_some()
            || !exec.index_invariant()
            || ts.len() > Charge::NO_TASK as usize
        {
            return None;
        }
        let h = hyperperiod(ts)?;
        if h > cfg.horizon {
            return None;
        }
        if let Some(tick) = cfg.tick {
            if !(h % tick).is_zero() {
                return None;
            }
        }
        Some(SteadyDetector {
            hyperperiod: h,
            next_target: Time::ZERO + h,
            last: None,
            tape: Vec::new(),
        })
    }
}

/// `now` plus `k` copies of its growth since `base`: an accumulator
/// after `k` more cycles that each add what the last one did. `None` on
/// overflow.
pub(crate) fn grow(now: u64, base: u64, k: u64) -> Option<u64> {
    (now - base).checked_mul(k)?.checked_add(now)
}

/// [`grow`] for a span.
pub(crate) fn grow_dur(now: Dur, base: Dur, k: u64) -> Option<Dur> {
    (now - base).checked_mul(k)?.checked_add(now)
}

impl Counters {
    /// Every counter after `k` more cycles, each adding the per-cycle
    /// delta `self - baseline` (every event of a steady-state cycle
    /// repeats identically in each subsequent cycle); `None` on overflow.
    pub(crate) fn extrapolate_from(&self, baseline: &Counters, k: u64) -> Option<Counters> {
        Some(Counters {
            events: grow(self.events, baseline.events, k)?,
            sched_passes: grow(self.sched_passes, baseline.sched_passes, k)?,
            releases: grow(self.releases, baseline.releases, k)?,
            completions: grow(self.completions, baseline.completions, k)?,
            preemptions: grow(self.preemptions, baseline.preemptions, k)?,
            dispatches: grow(self.dispatches, baseline.dispatches, k)?,
            ramps: grow(self.ramps, baseline.ramps, k)?,
            power_downs: grow(self.power_downs, baseline.power_downs, k)?,
            overruns: grow(self.overruns, baseline.overruns, k)?,
            watchdog_faults: grow(self.watchdog_faults, baseline.watchdog_faults, k)?,
            degradations: grow(self.degradations, baseline.degradations, k)?,
        })
    }
}

impl ResponseStats {
    /// The stats after `k` more cycles, each adding the per-cycle delta;
    /// `None` on overflow. `max_response` is already correct: later
    /// cycles repeat the same response values, so the maximum was
    /// absorbed during the recorded cycle.
    pub(crate) fn extrapolate_from(&self, baseline: &ResponseStats, k: u64) -> Option<Self> {
        Some(ResponseStats {
            completed: grow(self.completed, baseline.completed, k)?,
            max_response: self.max_response,
            total_response: grow_dur(self.total_response, baseline.total_response, k)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_extrapolate_each_field_linearly() {
        let base = Counters {
            events: 10,
            sched_passes: 5,
            releases: 3,
            completions: 2,
            preemptions: 1,
            dispatches: 4,
            ramps: 2,
            power_downs: 1,
            overruns: 0,
            watchdog_faults: 0,
            degradations: 0,
        };
        let cur = Counters {
            events: 30,
            sched_passes: 15,
            releases: 9,
            completions: 8,
            preemptions: 3,
            dispatches: 10,
            ramps: 6,
            power_downs: 3,
            overruns: 0,
            watchdog_faults: 0,
            degradations: 0,
        };
        let cur = cur.extrapolate_from(&base, 2).unwrap();
        assert_eq!(cur.events, 30 + 2 * 20);
        assert_eq!(cur.sched_passes, 15 + 2 * 10);
        assert_eq!(cur.releases, 9 + 2 * 6);
        assert_eq!(cur.completions, 8 + 2 * 6);
        assert_eq!(cur.preemptions, 3 + 2 * 2);
        assert_eq!(cur.dispatches, 10 + 2 * 6);
        assert_eq!(cur.ramps, 6 + 2 * 4);
        assert_eq!(cur.power_downs, 3 + 2 * 2);
    }

    #[test]
    fn response_stats_extrapolate_preserving_max() {
        let mut base = ResponseStats::default();
        base.record(Dur::from_us(40)).unwrap();
        let mut cur = base;
        cur.record(Dur::from_us(10)).unwrap();
        cur.record(Dur::from_us(20)).unwrap();
        let cur = cur.extrapolate_from(&base, 3).unwrap();
        assert_eq!(cur.completed, 1 + 2 + 3 * 2);
        assert_eq!(cur.max_response, Dur::from_us(40));
        assert_eq!(
            cur.total_response,
            Dur::from_us(40 + 30) + Dur::from_us(30) * 3
        );
    }

    #[test]
    fn zero_cycles_is_the_identity() {
        let base = Counters::default();
        let cur = Counters {
            events: 7,
            ..Counters::default()
        };
        assert_eq!(cur.extrapolate_from(&base, 0), Some(cur));
    }

    #[test]
    fn extrapolation_overflow_is_none() {
        let base = ResponseStats::default();
        let mut cur = base;
        cur.record(Dur::from_ms(1)).unwrap();
        assert_eq!(cur.extrapolate_from(&base, u64::MAX / 1_000), None);
        let counters = Counters {
            ramps: 2,
            ..Counters::default()
        };
        assert_eq!(
            counters.extrapolate_from(&Counters::default(), u64::MAX / 2),
            None
        );
        assert_eq!(grow(5, 2, u64::MAX / 3 - 2), Some(u64::MAX - 1));
        assert_eq!(grow(5, 2, u64::MAX / 3), None);
    }
}
