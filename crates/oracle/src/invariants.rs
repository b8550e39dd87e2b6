//! Machine-checked trace invariants for the paper's guarantees.
//!
//! [`check_report`] walks a [`SimReport`] and its recorded [`Trace`] once
//! per invariant and collects every violation. The invariants are trace-level consequences
//! of the paper's scheduling rules (Figure 4) and of the engine's own
//! contract, so they hold for *any* correct run — fault-free or under an
//! injected fault stream — which makes them a cheap second oracle the
//! sweep runner can sample (`--check`) without paying for a full
//! differential re-simulation.
//!
//! | id | invariant | source |
//! |----|-----------|--------|
//! | `monotone-time` | event timestamps never decrease | trace contract |
//! | `segment-tiling` | energy segments tile `[0, horizon)` exactly, and every event sits on a segment boundary (busy-time conservation) | engine contract |
//! | `energy-replay` | replaying the segments through a fresh [`EnergyMeter`] reproduces the report's energy integral bit-for-bit | engine contract |
//! | `segment-power` | each segment's recorded power equals `CpuSpec::state_power` of its state | Eqs. for the power model |
//! | `fp-dispatch` | a dispatched task is never outranked by a released, unfinished task (fixed-priority order; FP reports) | Fig. 4 L8–L11 |
//! | `edf-dispatch` | a dispatched task is never outranked by a live task with a strictly earlier absolute deadline (EDF reports) | EDF dispatch rule |
//! | `dispatch-at-full-speed` | dispatches happen only with the clock settled at (or just settled to) full speed | Fig. 4 L1–L4 |
//! | `slowdown-solo` | a downward ramp starts only when exactly one job is live | Fig. 4 L16–L19 |
//! | `release-at-full-speed` | a release finding the processor below full speed is flagged by a preceding `TimingViolation` unless the transition resolves at that instant | watchdog contract |
//! | `powerdown-idle` | power-down begins with zero live jobs and wakes before the next release | Fig. 4 L13–L15 |
//! | `ramp-end-matches-start` | every `RampEnd` settles at the target of the latest `RampStart` | CPU model |
//! | `slowdown-at-invocation` | downward ramps are co-stamped with a scheduler invocation (releases, completions, faults, settles); only the speed-up timer may act silently | Fig. 4 (speed changes happen in `schedule()`) |
//! | `counter-consistency` | report counters equal their trace event counts | report contract |
//!
//! Theorem 1 (`r_heu >= r_opt`) is checked separately by
//! [`check_theorem1`] because it needs the policy's internal ratio
//! samples ([`lpfps::RatioLogger`]), not the kernel trace.

use lpfps::RatioSample;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::CpuState;
use lpfps_cpu::EnergyMeter;
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use std::collections::BTreeSet;
use std::fmt;

/// One invariant violation, anchored to a trace position.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Index of the offending event in the trace (or of the last event,
    /// for end-of-trace invariants).
    pub index: usize,
    /// Simulation time of the offending event.
    pub at: Time,
    /// Stable invariant id (see the module table).
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at {} (event #{}): {}",
            self.invariant, self.at, self.index, self.detail
        )
    }
}

/// Checks every trace invariant against a report and the [`Trace`] that
/// was recorded alongside it.
///
/// `cpu` must be the processor spec the simulation actually ran on — for
/// the `static` policy that is the derated spec (see
/// [`lpfps::driver::effective_cpu`]). `trace` must be complete, i.e. recorded
/// with [`SimConfig::force_full_simulation`] set: a fast-forwarded run's
/// trace has gaps, which the tiling and counter invariants report.
///
/// [`SimConfig::force_full_simulation`]: lpfps_kernel::engine::SimConfig::force_full_simulation
pub fn check_report(
    ts: &TaskSet,
    cpu: &CpuSpec,
    report: &SimReport,
    trace: &Trace,
) -> Vec<Violation> {
    let events: Vec<(Time, TraceEvent)> = trace.iter().collect();
    let mut out = Vec::new();
    check_monotone_time(&events, &mut out);
    check_segment_tiling(&events, report.horizon, &mut out);
    check_energy_replay(trace, report, &mut out);
    check_segment_power(&events, cpu, &mut out);
    match report.discipline {
        "edf" => check_edf_dispatch(&events, ts, &mut out),
        _ => check_fp_dispatch(&events, ts, &mut out),
    }
    check_dispatch_at_full_speed(&events, cpu, &mut out);
    check_slowdown_solo(&events, cpu, &mut out);
    check_release_at_full_speed(&events, cpu, &mut out);
    check_powerdown_idle(&events, &mut out);
    check_ramp_end_matches_start(&events, &mut out);
    check_slowdown_at_invocation(&events, cpu, &mut out);
    check_counter_consistency(trace, report, &mut out);
    out
}

/// Checks Theorem 1 over a [`lpfps::RatioLogger`] sample stream: the
/// heuristic slow-down ratio must never undercut the exact requirement.
pub fn check_theorem1(samples: &[RatioSample]) -> Vec<Violation> {
    samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.r_heu < s.r_opt)
        .map(|(i, s)| Violation {
            index: i,
            at: s.now,
            invariant: "theorem1",
            detail: format!(
                "r_heu {} < r_opt {} (remaining {}, window {})",
                s.r_heu, s.r_opt, s.remaining, s.window
            ),
        })
        .collect()
}

fn violation(
    out: &mut Vec<Violation>,
    index: usize,
    at: Time,
    invariant: &'static str,
    detail: String,
) {
    out.push(Violation {
        index,
        at,
        invariant,
        detail,
    });
}

fn check_monotone_time(events: &[(Time, TraceEvent)], out: &mut Vec<Violation>) {
    for (i, w) in events.windows(2).enumerate() {
        if w[1].0 < w[0].0 {
            violation(
                out,
                i + 1,
                w[1].0,
                "monotone-time",
                format!(
                    "event time {} precedes previous event time {}",
                    w[1].0, w[0].0
                ),
            );
        }
    }
}

fn check_segment_tiling(events: &[(Time, TraceEvent)], horizon: Dur, out: &mut Vec<Violation>) {
    let mut cursor = Time::ZERO;
    for (i, &(t, ev)) in events.iter().enumerate() {
        if t != cursor {
            violation(
                out,
                i,
                t,
                "segment-tiling",
                format!("event off the segment frontier: at {t}, frontier is {cursor}"),
            );
            // Resynchronize so one gap does not cascade into one violation
            // per subsequent event.
            cursor = t;
        }
        if let TraceEvent::EnergySegment { dur, .. } = ev {
            if dur.is_zero() {
                violation(out, i, t, "segment-tiling", "zero-length segment".into());
            }
            cursor += dur;
        }
    }
    let end = Time::ZERO + horizon;
    if cursor != end {
        violation(
            out,
            events.len().saturating_sub(1),
            cursor,
            "segment-tiling",
            format!("segments cover [0, {cursor}) but the horizon ends at {end}"),
        );
    }
}

fn check_energy_replay(trace: &Trace, report: &SimReport, out: &mut Vec<Violation>) {
    let mut meter = EnergyMeter::new();
    for (_, ev) in trace.iter() {
        if let TraceEvent::EnergySegment { state, power, dur } = ev {
            meter.accumulate_with_power(state, power, dur);
        }
    }
    // Compared with `f64` `==`, so a NaN integral is always a violation.
    if meter != report.energy {
        violation(
            out,
            trace.len().saturating_sub(1),
            Time::ZERO + report.horizon,
            "energy-replay",
            format!(
                "replaying the segments yields {} J, the report integrated {} J (bitwise)",
                meter.total_energy(),
                report.energy.total_energy()
            ),
        );
    }
}

fn check_segment_power(events: &[(Time, TraceEvent)], cpu: &CpuSpec, out: &mut Vec<Violation>) {
    for (i, &(t, ev)) in events.iter().enumerate() {
        if let TraceEvent::EnergySegment { state, power, .. } = ev {
            let expected = cpu.state_power(state);
            if power != expected {
                violation(
                    out,
                    i,
                    t,
                    "segment-power",
                    format!("segment in {state} records {power} W, the model gives {expected} W"),
                );
            }
        }
    }
}

/// Live-job bookkeeping shared by several checks: a task is *live* from
/// its `Release` to its `Complete`.
fn live_after(live: &mut BTreeSet<TaskId>, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Release { task, .. } => {
            live.insert(task);
        }
        TraceEvent::Complete { task, .. } => {
            live.remove(&task);
        }
        _ => {}
    }
}

fn check_fp_dispatch(events: &[(Time, TraceEvent)], ts: &TaskSet, out: &mut Vec<Violation>) {
    let mut live: BTreeSet<TaskId> = BTreeSet::new();
    for (i, &(t, ev)) in events.iter().enumerate() {
        if let TraceEvent::Dispatch { task, .. } = ev {
            let prio = ts.priority(task);
            for &other in &live {
                if other != task && ts.priority(other).is_higher_than(prio) {
                    violation(
                        out,
                        i,
                        t,
                        "fp-dispatch",
                        format!("{task} dispatched while higher-priority {other} is live"),
                    );
                }
            }
        }
        live_after(&mut live, &ev);
    }
}

fn check_edf_dispatch(events: &[(Time, TraceEvent)], ts: &TaskSet, out: &mut Vec<Violation>) {
    use std::collections::BTreeMap;
    // Absolute deadlines are reconstructed from job indices: the engine
    // stamps `Release` at the *noticed* time (jitter, tick quantization),
    // but assigns deadlines from the nominal arrival, which for job `k`
    // of a periodic task is `phase + k*period`.
    let mut deadlines: BTreeMap<TaskId, Time> = BTreeMap::new();
    for (i, &(t, ev)) in events.iter().enumerate() {
        match ev {
            TraceEvent::Release { task, job } => {
                let spec = ts.task(task);
                let arrival = Time::ZERO + spec.phase() + spec.period() * job;
                deadlines.insert(task, arrival + spec.deadline());
            }
            TraceEvent::Complete { task, .. } => {
                deadlines.remove(&task);
            }
            TraceEvent::Dispatch { task, .. } => {
                let Some(&own) = deadlines.get(&task) else {
                    violation(
                        out,
                        i,
                        t,
                        "edf-dispatch",
                        format!("{task} dispatched with no live job"),
                    );
                    continue;
                };
                for (&other, &d) in &deadlines {
                    if other != task && d < own {
                        violation(
                            out,
                            i,
                            t,
                            "edf-dispatch",
                            format!(
                                "{task} (deadline {own}) dispatched while {other} \
                                 (deadline {d}) is live"
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

/// The processor state implied by the most recent segment before event
/// `i`, if any.
fn prev_segment(events: &[(Time, TraceEvent)], i: usize) -> Option<CpuState> {
    events[..i].iter().rev().find_map(|&(_, ev)| match ev {
        TraceEvent::EnergySegment { state, .. } => Some(state),
        _ => None,
    })
}

/// Same-instant events strictly between the last segment boundary and
/// event `i` (exclusive), in trace order.
fn same_instant_before(
    events: &[(Time, TraceEvent)],
    i: usize,
) -> impl Iterator<Item = &TraceEvent> + '_ {
    let t = events[i].0;
    events[..i]
        .iter()
        .rev()
        .take_while(move |&&(u, _)| u == t)
        .map(|(_, ev)| ev)
}

fn same_instant_after(
    events: &[(Time, TraceEvent)],
    i: usize,
) -> impl Iterator<Item = &TraceEvent> + '_ {
    let t = events[i].0;
    events[i + 1..]
        .iter()
        .take_while(move |&&(u, _)| u == t)
        .map(|(_, ev)| ev)
}

fn check_dispatch_at_full_speed(
    events: &[(Time, TraceEvent)],
    cpu: &CpuSpec,
    out: &mut Vec<Violation>,
) {
    let full = cpu.full_freq();
    for (i, &(t, ev)) in events.iter().enumerate() {
        if !matches!(ev, TraceEvent::Dispatch { .. }) {
            continue;
        }
        let settled_full = match prev_segment(events, i) {
            // Start of time, NOP idling, full-speed execution, or a wake /
            // sleep transition that completes silently at this instant.
            None | Some(CpuState::IdleNop) | Some(CpuState::WakingUp) => true,
            Some(CpuState::Busy(f)) => f == full,
            Some(CpuState::PowerDown { .. }) => {
                same_instant_before(events, i).any(|e| matches!(e, TraceEvent::Wakeup))
            }
            Some(CpuState::Ramping { .. }) | Some(CpuState::RampingIdle { .. }) => false,
        };
        let just_settled = same_instant_before(events, i)
            .any(|e| matches!(e, TraceEvent::RampEnd { freq } if *freq == full));
        if !settled_full && !just_settled {
            violation(
                out,
                i,
                t,
                "dispatch-at-full-speed",
                format!(
                    "dispatch while the processor is in {:?} with no same-instant settle to {full}",
                    prev_segment(events, i)
                ),
            );
        }
    }
}

fn check_slowdown_solo(events: &[(Time, TraceEvent)], cpu: &CpuSpec, out: &mut Vec<Violation>) {
    let full = cpu.full_freq();
    let mut live: BTreeSet<TaskId> = BTreeSet::new();
    for (i, &(t, ev)) in events.iter().enumerate() {
        if let TraceEvent::RampStart { to, .. } = ev {
            if to < full && live.len() != 1 {
                violation(
                    out,
                    i,
                    t,
                    "slowdown-solo",
                    format!(
                        "downward ramp to {to} with {} live jobs (need exactly 1)",
                        live.len()
                    ),
                );
            }
        }
        live_after(&mut live, &ev);
    }
}

fn check_release_at_full_speed(
    events: &[(Time, TraceEvent)],
    cpu: &CpuSpec,
    out: &mut Vec<Violation>,
) {
    let full = cpu.full_freq();
    for (i, &(t, ev)) in events.iter().enumerate() {
        if !matches!(ev, TraceEvent::Release { .. }) {
            continue;
        }
        let ok = match prev_segment(events, i) {
            None | Some(CpuState::IdleNop) => true,
            Some(CpuState::Busy(f)) if f == full => true,
            // A wake-up span ending exactly here settles silently.
            Some(CpuState::WakingUp) => true,
            // Asleep: legal only if the wake timer fired at this very
            // instant (zero-latency wake); an overslept wake is flagged.
            Some(CpuState::PowerDown { .. }) => {
                same_instant_before(events, i).any(|e| matches!(e, TraceEvent::Wakeup))
            }
            // Slowed: legal if the speed-up timer fires now, which shows
            // up as the L1–L4 ramp back to full right after the release.
            Some(CpuState::Busy(_)) => same_instant_after(events, i)
                .any(|e| matches!(e, TraceEvent::RampStart { to, .. } if *to == full)),
            // Mid-ramp: legal only if the ramp settled to full just now.
            Some(CpuState::Ramping { .. }) | Some(CpuState::RampingIdle { .. }) => {
                same_instant_before(events, i)
                    .any(|e| matches!(e, TraceEvent::RampEnd { freq } if *freq == full))
            }
        };
        let flagged =
            same_instant_before(events, i).any(|e| matches!(e, TraceEvent::TimingViolation));
        if !ok && !flagged {
            violation(
                out,
                i,
                t,
                "release-at-full-speed",
                format!(
                    "release while the processor is in {:?} without a TimingViolation flag",
                    prev_segment(events, i)
                ),
            );
        }
    }
}

fn check_powerdown_idle(events: &[(Time, TraceEvent)], out: &mut Vec<Violation>) {
    let mut live: BTreeSet<TaskId> = BTreeSet::new();
    for (i, &(t, ev)) in events.iter().enumerate() {
        if let TraceEvent::EnterPowerDown { wake_at } = ev {
            if !live.is_empty() {
                violation(
                    out,
                    i,
                    t,
                    "powerdown-idle",
                    format!("entered power-down with {} live jobs", live.len()),
                );
            }
            if wake_at < t {
                violation(
                    out,
                    i,
                    t,
                    "powerdown-idle",
                    format!("wake timer {wake_at} set in the past"),
                );
            }
            // The wake must precede the next release: sleeping through an
            // arrival would break Fig. 4's exact-wake construction.
            let next_release = events[i + 1..]
                .iter()
                .find(|(_, e)| matches!(e, TraceEvent::Release { .. }))
                .map(|&(u, _)| u);
            if let Some(r) = next_release {
                if r < wake_at {
                    violation(
                        out,
                        i,
                        t,
                        "powerdown-idle",
                        format!("asleep until {wake_at} but the next release is at {r}"),
                    );
                }
            }
        }
        live_after(&mut live, &ev);
    }
}

fn check_ramp_end_matches_start(events: &[(Time, TraceEvent)], out: &mut Vec<Violation>) {
    let mut pending: Option<Freq> = None;
    for (i, &(t, ev)) in events.iter().enumerate() {
        match ev {
            TraceEvent::RampStart { to, .. } => pending = Some(to),
            TraceEvent::RampEnd { freq } => match pending.take() {
                Some(target) if target == freq => {}
                Some(target) => violation(
                    out,
                    i,
                    t,
                    "ramp-end-matches-start",
                    format!("ramp settled at {freq} but the latest start targeted {target}"),
                ),
                None => violation(
                    out,
                    i,
                    t,
                    "ramp-end-matches-start",
                    format!("ramp end at {freq} with no ramp in flight"),
                ),
            },
            _ => {}
        }
    }
}

fn check_slowdown_at_invocation(
    events: &[(Time, TraceEvent)],
    cpu: &CpuSpec,
    out: &mut Vec<Violation>,
) {
    let full = cpu.full_freq();
    for (i, &(t, ev)) in events.iter().enumerate() {
        let TraceEvent::RampStart { to, .. } = ev else {
            continue;
        };
        if to >= full {
            // Upward ramps may be triggered by the silent speed-up timer.
            continue;
        }
        let invoked = same_instant_before(events, i).any(|e| {
            matches!(
                e,
                TraceEvent::Release { .. }
                    | TraceEvent::Dispatch { .. }
                    | TraceEvent::Complete { .. }
                    | TraceEvent::BudgetOverrun { .. }
                    | TraceEvent::TimingViolation
                    | TraceEvent::RampEnd { .. }
            )
        });
        if !invoked {
            violation(
                out,
                i,
                t,
                "slowdown-at-invocation",
                format!("downward ramp to {to} with no same-instant scheduler invocation"),
            );
        }
    }
}

fn check_counter_consistency(trace: &Trace, report: &SimReport, out: &mut Vec<Violation>) {
    let last = trace.len().saturating_sub(1);
    let end = Time::ZERO + report.horizon;
    let mut expect = |name: &'static str, counted: usize, recorded: u64| {
        if counted as u64 != recorded {
            violation(
                out,
                last,
                end,
                "counter-consistency",
                format!("counters.{name} is {recorded} but the trace holds {counted} such events"),
            );
        }
    };
    let c = &report.counters;
    expect(
        "releases",
        trace.count(|e| matches!(e, TraceEvent::Release { .. })),
        c.releases,
    );
    expect(
        "dispatches",
        trace.count(|e| matches!(e, TraceEvent::Dispatch { .. })),
        c.dispatches,
    );
    expect(
        "preemptions",
        trace.count(|e| matches!(e, TraceEvent::Preempt { .. })),
        c.preemptions,
    );
    expect(
        "completions",
        trace.count(|e| matches!(e, TraceEvent::Complete { .. })),
        c.completions,
    );
    expect(
        "ramps",
        trace.count(|e| matches!(e, TraceEvent::RampStart { .. })),
        c.ramps,
    );
    expect(
        "power_downs",
        trace.count(|e| matches!(e, TraceEvent::EnterPowerDown { .. })),
        c.power_downs,
    );
    expect(
        "watchdog_faults",
        trace.count(|e| {
            matches!(
                e,
                TraceEvent::BudgetOverrun { .. } | TraceEvent::TimingViolation
            )
        }),
        c.watchdog_faults,
    );
    let completed: u64 = report.responses.iter().map(|r| r.completed).sum();
    if completed != c.completions {
        violation(
            out,
            last,
            end,
            "counter-consistency",
            format!(
                "response stats record {completed} completions, counters record {}",
                c.completions
            ),
        );
    }
    let traced_misses = trace.count(|e| matches!(e, TraceEvent::Complete { met: false, .. }));
    let reported = report
        .misses
        .iter()
        .filter(|m| m.completed_at.is_some() && m.completed_at != Some(end))
        .count();
    if traced_misses != reported {
        violation(
            out,
            last,
            end,
            "counter-consistency",
            format!("trace holds {traced_misses} missed completions, the report lists {reported}"),
        );
    }
}
