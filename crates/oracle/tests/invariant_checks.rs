//! The invariant checker against real kernel traces: clean runs must be
//! violation-free, doctored traces must not be. Every invariant has a
//! doctored trace that makes it fire.

use lpfps::driver::{default_horizon, effective_cpu, run_in, PolicyKind};
use lpfps::{simulate, RatioLogger};
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_oracle::{check_report, check_theorem1};
use lpfps_tasks::exec::{AlwaysWcet, ExecModel, PaperGaussian};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use lpfps_workloads::{avionics, cnc, ins, table1};
use std::collections::BTreeSet;

/// Runs with a [`Trace`] attached, on `ws` so the caller can read the
/// fast-forward statistics afterwards.
fn run_traced(
    ts: &TaskSet,
    kind: PolicyKind,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    ws: &mut SimWorkspace,
) -> (SimReport, Trace) {
    let mut trace = Trace::new();
    let report = run_in(ts, &CpuSpec::arm8(), kind, exec, cfg, ws, &mut trace).unwrap();
    (report, trace)
}

/// A complete trace of one cell: full simulation forced.
fn traced(ts: &TaskSet, kind: PolicyKind, faults: FaultConfig) -> (TaskSet, SimReport, Trace) {
    let scaled = ts.with_bcet_fraction(0.5);
    let cfg = SimConfig::new(default_horizon(&scaled))
        .with_seed(42)
        .with_faults(faults)
        .with_force_full_simulation();
    let (report, trace) = run_traced(
        &scaled,
        kind,
        &PaperGaussian,
        &cfg,
        &mut SimWorkspace::new(),
    );
    (scaled, report, trace)
}

#[test]
fn clean_runs_satisfy_every_invariant() {
    let overrun = FaultConfig::none()
        .with_seed(7)
        .with_overrun(OverrunFault::clamped(0.1, 0.3, 1.3));
    for ts in [table1(), avionics(), cnc(), ins()] {
        for kind in [
            PolicyKind::Fps,
            PolicyKind::FpsPd,
            PolicyKind::Lpfps,
            PolicyKind::LpfpsWatchdog,
            PolicyKind::Edf,
            PolicyKind::CcEdf,
        ] {
            for faults in [FaultConfig::none(), overrun] {
                let (scaled, report, trace) = traced(&ts, kind, faults);
                let cpu = effective_cpu(&scaled, &CpuSpec::arm8(), kind);
                let violations = check_report(&scaled, &cpu, &report, &trace);
                assert!(
                    violations.is_empty(),
                    "{}/{kind}: {} violations, first: {}",
                    ts.name(),
                    violations.len(),
                    violations[0]
                );
            }
        }
    }
}

/// Preempt-at-completion tie: when a higher-priority release lands at
/// the very instant the running job retires, the kernel records a
/// `Complete` + `Dispatch` pair — never a `Preempt` — and the Gantt
/// reconstruction of that trace must agree with the trace checker:
/// zero violations, non-overlapping segments, exact busy attribution.
#[test]
fn gantt_agrees_with_the_checker_on_preempt_at_completion_ties() {
    use lpfps_obs::gantt::Gantt;
    use lpfps_tasks::task::Task;
    // hi releases at t = 50 us exactly as lo retires its 40 us of work
    // (hi 0..10, lo 10..50): a tie at every hi period boundary.
    let ts = TaskSet::rate_monotonic(
        "tie",
        vec![
            Task::new("hi", Dur::from_us(50), Dur::from_us(10)),
            Task::new("lo", Dur::from_us(100), Dur::from_us(40)),
        ],
    );
    let cfg = SimConfig::new(Dur::from_us(200)).with_force_full_simulation();
    let (report, trace) = run_traced(
        &ts,
        PolicyKind::Fps,
        &AlwaysWcet,
        &cfg,
        &mut SimWorkspace::new(),
    );

    // The tie is resolved as completion-then-dispatch, not preemption.
    assert!(
        trace
            .iter()
            .all(|(_, e)| !matches!(e, TraceEvent::Preempt { .. })),
        "a completion tie must not be recorded as a preemption"
    );
    let at_50: Vec<TraceEvent> = trace
        .iter()
        .filter(|&(at, _)| at == Time::from_us(50))
        .map(|(_, e)| e)
        .collect();
    assert!(at_50.iter().any(|e| matches!(
        e,
        TraceEvent::Complete {
            task: TaskId(1),
            ..
        }
    )));
    assert!(at_50.iter().any(|e| matches!(
        e,
        TraceEvent::Dispatch {
            task: TaskId(0),
            ..
        }
    )));

    // The checker accepts the trace...
    let violations = check_report(&ts, &CpuSpec::arm8(), &report, &trace);
    assert!(violations.is_empty(), "first: {}", violations[0]);

    // ...and the Gantt built from it is overlap-free with exact busy
    // attribution: 4 x 10 us of hi and 2 x 40 us of lo over 200 us.
    let g = Gantt::from_trace(&trace, Time::from_us(200));
    for pair in g.segments().windows(2) {
        assert!(pair[0].to <= pair[1].from, "{pair:?} overlap at the tie");
    }
    assert_eq!(g.task_busy(TaskId(0)), Dur::from_us(40));
    assert_eq!(g.task_busy(TaskId(1)), Dur::from_us(80));
}

#[test]
fn static_baseline_checks_against_its_derated_spec() {
    let (scaled, report, trace) =
        traced(&table1(), PolicyKind::StaticSlowdown, FaultConfig::none());
    let cpu = effective_cpu(&scaled, &CpuSpec::arm8(), PolicyKind::StaticSlowdown);
    let violations = check_report(&scaled, &cpu, &report, &trace);
    assert!(violations.is_empty(), "first: {}", violations[0]);
}

/// Rebuilds a trace with `f` applied to every `(time, event)` pair.
fn doctor(trace: &Trace, mut f: impl FnMut(usize, TraceEvent) -> TraceEvent) -> Trace {
    let mut out = Trace::new();
    for (i, (t, ev)) in trace.iter().enumerate() {
        out.push(t, f(i, ev));
    }
    out
}

fn lpfps_table1_traced() -> (TaskSet, SimReport, Trace) {
    traced(&table1(), PolicyKind::Lpfps, FaultConfig::none())
}

/// `trace` with the event at `from` moved to index `to`. Both indices
/// must stamp the same instant, so the trace stays time-ordered.
fn moved(trace: &Trace, from: usize, to: usize) -> Trace {
    let stamped: Vec<(Time, TraceEvent)> = trace.iter().collect();
    assert!(
        stamped[from].0 == stamped[to].0,
        "moves stay in one instant"
    );
    let mut events: Vec<TraceEvent> = stamped.iter().map(|&(_, ev)| ev).collect();
    let ev = events.remove(from);
    events.insert(to, ev);
    doctor(trace, |i, _| events[i])
}

/// Checks `trace` against `report` and asserts that exactly the
/// invariants `ids` fire.
fn assert_fires(ts: &TaskSet, report: &SimReport, trace: &Trace, ids: &[&str]) {
    let violations = check_report(ts, &CpuSpec::arm8(), report, trace);
    let fired: BTreeSet<&str> = violations.iter().map(|v| v.invariant).collect();
    assert_eq!(
        fired,
        BTreeSet::from_iter(ids.iter().copied()),
        "{violations:?}"
    );
}

/// The index of the first same-instant `(Release, Dispatch, downward
/// RampStart)`: a lone job released and slowed down at once.
fn lone_release_slowdown(trace: &Trace) -> usize {
    let full = CpuSpec::arm8().full_freq();
    let events: Vec<(Time, TraceEvent)> = trace.iter().collect();
    events
        .windows(3)
        .position(|w| {
            w[0].0 == w[2].0
                && matches!(w[0].1, TraceEvent::Release { .. })
                && matches!(w[1].1, TraceEvent::Dispatch { .. })
                && matches!(w[2].1, TraceEvent::RampStart { to, .. } if to < full)
        })
        .expect("the LPFPS Table 1 trace slows a lone released job down")
}

/// The INS trace under LPFPS with overruns, and the index of its first
/// settle at full speed co-stamped with a release: the speed-up ramp
/// ends as the next job arrives, and release, preemption and dispatch
/// follow it.
fn settle_at_release() -> (TaskSet, SimReport, Trace, usize) {
    let overrun = FaultConfig::none()
        .with_seed(7)
        .with_overrun(OverrunFault::clamped(0.1, 0.3, 1.3));
    let (ts, report, trace) = traced(&ins(), PolicyKind::Lpfps, overrun);
    let full = CpuSpec::arm8().full_freq();
    let events: Vec<(Time, TraceEvent)> = trace.iter().collect();
    let at = events
        .windows(2)
        .position(|w| {
            w[0].0 == w[1].0
                && w[0].1 == TraceEvent::RampEnd { freq: full }
                && matches!(w[1].1, TraceEvent::Release { .. })
        })
        .expect("a speed-up ramp settles at a release");
    (ts, report, trace, at)
}

#[test]
fn time_running_backwards_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    // Restamp the first wake-up 1 ns before the event preceding it.
    // `Trace::push` refuses that order, so build the trace through
    // `Trace`'s `Deserialize`. The stamp also leaves the segment
    // frontier, which the tiling check reports.
    let mut events: Vec<(Time, TraceEvent)> = trace.iter().collect();
    let k = events
        .iter()
        .position(|&(_, ev)| ev == TraceEvent::Wakeup)
        .expect("LPFPS powers down on Table 1");
    events[k].0 = events[k - 1].0 - Dur::from_ns(1);
    let json = serde_json::to_string(&events).unwrap();
    let doctored: Trace = serde_json::from_str(&format!("{{\"events\":{json}}}")).unwrap();
    assert_fires(
        &ts,
        &report,
        &doctored,
        &["monotone-time", "segment-tiling"],
    );
}

#[test]
fn out_of_deadline_order_dispatch_is_detected() {
    // The EDF counterpart of the fixed-priority test below: every
    // dispatch of tau1 goes to tau3 instead, whose deadline is later.
    let (ts, report, trace) = traced(&table1(), PolicyKind::Edf, FaultConfig::none());
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::Dispatch {
            task: TaskId(0),
            job,
        } => TraceEvent::Dispatch {
            task: TaskId(2),
            job,
        },
        ev => ev,
    });
    assert_fires(&ts, &report, &doctored, &["edf-dispatch"]);
}

#[test]
fn dispatch_before_the_clock_settles_is_detected() {
    // Move the settle after the dispatch it enables. The release at that
    // instant now also precedes the settle, so both full-speed checks fire.
    let (ts, report, trace, settle) = settle_at_release();
    let is_dispatch = |(_, ev): (Time, TraceEvent)| matches!(ev, TraceEvent::Dispatch { .. });
    let dispatch = settle + trace.iter().skip(settle).position(is_dispatch).unwrap();
    let doctored = moved(&trace, settle, dispatch);
    assert_fires(
        &ts,
        &report,
        &doctored,
        &["dispatch-at-full-speed", "release-at-full-speed"],
    );
}

#[test]
fn release_before_the_clock_settles_is_detected() {
    // Move the settle just past the release: the dispatch still follows
    // it, the release no longer does.
    let (ts, report, trace, settle) = settle_at_release();
    let doctored = moved(&trace, settle, settle + 1);
    assert_fires(&ts, &report, &doctored, &["release-at-full-speed"]);
}

#[test]
fn slowdown_with_no_live_job_is_detected() {
    // Move the lone job's release after its slowdown: the ramp now starts
    // with zero live jobs, still co-stamped with the dispatch.
    let (ts, report, trace) = lpfps_table1_traced();
    let release = lone_release_slowdown(&trace);
    let doctored = moved(&trace, release, release + 2);
    assert_fires(&ts, &report, &doctored, &["slowdown-solo"]);
}

#[test]
fn slowdown_outside_a_scheduler_invocation_is_detected() {
    // Move the slowdown before the release and dispatch that invoke the
    // scheduler. No job is live yet at that point, so the ramp also
    // breaks slowdown-solo: every downward ramp in a clean trace follows
    // the change to the live set that made its job the lone one.
    let (ts, report, trace) = lpfps_table1_traced();
    let release = lone_release_slowdown(&trace);
    let doctored = moved(&trace, release + 2, release);
    assert_fires(
        &ts,
        &report,
        &doctored,
        &["slowdown-at-invocation", "slowdown-solo"],
    );
}

#[test]
fn sleeping_through_a_release_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    let mut hit = false;
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::EnterPowerDown { wake_at } if !hit => {
            hit = true;
            TraceEvent::EnterPowerDown {
                wake_at: wake_at + Dur::from_ms(1),
            }
        }
        ev => ev,
    });
    assert!(hit, "LPFPS powers down on Table 1");
    assert_fires(&ts, &report, &doctored, &["powerdown-idle"]);
}

#[test]
fn ramp_settling_off_its_target_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    let full = CpuSpec::arm8().full_freq();
    let mut hit = false;
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::RampEnd { freq } if !hit && freq < full => {
            hit = true;
            TraceEvent::RampEnd {
                freq: Freq::from_mhz(1),
            }
        }
        ev => ev,
    });
    assert!(hit, "LPFPS settles at a slowed frequency on Table 1");
    assert_fires(&ts, &report, &doctored, &["ramp-end-matches-start"]);
}

#[test]
fn corrupted_segment_power_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    let mut hit = false;
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::EnergySegment { state, power, dur } if !hit && power > 0.0 => {
            hit = true;
            TraceEvent::EnergySegment {
                state,
                power: power * 1.01,
                dur,
            }
        }
        ev => ev,
    });
    // The inflated segment breaks both the power-model check and the
    // energy replay.
    assert_fires(&ts, &report, &doctored, &["segment-power", "energy-replay"]);
}

#[test]
fn corrupted_counters_are_detected() {
    let (ts, mut report, trace) = lpfps_table1_traced();
    report.counters.dispatches += 1;
    let violations = check_report(&ts, &CpuSpec::arm8(), &report, &trace);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "counter-consistency" && v.detail.contains("dispatches")),
        "got: {violations:?}"
    );
}

#[test]
fn out_of_priority_dispatch_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    // Retarget every dispatch of the highest-priority task (tau1, TaskId 0)
    // to the lowest-priority one while tau1 stays live — a fixed-priority
    // violation the checker must flag.
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::Dispatch {
            task: TaskId(0),
            job,
        } => TraceEvent::Dispatch {
            task: TaskId(2),
            job,
        },
        ev => ev,
    });
    assert_fires(&ts, &report, &doctored, &["fp-dispatch"]);
}

#[test]
fn truncated_segment_tiling_is_detected() {
    let (ts, report, trace) = lpfps_table1_traced();
    let mut shrunk = false;
    let doctored = doctor(&trace, |_, ev| match ev {
        TraceEvent::EnergySegment { state, power, dur } if !shrunk && dur > Dur::from_ns(1) => {
            shrunk = true;
            TraceEvent::EnergySegment {
                state,
                power,
                dur: dur - Dur::from_ns(1),
            }
        }
        ev => ev,
    });
    assert_fires(
        &ts,
        &report,
        &doctored,
        &["segment-tiling", "energy-replay"],
    );
}

/// A probe sees only simulated events, so a complete trace needs full
/// simulation forced. An AlwaysWcet `lpfps` cell over 12 hyperperiods is
/// fast-forward eligible: traced with full simulation forced it checks
/// clean; traced with the fast-forward on, the detector skips cycles and
/// the gapped trace fails the checker.
#[test]
fn complete_traces_need_full_simulation() {
    use lpfps_tasks::analysis::hyperperiod;
    let ts = table1();
    let h = hyperperiod(&ts).expect("table1 has a hyperperiod");
    let cfg = SimConfig::new(h * 12);
    let mut ws = SimWorkspace::new();

    let full_cfg = cfg.clone().with_force_full_simulation();
    let (report, trace) = run_traced(&ts, PolicyKind::Lpfps, &AlwaysWcet, &full_cfg, &mut ws);
    assert_eq!(ws.fast_forward_stats().cycles_detected, 0);
    let violations = check_report(&ts, &CpuSpec::arm8(), &report, &trace);
    assert!(violations.is_empty(), "first: {}", violations[0]);

    let (report, trace) = run_traced(&ts, PolicyKind::Lpfps, &AlwaysWcet, &cfg, &mut ws);
    assert!(ws.fast_forward_stats().cycles_detected > 0);
    let violations = check_report(&ts, &CpuSpec::arm8(), &report, &trace);
    assert!(!violations.is_empty(), "a fast-forwarded trace has gaps");
}

#[test]
fn theorem1_holds_on_every_workload() {
    // Drive the instrumented policy directly so every slow-down decision
    // logs its (r_heu, r_opt) pair, then check Theorem 1 over the stream.
    for ts in [table1(), avionics(), cnc(), ins()] {
        let scaled = ts.with_bcet_fraction(0.5);
        let cfg = SimConfig::new(default_horizon(&scaled)).with_seed(42);
        let mut logger = RatioLogger::new(lpfps::LpfpsPolicy::new());
        simulate(&scaled, &CpuSpec::arm8(), &mut logger, &PaperGaussian, &cfg).unwrap();
        assert!(
            !logger.samples().is_empty(),
            "{}: no slow-downs sampled",
            ts.name()
        );
        let violations = check_theorem1(logger.samples());
        assert!(
            violations.is_empty(),
            "{}: first: {}",
            ts.name(),
            violations[0]
        );
    }
}

#[test]
fn theorem1_checker_flags_inverted_samples() {
    use lpfps::RatioSample;
    let bad = RatioSample {
        now: Time::from_us(10),
        remaining: Dur::from_us(5),
        window: Dur::from_us(10),
        r_heu: 0.4,
        r_opt: 0.5,
        freq: Freq::from_mhz(50),
    };
    let violations = check_theorem1(&[bad]);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].invariant, "theorem1");
}
