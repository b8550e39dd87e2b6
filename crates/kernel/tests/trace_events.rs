//! One test per [`TraceEvent`] variant, each pinning the *instant* the
//! kernel stamps it — the documented contract the observability layer
//! (probes, the Gantt builder, the Perfetto exporter) builds on.
//!
//! | variant           | documented instant                                  |
//! |-------------------|-----------------------------------------------------|
//! | `Release`         | each period boundary (delay queue -> run queue)     |
//! | `Dispatch`        | execution starts or resumes                         |
//! | `Preempt`         | the preemptor's release instant                     |
//! | `Complete`        | the job retires its last cycle                      |
//! | `RampStart`       | the decision point that commanded the ramp          |
//! | `RampEnd`         | ramp start + the spec's ramp duration               |
//! | `EnterPowerDown`  | the decision point, carrying the armed `wake_at`    |
//! | `Wakeup`          | exactly the armed `wake_at`                         |
//! | `IdleStart`       | the instant the processor goes idle (NOP loop)      |
//! | `BudgetOverrun`   | exactly when the WCET budget exhausts               |
//! | `TimingViolation` | the release that caught the processor unsettled     |
//! | `EnergySegment`   | each span's *start*; consecutive spans tile exactly |

use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault, WakeupJitter};
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::policy::{
    AlwaysFullSpeed, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext,
};
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_tasks::exec::AlwaysWcet;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::{Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};

fn one_task(period_us: u64, wcet_us: u64) -> TaskSet {
    TaskSet::rate_monotonic(
        "one",
        vec![Task::new(
            "t0",
            Dur::from_us(period_us),
            Dur::from_us(wcet_us),
        )],
    )
}

fn two_tasks() -> TaskSet {
    // hi preempts lo at hi's second release (t = 100 us): lo still holds
    // 60 us of its 150 us demand at that point.
    TaskSet::rate_monotonic(
        "two",
        vec![
            Task::new("hi", Dur::from_us(100), Dur::from_us(10)),
            Task::new("lo", Dur::from_us(300), Dur::from_us(150)),
        ],
    )
}

/// Runs with a [`Trace`] probe attached and full simulation forced, so the
/// trace holds every event of the run.
fn traced_with(ts: &TaskSet, policy: &mut dyn PowerPolicy, cfg: SimConfig) -> (SimReport, Trace) {
    let cfg = cfg.with_force_full_simulation();
    let (cpu, mut ws, mut trace) = (CpuSpec::arm8(), SimWorkspace::new(), Trace::new());
    let report = simulate_in(ts, &cpu, policy, &AlwaysWcet, &cfg, &mut ws, &mut trace);
    (report.expect("valid simulation"), trace)
}

fn traced(ts: &TaskSet, policy: &mut dyn PowerPolicy, horizon_us: u64) -> Trace {
    traced_with(ts, policy, SimConfig::new(Dur::from_us(horizon_us))).1
}

fn events<'a>(
    trace: &'a Trace,
    pred: impl Fn(&TraceEvent) -> bool + 'a,
) -> impl Iterator<Item = (Time, TraceEvent)> + 'a {
    trace.iter().filter(move |(_, e)| pred(e))
}

#[test]
fn release_is_stamped_at_every_period_boundary() {
    let trace = traced(&one_task(100, 10), &mut AlwaysFullSpeed, 250);
    let releases: Vec<_> = events(&trace, |e| matches!(e, TraceEvent::Release { .. })).collect();
    assert_eq!(
        releases.len(),
        3,
        "250 us hold exactly three 100 us periods"
    );
    for (job, (at, e)) in releases.into_iter().enumerate() {
        assert_eq!(at, Time::from_us(100 * job as u64));
        assert_eq!(
            e,
            TraceEvent::Release {
                task: TaskId(0),
                job: job as u64
            }
        );
    }
}

#[test]
fn dispatch_is_stamped_when_execution_starts_or_resumes() {
    let trace = traced(&two_tasks(), &mut AlwaysFullSpeed, 300);
    let dispatches: Vec<_> = events(&trace, |e| matches!(e, TraceEvent::Dispatch { .. })).collect();
    // hi job 0 starts at its release; lo starts when hi completes; lo
    // *resumes* (a fresh Dispatch) once hi job 1 retires at t = 110.
    assert_eq!(
        &dispatches[..3],
        &[
            (
                Time::from_us(0),
                TraceEvent::Dispatch {
                    task: TaskId(0),
                    job: 0
                }
            ),
            (
                Time::from_us(10),
                TraceEvent::Dispatch {
                    task: TaskId(1),
                    job: 0
                }
            ),
            (
                Time::from_us(100),
                TraceEvent::Dispatch {
                    task: TaskId(0),
                    job: 1
                }
            ),
        ]
    );
    assert_eq!(
        dispatches[3],
        (
            Time::from_us(110),
            TraceEvent::Dispatch {
                task: TaskId(1),
                job: 0
            }
        ),
        "the preempted job resumes the instant the preemptor completes"
    );
}

#[test]
fn preempt_is_stamped_at_the_preemptor_release() {
    let trace = traced(&two_tasks(), &mut AlwaysFullSpeed, 300);
    let preempts: Vec<_> = events(&trace, |e| matches!(e, TraceEvent::Preempt { .. })).collect();
    assert_eq!(
        preempts.first(),
        Some(&(
            Time::from_us(100),
            TraceEvent::Preempt {
                task: TaskId(1),
                by: TaskId(0)
            }
        )),
        "lo is preempted exactly when hi's second job releases"
    );
}

#[test]
fn complete_records_response_and_deadline_verdict_at_retirement() {
    let trace = traced(&one_task(100, 10), &mut AlwaysFullSpeed, 100);
    let completes: Vec<_> = events(&trace, |e| matches!(e, TraceEvent::Complete { .. })).collect();
    assert_eq!(
        completes,
        vec![(
            Time::from_us(10),
            TraceEvent::Complete {
                task: TaskId(0),
                job: 0,
                response: Dur::from_us(10),
                met: true
            }
        )],
        "at full speed an AlwaysWcet job retires exactly WCET after release"
    );

    // An unschedulable pair: lo (150 us demand, 300 us deadline) loses
    // 10 us to each of hi's three releases it spans, retiring at 180 us —
    // still met; shrink lo's period to 170 us and the verdict flips.
    let late = TaskSet::rate_monotonic(
        "late",
        vec![
            Task::new("hi", Dur::from_us(100), Dur::from_us(50)),
            Task::new("lo", Dur::from_us(150), Dur::from_us(74)),
        ],
    );
    let trace = traced(&late, &mut AlwaysFullSpeed, 300);
    let (at, e) = events(
        &trace,
        |e| matches!(e, TraceEvent::Complete { task, .. } if *task == TaskId(1)),
    )
    .next()
    .expect("lo completes inside the horizon");
    // lo runs 50..100, is preempted through 150, resumes and retires at
    // 174 us — 24 us past its 150 us deadline.
    assert_eq!(at, Time::from_us(174));
    assert_eq!(
        e,
        TraceEvent::Complete {
            task: TaskId(1),
            job: 0,
            response: Dur::from_us(174),
            met: false
        }
    );
}

#[test]
fn idle_start_is_stamped_the_instant_the_processor_goes_idle() {
    let trace = traced(&one_task(100, 10), &mut AlwaysFullSpeed, 250);
    let idles: Vec<Time> = events(&trace, |e| matches!(e, TraceEvent::IdleStart))
        .map(|(at, _)| at)
        .collect();
    // Under the full-speed policy the NOP loop starts the instant each
    // job retires (10 us into every 100 us period).
    assert_eq!(
        idles,
        vec![Time::from_us(10), Time::from_us(110), Time::from_us(210)]
    );
}

#[test]
fn energy_segments_are_stamped_at_span_starts_and_tile_the_horizon() {
    let mut full = AlwaysFullSpeed;
    let mut slow = SlowOnce::default();
    let policies: [&mut dyn PowerPolicy; 2] = [&mut full, &mut slow];
    for policy in policies {
        let trace = traced(&one_task(100, 10), policy, 250);
        let mut cursor = Time::ZERO;
        let segments = events(&trace, |e| matches!(e, TraceEvent::EnergySegment { .. }));
        for (n, (at, e)) in segments.into_iter().enumerate() {
            let TraceEvent::EnergySegment { dur, .. } = e else {
                unreachable!()
            };
            assert_eq!(
                at, cursor,
                "segment {n} must start where its predecessor ended"
            );
            assert!(dur > Dur::ZERO, "zero-width spans are never emitted");
            cursor = at + dur;
        }
        assert_eq!(
            cursor,
            Time::from_us(250),
            "consecutive segments tile [0, horizon] exactly"
        );
    }
}

/// One-shot slow-down: the first time a lone task is active with a known
/// next arrival, ramp to 50 MHz and arm the speed-up timer so the
/// processor is back at full speed for that arrival.
#[derive(Debug, Default)]
struct SlowOnce {
    fired: bool,
}

impl PolicyCore for SlowOnce {
    fn name(&self) -> &'static str {
        "slow-once"
    }
}

impl PowerPolicy for SlowOnce {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        if !self.fired && ctx.active.is_some() && ctx.run_queue.is_empty() {
            if let Some(t_a) = ctx.next_arrival() {
                let freq = Freq::from_mhz(50);
                self.fired = true;
                return PowerDirective::SlowDown {
                    freq,
                    speedup_at: t_a - ctx.cpu.ramp_duration(freq, ctx.cpu.full_freq()),
                };
            }
        }
        PowerDirective::FullSpeed
    }
}

#[test]
fn ramp_start_and_end_bracket_the_commanded_transition() {
    let ts = two_tasks();
    let cpu = CpuSpec::arm8();
    // hi retires at t = 10 us, leaving lo alone with hi's next arrival at
    // 100 us known: SlowOnce commands the ramp at that decision point.
    let trace = traced(&ts, &mut SlowOnce::default(), 300);
    let ramps: Vec<_> = events(&trace, |e| {
        matches!(e, TraceEvent::RampStart { .. } | TraceEvent::RampEnd { .. })
    })
    .collect();
    let down = cpu.ramp_duration(Freq::from_mhz(100), Freq::from_mhz(50));
    assert_eq!(
        &ramps[..2],
        &[
            (
                Time::from_us(10),
                TraceEvent::RampStart {
                    from: Freq::from_mhz(100),
                    to: Freq::from_mhz(50)
                }
            ),
            (
                Time::from_us(10) + down,
                TraceEvent::RampEnd {
                    freq: Freq::from_mhz(50)
                }
            ),
        ],
        "RampStart at the decision instant; RampEnd exactly ramp_duration later"
    );
    // The ramp back up (whenever the kernel starts it) obeys the same
    // start + duration contract.
    let up = cpu.ramp_duration(Freq::from_mhz(50), Freq::from_mhz(100));
    let (up_start, e) = ramps[2];
    assert_eq!(
        e,
        TraceEvent::RampStart {
            from: Freq::from_mhz(50),
            to: Freq::from_mhz(100)
        }
    );
    assert_eq!(
        ramps[3],
        (
            up_start + up,
            TraceEvent::RampEnd {
                freq: Freq::from_mhz(100)
            }
        )
    );
}

/// One-shot power-down with the Fig. 4 L14 compensation: the wake timer
/// is armed `wakeup_delay` early so the processor is settled at full
/// speed by the next release. (An uncompensated `wake_at` would be
/// rejected up front — the engine validates directives — so the *late*
/// wake-up of the TimingViolation test is injected as a wake-up-jitter
/// fault instead.)
#[derive(Debug, Default)]
struct SleepOnce {
    fired: bool,
}

impl PolicyCore for SleepOnce {
    fn name(&self) -> &'static str {
        "sleep-once"
    }
}

impl PowerPolicy for SleepOnce {
    fn decide(&mut self, ctx: &SchedulerContext<'_>) -> PowerDirective {
        if !self.fired && ctx.active.is_none() && ctx.run_queue.is_empty() {
            if let Some(t_a) = ctx.next_arrival() {
                self.fired = true;
                return PowerDirective::PowerDown {
                    wake_at: t_a - ctx.cpu.wakeup_delay(),
                    mode: 0,
                };
            }
        }
        PowerDirective::FullSpeed
    }
}

#[test]
fn enter_power_down_carries_the_armed_instant_and_wakeup_fires_at_it() {
    let cpu = CpuSpec::arm8();
    let mut policy = SleepOnce::default();
    let trace = traced(&one_task(100, 20), &mut policy, 200);
    let wake_at = Time::from_us(100) - cpu.wakeup_delay();
    assert_eq!(
        events(&trace, |e| matches!(e, TraceEvent::EnterPowerDown { .. }))
            .next()
            .unwrap(),
        (Time::from_us(20), TraceEvent::EnterPowerDown { wake_at }),
        "power-down is stamped at the decision point, carrying wake_at"
    );
    assert_eq!(
        events(&trace, |e| matches!(e, TraceEvent::Wakeup))
            .next()
            .map(|(at, _)| at),
        Some(wake_at),
        "the wake-up timer fires exactly when armed"
    );
    // The compensation worked: the t = 100 us release found the processor
    // settled, so no violation was recorded.
    assert_eq!(
        events(&trace, |e| matches!(e, TraceEvent::TimingViolation)).count(),
        0
    );
}

#[test]
fn timing_violation_is_stamped_at_the_release_that_caught_the_processor_down() {
    // The policy wakes exactly `wakeup_delay` before the t = 100 us
    // release; injected wake-up jitter adds latency on top, so the
    // release catches the processor still waking up.
    let faults = FaultConfig::none()
        .with_seed(9)
        .with_wakeup_jitter(WakeupJitter::uniform(Dur::from_us(5)));
    let cfg = SimConfig::new(Dur::from_us(200)).with_faults(faults);
    let (report, trace) = traced_with(&one_task(100, 20), &mut SleepOnce::default(), cfg);
    assert_eq!(
        events(&trace, |e| matches!(e, TraceEvent::TimingViolation))
            .next()
            .map(|(at, _)| at),
        Some(Time::from_us(100)),
        "the violation is stamped at the detecting release"
    );
    assert!(report.counters.watchdog_faults > 0);
}

#[test]
fn budget_overrun_is_stamped_exactly_when_the_budget_exhausts() {
    let ts = one_task(100, 20);
    let faults = FaultConfig::none()
        .with_seed(1)
        .with_overrun(OverrunFault::clamped(1.0, 0.5, 1.5));
    let cfg = SimConfig::new(Dur::from_us(100)).with_faults(faults);
    let (report, trace) = traced_with(&ts, &mut AlwaysFullSpeed, cfg);
    // p = 1 guarantees the overrun fires and injects at least one cycle
    // beyond the budget; at full speed the 20 us budget of the job
    // dispatched at t = 0 exhausts at exactly t = 20 us.
    assert_eq!(
        events(&trace, |e| matches!(e, TraceEvent::BudgetOverrun { .. }))
            .next()
            .unwrap(),
        (
            Time::from_us(20),
            TraceEvent::BudgetOverrun { task: TaskId(0) }
        ),
        "detection happens when the budget exhausts, not at completion"
    );
    assert!(report.counters.overruns > 0);
}
