//! Text Gantt charts reconstructed from simulation traces.
//!
//! Renders per-task execution bars plus a processor-state row, the format
//! used by the `fig2_schedule` experiment binary to reproduce the paper's
//! Figure 2 schedules in a terminal. The Perfetto exporter builds its
//! task lanes from the same reconstruction.

use lpfps_kernel::trace::{Trace, TraceEvent};
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use std::num::NonZeroU64;

/// A closed-open execution interval of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecSegment {
    /// The executing task.
    pub task: TaskId,
    /// Segment start.
    pub from: Time,
    /// Segment end (exclusive).
    pub to: Time,
}

/// Coarse processor condition for the state row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcCondition {
    Run,
    Ramp,
    PowerDown,
    Idle,
}

/// A reconstructed schedule timeline.
#[derive(Debug, Clone)]
pub struct Gantt {
    segments: Vec<ExecSegment>,
    conditions: Vec<(Time, ProcCondition)>,
    end: Time,
}

impl Gantt {
    /// Reconstructs the timeline from a trace, up to `end`.
    pub fn from_trace(trace: &Trace, end: Time) -> Self {
        let mut segments = Vec::new();
        let mut conditions: Vec<(Time, ProcCondition)> = vec![(Time::ZERO, ProcCondition::Idle)];
        let mut running: Option<(TaskId, Time)> = None;

        let close = |running: &mut Option<(TaskId, Time)>, at: Time, out: &mut Vec<ExecSegment>| {
            if let Some((task, from)) = running.take() {
                if at > from {
                    out.push(ExecSegment { task, from, to: at });
                }
            }
        };

        for (t, e) in trace.iter() {
            match e {
                TraceEvent::Dispatch { task, .. } => {
                    close(&mut running, t, &mut segments);
                    running = Some((task, t));
                    conditions.push((t, ProcCondition::Run));
                }
                TraceEvent::Preempt { task, .. } => {
                    if running.map(|(r, _)| r) == Some(task) {
                        close(&mut running, t, &mut segments);
                    }
                }
                TraceEvent::Complete { task, .. } => {
                    if running.map(|(r, _)| r) == Some(task) {
                        close(&mut running, t, &mut segments);
                        conditions.push((t, ProcCondition::Idle));
                    }
                }
                TraceEvent::RampStart { .. } => conditions.push((t, ProcCondition::Ramp)),
                TraceEvent::RampEnd { .. } => conditions.push((
                    t,
                    if running.is_some() {
                        ProcCondition::Run
                    } else {
                        ProcCondition::Idle
                    },
                )),
                TraceEvent::EnterPowerDown { .. } => conditions.push((t, ProcCondition::PowerDown)),
                TraceEvent::Wakeup => conditions.push((t, ProcCondition::Idle)),
                TraceEvent::IdleStart => conditions.push((t, ProcCondition::Idle)),
                TraceEvent::Release { .. } => {}
                // Watchdog annotations and energy bookkeeping carry no
                // processor-condition change.
                TraceEvent::BudgetOverrun { .. }
                | TraceEvent::TimingViolation
                | TraceEvent::EnergySegment { .. } => {}
            }
        }
        close(&mut running, end, &mut segments);
        Gantt {
            segments,
            conditions,
            end,
        }
    }

    /// The reconstructed execution segments, in time order.
    pub fn segments(&self) -> &[ExecSegment] {
        &self.segments
    }

    /// Total execution time attributed to one task.
    pub fn task_busy(&self, task: TaskId) -> Dur {
        self.segments
            .iter()
            .filter(|s| s.task == task)
            .map(|s| s.to.saturating_since(s.from))
            .sum()
    }

    /// Renders an ASCII chart: one row per task (`#` = executing) plus a
    /// processor row (`#` run, `~` ramp, `z` power-down, `.` idle), at
    /// `us_per_col` microseconds per column.
    pub fn render(&self, ts: &TaskSet, us_per_col: NonZeroU64) -> String {
        let us_per_col = us_per_col.get();
        let cols = (self.end.as_us()).div_ceil(us_per_col) as usize;
        let name_w = ts
            .iter()
            .map(|(_, t, _)| t.name().len())
            .max()
            .unwrap_or(4)
            .max(4);
        let mut out = String::new();

        for (id, task, _) in ts.iter() {
            let mut row = vec![' '; cols];
            for seg in self.segments.iter().filter(|s| s.task == id) {
                let a = (seg.from.as_us() / us_per_col) as usize;
                let b = (seg.to.as_us().div_ceil(us_per_col) as usize).min(cols);
                for c in row.iter_mut().take(b).skip(a) {
                    *c = '#';
                }
            }
            out.push_str(&format!("{:>name_w$} |", task.name()));
            out.extend(row);
            out.push_str("|\n");
        }

        // Processor condition row.
        let mut row = vec!['.'; cols];
        for (i, &(from, cond)) in self.conditions.iter().enumerate() {
            let to = self
                .conditions
                .get(i + 1)
                .map(|&(t, _)| t)
                .unwrap_or(self.end);
            let ch = match cond {
                ProcCondition::Run => '#',
                ProcCondition::Ramp => '~',
                ProcCondition::PowerDown => 'z',
                ProcCondition::Idle => '.',
            };
            let a = (from.as_us() / us_per_col) as usize;
            let b = (to.as_us().div_ceil(us_per_col) as usize).min(cols);
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        out.push_str(&format!("{:>name_w$} |", "cpu"));
        out.extend(row);
        out.push_str("|\n");

        // Time axis with a tick every 10 columns.
        out.push_str(&format!("{:>name_w$}  ", ""));
        let mut axis = String::new();
        let mut col = 0usize;
        while col < cols {
            let label = format!("{}", col as u64 * us_per_col);
            axis.push_str(&label);
            let pad = 10usize.saturating_sub(label.len());
            axis.push_str(&" ".repeat(pad));
            col += 10;
        }
        axis.truncate(cols + 10);
        out.push_str(&axis);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::spec::CpuSpec;
    use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
    use lpfps_kernel::policy::{
        AlwaysFullSpeed, PolicyCore, PowerDirective, PowerPolicy, SchedulerContext,
    };
    use lpfps_tasks::exec::{AlwaysWcet, ExecModel};
    use lpfps_tasks::task::Task;

    /// The complete trace of one run (full simulation forced).
    fn trace_of(
        ts: &TaskSet,
        policy: &mut dyn PowerPolicy,
        exec: &dyn ExecModel,
        cfg: SimConfig,
    ) -> Trace {
        let cfg = cfg.with_force_full_simulation();
        let (cpu, mut ws, mut trace) = (CpuSpec::arm8(), SimWorkspace::new(), Trace::new());
        simulate_in(ts, &cpu, policy, exec, &cfg, &mut ws, &mut trace).unwrap();
        trace
    }

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

    fn gantt_of(horizon_us: u64) -> (TaskSet, Gantt) {
        let ts = table1();
        let cfg = SimConfig::new(Dur::from_us(horizon_us));
        let trace = trace_of(&ts, &mut AlwaysFullSpeed, &AlwaysWcet, cfg);
        let gantt = Gantt::from_trace(&trace, Time::from_us(horizon_us));
        (ts, gantt)
    }

    #[test]
    fn segments_partition_busy_time() {
        let (_, g) = gantt_of(400);
        // Over one hyperperiod at WCET: tau1 8*10, tau2 5*20, tau3 4*40.
        assert_eq!(g.task_busy(TaskId(0)), Dur::from_us(80));
        assert_eq!(g.task_busy(TaskId(1)), Dur::from_us(100));
        assert_eq!(g.task_busy(TaskId(2)), Dur::from_us(160));
    }

    #[test]
    fn figure2a_first_segments() {
        let (_, g) = gantt_of(100);
        let segs = g.segments();
        // tau1 [0,10), tau2 [10,30), tau3 [30,50), tau1 [50,60), tau3 [60,80), tau2 [80,100).
        assert_eq!(
            segs[0],
            ExecSegment {
                task: TaskId(0),
                from: Time::ZERO,
                to: Time::from_us(10)
            }
        );
        assert_eq!(
            segs[1],
            ExecSegment {
                task: TaskId(1),
                from: Time::from_us(10),
                to: Time::from_us(30)
            }
        );
        assert_eq!(
            segs[2],
            ExecSegment {
                task: TaskId(2),
                from: Time::from_us(30),
                to: Time::from_us(50)
            }
        );
        assert_eq!(
            segs[3],
            ExecSegment {
                task: TaskId(0),
                from: Time::from_us(50),
                to: Time::from_us(60)
            }
        );
        assert_eq!(
            segs[4],
            ExecSegment {
                task: TaskId(2),
                from: Time::from_us(60),
                to: Time::from_us(80)
            }
        );
        assert_eq!(
            segs[5],
            ExecSegment {
                task: TaskId(1),
                from: Time::from_us(80),
                to: Time::from_us(100)
            }
        );
    }

    #[test]
    fn render_contains_all_rows() {
        let (ts, g) = gantt_of(200);
        let chart = g.render(&ts, NonZeroU64::new(5).unwrap());
        assert!(chart.contains("tau1 |"));
        assert!(chart.contains("tau2 |"));
        assert!(chart.contains("tau3 |"));
        assert!(chart.contains("cpu |") || chart.contains(" cpu |"));
        assert!(chart.contains('#'));
    }

    use lpfps_faults::{FaultConfig, OverrunFault};
    use lpfps_tasks::exec::PaperGaussian;

    /// Table 1 at varied seeds and fault streams: plenty of preemptions
    /// and resumptions, every reconstruction a fresh chance to overlap.
    fn varied_gantts() -> Vec<(Trace, Gantt)> {
        let mut out = Vec::new();
        for seed in 0..8u64 {
            for faulted in [false, true] {
                let mut cfg = SimConfig::new(Dur::from_us(800)).with_seed(seed);
                if faulted {
                    cfg = cfg.with_faults(
                        FaultConfig::none()
                            .with_seed(seed)
                            .with_overrun(OverrunFault::clamped(0.3, 0.3, 1.3)),
                    );
                }
                let ts = table1().with_bcet_fraction(0.5);
                let trace = trace_of(&ts, &mut AlwaysFullSpeed, &PaperGaussian, cfg);
                let gantt = Gantt::from_trace(&trace, Time::from_us(800));
                out.push((trace, gantt));
            }
        }
        out
    }

    #[test]
    fn segments_are_ordered_and_never_overlap() {
        for (_, g) in varied_gantts() {
            for pair in g.segments().windows(2) {
                assert!(pair[0].from < pair[0].to, "empty segment {:?}", pair[0]);
                assert!(
                    pair[0].to <= pair[1].from,
                    "overlapping segments {:?} and {:?}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn segments_tile_traced_busy_intervals_exactly() {
        use lpfps_cpu::state::StateKind;
        // The trace's energy segments are the ground truth for when the
        // processor was busy executing a task (full-speed runs: the Busy
        // state and nothing else). Merged execution segments must
        // reproduce those busy intervals interval-for-interval.
        for (trace, g) in varied_gantts() {
            let mut busy: Vec<(Time, Time)> = Vec::new();
            for (at, e) in trace.iter() {
                if let TraceEvent::EnergySegment { state, dur, .. } = e {
                    if state.kind() == StateKind::Busy {
                        match busy.last_mut() {
                            Some(last) if last.1 == at => last.1 = at + dur,
                            _ => busy.push((at, at + dur)),
                        }
                    }
                }
            }
            let mut merged: Vec<(Time, Time)> = Vec::new();
            for s in g.segments() {
                match merged.last_mut() {
                    Some(last) if last.1 == s.from => last.1 = s.to,
                    _ => merged.push((s.from, s.to)),
                }
            }
            assert_eq!(
                merged, busy,
                "execution segments drifted from the energy stream"
            );
        }
    }

    /// One-shot slow-down (as in `lpfps-kernel`'s `tests/trace_events.rs`):
    /// used here to park a ramp *entirely inside an idle window* — the task
    /// retires at low speed, then the kernel ramps back to full with
    /// nothing running.
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
            use lpfps_tasks::freq::Freq;
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

    /// Regression: a ramp that starts *and* ends inside one idle window
    /// must leave the condition row idle afterwards (`RampEnd` with no
    /// runner used to be easy to misclassify as a return to `Run`), and
    /// must never mint an execution segment.
    #[test]
    fn ramp_inside_an_idle_window_stays_idle() {
        let ts = TaskSet::rate_monotonic(
            "ramp-idle",
            vec![
                Task::new("a", Dur::from_us(100), Dur::from_us(10)),
                Task::new("b", Dur::from_us(400), Dur::from_us(20)),
            ],
        );
        let cfg = SimConfig::new(Dur::from_us(100));
        let trace = trace_of(&ts, &mut SlowOnce::default(), &AlwaysWcet, cfg);
        let g = Gantt::from_trace(&trace, Time::from_us(100));

        // b retires slowed, strictly before a's next release...
        let segs = g.segments();
        assert_eq!(segs.len(), 2, "a then b, nothing else: {segs:?}");
        let done = segs[1].to;
        assert!(done > Time::from_us(10) && done < Time::from_us(100));
        // ...and the ramp back to full speed lies wholly in the idle tail.
        let ramp_end = trace
            .iter()
            .filter(|(at, e)| matches!(e, TraceEvent::RampEnd { .. }) && *at > done)
            .map(|(at, _)| at)
            .next()
            .expect("the kernel ramps back to full during the idle window");
        assert!(ramp_end < Time::from_us(100));

        // No execution segment may touch the idle window.
        assert!(segs.iter().all(|s| s.to <= done));
        // After the in-idle ramp, the condition row must read idle ('.')
        // all the way to the next release.
        let chart = g.render(&ts, NonZeroU64::MIN);
        let cpu_row = chart
            .lines()
            .find(|l| l.trim_start().starts_with("cpu |"))
            .expect("cpu row present");
        let cells: Vec<char> = cpu_row
            .split('|')
            .nth(1)
            .expect("row body")
            .chars()
            .collect();
        let first_idle_col = ramp_end.as_ns().div_ceil(1_000) as usize;
        for (col, &cell) in cells.iter().enumerate().take(100).skip(first_idle_col) {
            assert_eq!(
                cell, '.',
                "column {col} (us) after the idle-window ramp must be idle\n{chart}"
            );
        }
    }
}
