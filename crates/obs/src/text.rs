//! Plain-text views of a run for terminal output: the event list of a
//! [`Trace`], the detailed [`SimReport`] the `simulate` binary prints,
//! and a one-line summary.

use lpfps_kernel::report::SimReport;
use lpfps_kernel::stats::ResponseHistogram;
use lpfps_kernel::trace::Trace;
use lpfps_tasks::taskset::TaskSet;
use std::fmt::Write;

/// Renders a trace as one line per event (`time  event`).
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    for (t, e) in trace.iter() {
        let _ = writeln!(out, "{t:>12}  {e}");
    }
    out
}

/// A multi-line human-readable report: average power, per-state energy
/// split, per-task responses and energy, and idle-gap statistics.
pub fn render_detailed(report: &SimReport, ts: &TaskSet) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {}: avg power {:.4} over {}",
        report.policy,
        report.taskset,
        report.average_power(),
        report.horizon
    );
    let _ = writeln!(out, "  states:");
    for (kind, bucket) in report.energy.buckets() {
        let _ = writeln!(
            out,
            "    {:<11} residency {:>6.2}% energy {:.6}",
            kind.label(),
            100.0 * bucket.residency.as_ns() as f64 / report.horizon.as_ns() as f64,
            bucket.energy
        );
    }
    let _ = writeln!(out, "  tasks:");
    for (id, task, _) in ts.iter() {
        let stats = &report.responses[id.0];
        let _ = writeln!(
            out,
            "    {:<22} jobs={:<5} maxR={:<12} energy {:.6} [{}]",
            task.name(),
            stats.completed,
            stats.max_response.to_string(),
            report.task_energy.get(id.0).copied().unwrap_or(0.0),
            report
                .histograms
                .get(id.0)
                .map(render_histogram)
                .unwrap_or_default()
        );
    }
    let _ = writeln!(out, "  idle gaps: {}", report.idle_gaps);
    let c = &report.counters;
    let _ = writeln!(
        out,
        "  counters: {} events, {} releases, {} completions, {} preemptions, {} ramps, {} power-downs",
        c.events, c.releases, c.completions, c.preemptions, c.ramps, c.power_downs
    );
    if c.overruns + c.watchdog_faults + c.degradations > 0 {
        let _ = writeln!(
            out,
            "  faults: {} overruns injected, {} watchdog detections, {} degradations engaged",
            c.overruns, c.watchdog_faults, c.degradations
        );
    }
    out
}

/// A compact sparkline-style rendering of a response histogram (`#`
/// columns scaled to the largest bucket; `!` marks misses).
fn render_histogram(h: &ResponseHistogram) -> String {
    let buckets = (0..ResponseHistogram::BUCKETS).map(|k| h.bucket(k));
    let peak = buckets.clone().max().unwrap_or(0).max(1);
    let mut out: String = buckets
        .map(|b| match (b * 8).div_ceil(peak).min(8) {
            0 => '.',
            1 => ':',
            2..=3 => '+',
            4..=6 => '#',
            _ => '@',
        })
        .collect();
    if h.misses() > 0 {
        out.push('!');
    }
    out
}

/// A compact single-line summary for experiment harness output.
pub fn summary_line(report: &SimReport) -> String {
    format!(
        "{:<10} {:<14} avg_power={:.4} misses={} jobs={} ramps={} pdowns={}",
        report.policy,
        report.taskset,
        report.average_power(),
        report.misses.len(),
        report.counters.completions,
        report.counters.ramps,
        report.counters.power_downs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_cpu::EnergyMeter;
    use lpfps_kernel::report::Counters;
    use lpfps_kernel::stats::IntervalStats;
    use lpfps_kernel::trace::TraceEvent;
    use lpfps_tasks::freq::Freq;
    use lpfps_tasks::time::{Dur, Time};

    #[test]
    fn render_mentions_every_event() {
        let mut tr = Trace::new();
        tr.push(
            Time::from_us(160),
            TraceEvent::RampStart {
                from: Freq::from_mhz(100),
                to: Freq::from_mhz(50),
            },
        );
        tr.push(
            Time::from_us(180),
            TraceEvent::EnterPowerDown {
                wake_at: Time::from_us(200),
            },
        );
        let text = render_trace(&tr);
        assert!(text.contains("ramp start 100MHz -> 50MHz"));
        assert!(text.contains("power-down (wake at 200us)"));
    }

    #[test]
    fn histogram_renders_marks() {
        let mut h = ResponseHistogram::new();
        let d = Dur::from_us(100);
        h.record(Dur::from_us(1), d); // bucket 0 (1/100 of the deadline)
        h.record(Dur::from_us(100), d);
        let r = render_histogram(&h);
        assert!(r.starts_with('@'), "render was {r}");
        assert!(r.ends_with('!'));
        assert_eq!(r.len(), ResponseHistogram::BUCKETS + 1);
    }

    #[test]
    fn report_summary_mentions_policy_and_power() {
        let report = SimReport {
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
        let line = summary_line(&report);
        assert!(line.contains("fps"));
        assert!(line.contains("avg_power=0.0000"));
        assert!(report.all_deadlines_met());
    }
}
