//! The flight-control workload.
//!
//! Source: J. Liu et al., *PERTS: A prototyping environment for real-time
//! systems*, UIUC technical report — the citation behind the paper's
//! "Flight control" row of Table 2 (6 tasks, WCETs 10 000–60 000 µs).
//!
//! The primary source prints no task table in the paper itself, so the set
//! below is reconstructed to satisfy every published constraint: six
//! tasks, WCETs spanning exactly 10–60 ms, control-loop periods in the
//! tens-to-hundreds of milliseconds typical of PERTS flight-control
//! demonstrations, RM-schedulable at a high utilization (0.825) so that —
//! as in the paper's Figure 8(c) — FPS burns most of the horizon busy and
//! LPFPS's gain comes chiefly from execution-time variation.

use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// Builds the 6-task flight-control set with rate-monotonic priorities.
///
/// # Examples
///
/// ```
/// let ts = lpfps_workloads::flight_control();
/// assert_eq!(ts.len(), 6);
/// let (lo, hi) = ts.wcet_range();
/// assert_eq!(lo, lpfps_tasks::time::Dur::from_ms(10));
/// assert_eq!(hi, lpfps_tasks::time::Dur::from_ms(60));
/// ```
pub fn flight_control() -> TaskSet {
    let params: [(&str, u64, u64); 6] = [
        ("guidance", 40, 10),
        ("control_law", 50, 12),
        ("navigation", 100, 10),
        ("sensor_fusion", 200, 20),
        ("telemetry", 400, 30),
        ("system_monitor", 1_000, 60),
    ];
    let tasks = params
        .iter()
        .map(|&(name, t, c)| Task::new(name, Dur::from_ms(t), Dur::from_ms(c)))
        .collect();
    TaskSet::rate_monotonic("flight_control", tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};

    #[test]
    fn matches_table2_summary() {
        let ts = flight_control();
        assert_eq!(ts.len(), 6);
        let (lo, hi) = ts.wcet_range();
        assert_eq!(lo, Dur::from_us(10_000));
        assert_eq!(hi, Dur::from_us(60_000));
    }

    #[test]
    fn utilization_is_high() {
        let u = flight_control().utilization();
        assert!((u - 0.825).abs() < 1e-9, "U = {u}");
    }

    #[test]
    fn rate_monotonic_schedulable() {
        assert!(rta_schedulable(&flight_control()));
    }

    #[test]
    fn hyperperiod_is_two_seconds() {
        assert_eq!(hyperperiod(&flight_control()), Some(Dur::from_secs(2)));
    }
}
