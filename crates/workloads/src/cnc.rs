//! The CNC workload: a computerized numerical control machine controller.
//!
//! Source: N. Kim, M. Ryu, S. Hong, M. Saksena, C. Choi, H. Shin, *Visual
//! assessment of a real-time system design: a case study on a CNC
//! controller*, RTSS 1996 — the citation behind the paper's "CNC" row of
//! Table 2 (8 tasks, WCETs 35–720 µs).
//!
//! The controller drives two servo axes from interpolated reference
//! positions at millisecond-scale loop rates. The reconstruction below
//! matches Table 2's counts and WCET range exactly and keeps the
//! property the paper highlights for CNC: with WCETs of tens to hundreds
//! of microseconds, the 10 µs voltage-transition delay is *not*
//! negligible, so LPFPS has the least headroom here (Figure 8(d) shows
//! its smallest gain).

use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// Builds the 8-task CNC set with rate-monotonic priorities.
///
/// # Examples
///
/// ```
/// let ts = lpfps_workloads::cnc();
/// assert_eq!(ts.len(), 8);
/// let (lo, hi) = ts.wcet_range();
/// assert_eq!(lo, lpfps_tasks::time::Dur::from_us(35));
/// assert_eq!(hi, lpfps_tasks::time::Dur::from_us(720));
/// ```
pub fn cnc() -> TaskSet {
    let params: [(&str, u64, u64); 8] = [
        ("position_x", 2_400, 35),
        ("position_y", 2_400, 40),
        ("servo_control_x", 2_400, 165),
        ("servo_control_y", 2_400, 165),
        ("interpolator", 4_800, 570),
        ("status_monitor", 4_800, 570),
        ("reference_generator", 9_600, 720),
        ("command_display", 9_600, 720),
    ];
    let tasks = params
        .iter()
        .map(|&(name, t, c)| Task::new(name, Dur::from_us(t), Dur::from_us(c)))
        .collect();
    TaskSet::rate_monotonic("cnc", tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};

    #[test]
    fn matches_table2_summary() {
        let ts = cnc();
        assert_eq!(ts.len(), 8);
        let (lo, hi) = ts.wcet_range();
        assert_eq!(lo, Dur::from_us(35));
        assert_eq!(hi, Dur::from_us(720));
    }

    #[test]
    fn utilization_is_moderate() {
        let u = cnc().utilization();
        assert!(u > 0.5 && u < 0.6, "U = {u}");
    }

    #[test]
    fn rate_monotonic_schedulable() {
        assert!(rta_schedulable(&cnc()));
    }

    #[test]
    fn hyperperiod_is_under_10ms() {
        assert_eq!(hyperperiod(&cnc()), Some(Dur::from_us(9_600)));
    }

    #[test]
    fn wcets_are_comparable_to_the_transition_delay() {
        // The property the paper calls out: the 10 us worst-case transition
        // is a significant fraction of these WCETs.
        let ts = cnc();
        let (lo, _) = ts.wcet_range();
        assert!(lo.as_us() < 10 * 10, "shortest WCET {lo} dwarfs the ramp");
    }
}
