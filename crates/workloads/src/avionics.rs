//! The Avionics workload: the Generic Avionics Platform (GAP).
//!
//! Source: C. D. Locke, D. Vogel, T. Mesler, *Building a predictable
//! avionics platform in Ada: a case study*, RTSS 1991 — the citation
//! behind the paper's "Avionics" row in Table 2 (17 tasks, WCETs
//! 1 000–9 000 µs).
//!
//! The 16 periodic tasks below are the GAP table as usually cited in the
//! fixed-priority literature; the 17th (equipment status, 1 ms @ 1 s) is
//! added from GAP's 1-second status group to match the paper's task count.
//! WCETs span exactly 1–9 ms as Table 2 states; total utilization is
//! about 0.85.

use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;

/// Builds the 17-task GAP avionics set with rate-monotonic priorities.
///
/// # Examples
///
/// ```
/// let ts = lpfps_workloads::avionics();
/// assert_eq!(ts.len(), 17);
/// let (lo, hi) = ts.wcet_range();
/// assert_eq!(lo, lpfps_tasks::time::Dur::from_ms(1));
/// assert_eq!(hi, lpfps_tasks::time::Dur::from_ms(9));
/// ```
pub fn avionics() -> TaskSet {
    // (name, period ms, wcet ms)
    let params: [(&str, u64, u64); 17] = [
        ("radar_tracking_filter", 25, 2),
        ("rwr_contact_mgmt", 25, 5),
        ("data_bus_poll", 40, 1),
        ("weapon_aiming", 50, 3),
        ("radar_target_update", 50, 5),
        ("nav_update", 59, 8),
        ("display_graphic", 80, 9),
        ("display_hook_update", 80, 2),
        ("tracking_target_update", 100, 5),
        ("weapon_release", 200, 3),
        ("nav_steering_cmds", 200, 3),
        ("display_stores_update", 200, 1),
        ("display_keyset", 200, 1),
        ("display_status_update", 200, 3),
        ("bet_e_status_update", 1000, 1),
        ("nav_status", 1000, 1),
        ("equipment_status", 1000, 1),
    ];
    let tasks = params
        .iter()
        .map(|&(name, t, c)| Task::new(name, Dur::from_ms(t), Dur::from_ms(c)))
        .collect();
    TaskSet::rate_monotonic("avionics", tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::analysis::rta_schedulable;

    #[test]
    fn matches_table2_summary() {
        let ts = avionics();
        assert_eq!(ts.len(), 17);
        let (lo, hi) = ts.wcet_range();
        assert_eq!(lo, Dur::from_us(1_000));
        assert_eq!(hi, Dur::from_us(9_000));
    }

    #[test]
    fn utilization_is_high_but_feasible() {
        let u = avionics().utilization();
        assert!(u > 0.80 && u < 0.90, "GAP utilization {u}");
    }

    #[test]
    fn rate_monotonic_schedulable() {
        assert!(rta_schedulable(&avionics()));
    }

    #[test]
    fn task_names_are_unique() {
        let ts = avionics();
        let mut names: Vec<&str> = ts.iter().map(|(_, t, _)| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17);
    }
}
