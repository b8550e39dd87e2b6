//! The workload catalog: every application of the paper's Table 2 in one
//! place, with its summary row.

use crate::{avionics, cnc, flight_control, ins};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// One row of the paper's Table 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Application name as printed in the paper.
    pub application: String,
    /// Number of tasks.
    pub tasks: usize,
    /// Smallest WCET.
    pub wcet_min: Dur,
    /// Largest WCET.
    pub wcet_max: Dur,
}

/// All four applications of the paper's evaluation, in Table 2 order.
///
/// # Examples
///
/// ```
/// let apps = lpfps_workloads::applications();
/// let names: Vec<&str> = apps.iter().map(|ts| ts.name()).collect();
/// assert_eq!(names, ["avionics", "ins", "flight_control", "cnc"]);
/// ```
pub fn applications() -> Vec<TaskSet> {
    vec![avionics(), ins(), flight_control(), cnc()]
}

/// The Table 2 summary computed from the encoded task sets.
pub fn table2() -> Vec<Table2Row> {
    applications()
        .into_iter()
        .map(|ts| {
            let (wcet_min, wcet_max) = ts.wcet_range();
            Table2Row {
                application: ts.name().to_string(),
                tasks: ts.len(),
                wcet_min,
                wcet_max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let rows = table2();
        let expect = [
            ("avionics", 17usize, 1_000u64, 9_000u64),
            ("ins", 6, 1_180, 100_280),
            ("flight_control", 6, 10_000, 60_000),
            ("cnc", 8, 35, 720),
        ];
        assert_eq!(rows.len(), expect.len());
        for (row, (name, n, lo, hi)) in rows.iter().zip(expect) {
            assert_eq!(row.application, name);
            assert_eq!(row.tasks, n, "{name} task count");
            assert_eq!(row.wcet_min, Dur::from_us(lo), "{name} min WCET");
            assert_eq!(row.wcet_max, Dur::from_us(hi), "{name} max WCET");
        }
    }

    #[test]
    fn every_catalog_set_passes_the_kernel_boundary_check() {
        for ts in applications().iter().chain([&crate::table1()]) {
            assert_eq!(
                lpfps_tasks::error::validate_task_set(ts),
                Ok(()),
                "{}",
                ts.name()
            );
        }
    }

    #[test]
    fn all_applications_are_rm_schedulable() {
        for ts in applications() {
            assert!(
                lpfps_tasks::analysis::rta_schedulable(&ts),
                "{} must be schedulable",
                ts.name()
            );
        }
    }

    #[test]
    fn mission_critical_sets_have_higher_utilization_than_cnc() {
        let apps = applications();
        let util = |name: &str| {
            apps.iter()
                .find(|ts| ts.name() == name)
                .map(TaskSet::utilization)
                .unwrap()
        };
        assert!(util("avionics") > util("cnc"));
        assert!(util("ins") > util("cnc"));
        assert!(util("flight_control") > util("cnc"));
    }
}
