//! Piecewise-constant speed profiles, including the AVR heuristic's.

use crate::model::JobSet;
use lpfps_tasks::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// A piecewise-constant speed function over `[0, end)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedProfile {
    /// Breakpoints `(start_ns, speed)` sorted by start; each speed holds
    /// until the next breakpoint (or `end`).
    points: Vec<(u64, f64)>,
    end_ns: u64,
}

impl SpeedProfile {
    /// A constant-speed profile over `[0, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the speed is not positive and finite.
    pub fn constant(speed: f64, end: Dur) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        SpeedProfile {
            points: vec![(0, speed)],
            end_ns: end.as_ns(),
        }
    }

    /// The AVR (Average Rate) profile of Yao et al., the paper's §2.2
    /// dynamic related work: at any time `t`, the speed is the sum of the
    /// densities `w_j / (d_j - r_j)` of all jobs whose window
    /// `[r_j, d_j)` contains `t`. Breakpoints occur only at releases and
    /// deadlines.
    ///
    /// For implicit-deadline periodic tasks the windows of each task tile
    /// time exactly, so AVR degenerates to the constant utilization — the
    /// static behaviour the paper criticizes ("computed statically with
    /// fixed numbers of execution cycles").
    pub fn avr(jobs: &JobSet) -> Self {
        let mut boundaries: Vec<u64> = jobs
            .jobs()
            .iter()
            .flat_map(|j| [j.release.as_ns(), j.deadline.as_ns()])
            .collect();
        boundaries.push(0);
        boundaries.sort_unstable();
        boundaries.dedup();
        let end_ns = *boundaries.last().unwrap_or(&0);
        let mut points = Vec::with_capacity(boundaries.len());
        for &b in &boundaries {
            if b >= end_ns && end_ns > 0 {
                break;
            }
            let speed: f64 = jobs
                .jobs()
                .iter()
                .filter(|j| j.release.as_ns() <= b && b < j.deadline.as_ns())
                .map(|j| j.density())
                .sum();
            points.push((b, speed));
        }
        if points.is_empty() {
            points.push((0, 0.0));
        }
        SpeedProfile { points, end_ns }
    }

    /// The speed at time `t_ns` (nanoseconds, possibly fractional).
    pub fn speed_at(&self, t_ns: f64) -> f64 {
        let idx = self
            .points
            .partition_point(|&(start, _)| (start as f64) <= t_ns + 1e-9);
        self.points[idx.saturating_sub(1)].1
    }

    /// The next breakpoint strictly after `t_ns`, or infinity.
    pub fn next_change_after(&self, t_ns: f64) -> f64 {
        self.points
            .iter()
            .map(|&(start, _)| start as f64)
            .find(|&s| s > t_ns + 1e-9)
            .unwrap_or(f64::INFINITY)
    }

    /// The profile's end.
    pub fn end(&self) -> Time {
        Time::from_ns(self.end_ns)
    }

    /// The peak speed.
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, s)| s).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Job;
    use lpfps_tasks::exec::AlwaysWcet;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn constant_profile_is_flat() {
        let p = SpeedProfile::constant(0.5, Dur::from_us(100));
        assert_eq!(p.speed_at(0.0), 0.5);
        assert_eq!(p.speed_at(50_000.0), 0.5);
        assert_eq!(p.next_change_after(0.0), f64::INFINITY);
        assert_eq!(p.peak(), 0.5);
    }

    #[test]
    fn avr_sums_overlapping_densities() {
        // Two overlapping windows: [0,100) at 0.2, [40,60) at 0.75.
        let js = JobSet::new(vec![
            Job::new(t(0), t(100), Dur::from_us(20)),
            Job::new(t(40), t(60), Dur::from_us(15)),
        ]);
        let p = SpeedProfile::avr(&js);
        assert!((p.speed_at(10_000.0) - 0.2).abs() < 1e-12);
        assert!((p.speed_at(50_000.0) - 0.95).abs() < 1e-12);
        assert!((p.speed_at(70_000.0) - 0.2).abs() < 1e-12);
        assert_eq!(p.end(), t(100));
    }

    #[test]
    fn avr_on_implicit_deadline_periodics_is_the_utilization() {
        // The degeneration the paper points out: windows tile time, so
        // the AVR speed is constantly U.
        let ts = lpfps_workloads::table1();
        let js = JobSet::from_taskset(&ts, Dur::from_us(400), &AlwaysWcet, 0);
        let p = SpeedProfile::avr(&js);
        for probe_us in [5u64, 55, 125, 333] {
            let s = p.speed_at(probe_us as f64 * 1_000.0);
            assert!((s - 0.85).abs() < 1e-9, "AVR speed at {probe_us}us was {s}");
        }
    }

    #[test]
    fn breakpoints_land_on_releases_and_deadlines() {
        let js = JobSet::new(vec![Job::new(t(10), t(30), Dur::from_us(5))]);
        let p = SpeedProfile::avr(&js);
        assert_eq!(p.points[0], (0, 0.0));
        assert_eq!(p.points[1].0, t(10).as_ns());
        assert!((p.points[1].1 - 0.25).abs() < 1e-12);
    }
}
