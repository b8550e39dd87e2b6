//! An EDF simulator for piecewise-constant speed profiles — the execution
//! substrate for the AVR heuristic and the full-speed EDF baseline.
//!
//! **Oracle-only.** This is *not* the project's EDF scheduler: run-time
//! EDF goes through the shared kernel's `lpfps_kernel::discipline::Edf`
//! discipline (see `PolicyKind::Edf` / `PolicyKind::CcEdf` in the
//! driver), where it gets the full processor physics, the differential
//! oracle, and the invariant checker. This module survives only as the
//! idealized-model cross-check the YDS/AVR *offline* analyses are scored
//! against: Yao's model (continuous speeds, instantaneous transitions,
//! free idle) cannot be expressed through the kernel's `SlowDown`
//! contract, which permits reduced speed only when the active task is the
//! lone runnable job. Keep it tiny; do not grow scheduling features here.
//!
//! The model is the idealized one of Yao et al.: continuous speeds,
//! instantaneous changes, zero idle power. Internally the simulator works
//! in `f64` nanoseconds (speeds are fractional, so completions fall off
//! the integer grid); determinism is preserved because the computation is
//! a fixed sequence of IEEE-754 operations.

use crate::model::JobSet;
use crate::profile::SpeedProfile;
use lpfps_cpu::power::PowerModel;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// Result of one EDF run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdfReport {
    /// Normalized energy (power x seconds).
    pub energy: f64,
    /// Busy time, in seconds.
    pub busy_secs: f64,
    /// Jobs that completed after their deadline.
    pub misses: usize,
    /// Jobs completed.
    pub completed: usize,
    /// The schedule span, seconds (first release to last deadline).
    pub span_secs: f64,
}

impl EdfReport {
    /// Average normalized power over the span.
    pub fn average_power(&self) -> f64 {
        if self.span_secs == 0.0 {
            0.0
        } else {
            self.energy / self.span_secs
        }
    }
}

/// Simulates EDF over `jobs` with speeds given by `profile`, charging
/// energy with `power`. Jobs are executed earliest-absolute-deadline
/// first, preemptively; completion within 1 micro-cycle (1e-3 ns of work)
/// counts as done.
pub fn simulate_edf(jobs: &JobSet, profile: &SpeedProfile, power: &PowerModel) -> EdfReport {
    const WORK_EPS: f64 = 1e-3; // ns of unit-speed work

    let n = jobs.len();
    let mut remaining: Vec<f64> = jobs.jobs().iter().map(|j| j.work.as_ns() as f64).collect();
    let releases: Vec<f64> = jobs
        .jobs()
        .iter()
        .map(|j| j.release.as_ns() as f64)
        .collect();
    let deadlines: Vec<f64> = jobs
        .jobs()
        .iter()
        .map(|j| j.deadline.as_ns() as f64)
        .collect();
    let end = jobs.span_end().map(|e| e.as_ns() as f64).unwrap_or(0.0);

    let mut released = 0usize; // jobs() is sorted by release
    let mut ready: Vec<usize> = Vec::new();
    let mut t = 0.0f64;
    let mut energy = 0.0f64;
    let mut busy = 0.0f64;
    let mut misses = 0usize;
    let mut completed = 0usize;

    while t < end - 1e-9 {
        // Admit releases due by t.
        while released < n && releases[released] <= t + 1e-9 {
            ready.push(released);
            released += 1;
        }
        let next_release = if released < n {
            releases[released]
        } else {
            f64::INFINITY
        };

        if ready.is_empty() {
            t = next_release.min(end);
            continue;
        }
        // Earliest deadline first.
        let &job = ready
            .iter()
            .min_by(|&&a, &&b| deadlines[a].total_cmp(&deadlines[b]))
            .expect("ready nonempty");

        let s = profile.speed_at(t);
        assert!(
            s > 0.0,
            "profile must be positive while work is pending (t={t})"
        );
        let boundary = profile.next_change_after(t);
        let completion = t + remaining[job] / s;
        let t_next = completion.min(next_release).min(boundary).min(end);
        let delta = t_next - t;
        remaining[job] -= delta * s;
        energy += power.busy_ratio(s) * delta * 1e-9;
        busy += delta * 1e-9;
        t = t_next;

        if remaining[job] <= WORK_EPS {
            ready.retain(|&j| j != job);
            completed += 1;
            if t > deadlines[job] + 1.0 {
                misses += 1;
            }
        }
    }
    // Unfinished jobs at the end of the span are misses (their deadlines
    // are all <= end by construction).
    misses += ready.len();

    EdfReport {
        energy,
        busy_secs: busy,
        misses,
        completed,
        span_secs: end * 1e-9,
    }
}

/// Convenience: EDF at constant full speed (the paper's FPS-analogue in
/// the idealized model; idle time is free here, so this is the "race to
/// idle" baseline).
pub fn simulate_edf_full_speed(jobs: &JobSet, power: &PowerModel) -> EdfReport {
    let span = jobs
        .span_end()
        .map(|e| e.saturating_since(lpfps_tasks::time::Time::ZERO))
        .unwrap_or(Dur::ZERO);
    simulate_edf(jobs, &SpeedProfile::constant(1.0, span), power)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Job;
    use lpfps_tasks::time::Time;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    fn job(r: u64, d: u64, w: u64) -> Job {
        Job::new(t(r), t(d), Dur::from_us(w))
    }

    #[test]
    fn full_speed_busy_time_is_total_work() {
        let js = JobSet::new(vec![job(0, 100, 20), job(40, 60, 15)]);
        let report = simulate_edf_full_speed(&js, &PowerModel::default());
        assert_eq!(report.misses, 0);
        assert_eq!(report.completed, 2);
        assert!((report.busy_secs - 35e-6).abs() < 1e-12);
        assert!((report.energy - 35e-6).abs() < 1e-12);
    }

    #[test]
    fn half_speed_doubles_busy_time_but_saves_energy() {
        let js = JobSet::new(vec![job(0, 100, 20)]);
        let pm = PowerModel::default();
        let half = simulate_edf(&js, &SpeedProfile::constant(0.5, Dur::from_us(100)), &pm);
        assert_eq!(half.misses, 0);
        assert!((half.busy_secs - 40e-6).abs() < 1e-12);
        assert!(half.energy < 0.7 * 20e-6, "quadratic voltage win expected");
    }

    #[test]
    fn too_slow_a_profile_misses() {
        let js = JobSet::new(vec![job(0, 100, 80)]);
        let pm = PowerModel::default();
        let slow = simulate_edf(&js, &SpeedProfile::constant(0.5, Dur::from_us(200)), &pm);
        assert_eq!(slow.misses, 1);
    }

    #[test]
    fn edf_order_preempts_for_urgent_jobs() {
        // Long lax job first, short urgent job arrives mid-flight: EDF
        // must finish the urgent one on time.
        let js = JobSet::new(vec![job(0, 200, 100), job(50, 70, 10)]);
        let report = simulate_edf_full_speed(&js, &PowerModel::default());
        assert_eq!(report.misses, 0);
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn empty_set_reports_zero() {
        let report = simulate_edf_full_speed(&JobSet::default(), &PowerModel::default());
        assert_eq!(report.energy, 0.0);
        assert_eq!(report.completed, 0);
        assert_eq!(report.average_power(), 0.0);
    }
}
