//! The job model of Yao, Demers & Shenker's scheduling problem.
//!
//! A [`JobSet`] is a finite set of independent jobs, each with a release
//! time, an absolute deadline, and a work requirement (execution time at
//! full processor speed). The processor's speed may vary continuously in
//! `(0, 1]` (normalized to the full clock) with zero transition cost —
//! the *idealized* model of the paper's §2.2 related work, deliberately
//! more generous than the LPFPS processor model (discrete ladder, ramps,
//! fixed priorities).

use lpfps_tasks::exec::ExecModel;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// One job: available at `release`, must finish `work` (at unit speed) by
/// `deadline`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Job {
    /// Release (arrival) time.
    pub release: Time,
    /// Absolute deadline.
    pub deadline: Time,
    /// Required execution time at full speed.
    pub work: Dur,
    /// The generating task (for reporting), if any.
    pub task: Option<TaskId>,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if the deadline does not lie strictly after the release, or
    /// the work is zero or exceeds the window.
    pub fn new(release: Time, deadline: Time, work: Dur) -> Self {
        assert!(deadline > release, "a job needs a positive window");
        assert!(!work.is_zero(), "a job needs positive work");
        assert!(
            work <= deadline.saturating_since(release),
            "work must fit the window at full speed"
        );
        Job {
            release,
            deadline,
            work,
            task: None,
        }
    }

    /// Tags the job with its generating task.
    fn with_task(mut self, task: TaskId) -> Self {
        self.task = Some(task);
        self
    }

    /// The job's *density* (Yao's average-rate requirement):
    /// `work / (deadline - release)`.
    pub fn density(&self) -> f64 {
        self.work.as_ns() as f64 / self.deadline.saturating_since(self.release).as_ns() as f64
    }
}

/// A finite set of jobs, kept sorted by release time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct JobSet {
    jobs: Vec<Job>,
}

impl JobSet {
    /// Creates a job set (jobs are sorted by release, then deadline).
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.release, j.deadline));
        JobSet { jobs }
    }

    /// Unrolls a periodic task set over `[0, horizon)`, drawing each job's
    /// work from `exec` (use [`AlwaysWcet`](lpfps_tasks::exec::AlwaysWcet)
    /// for the worst-case job set). Jobs whose deadline falls beyond the
    /// horizon are excluded so the set is self-contained.
    pub fn from_taskset(ts: &TaskSet, horizon: Dur, exec: &dyn ExecModel, seed: u64) -> Self {
        let end = Time::ZERO + horizon;
        let mut jobs = Vec::new();
        for (id, task, _) in ts.iter() {
            let mut release = Time::ZERO + task.phase();
            let mut index = 0u64;
            while release < end {
                let deadline = release + task.deadline();
                if deadline > end {
                    break;
                }
                let work = exec.sample(task, id, index, seed);
                jobs.push(Job::new(release, deadline, work).with_task(id));
                release += task.period();
                index += 1;
            }
        }
        JobSet::new(jobs)
    }

    /// The jobs, sorted by release.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Total work across all jobs.
    pub fn total_work(&self) -> Dur {
        self.jobs.iter().map(|j| j.work).sum()
    }

    /// The latest deadline (the natural schedule end), or `None` if empty.
    pub fn span_end(&self) -> Option<Time> {
        self.jobs.iter().map(|j| j.deadline).max()
    }

    /// The maximum *intensity* over all intervals `[z, z']` bounded by a
    /// release and a deadline: `max sum(work of jobs inside) / (z' - z)`.
    /// A job set is EDF-feasible at unit speed iff this is at most 1.
    pub fn max_intensity(&self) -> f64 {
        let mut best: f64 = 0.0;
        for &Job { release: z, .. } in &self.jobs {
            for &Job { deadline: zp, .. } in &self.jobs {
                if zp <= z {
                    continue;
                }
                let inside: u128 = self
                    .jobs
                    .iter()
                    .filter(|j| j.release >= z && j.deadline <= zp)
                    .map(|j| j.work.as_ns() as u128)
                    .sum();
                let len = zp.saturating_since(z).as_ns() as u128;
                if len > 0 {
                    best = best.max(inside as f64 / len as f64);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::exec::AlwaysWcet;
    use lpfps_tasks::task::Task;

    fn t(us: u64) -> Time {
        Time::from_us(us)
    }

    #[test]
    fn density_is_work_over_window() {
        let j = Job::new(t(0), t(100), Dur::from_us(25));
        assert!((j.density() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unrolling_counts_whole_windows_only() {
        let ts = TaskSet::rate_monotonic(
            "u",
            vec![Task::new("a", Dur::from_us(100), Dur::from_us(10))],
        );
        // Horizon 250us: releases at 0, 100 fit (deadlines 100, 200);
        // the release at 200 has deadline 300 > 250 and is excluded.
        let js = JobSet::from_taskset(&ts, Dur::from_us(250), &AlwaysWcet, 0);
        assert_eq!(js.len(), 2);
        assert_eq!(js.total_work(), Dur::from_us(20));
        assert_eq!(js.span_end(), Some(t(200)));
    }

    #[test]
    fn max_intensity_of_table1_matches_feasibility() {
        let js = JobSet::from_taskset(
            &lpfps_workloads::table1(),
            Dur::from_us(400),
            &AlwaysWcet,
            0,
        );
        let g = js.max_intensity();
        // Table 1 is schedulable at unit speed, so intensity <= 1; it is
        // tight, so intensity is high.
        assert!(g <= 1.0 + 1e-12, "intensity {g}");
        assert!(g > 0.8, "intensity {g}");
    }

    #[test]
    fn jobs_are_sorted_by_release() {
        let js = JobSet::new(vec![
            Job::new(t(50), t(100), Dur::from_us(10)),
            Job::new(t(0), t(40), Dur::from_us(10)),
        ]);
        assert_eq!(js.jobs()[0].release, t(0));
    }

    #[test]
    #[should_panic(expected = "positive window")]
    fn inverted_window_rejected() {
        let _ = Job::new(t(10), t(10), Dur::from_us(1));
    }

    #[test]
    #[should_panic(expected = "fit the window")]
    fn overfull_job_rejected() {
        let _ = Job::new(t(0), t(10), Dur::from_us(20));
    }
}
