//! Deliberately naive scheduler queues.
//!
//! The kernel keeps both queues as vectors sorted descending, tuned for
//! its hot path: each head sits at the back, so the run queue pops in
//! O(1) and the delay queue drains its due releases by truncating the
//! tail into a reused buffer. The oracle uses the *dumbest* structures
//! that implement the same abstract semantics — an insertion-ordered
//! `Vec` scanned linearly for the run queue, a `BTreeSet` for the delay
//! queue — so a bug in the kernel's clever ordering cannot be reproduced
//! here by construction. The tests below drive each kernel queue and its
//! naive twin through the same operations, random ones included.
//!
//! Semantics mirrored exactly:
//!
//! * run queue: pop returns a minimal-key (most urgent) task under the
//!   dispatch discipline's ordering key, and among equal keys the most
//!   recently inserted one (the kernel's back-pop on a stable descending
//!   sort gives LIFO within a key level);
//! * delay queue: due tasks drain in ascending `(release, priority, id)`
//!   order — the `BTreeSet` key is that exact tuple.

use lpfps_kernel::queues::{DelayQueue, RunQueue};
use lpfps_tasks::task::{Priority, TaskId};
use lpfps_tasks::time::Time;
use std::collections::BTreeSet;

/// Insertion-ordered run queue with linear-scan selection, generic over
/// the discipline's urgency key (smaller = more urgent, like the kernel).
#[derive(Debug)]
pub(crate) struct NaiveRunQueue<K = Priority> {
    entries: Vec<(TaskId, K)>,
}

impl<K> Default for NaiveRunQueue<K> {
    fn default() -> Self {
        NaiveRunQueue {
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Ord> NaiveRunQueue<K> {
    pub fn new() -> Self {
        NaiveRunQueue::default()
    }

    /// # Panics
    ///
    /// Panics if the task is already queued (same contract as the kernel).
    pub fn insert(&mut self, task: TaskId, key: K) {
        assert!(
            !self.entries.iter().any(|&(t, _)| t == task),
            "task {task} is already in the run queue"
        );
        self.entries.push((task, key));
    }

    /// Index of the task `pop` would return: minimal key, most recently
    /// inserted among equals (only a strictly smaller incumbent survives
    /// the scan, so ties settle on the latest index).
    fn best_index(&self) -> Option<usize> {
        let mut best: Option<(usize, K)> = None;
        for (i, &(_, k)) in self.entries.iter().enumerate() {
            best = match best {
                Some((bi, bk)) if bk < k => Some((bi, bk)),
                _ => Some((i, k)),
            };
        }
        best.map(|(i, _)| i)
    }

    pub fn head_key(&self) -> Option<K> {
        self.best_index().map(|i| self.entries[i].1)
    }

    pub fn pop(&mut self) -> Option<TaskId> {
        let i = self.best_index()?;
        Some(self.entries.remove(i).0)
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A kernel [`RunQueue`] with the same contents, for the
    /// [`SchedulerContext`](lpfps_kernel::policy::SchedulerContext) view
    /// handed to policies. Inserting in stored (chronological) order
    /// reproduces the kernel queue's LIFO-within-key layout.
    pub fn materialize(&self) -> RunQueue<K> {
        let mut q = RunQueue::new();
        for &(task, key) in &self.entries {
            q.insert(task, key);
        }
        q
    }
}

/// `BTreeSet`-backed delay queue keyed by `(release, priority, id)`.
#[derive(Debug, Default)]
pub(crate) struct NaiveDelayQueue {
    entries: BTreeSet<(Time, Priority, TaskId)>,
}

impl NaiveDelayQueue {
    pub fn new() -> Self {
        NaiveDelayQueue::default()
    }

    /// # Panics
    ///
    /// Panics if the task is already queued.
    pub fn insert(&mut self, task: TaskId, prio: Priority, release: Time) {
        assert!(
            !self.entries.iter().any(|&(_, _, t)| t == task),
            "task {task} is already in the delay queue"
        );
        self.entries.insert((release, prio, task));
    }

    pub fn head_release(&self) -> Option<Time> {
        self.entries.first().map(|&(r, _, _)| r)
    }

    /// Removes every task with `release <= now`, in key order.
    pub fn pop_due(&mut self, now: Time) -> Vec<(TaskId, Time)> {
        let mut due = Vec::new();
        while let Some(&(release, prio, task)) = self.entries.first() {
            if release > now {
                break;
            }
            self.entries.remove(&(release, prio, task));
            due.push((task, release));
        }
        due
    }

    /// A kernel [`DelayQueue`] with the same contents.
    pub fn materialize(&self) -> DelayQueue {
        let mut q = DelayQueue::new();
        for &(release, prio, task) in &self.entries {
            q.insert(task, prio, release);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpfps_tasks::rng::SplitMix64;
    use lpfps_tasks::time::Dur;

    #[test]
    fn run_queue_matches_kernel_tie_semantics() {
        // Two equal-priority tasks: the most recent insert pops first,
        // exactly like the kernel's back-pop (verified against it).
        let mut naive = NaiveRunQueue::new();
        let mut kernel = RunQueue::new();
        for (t, p) in [(0, 1), (1, 0), (2, 1), (3, 0)] {
            naive.insert(TaskId(t), Priority::new(p));
            kernel.insert(TaskId(t), Priority::new(p));
        }
        loop {
            assert_eq!(naive.head_key(), kernel.head_priority());
            let (a, b) = (naive.pop(), kernel.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn delay_queue_drains_in_kernel_order() {
        let mut naive = NaiveDelayQueue::new();
        let mut kernel = DelayQueue::new();
        let entries = [(0, 0, 500u64), (1, 1, 200), (2, 2, 200), (3, 3, 700)];
        for &(t, p, us) in &entries {
            naive.insert(TaskId(t), Priority::new(p), Time::from_us(us));
            kernel.insert(TaskId(t), Priority::new(p), Time::from_us(us));
        }
        assert_eq!(naive.head_release(), kernel.head_release());
        assert_eq!(
            naive.pop_due(Time::from_us(500)),
            kernel.pop_due(Time::from_us(500))
        );
        assert_eq!(naive.head_release(), kernel.head_release());
    }

    /// The kernel's queue and this one under the same random operations:
    /// inserts whose releases and priorities collide, drains at random
    /// instants (often several entries at once), and uniform shifts, a
    /// few of which saturate releases at `Time::MAX`. After every
    /// operation the head, the iteration order and the drained lists
    /// must agree. Case `c` replays from `SplitMix64::new(c)`.
    #[test]
    fn delay_queue_matches_the_kernel_under_random_operations() {
        for case in 0..300 {
            let mut rng = SplitMix64::new(case);
            let mut below = |n: u64| rng.next_u64() % n;
            let (mut naive, mut kernel) = (NaiveDelayQueue::new(), DelayQueue::new());
            let mut due = vec![(TaskId(99), Time::ZERO)];
            let mut now = Time::ZERO;
            for step in 0..80 {
                match below(8) {
                    0..=3 => {
                        let task = TaskId(below(8) as usize);
                        if !kernel.contains(task) {
                            let prio = Priority::new(below(3) as u32);
                            let release = now.saturating_add(Dur::from_us(10 * below(6)));
                            naive.insert(task, prio, release);
                            kernel.insert(task, prio, release);
                        }
                    }
                    4..=6 => {
                        now = now.saturating_add(Dur::from_us(below(40)));
                        kernel.pop_due_into(now, &mut due);
                        assert_eq!(due, naive.pop_due(now), "case {case} step {step}: due");
                    }
                    _ => {
                        let by = match below(10) {
                            0 => Dur::MAX,
                            _ => Dur::from_us(below(100)),
                        };
                        kernel.shift(by);
                        naive.entries = naive
                            .entries
                            .iter()
                            .map(|&(r, p, t)| (r.saturating_add(by), p, t))
                            .collect();
                    }
                }
                assert_eq!(
                    kernel.head_release(),
                    naive.head_release(),
                    "case {case} step {step}: head"
                );
                let order: Vec<(TaskId, Time)> =
                    naive.entries.iter().map(|&(r, _, t)| (t, r)).collect();
                assert_eq!(
                    kernel.iter().collect::<Vec<_>>(),
                    order,
                    "case {case} step {step}: order"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "already in the run queue")]
    fn duplicate_run_insert_panics() {
        let mut q = NaiveRunQueue::new();
        q.insert(TaskId(0), Priority::new(0));
        q.insert(TaskId(0), Priority::new(1));
    }
}
