//! The two kernel queues of the paper's scheduler model (Katcher et al.;
//! Burns, Tindell & Wellings).
//!
//! * The **run queue** holds released, unfinished tasks ordered by the
//!   dispatch discipline's urgency key (fixed priority by default); the
//!   head is the next task to dispatch.
//! * The **delay queue** holds tasks that completed their current job and
//!   wait for their next period, ordered by release time; the head gives
//!   the *exact* next arrival — the knowledge LPFPS exploits for both
//!   power-down timers and speed scaling.
//!
//! Both are tiny ordered vectors: task counts in this domain are tens, not
//! thousands, and a sorted `Vec` beats heap structures at that size while
//! giving deterministic iteration for traces and tests. Both are sorted
//! *descending*, so each head sits at the back: the run queue pops with
//! `Vec::pop`, and the delay queue drains its due releases by truncating
//! the tail, so the waiting entries never move.

use lpfps_tasks::task::{Priority, TaskId};
use lpfps_tasks::time::{Dur, Time};

/// Urgency-ordered queue of released, runnable tasks.
///
/// Generic over the [`Discipline`](crate::discipline::Discipline) ordering
/// key `K`, with **smaller key = more urgent** (the fixed-priority
/// convention). The default `K` is [`Priority`], the paper's fixed-priority
/// queue.
///
/// # Examples
///
/// ```
/// use lpfps_kernel::queues::RunQueue;
/// use lpfps_tasks::task::{Priority, TaskId};
///
/// let mut q = RunQueue::new();
/// q.insert(TaskId(2), Priority::new(2));
/// q.insert(TaskId(0), Priority::new(0));
/// assert_eq!(q.head(), Some(TaskId(0)));
/// assert_eq!(q.pop(), Some(TaskId(0)));
/// assert_eq!(q.pop(), Some(TaskId(2)));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RunQueue<K = Priority> {
    // Sorted *descending* by key, so the head (most urgent = smallest key)
    // sits at the back and `pop` is an O(1) `Vec::pop` instead of a front
    // `remove(0)` memmove. Equal keys keep the front-sorted queue's
    // semantics: the most recent insert pops first.
    entries: Vec<(K, TaskId)>,
}

// Hand-written so the empty queue exists for every key type (a derived
// `Default` would needlessly require `K: Default`).
impl<K> Default for RunQueue<K> {
    fn default() -> Self {
        RunQueue {
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Ord> RunQueue<K> {
    /// Creates an empty run queue.
    pub fn new() -> Self {
        RunQueue::default()
    }

    /// Inserts a task at its urgency position.
    ///
    /// # Panics
    ///
    /// Panics if the task is already queued (a periodic task has at most
    /// one live job in this kernel model).
    pub fn insert(&mut self, task: TaskId, key: K) {
        assert!(
            !self.contains(task),
            "task {task} is already in the run queue"
        );
        let pos = self.entries.partition_point(|&(k, _)| k >= key);
        self.entries.insert(pos, (key, task));
    }

    /// The most urgent queued task, if any.
    pub fn head(&self) -> Option<TaskId> {
        self.entries.last().map(|&(_, t)| t)
    }

    /// The ordering key of the head, if any.
    pub fn head_key(&self) -> Option<K> {
        self.entries.last().map(|&(k, _)| k)
    }

    /// Removes and returns the most urgent task.
    pub fn pop(&mut self) -> Option<TaskId> {
        self.entries.pop().map(|(_, t)| t)
    }

    /// True if no task is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the queue, keeping its allocation (workspace reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The number of queued tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the task is queued.
    pub fn contains(&self, task: TaskId) -> bool {
        self.entries.iter().any(|&(_, t)| t == task)
    }

    /// Iterates queued tasks from most to least urgent.
    pub fn iter(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.entries.iter().rev().map(|&(_, t)| t)
    }
}

impl RunQueue<Priority> {
    /// The priority of the head, if any (fixed-priority-specific alias of
    /// [`RunQueue::head_key`]).
    pub fn head_priority(&self) -> Option<Priority> {
        self.head_key()
    }
}

/// Release-time-ordered queue of tasks waiting for their next period.
///
/// Ties on release time break by priority, then task id, so simulation
/// traces are fully deterministic.
#[derive(Debug, Clone, Default)]
pub struct DelayQueue {
    // Sorted *descending* by (release, priority, id), so the head (the
    // earliest release) sits at the back, like the run queue's, and
    // `pop_due_into` truncates the due tail: the waiting entries never
    // move. Keys are distinct (a task is queued at most once), so the
    // order is total.
    entries: Vec<(Time, Priority, TaskId)>,
}

impl DelayQueue {
    /// Creates an empty delay queue.
    pub fn new() -> Self {
        DelayQueue::default()
    }

    /// Inserts a task with its next release time.
    ///
    /// # Panics
    ///
    /// Panics if the task is already queued.
    pub fn insert(&mut self, task: TaskId, prio: Priority, release: Time) {
        let key = (release, prio, task);
        // One pass does the duplicate check and finds the position: the
        // entries greater than `key` are a prefix (the queue is sorted
        // descending), so their count is where `key` goes.
        let mut pos = 0;
        for &e in &self.entries {
            assert!(e.2 != task, "task {task} is already in the delay queue");
            pos += usize::from(e > key);
        }
        self.entries.insert(pos, key);
    }

    /// The earliest queued release time (the paper's `t_a` source).
    pub fn head_release(&self) -> Option<Time> {
        self.entries.last().map(|&(r, _, _)| r)
    }

    /// The task at the head, if any.
    pub fn head(&self) -> Option<TaskId> {
        self.entries.last().map(|&(_, _, t)| t)
    }

    /// Removes and returns every task whose release time is `<= now`, in
    /// release order (the scheduler's L5–L7 loop).
    ///
    /// Allocates a fresh `Vec` per call; the engine's hot path uses
    /// [`DelayQueue::pop_due_into`] with a reusable scratch buffer
    /// instead.
    pub fn pop_due(&mut self, now: Time) -> Vec<(TaskId, Time)> {
        let mut due = Vec::new();
        self.pop_due_into(now, &mut due);
        due
    }

    /// Removes every task whose release time is `<= now` into `due` (in
    /// release order), clearing it first. The allocation-free form of
    /// [`DelayQueue::pop_due`]: a caller-provided scratch buffer amortizes
    /// to zero allocations across scheduler passes.
    pub fn pop_due_into(&mut self, now: Time, due: &mut Vec<(TaskId, Time)>) {
        due.clear();
        let split = self.entries.partition_point(|&(r, _, _)| r > now);
        due.extend(self.entries[split..].iter().rev().map(|&(r, _, t)| (t, r)));
        self.entries.truncate(split);
    }

    /// Shifts every queued release forward by `by` (the steady-state
    /// fast-forward's state jump). A uniform shift preserves the
    /// `(release, priority, id)` ordering, so the sorted invariant holds
    /// without re-sorting — unless releases saturate at [`Time::MAX`],
    /// where ties can reorder them by `(priority, id)`; then the queue
    /// re-sorts.
    pub fn shift(&mut self, by: Dur) {
        for entry in &mut self.entries {
            entry.0 = entry.0.saturating_add(by);
        }
        // Descending: the first entry holds the latest release.
        if self
            .entries
            .first()
            .is_some_and(|&(r, _, _)| r == Time::MAX)
        {
            self.entries.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// True if no task is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Empties the queue, keeping its allocation (workspace reuse).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The number of waiting tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the task is queued.
    pub fn contains(&self, task: TaskId) -> bool {
        self.entries.iter().any(|&(_, _, t)| t == task)
    }

    /// Iterates `(task, release)` pairs in release order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, Time)> + '_ {
        self.entries.iter().rev().map(|&(r, _, t)| (t, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_queue_orders_by_priority() {
        let mut q = RunQueue::new();
        q.insert(TaskId(1), Priority::new(5));
        q.insert(TaskId(2), Priority::new(1));
        q.insert(TaskId(3), Priority::new(3));
        let order: Vec<TaskId> = q.iter().collect();
        assert_eq!(order, vec![TaskId(2), TaskId(3), TaskId(1)]);
        assert_eq!(q.head_priority(), Some(Priority::new(1)));
    }

    #[test]
    fn run_queue_pop_drains_in_priority_order() {
        let mut q = RunQueue::new();
        for (id, p) in [(0usize, 2u32), (1, 0), (2, 1)] {
            q.insert(TaskId(id), Priority::new(p));
        }
        assert_eq!(q.pop(), Some(TaskId(1)));
        assert_eq!(q.pop(), Some(TaskId(2)));
        assert_eq!(q.pop(), Some(TaskId(0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "already in the run queue")]
    fn run_queue_rejects_duplicates() {
        let mut q = RunQueue::new();
        q.insert(TaskId(0), Priority::new(0));
        q.insert(TaskId(0), Priority::new(1));
    }

    #[test]
    fn delay_queue_orders_by_release() {
        let mut q = DelayQueue::new();
        q.insert(TaskId(0), Priority::new(0), Time::from_us(200));
        q.insert(TaskId(1), Priority::new(1), Time::from_us(160));
        q.insert(TaskId(2), Priority::new(2), Time::from_us(200));
        assert_eq!(q.head(), Some(TaskId(1)));
        assert_eq!(q.head_release(), Some(Time::from_us(160)));
        // Equal releases tie-break by priority: TaskId(0) before TaskId(2).
        let order: Vec<TaskId> = q.iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![TaskId(1), TaskId(0), TaskId(2)]);
    }

    #[test]
    fn pop_due_takes_only_elapsed_releases() {
        let mut q = DelayQueue::new();
        q.insert(TaskId(0), Priority::new(0), Time::from_us(100));
        q.insert(TaskId(1), Priority::new(1), Time::from_us(150));
        q.insert(TaskId(2), Priority::new(2), Time::from_us(200));
        let due = q.pop_due(Time::from_us(150));
        assert_eq!(
            due,
            vec![
                (TaskId(0), Time::from_us(100)),
                (TaskId(1), Time::from_us(150))
            ]
        );
        assert_eq!(q.len(), 1);
        assert_eq!(q.head(), Some(TaskId(2)));
    }

    #[test]
    fn pop_due_on_empty_queue_is_empty() {
        let mut q = DelayQueue::new();
        assert!(q.pop_due(Time::from_us(1_000)).is_empty());
    }

    #[test]
    fn pop_due_into_matches_pop_due_and_reuses_the_buffer() {
        let mut a = DelayQueue::new();
        let mut b = DelayQueue::new();
        for (id, us) in [(0usize, 100u64), (1, 150), (2, 200)] {
            a.insert(TaskId(id), Priority::new(id as u32), Time::from_us(us));
            b.insert(TaskId(id), Priority::new(id as u32), Time::from_us(us));
        }
        let mut scratch = Vec::new();
        a.pop_due_into(Time::from_us(150), &mut scratch);
        assert_eq!(scratch, b.pop_due(Time::from_us(150)));
        let capacity = scratch.capacity();
        // A later pass clears stale contents and reuses the allocation.
        a.pop_due_into(Time::from_us(200), &mut scratch);
        assert_eq!(scratch, vec![(TaskId(2), Time::from_us(200))]);
        assert_eq!(scratch.capacity(), capacity);
    }

    #[test]
    fn run_queue_equal_priorities_pop_most_recently_inserted_first() {
        // The historical front-sorted queue inserted new entries *before*
        // existing equals; the back-popped layout must preserve that.
        let mut q = RunQueue::new();
        q.insert(TaskId(0), Priority::new(1));
        q.insert(TaskId(1), Priority::new(1));
        q.insert(TaskId(2), Priority::new(0));
        assert_eq!(q.pop(), Some(TaskId(2)));
        assert_eq!(q.pop(), Some(TaskId(1)));
        assert_eq!(q.pop(), Some(TaskId(0)));
    }

    #[test]
    #[should_panic(expected = "already in the delay queue")]
    fn delay_queue_rejects_duplicates() {
        let mut q = DelayQueue::new();
        q.insert(TaskId(0), Priority::new(0), Time::from_us(1));
        q.insert(TaskId(0), Priority::new(0), Time::from_us(2));
    }

    #[test]
    fn paper_figure3a_snapshot() {
        // Figure 3(a): at time 0 tau1 is active; tau2, tau3 wait in the run
        // queue in priority order; the delay queue is empty.
        let mut run = RunQueue::new();
        run.insert(TaskId(1), Priority::new(1));
        run.insert(TaskId(2), Priority::new(2));
        let delay = DelayQueue::new();
        assert_eq!(run.head(), Some(TaskId(1)));
        assert!(delay.is_empty());
    }

    #[test]
    fn paper_figure5a_snapshot() {
        // Figure 5(a): at time 160 tau2 just became active, tau1 (release
        // 200) and tau3 (release 200) wait in the delay queue; run queue
        // empty. tau1 outranks tau3 at the same release instant.
        let mut delay = DelayQueue::new();
        delay.insert(TaskId(2), Priority::new(2), Time::from_us(200));
        delay.insert(TaskId(0), Priority::new(0), Time::from_us(200));
        assert_eq!(delay.head(), Some(TaskId(0)));
        assert_eq!(delay.head_release(), Some(Time::from_us(200)));
    }
}
