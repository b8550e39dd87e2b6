//! The draw tape: standard-normal job draws computed once per sweep
//! worker instead of once per run.
//!
//! A job's draw is `job_stream(seed, task index, job index)
//! .next_gaussian()` — a Box–Muller transform (an `ln`, a `sqrt` and a
//! `cos`) of a counter-based stream — and nothing else: not the policy,
//! the BCET fraction, the task's parameters, the processor or the core
//! (see [`crate::rng`]). A sweep meets the same `(seed, task, job)` keys
//! in every cell that shares a seed, so a Figure 8 batch computes only
//! ~5 % of its draws and reads the rest from the tape. A stored draw is
//! the `f64` a fresh call returns, bit for bit, because the function is
//! pure and the lookup compares the whole key.

use crate::rng::job_stream;

/// Memoized `job_stream(seed, task, job).next_gaussian()` values within
/// fixed capacities. It lives in the kernel's `SimWorkspace`, which lends
/// it to each run, so a sweep worker fills it once per batch.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::exec::DrawTape;
/// use lpfps_tasks::rng::job_stream;
///
/// let mut tape = DrawTape::default();
/// let fresh = job_stream(7, 2, 40).next_gaussian();
/// assert_eq!(tape.gaussian(7, 2, 40).to_bits(), fresh.to_bits());
/// assert_eq!(tape.gaussian(7, 2, 40).to_bits(), fresh.to_bits()); // stored
/// ```
#[derive(Debug, Default)]
pub struct DrawTape {
    slots: Vec<Slot>,
    /// The slot of the last seed looked up: a run draws under one seed.
    current: usize,
    /// The slot a new seed replaces once all `SEED_SLOTS` are taken.
    victim: usize,
    /// Entries stored across all slots: task rows, and draws with holes.
    stored: usize,
}

/// The draws of one seed.
#[derive(Debug)]
struct Slot {
    seed: u64,
    /// `draws[task][job]`; NaN marks a job not drawn yet (a Box–Muller
    /// draw is always finite).
    draws: Vec<Vec<f64>>,
}

impl DrawTape {
    /// Seeds the tape holds draws for at once. A new seed past this many
    /// takes the slot after the last one evicted, round robin.
    pub const SEED_SLOTS: usize = 16;

    /// Entries the tape stores across all seeds: 2^14, each a draw (an
    /// `f64`, holes included) or a task's row, so ~128 KiB of draws for
    /// sets of tens of tasks (rows grow by doubling, so up to twice that
    /// is allocated). A draw that would pass it is computed and not
    /// stored: a long run stores its first draws, and memory stays
    /// bounded.
    pub const CAPACITY: usize = 1 << 14;

    /// `job_stream(seed, task_index, job_index).next_gaussian()`, bit for
    /// bit, served from the tape when it was drawn before.
    pub fn gaussian(&mut self, seed: u64, task_index: usize, job_index: u64) -> f64 {
        let slot = self.slot_of(seed);
        let job = usize::try_from(job_index).unwrap_or(usize::MAX);
        let hit = self.slots[slot]
            .draws
            .get(task_index)
            .and_then(|row| row.get(job));
        if let Some(&z) = hit.filter(|z| !z.is_nan()) {
            return z;
        }
        let z = job_stream(seed, task_index, job_index).next_gaussian();
        self.store(slot, task_index, job, z);
        z
    }

    /// The index of `seed`'s slot, taking one (and dropping what it held)
    /// if no slot has it.
    fn slot_of(&mut self, seed: u64) -> usize {
        if self.slots.get(self.current).is_some_and(|s| s.seed == seed) {
            return self.current;
        }
        self.current = match self.slots.iter().position(|s| s.seed == seed) {
            Some(i) => i,
            None if self.slots.len() < Self::SEED_SLOTS => {
                self.slots.push(Slot {
                    seed,
                    draws: Vec::new(),
                });
                self.slots.len() - 1
            }
            None => {
                let i = self.victim;
                self.victim = (i + 1) % Self::SEED_SLOTS;
                let slot = &mut self.slots[i];
                self.stored -= slot.draws.len() + slot.draws.iter().map(Vec::len).sum::<usize>();
                slot.draws.clear();
                slot.seed = seed;
                i
            }
        };
        self.current
    }

    /// Stores `z` as `draws[task][job]` of `slot` if the tape has room
    /// for it and for the rows and holes before it.
    fn store(&mut self, slot: usize, task: usize, job: usize, z: f64) {
        let draws = &mut self.slots[slot].draws;
        let rows = task.saturating_add(1).saturating_sub(draws.len());
        let len = draws.get(task).map_or(0, Vec::len);
        let grow = rows.saturating_add(job.saturating_add(1).saturating_sub(len));
        if grow > Self::CAPACITY - self.stored {
            return;
        }
        if draws.len() <= task {
            draws.resize_with(task + 1, Vec::new);
        }
        let row = &mut draws[task];
        if row.len() <= job {
            row.resize(job + 1, f64::NAN);
        }
        row[job] = z;
        self.stored += grow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecModel, PaperGaussian};
    use crate::task::{Task, TaskId};
    use crate::time::Dur;

    /// Draws `(seed, task, job)` from `tape` and checks it against a
    /// fresh stream, bit for bit.
    fn check(tape: &mut DrawTape, seed: u64, task: usize, job: u64) {
        let (got, want) = (
            tape.gaussian(seed, task, job),
            job_stream(seed, task, job).next_gaussian(),
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "seed {seed} task {task} job {job}: tape {got}, fresh {want}"
        );
    }

    /// Every job of `tasks` tasks, twice over: the second pass reads what
    /// the first stored.
    fn check_grid(tape: &mut DrawTape, seed: u64, tasks: usize, jobs: u64) {
        for _ in 0..2 {
            for task in 0..tasks {
                for job in 0..jobs {
                    check(tape, seed, task, job);
                }
            }
        }
    }

    #[test]
    fn stored_draws_are_bit_identical_and_keyed_by_seed_task_and_job() {
        let mut tape = DrawTape::default();
        // Neighbouring seeds, tasks and jobs looked up back to back: a key
        // that dropped any part would serve its neighbour's draw.
        for _ in 0..2 {
            for seed in [0, 1, u64::MAX] {
                check_grid(&mut tape, seed, 3, 40);
            }
        }
        assert_eq!(tape.slots.len(), 3);
        assert_eq!(tape.stored, 3 * (3 + 3 * 40));
    }

    #[test]
    fn a_seed_past_the_slots_evicts_round_robin_and_drops_the_old_draws() {
        let mut tape = DrawTape::default();
        let seeds = DrawTape::SEED_SLOTS as u64 + 5;
        // Twice round: each new seed takes an evicted slot, whose old
        // draws (same tasks and jobs, another seed) must not be served.
        for _ in 0..2 {
            for seed in 0..seeds {
                check_grid(&mut tape, 100 + seed, 2, 8);
            }
        }
        assert_eq!(tape.slots.len(), DrawTape::SEED_SLOTS);
        assert_eq!(tape.stored, DrawTape::SEED_SLOTS * (2 + 2 * 8));
        let mut held: Vec<u64> = tape.slots.iter().map(|s| s.seed).collect();
        held.sort_unstable();
        let newest: Vec<u64> = (seeds - DrawTape::SEED_SLOTS as u64..seeds)
            .map(|s| 100 + s)
            .collect();
        assert_eq!(held, newest, "round robin keeps the newest seeds");
    }

    #[test]
    fn a_full_tape_serves_fresh_draws_and_stores_none() {
        let mut tape = DrawTape::default();
        let jobs = DrawTape::CAPACITY as u64 + 500;
        for job in 0..jobs {
            check(&mut tape, 3, 0, job);
        }
        assert_eq!(tape.stored, DrawTape::CAPACITY);
        // Past the capacity nothing is stored, under this seed or another,
        // and every draw stays exact.
        for job in (0..jobs).rev() {
            check(&mut tape, 3, 0, job);
        }
        check_grid(&mut tape, 4, 3, 10);
        assert_eq!(tape.stored, DrawTape::CAPACITY);
        // Evicting the full seed makes room again.
        for seed in 10..10 + DrawTape::SEED_SLOTS as u64 {
            check(&mut tape, seed, 0, 0);
        }
        assert!(tape.slots.iter().all(|s| s.seed != 3));
        assert!(tape.stored < DrawTape::CAPACITY);
    }

    #[test]
    fn sparse_tasks_and_out_of_order_jobs_leave_holes_that_fill_exactly() {
        let mut tape = DrawTape::default();
        let keys = [(9, 300), (0, 5), (9, 2), (4, 0), (0, 1), (9, 299), (4, 7)];
        for _ in 0..2 {
            for &(task, job) in &keys {
                check(&mut tape, 11, task, job);
            }
        }
        // Every hole reads as a fresh draw and is filled by it.
        check_grid(&mut tape, 11, 10, 310);
        // Indices the tape cannot hold are served fresh.
        check(&mut tape, 11, DrawTape::CAPACITY, 0);
        check(&mut tape, 11, 0, u64::MAX);
        check(&mut tape, 11, usize::MAX, u64::MAX);
    }

    #[test]
    fn taped_gaussian_samples_equal_fresh_ones_and_bcet_equal_wcet_draws_nothing() {
        let mut tape = DrawTape::default();
        // One tape across BCET fractions: a draw stored under one serves
        // every other, since the draw does not depend on the task's times.
        for bcet_us in [10, 55, 99, 55, 10] {
            let t = Task::new("t", Dur::from_us(1_000), Dur::from_us(100))
                .with_bcet(Dur::from_us(bcet_us));
            for seed in [3, 4] {
                for id in 0..3 {
                    for job in (0..50).rev().chain(0..50) {
                        let taped =
                            PaperGaussian.sample_taped(&t, TaskId(id), job, seed, &mut tape);
                        let fresh = PaperGaussian.sample(&t, TaskId(id), job, seed);
                        assert_eq!(
                            taped, fresh,
                            "bcet {bcet_us} seed {seed} task {id} job {job}"
                        );
                    }
                }
            }
        }
        assert_eq!(tape.stored, 2 * (3 + 3 * 50));
        // `bcet == wcet` returns the WCET without a draw.
        let mut untouched = DrawTape::default();
        let wcet = Task::new("t", Dur::from_us(1_000), Dur::from_us(100));
        assert_eq!(
            PaperGaussian.sample_taped(&wcet, TaskId(0), 9, 3, &mut untouched),
            wcet.wcet()
        );
        assert!(untouched.slots.is_empty());
    }
}
