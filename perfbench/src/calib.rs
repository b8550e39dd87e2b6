//! Host-speed calibration.
//!
//! The hosts this benchmark runs on share their cores with other tenants,
//! and their speed changes by up to 2x while the process stays on the CPU
//! (no steal time shows). A fixed piece of work that is part of the
//! benchmark, not of the program, is timed next to the program, and host
//! times are divided by how many times slower than the reference speed it
//! ran. A change to the program moves the scaled times; a change in the
//! host's speed moves the program and the calibration alike and cancels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Host time of one round of [`work`] at the reference speed, ns: about
/// its time at the fast speed of the host the benchmark was tuned on.
const REFERENCE_NS_PER_ROUND: f64 = 40.0;

/// Calibrations after every batch: one, so that the smallest calibration
/// of a run is taken over as many samples as each cell's smallest latency.
pub const REPS: usize = 1;

/// A fixed mix of the operations the simulator spends its time on: a
/// small event heap, pseudo-random draws, floating-point maths and
/// formatting numbers into a string.
fn work(rounds: u32) -> u64 {
    let mut heap = BinaryHeap::with_capacity(64);
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut hash = 0_u64;
    let mut acc = 0.0_f64;
    let mut text = String::with_capacity(64);
    for i in 0..rounds {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        heap.push(Reverse((rng >> 40, i)));
        if heap.len() > 32 {
            if let Some(Reverse((t, id))) = heap.pop() {
                hash = hash.wrapping_mul(31) ^ t ^ u64::from(id);
            }
        }
        let x = (rng >> 11) as f64 / (1_u64 << 53) as f64;
        acc += (x + 0.5).ln().abs().sqrt() * (1.0 - x).powi(3);
        if i % 64 == 0 {
            text.clear();
            let _ = write!(text, "{acc:.6}");
            hash ^= text.len() as u64;
        }
    }
    hash ^ acc.to_bits()
}

/// Runs `rounds` rounds of the work and returns how many times longer
/// than at the reference speed they took.
pub fn slowdown(rounds: u32) -> f64 {
    let t = Instant::now();
    black_box(work(black_box(rounds)));
    t.elapsed().as_nanos() as f64 / (f64::from(rounds) * REFERENCE_NS_PER_ROUND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_deterministic() {
        assert_eq!(work(5_000), work(5_000));
        assert_ne!(work(5_000), work(5_001));
    }
}
