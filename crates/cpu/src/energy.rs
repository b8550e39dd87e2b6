//! Energy accounting with per-state breakdowns.
//!
//! Energy is accumulated as `normalized power x seconds`, so a meter that
//! reads `1.0` after one second means "the energy a full-speed busy
//! processor burns in a second". Average power over the run (energy /
//! elapsed time) is the unit of the paper's Figure 8.
//!
//! Energy is *reporting-only*: nothing in the scheduling path reads the
//! meter, so its use of `f64` cannot perturb the (integer-exact) schedule.

use crate::state::{CpuState, StateKind};
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Accumulates energy and residency per processor state.
///
/// # Examples
///
/// ```
/// use lpfps_cpu::{energy::EnergyMeter, spec::CpuSpec, state::CpuState};
/// use lpfps_tasks::time::Dur;
///
/// let cpu = CpuSpec::arm8();
/// let mut meter = EnergyMeter::new();
/// let idle = CpuState::IdleNop;
/// meter.accumulate_with_power(idle, cpu.state_power(idle), Dur::from_ms(1));
/// // 20% power for 1 ms = 0.0002 normalized joule-equivalents.
/// assert!((meter.total_energy() - 2e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    total_energy: f64,
    /// One slot per [`StateKind`], indexed by declaration order — a plain
    /// array store on the simulation hot path (the meter is charged on
    /// every advance) where a `BTreeMap` lookup used to sit. A kind was
    /// "entered" iff its residency is non-zero (charges are only ever
    /// positive), which the serialized form below relies on.
    buckets: [StateBucket; StateKind::ALL.len()],
}

/// Residency and energy attributed to one state kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StateBucket {
    /// Total time spent in this state.
    pub residency: Dur,
    /// Total normalized energy burned in this state.
    pub energy: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges `dur` spent in `state` drawing `power`
    /// ([`CpuSpec::state_power`](crate::spec::CpuSpec::state_power), which
    /// the kernel serves for busy and ramp states from its power table),
    /// and returns the energy charged, `power * dur.as_secs_f64()` (0 for
    /// a zero `dur`, which charges nothing).
    pub fn accumulate_with_power(&mut self, state: CpuState, power: f64, dur: Dur) -> f64 {
        if dur.is_zero() {
            return 0.0;
        }
        let energy = power * dur.as_secs_f64();
        self.total_energy += energy;
        let bucket = &mut self.buckets[state.kind() as usize];
        bucket.residency += dur;
        bucket.energy += energy;
        energy
    }

    /// Adds the energies of `tape`, a recorded cycle of charges, `k` more
    /// times in tape order: each charge to the total, to its kind's bucket
    /// and to `task_energy[charge.task]` (a charge whose task is out of
    /// range, as [`Charge::NO_TASK`] is, feeds no task). The result has
    /// exactly the bits of the plain loop that adds every charge `k` times,
    /// at a cost that grows with `log k` instead of `k` (see
    /// [`FoldScratch`]). Energies must be non-negative, as a power times a
    /// duration is. Residency is not charged: it is an integer, and
    /// [`extrapolate_residency`](Self::extrapolate_residency) scales it.
    pub fn repeat_cycle(
        &mut self,
        task_energy: &mut [f64],
        tape: &[Charge],
        k: u64,
        scratch: &mut FoldScratch,
    ) {
        let folds = &mut scratch.folds;
        folds.clear();
        folds.extend(
            std::iter::once(self.total_energy)
                .chain(self.buckets.iter().map(|b| b.energy))
                .chain(task_energy.iter().copied())
                .map(|value| Fold::new(value, k)),
        );
        let mut more = k > 0;
        while more {
            for c in tape {
                folds[0].add(c.energy);
                folds[1 + c.kind as usize].add(c.energy);
                if let Some(f) = folds.get_mut(FIRST_TASK + c.task as usize) {
                    f.add(c.energy);
                }
            }
            more = false;
            for f in folds.iter_mut() {
                more |= f.end_pass();
            }
        }
        self.total_energy = folds[0].value;
        for (b, f) in self.buckets.iter_mut().zip(&folds[1..]) {
            b.energy = f.value;
        }
        for (e, f) in task_energy.iter_mut().zip(&folds[FIRST_TASK..]) {
            *e = f.value;
        }
    }

    /// Adds `k` copies of every bucket's residency since `baseline`, an
    /// earlier state of this meter: the residency `k` more repeats of the
    /// cycle in between would charge. `None`, with the meter unchanged, if
    /// a residency would leave `u64` nanoseconds.
    pub fn extrapolate_residency(&mut self, baseline: &EnergyMeter, k: u64) -> Option<()> {
        let mut buckets = self.buckets;
        for (b, base) in buckets.iter_mut().zip(&baseline.buckets) {
            b.residency = (b.residency - base.residency)
                .checked_mul(k)?
                .checked_add(b.residency)?;
        }
        self.buckets = buckets;
        Some(())
    }

    /// Total normalized energy over the run.
    pub fn total_energy(&self) -> f64 {
        self.total_energy
    }

    /// Average normalized power over an elapsed wall-clock span.
    ///
    /// # Panics
    ///
    /// Panics if `elapsed` is zero.
    pub fn average_power(&self, elapsed: Dur) -> f64 {
        assert!(!elapsed.is_zero(), "cannot average power over zero time");
        self.total_energy / elapsed.as_secs_f64()
    }

    /// The bucket for one state kind (zero if never entered).
    pub fn bucket(&self, kind: StateKind) -> StateBucket {
        self.buckets[kind as usize]
    }

    /// Iterates non-empty buckets in report order.
    pub fn buckets(&self) -> impl Iterator<Item = (StateKind, StateBucket)> + '_ {
        StateKind::ALL
            .into_iter()
            .map(|k| (k, self.bucket(k)))
            .filter(|(_, b)| !b.residency.is_zero())
    }

    /// Total residency across all states (should equal elapsed sim time;
    /// the kernel asserts this).
    pub fn total_residency(&self) -> Dur {
        self.buckets
            .iter()
            .fold(Dur::ZERO, |acc, b| acc + b.residency)
    }
}

/// Serializes exactly like the historical
/// `{ total_energy, per_state: BTreeMap<StateKind, StateBucket> }` layout:
/// `per_state` is an object holding only the entered kinds, in
/// [`StateKind::ALL`] (= `BTreeMap` iteration) order — so report JSON and
/// the golden fingerprints over it are unchanged by the array-backed
/// representation.
impl Serialize for EnergyMeter {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.begin_object();
        s.entry("total_energy", &self.total_energy);
        s.key("per_state");
        s.begin_object();
        for (kind, bucket) in self.buckets() {
            s.entry(&kind, &bucket);
        }
        s.end_object();
        s.end_object();
    }
}

impl Deserialize for EnergyMeter {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected an object for EnergyMeter"))?;
        let total_energy = f64::from_value(
            obj.get("total_energy")
                .ok_or_else(|| serde::Error::missing_field("EnergyMeter", "total_energy"))?,
        )?;
        let per_state = BTreeMap::<StateKind, StateBucket>::from_value(
            obj.get("per_state")
                .ok_or_else(|| serde::Error::missing_field("EnergyMeter", "per_state"))?,
        )?;
        let mut buckets = [StateBucket::default(); StateKind::ALL.len()];
        for (kind, bucket) in per_state {
            buckets[kind as usize] = bucket;
        }
        Ok(EnergyMeter {
            total_energy,
            buckets,
        })
    }
}

/// One charge of a recorded cycle, as [`EnergyMeter::repeat_cycle`] adds
/// it again: the energy [`EnergyMeter::accumulate_with_power`] returned,
/// the kind of state it was charged to, and the task whose energy it was
/// also added to. 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// `power * dur.as_secs_f64()`, the product the meter charged.
    pub energy: f64,
    /// The index of the task energy it was also added to, or
    /// [`Charge::NO_TASK`].
    pub task: u32,
    /// The bucket it was charged to.
    pub kind: StateKind,
}

impl Charge {
    /// The `task` of a charge that fed no task's energy.
    pub const NO_TASK: u32 = u32::MAX;
}

/// Where [`EnergyMeter::repeat_cycle`] keeps the state of each accumulator
/// it folds: the total, the five buckets, then one per task. Owned by the
/// caller and reused, so a repeat allocates only when the number of tasks
/// grows.
///
/// # Why the fold is exact
///
/// While an `f64` accumulator stays in one binade (the floats that share
/// one ulp, `2^e`), it is an integer count of ulps, and adding a
/// non-negative `x` adds `⌊x / 2^e⌋` ulps, one more if the remainder is
/// above half an ulp, and at an exact half-ulp tie one more only if that
/// makes the count even. So one pass over the tape gives the ulps a cycle
/// adds from an even and from an odd start (the two parity lanes); from
/// the accumulator's own parity, whole cycles then add a fixed count, or
/// two alternating ones, and jump by integer multiplication for as long as
/// the count stays below the binade's top. The cycle that would cross the
/// top is added in `f64`, and the same pass analyses the binade it is
/// predicted to end in (the one the last cycle's step lands in), so each
/// binade costs one pass: `O(n log k)` for `n` charges repeated `k` times.
#[derive(Debug, Clone, Default)]
pub struct FoldScratch {
    folds: Vec<Fold>,
}

/// The index in [`FoldScratch`] of the first task's accumulator.
const FIRST_TASK: usize = 1 + StateKind::ALL.len();

/// An integer significand at or above this has left its binade; ulp
/// counts saturate here, so a larger one means "crosses".
const BINADE_TOP: u64 = 1 << 53;

/// One accumulator's fold state during a [`EnergyMeter::repeat_cycle`].
#[derive(Debug, Clone, Copy)]
struct Fold {
    /// The accumulator, with every cycle added so far.
    value: f64,
    /// `value` when the current pass began.
    start: f64,
    /// Cycles still to add; 0 once the accumulator is done.
    left: u64,
    /// The ulp exponent of the binade this pass analyses.
    ulp_exp: i32,
    /// Ulps the pass's cycle adds within that binade, from an even and
    /// from an odd start (saturating at [`BINADE_TOP`]).
    lanes: [u64; 2],
}

impl Fold {
    fn new(value: f64, k: u64) -> Self {
        Fold {
            value,
            start: value,
            left: k,
            ulp_exp: ulps_of(value).0,
            lanes: [0; 2],
        }
    }

    /// Adds `energy` in `f64`, and in ulps of the analysed binade to both
    /// parity lanes.
    #[inline]
    fn add(&mut self, energy: f64) {
        if self.left == 0 {
            return;
        }
        self.value += energy;
        let (q, above, tie) = split_at(energy, self.ulp_exp);
        for (parity, lane) in (0u64..).zip(self.lanes.iter_mut()) {
            // A tie rounds up iff the count before it plus `q` is odd.
            let up = above | (tie & (parity + *lane + q));
            *lane = (*lane + q + up).min(BINADE_TOP);
        }
    }

    /// Closes a pass, whose cycle was added in `f64`: if the value ended
    /// in the analysed binade, jumps every further whole cycle that stays
    /// in it, then picks the binade the next pass analyses. Returns whether
    /// cycles are left.
    fn end_pass(&mut self) -> bool {
        if self.left == 0 {
            return false;
        }
        self.left -= 1;
        let step = self.value - self.start;
        let (ulp_exp, m) = ulps_of(self.value);
        if !self.value.is_finite() {
            // Infinity and NaN absorb every further finite addition.
            self.left = 0;
        } else if ulp_exp == self.ulp_exp {
            let (end, cycles) = jump(m, self.lanes, self.left);
            if end != m {
                self.value = from_ulps(ulp_exp, end);
            }
            self.left -= cycles;
        }
        self.ulp_exp = ulps_of(self.value + step).0;
        self.start = self.value;
        self.lanes = [0; 2];
        self.left > 0
    }
}

/// `x`'s magnitude as `m * 2^e`: the ulp exponent `e` of its binade and
/// its integer significand `m < 2^53`. Zero, the subnormals and the
/// lowest normal binade share `e = -1074`.
fn ulps_of(x: f64) -> (i32, u64) {
    let bits = x.to_bits() & !(1 << 63);
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    if biased == 0 {
        (-1074, fraction)
    } else {
        (biased - 1075, fraction | (1 << 52))
    }
}

/// The non-negative float `m * 2^ulp_exp`, for `m` in the binade's range.
fn from_ulps(ulp_exp: i32, m: u64) -> f64 {
    f64::from_bits((((ulp_exp + 1074) as u64) << 52) + m)
}

/// `x` in ulps of `2^ulp_exp`: the whole ulps (saturating at
/// [`BINADE_TOP`]), whether the rest is above half an ulp, and whether it
/// is exactly half, as 0 or 1.
#[inline]
fn split_at(x: f64, ulp_exp: i32) -> (u64, u64, u64) {
    let (exp, m) = ulps_of(x);
    match ulp_exp - exp {
        // A normal `x` with a coarser ulp than `2^ulp_exp` is at least
        // `2^53` of them.
        s if s < 0 => (BINADE_TOP, 0, 0),
        0 => (m, 0, 0),
        // `m < 2^53 <= 2^(s - 1)`: below half an ulp.
        s if s > 53 => (0, 0, 0),
        s => {
            let rest = m & ((1 << s) - 1);
            let half = 1 << (s - 1);
            (m >> s, u64::from(rest > half), u64::from(rest == half))
        }
    }
}

/// From the integer significand `m`, adds whole cycles of `lanes[parity]`
/// ulps each, at most `left` of them, while the count stays below
/// [`BINADE_TOP`]. Returns the new significand and the cycles added. A
/// cycle adding nothing from `m`'s parity adds nothing ever again, so it
/// takes every cycle left.
fn jump(mut m: u64, lanes: [u64; 2], mut left: u64) -> (u64, u64) {
    let mut cycles = 0;
    while left > 0 {
        let d = lanes[(m & 1) as usize];
        let room = BINADE_TOP - 1 - m;
        if d == 0 {
            return (m, cycles + left);
        }
        if d & 1 == 0 {
            // The parity repeats: a fixed count per cycle.
            let n = (room / d).min(left);
            return (m + n * d, cycles + n);
        }
        let back = lanes[((m + 1) & 1) as usize];
        if back & 1 == 1 {
            // The parity alternates: a fixed count per pair of cycles,
            // then perhaps one more cycle.
            let n = (room / (d + back)).min(left / 2);
            m += n * (d + back);
            cycles += 2 * n;
            left -= 2 * n;
            if left > 0 && d <= BINADE_TOP - 1 - m {
                return (m + d, cycles + 1);
            }
            return (m, cycles);
        }
        // One cycle flips the parity for good; the loop goes on from there.
        if d > room {
            break;
        }
        m += d;
        cycles += 1;
        left -= 1;
    }
    (m, cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CpuSpec;
    use lpfps_tasks::freq::Freq;

    #[test]
    fn empty_meter_reads_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.total_energy(), 0.0);
        assert_eq!(m.total_residency(), Dur::ZERO);
        assert_eq!(m.bucket(StateKind::Busy), StateBucket::default());
    }

    /// Charges `dur` in `state` at the power `cpu` draws there.
    fn charge(m: &mut EnergyMeter, cpu: &CpuSpec, state: CpuState, dur: Dur) {
        m.accumulate_with_power(state, cpu.state_power(state), dur);
    }

    #[test]
    fn accumulation_splits_by_state() {
        let cpu = CpuSpec::arm8();
        let mut m = EnergyMeter::new();
        charge(
            &mut m,
            &cpu,
            CpuState::Busy(Freq::from_mhz(100)),
            Dur::from_ms(2),
        );
        charge(
            &mut m,
            &cpu,
            CpuState::PowerDown { power_frac: 0.05 },
            Dur::from_ms(8),
        );
        assert_eq!(m.bucket(StateKind::Busy).residency, Dur::from_ms(2));
        assert_eq!(m.bucket(StateKind::PowerDown).residency, Dur::from_ms(8));
        assert_eq!(m.total_residency(), Dur::from_ms(10));
        // 1.0 * 2ms + 0.05 * 8ms = 2.4 ms-units.
        assert!((m.total_energy() - 2.4e-3).abs() < 1e-12);
        // Average power over 10 ms = 0.24.
        assert!((m.average_power(Dur::from_ms(10)) - 0.24).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_a_no_op() {
        let cpu = CpuSpec::arm8();
        let mut m = EnergyMeter::new();
        charge(&mut m, &cpu, CpuState::IdleNop, Dur::ZERO);
        assert_eq!(m.total_energy(), 0.0);
        assert_eq!(m.buckets().count(), 0);
    }

    #[test]
    fn busy_at_low_frequency_is_cheap() {
        let cpu = CpuSpec::arm8();
        let mut slow = EnergyMeter::new();
        let mut fast = EnergyMeter::new();
        charge(
            &mut slow,
            &cpu,
            CpuState::Busy(Freq::from_mhz(50)),
            Dur::from_ms(2),
        );
        charge(
            &mut fast,
            &cpu,
            CpuState::Busy(Freq::from_mhz(100)),
            Dur::from_ms(1),
        );
        // Same work (100 Mcycles), but the slow run burns much less energy.
        assert!(slow.total_energy() < 0.7 * fast.total_energy());
    }

    #[test]
    #[should_panic(expected = "zero time")]
    fn average_over_zero_time_panics() {
        let _ = EnergyMeter::new().average_power(Dur::ZERO);
    }
}
