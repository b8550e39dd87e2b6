//! Processor work measured in clock cycles.
//!
//! The paper specifies task execution demands as times at the maximum clock
//! frequency (e.g. a WCET of 20 µs on the 100 MHz ARM8-class core). The
//! simulator instead stores demand as a cycle count, because a job's
//! *remaining work* is invariant under frequency changes while its remaining
//! *time* is not. Conversions between cycles and time at a given frequency
//! are exact integer arithmetic: in `u64` whenever the product fits, with
//! a `u128` intermediate only when it does not. Both give the same integer,
//! so the fast path cannot change a result.

use crate::freq::Freq;
use crate::time::Dur;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An amount of processor work, in clock cycles.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::{cycles::Cycles, freq::Freq, time::Dur};
///
/// let full = Freq::from_mhz(100);
/// // 20 us of work at 100 MHz is 2000 cycles...
/// let work = Cycles::from_time_at(Dur::from_us(20), full);
/// assert_eq!(work.as_u64(), 2_000);
/// // ...which takes 40 us at half speed.
/// assert_eq!(work.time_at(Freq::from_mhz(50)), Dur::from_us(40));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(u64);

impl Cycles {
    /// No work.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count directly.
    pub const fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// The work performed when running for `d` at frequency `f`, rounded
    /// *down* (a partial cycle does not retire). Saturates at `u64::MAX`
    /// cycles: validated inputs (see `lpfps_tasks::error`) never reach the
    /// saturation point, and for hostile inputs a pinned-at-maximum work
    /// amount is detected by the kernel's overflow boundary checks instead
    /// of aborting the process.
    pub fn from_time_at(d: Dur, f: Freq) -> Self {
        // cycles = ns * kHz / 1e6  (1 kHz = 1e3 cycles/s = 1e-6 cycles/ns)
        if let Some(p) = d.as_ns().checked_mul(f.as_khz()) {
            return Cycles(p / 1_000_000);
        }
        let c = (d.as_ns() as u128 * f.as_khz() as u128) / 1_000_000;
        Cycles(u64::try_from(c).unwrap_or(u64::MAX))
    }

    /// The raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The wall-clock time to retire this many cycles at frequency `f`,
    /// rounded *up* (the last cycle must fully complete).
    ///
    /// A stopped clock (`f == 0`) or a duration beyond `u64` nanoseconds
    /// both saturate to [`Dur::MAX`] — "this work never finishes" — rather
    /// than aborting. Validated processor specs have a nonzero minimum
    /// frequency, so the saturated path is unreachable on the happy path
    /// (kept as a `debug_assert!` below).
    pub fn time_at(self, f: Freq) -> Dur {
        debug_assert!(!f.is_zero(), "cannot execute work at a stopped clock");
        if f.is_zero() {
            return Dur::MAX;
        }
        // ns = cycles * 1e6 / kHz, ceiling division. A quotient never
        // exceeds its numerator, so the u64 path cannot saturate.
        if let Some(num) = self.0.checked_mul(1_000_000) {
            return Dur::from_ns(num.div_ceil(f.as_khz()));
        }
        let num = self.0 as u128 * 1_000_000;
        let den = f.as_khz() as u128;
        let ns = num.div_ceil(den);
        Dur::from_ns(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// True if no work remains.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: remaining work after retiring `done`.
    pub fn saturating_sub(self, done: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(done.0))
    }

    /// The smaller of two work amounts.
    pub fn min(self, other: Cycles) -> Cycles {
        Cycles(self.0.min(other.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` exceeds `self`.
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: Freq = Freq::from_mhz(100);

    #[test]
    fn time_cycle_roundtrip_at_full_speed() {
        let d = Dur::from_us(35);
        let c = Cycles::from_time_at(d, FULL);
        assert_eq!(c.as_u64(), 3_500);
        assert_eq!(c.time_at(FULL), d);
    }

    #[test]
    fn slower_clock_stretches_time_proportionally() {
        let c = Cycles::from_time_at(Dur::from_us(20), FULL);
        assert_eq!(c.time_at(Freq::from_mhz(50)), Dur::from_us(40));
        assert_eq!(c.time_at(Freq::from_mhz(25)), Dur::from_us(80));
        assert_eq!(c.time_at(Freq::from_mhz(8)), Dur::from_us(250));
    }

    #[test]
    fn time_at_rounds_up_partial_cycles() {
        // 1000 cycles at 3 MHz = 333.33.. us -> must round up to whole ns.
        let c = Cycles::new(1_000);
        let d = c.time_at(Freq::from_mhz(3));
        assert_eq!(d.as_ns(), 333_334);
        // And converting back down never reports more work than was done.
        assert!(Cycles::from_time_at(d, Freq::from_mhz(3)).as_u64() >= 1_000);
    }

    #[test]
    fn from_time_rounds_down() {
        // 1 ns at 100 MHz is 0.1 cycle -> 0 retired cycles.
        assert_eq!(Cycles::from_time_at(Dur::from_ns(1), FULL), Cycles::ZERO);
        assert_eq!(Cycles::from_time_at(Dur::from_ns(10), FULL), Cycles::new(1));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "stopped clock"))]
    fn time_at_zero_frequency_saturates() {
        // Debug builds trap the programming error; release builds
        // saturate to "this work never finishes".
        assert_eq!(Cycles::new(1).time_at(Freq::ZERO), Dur::MAX);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Cycles::new(30);
        let b = Cycles::new(12);
        assert_eq!(a + b, Cycles::new(42));
        assert_eq!(a - b, Cycles::new(18));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!(b * 3, Cycles::new(36));
        let s: Cycles = [a, b].into_iter().sum();
        assert_eq!(s, Cycles::new(42));
    }

    #[test]
    fn ten_cycle_wakeup_at_full_speed_is_100ns() {
        // The paper's power-down wake-up latency: 10 cycles at 100 MHz.
        assert_eq!(Cycles::new(10).time_at(FULL), Dur::from_ns(100));
    }
}
