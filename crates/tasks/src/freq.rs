//! Clock-frequency newtype.
//!
//! Frequencies are held in kilohertz as integers so that the discrete
//! frequency ladder of the paper's processor (8–100 MHz in 1 MHz steps) and
//! all cycle/time conversions stay exact.

use core::fmt;
use core::ops::{Div, Mul};
use serde::{Deserialize, Serialize};

/// A clock frequency in kilohertz.
///
/// # Examples
///
/// ```
/// use lpfps_tasks::freq::Freq;
///
/// let f = Freq::from_mhz(100);
/// assert_eq!(f.as_khz(), 100_000);
/// assert_eq!(f.ratio_to(Freq::from_mhz(100)), 1.0);
/// assert_eq!(Freq::from_mhz(50).ratio_to(f), 0.5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Freq(u64);

impl Freq {
    /// Zero frequency (clock stopped); only meaningful as a sentinel.
    pub const ZERO: Freq = Freq(0);

    /// Creates a frequency from kilohertz.
    pub const fn from_khz(khz: u64) -> Self {
        Freq(khz)
    }

    /// Creates a frequency from megahertz.
    pub const fn from_mhz(mhz: u64) -> Self {
        Freq(mhz * 1_000)
    }

    /// The frequency in kilohertz.
    pub const fn as_khz(self) -> u64 {
        self.0
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0 * 1_000
    }

    /// The frequency as a float in megahertz (reporting only).
    pub fn as_mhz_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The ratio `self / full`, as used for the speed ratio `r` of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `full` is zero.
    pub fn ratio_to(self, full: Freq) -> f64 {
        assert!(full.0 > 0, "cannot take a ratio to a zero frequency");
        self.0 as f64 / full.0 as f64
    }

    /// True if the clock is stopped.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The smaller of two frequencies.
    pub fn min(self, other: Freq) -> Freq {
        Freq(self.0.min(other.0))
    }

    /// The larger of two frequencies.
    pub fn max(self, other: Freq) -> Freq {
        Freq(self.0.max(other.0))
    }
}

impl Mul<u64> for Freq {
    type Output = Freq;
    fn mul(self, rhs: u64) -> Freq {
        Freq(self.0 * rhs)
    }
}

impl Div<u64> for Freq {
    type Output = Freq;
    fn div(self, rhs: u64) -> Freq {
        Freq(self.0 / rhs)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000) {
            write!(f, "{}MHz", self.0 / 1_000)
        } else {
            write!(f, "{}kHz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(Freq::from_mhz(8).as_khz(), 8_000);
        assert_eq!(Freq::from_mhz(100).as_hz(), 100_000_000);
    }

    #[test]
    fn ratio_matches_definition() {
        let full = Freq::from_mhz(100);
        assert!((Freq::from_mhz(73).ratio_to(full) - 0.73).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn ratio_to_zero_panics() {
        let _ = Freq::from_mhz(1).ratio_to(Freq::ZERO);
    }

    #[test]
    fn display_prefers_mhz() {
        assert_eq!(Freq::from_mhz(100).to_string(), "100MHz");
        assert_eq!(Freq::from_khz(8_500).to_string(), "8500kHz");
    }

    #[test]
    fn ordering_follows_magnitude() {
        assert!(Freq::from_mhz(8) < Freq::from_mhz(100));
        assert_eq!(Freq::from_mhz(3).max(Freq::from_mhz(7)), Freq::from_mhz(7));
        assert_eq!(Freq::from_mhz(3).min(Freq::from_mhz(7)), Freq::from_mhz(3));
    }
}
