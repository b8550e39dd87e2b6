//! Multi-level sleep modes.
//!
//! §2.1 of the paper describes processors (PowerPC 603) with *several*
//! power-down modes, "each associated with a level of power saving and
//! delay overhead" — e.g. sleep mode at 5 % of full power with ~10 cycles
//! of wake-up. The paper's evaluation uses that single mode; this module
//! models the whole family so the mode-selection extension (pick the
//! deepest mode whose wake-up latency fits the idle window) can be
//! studied.

use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// One sleep mode: its residual power draw and its wake-up latency.
///
/// # Examples
///
/// ```
/// use lpfps_cpu::modes::SleepMode;
/// use lpfps_tasks::{freq::Freq, time::Dur};
///
/// let sleep = SleepMode::paper_sleep();
/// assert_eq!(sleep.power_frac(), 0.05);
/// assert_eq!(sleep.wakeup_delay(Freq::from_mhz(100)), Dur::from_ns(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SleepMode {
    // Static labels keep the type `Copy`; serde round-trips drop the name
    // (it is cosmetic) and restore the empty string.
    #[serde(skip)]
    name: &'static str,
    power_frac: f64,
    wakeup_cycles: u64,
}

impl SleepMode {
    /// Creates a sleep mode.
    ///
    /// # Panics
    ///
    /// Panics if the power fraction is outside `[0, 1]`.
    pub fn new(name: &'static str, power_frac: f64, wakeup_cycles: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&power_frac),
            "sleep power fraction must be in [0, 1]"
        );
        SleepMode {
            name,
            power_frac,
            wakeup_cycles,
        }
    }

    /// The paper's evaluated mode: PLL and clock alive, 5 % of full power,
    /// 10-cycle wake-up.
    pub fn paper_sleep() -> Self {
        SleepMode::new("sleep", 0.05, 10)
    }

    /// Doze: most units clocked off, caches snooping; cheap to leave.
    pub fn doze() -> Self {
        SleepMode::new("doze", 0.30, 5)
    }

    /// Nap: clocks stopped except the timebase; tens of cycles to leave.
    pub fn nap() -> Self {
        SleepMode::new("nap", 0.10, 50)
    }

    /// Deep sleep: PLL off; microseconds-scale relock on wake-up.
    pub fn deep_sleep() -> Self {
        SleepMode::new("deep-sleep", 0.02, 10_000)
    }

    /// The mode's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Residual power as a fraction of full busy power.
    pub fn power_frac(&self) -> f64 {
        self.power_frac
    }

    /// Wake-up latency in cycles at the reference clock.
    pub fn wakeup_cycles(&self) -> u64 {
        self.wakeup_cycles
    }

    /// Wake-up latency as wall-clock time at `reference`.
    pub fn wakeup_delay(&self, reference: Freq) -> Dur {
        Cycles::new(self.wakeup_cycles).time_at(reference)
    }

    /// Normalized energy of spending a whole idle window of length
    /// `window` in this mode: residual draw until the wake timer, then
    /// full power for the wake-up latency. Returns `None` if the window
    /// cannot even fit the wake-up.
    fn window_energy(&self, window: Dur, reference: Freq) -> Option<f64> {
        let wake = self.wakeup_delay(reference);
        if wake >= window {
            return None;
        }
        let resident = window - wake;
        Some(self.power_frac * resident.as_secs_f64() + wake.as_secs_f64())
    }
}

/// Picks the mode in `modes` minimizing the normalized energy of an idle
/// window of length `window` — residual draw until the wake timer, then
/// full power for the wake-up latency at `reference` — and returns its
/// index with that energy, or `None` if no mode fits (window shorter than
/// every wake-up latency).
pub fn best_mode_for(modes: &[SleepMode], window: Dur, reference: Freq) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, m) in modes.iter().enumerate() {
        if let Some(e) = m.window_energy(window, reference) {
            if best.map(|(_, be)| e < be).unwrap_or(true) {
                best = Some((i, e));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    const REF: Freq = Freq::from_mhz(100);

    fn family() -> Vec<SleepMode> {
        vec![
            SleepMode::doze(),
            SleepMode::nap(),
            SleepMode::paper_sleep(),
            SleepMode::deep_sleep(),
        ]
    }

    #[test]
    fn paper_mode_constants() {
        let m = SleepMode::paper_sleep();
        assert_eq!(m.name(), "sleep");
        assert_eq!(m.wakeup_cycles(), 10);
        assert_eq!(m.wakeup_delay(REF), Dur::from_ns(100));
    }

    #[test]
    fn window_energy_charges_wakeup_at_full_power() {
        let m = SleepMode::paper_sleep();
        // 1 ms window: 999.9us at 5% + 100ns at 100%.
        let e = m.window_energy(Dur::from_ms(1), REF).unwrap();
        let expected = 0.05 * 999_900e-9 + 100e-9;
        assert!((e - expected).abs() < 1e-15);
    }

    #[test]
    fn too_short_windows_fit_no_mode() {
        let m = SleepMode::deep_sleep(); // 100us wake-up
        assert_eq!(m.window_energy(Dur::from_us(50), REF), None);
        assert_eq!(best_mode_for(&[m], Dur::from_us(50), REF), None);
    }

    #[test]
    fn deeper_modes_win_longer_windows() {
        let fam = family();
        // 10 ms window: deep sleep's 2% dominates despite the 100us wake.
        let best = |w: Dur| best_mode_for(&fam, w, REF).map(|(i, _)| i);
        assert_eq!(best(Dur::from_ms(10)), Some(3));
        // 200 us window: deep sleep cannot pay off its wake-up; the 5%
        // sleep mode wins.
        assert_eq!(best(Dur::from_us(200)), Some(2));
        // A 1 us window: sleep (100ns wake) still wins over nap (500ns).
        assert_eq!(best(Dur::from_us(1)), Some(2));
        // A 300 ns window only fits doze (50ns) and sleep (100ns): sleep's
        // lower draw still wins.
        let i = best(Dur::from_ns(300)).unwrap();
        assert!(fam[i].name() == "sleep" || fam[i].name() == "doze");
    }

    #[test]
    fn selection_minimizes_energy_exhaustively() {
        let fam = family();
        for window_us in [1u64, 5, 50, 200, 1_000, 20_000] {
            let w = Dur::from_us(window_us);
            if let Some((best, be)) = best_mode_for(&fam, w, REF) {
                // The returned energy is the winner's window energy.
                assert_eq!(
                    be.to_bits(),
                    fam[best].window_energy(w, REF).unwrap().to_bits()
                );
                for m in &fam {
                    if let Some(e) = m.window_energy(w, REF) {
                        assert!(
                            be <= e + 1e-18,
                            "window {w}: {} beat {}",
                            m.name(),
                            fam[best].name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn invalid_fraction_rejected() {
        let _ = SleepMode::new("bad", 1.5, 1);
    }
}
