//! The complete processor specification used by the kernel simulator.

use crate::ladder::FrequencyLadder;
use crate::modes::SleepMode;
use crate::power::PowerModel;
use crate::ramp::Ramp;
use crate::state::CpuState;
use crate::vf::VfCurve;
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Serialize};

/// Everything the simulator needs to know about the processor: the
/// frequency ladder, the V–f curve, the power model, the transition-rate
/// constant `rho`, and the power-down wake-up latency.
///
/// [`CpuSpec::arm8`] builds the paper's exact configuration.
///
/// # Examples
///
/// ```
/// use lpfps_cpu::spec::CpuSpec;
/// use lpfps_tasks::{freq::Freq, time::Dur};
///
/// let cpu = CpuSpec::arm8();
/// assert_eq!(cpu.full_freq(), Freq::from_mhz(100));
/// assert_eq!(cpu.wakeup_delay(), Dur::from_ns(100)); // 10 cycles @ 100 MHz
/// // 30 -> 100 MHz in 10 us: the paper's worst-case transition.
/// assert_eq!(cpu.ramp_duration(Freq::from_mhz(30), Freq::from_mhz(100)), Dur::from_us(10));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    ladder: FrequencyLadder,
    power: PowerModel,
    ramp_rate_per_us: f64,
    wakeup_cycles: u64,
    sleep_modes: Vec<SleepMode>,
}

impl CpuSpec {
    /// Builds a specification from parts.
    ///
    /// # Panics
    ///
    /// Panics if the ramp rate is not positive and finite, or if the
    /// ladder maximum differs from the V–f curve anchor.
    pub fn new(
        ladder: FrequencyLadder,
        power: PowerModel,
        ramp_rate_per_us: f64,
        wakeup_cycles: u64,
    ) -> Self {
        assert!(
            ramp_rate_per_us.is_finite() && ramp_rate_per_us > 0.0,
            "ramp rate must be positive"
        );
        assert!(
            ladder.max() <= power.vf().f_max(),
            "ladder maximum must not exceed the V-f anchor (reference) frequency"
        );
        let primary = SleepMode::new("sleep", power.power_down(), wakeup_cycles);
        CpuSpec {
            ladder,
            power,
            ramp_rate_per_us,
            wakeup_cycles,
            sleep_modes: vec![primary],
        }
    }

    /// The paper's processor extended with the PowerPC-603-style mode
    /// family of SS2.1: doze (30 %, 5 cycles), nap (10 %, 50 cycles),
    /// sleep (5 %, 10 cycles), deep sleep (2 %, 10^4 cycles = 100 us).
    pub fn arm8_multimode() -> Self {
        CpuSpec {
            sleep_modes: vec![
                SleepMode::doze(),
                SleepMode::nap(),
                SleepMode::paper_sleep(),
                SleepMode::deep_sleep(),
            ],
            ..CpuSpec::arm8()
        }
    }

    /// The paper's ARM8-class reference processor:
    /// 8–100 MHz in 1 MHz steps, 3.3 V at 100 MHz, `rho = 0.07/us`
    /// (30 -> 100 MHz in 10 us worst case), power-down at 5 % of full
    /// power with a 10-cycle wake-up, NOP busy-wait at 20 %.
    pub fn arm8() -> Self {
        CpuSpec::new(FrequencyLadder::default(), PowerModel::default(), 0.07, 10)
    }

    /// A processor with DVS disabled (single full-speed level) but the
    /// same idle/power-down modes — the substrate for the FPS and FPS+PD
    /// baselines and ablations.
    pub fn arm8_fixed_frequency() -> Self {
        CpuSpec::new(
            FrequencyLadder::fixed(Freq::from_mhz(100)),
            PowerModel::default(),
            0.07,
            10,
        )
    }

    /// The frequency ladder.
    pub fn ladder(&self) -> &FrequencyLadder {
        &self.ladder
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// The voltage–frequency curve.
    pub fn vf(&self) -> &VfCurve {
        self.power.vf()
    }

    /// The highest *selectable* frequency (the kernel settles here for
    /// scheduler passes). Equals the reference frequency on the paper's
    /// processor; lower on a derated (statically slowed) variant.
    pub fn full_freq(&self) -> Freq {
        self.ladder.max()
    }

    /// The reference frequency: the V–f anchor at which WCETs are quoted
    /// and cycles are counted (100 MHz on the paper's processor).
    pub fn reference_freq(&self) -> Freq {
        self.power.vf().f_max()
    }

    /// A derated copy whose only selectable frequency is `freq`, keeping
    /// the reference anchor and power model — the substrate for the
    /// static-slowdown baseline (the whole schedule runs at `freq`).
    ///
    /// # Panics
    ///
    /// Panics if `freq` is zero or exceeds the reference frequency.
    pub fn derated_to(&self, freq: Freq) -> CpuSpec {
        assert!(!freq.is_zero(), "derated frequency must be positive");
        assert!(
            freq <= self.reference_freq(),
            "derated frequency must not exceed the reference frequency"
        );
        CpuSpec {
            ladder: FrequencyLadder::fixed(freq),
            power: self.power,
            ramp_rate_per_us: self.ramp_rate_per_us,
            wakeup_cycles: self.wakeup_cycles,
            sleep_modes: self.sleep_modes.clone(),
        }
    }

    /// The speed-ratio change rate `rho`, per microsecond.
    pub fn ramp_rate_per_us(&self) -> f64 {
        self.ramp_rate_per_us
    }

    /// The wake-up latency from the primary power-down mode, in cycles at
    /// the reference clock.
    pub fn wakeup_cycles(&self) -> u64 {
        self.wakeup_cycles
    }

    /// The available sleep modes (at least one; index 0 on the paper's
    /// processor is its single 5 %/10-cycle mode).
    pub fn sleep_modes(&self) -> &[SleepMode] {
        &self.sleep_modes
    }

    /// The wake-up latency as wall-clock time (cycles at the reference
    /// clock, which keeps running in power-down mode).
    pub fn wakeup_delay(&self) -> Dur {
        Cycles::new(self.wakeup_cycles).time_at(self.reference_freq())
    }

    /// Builds the ramp describing a transition between two frequencies.
    pub fn ramp(&self, from: Freq, to: Freq) -> Ramp {
        Ramp::between(from, to, self.reference_freq(), self.ramp_rate_per_us)
    }

    /// Wall-clock duration of a transition between two frequencies.
    pub fn ramp_duration(&self, from: Freq, to: Freq) -> Dur {
        self.ramp(from, to).duration()
    }

    /// The longest possible transition (ladder minimum to maximum) — the
    /// delay bound LPFPS must budget when slowing down.
    pub fn worst_ramp_duration(&self) -> Dur {
        self.ramp_duration(self.ladder.min(), self.full_freq())
    }

    /// Normalized average power drawn in `state`.
    pub fn state_power(&self, state: CpuState) -> f64 {
        match state {
            CpuState::Busy(f) => self.power.busy(f),
            CpuState::Ramping { from, to } => self.power.ramp_average(&self.ramp(from, to)),
            CpuState::RampingIdle { from, to } => {
                self.power.idle_nop() * self.power.ramp_average(&self.ramp(from, to))
            }
            CpuState::IdleNop => self.power.idle_nop(),
            CpuState::PowerDown { power_frac } => power_frac,
            CpuState::WakingUp => 1.0,
        }
    }
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec::arm8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm8_matches_paper_constants() {
        let cpu = CpuSpec::arm8();
        assert_eq!(cpu.full_freq(), Freq::from_mhz(100));
        assert_eq!(cpu.ladder().min(), Freq::from_mhz(8));
        assert_eq!(cpu.ladder().step(), Freq::from_mhz(1));
        assert_eq!(cpu.wakeup_cycles(), 10);
        assert_eq!(cpu.wakeup_delay(), Dur::from_ns(100));
        assert!((cpu.state_power(CpuState::IdleNop) - 0.20).abs() < 1e-12);
        assert!((cpu.state_power(CpuState::PowerDown { power_frac: 0.05 }) - 0.05).abs() < 1e-12);
        assert_eq!(cpu.sleep_modes().len(), 1);
        assert_eq!(cpu.sleep_modes()[0].power_frac(), 0.05);
        assert!((cpu.state_power(CpuState::Busy(Freq::from_mhz(100))) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_ramp_is_full_ladder_span() {
        let cpu = CpuSpec::arm8();
        // (1.0 - 0.08) / 0.07 = 13.142.. us, rounded up to whole ns.
        let d = cpu.worst_ramp_duration();
        assert!(d > Dur::from_us(13) && d < Dur::from_us(14), "got {d}");
    }

    #[test]
    fn fixed_frequency_variant_has_no_dvs_range() {
        let cpu = CpuSpec::arm8_fixed_frequency();
        assert_eq!(cpu.ladder().min(), cpu.full_freq());
        assert_eq!(cpu.ladder().level_count(), 1);
    }

    #[test]
    fn wakeup_draws_full_power() {
        assert_eq!(CpuSpec::arm8().state_power(CpuState::WakingUp), 1.0);
    }

    #[test]
    #[should_panic(expected = "reference")]
    fn ladder_above_reference_rejected() {
        let ladder =
            FrequencyLadder::new(Freq::from_mhz(8), Freq::from_mhz(120), Freq::from_mhz(1));
        let _ = CpuSpec::new(ladder, PowerModel::default(), 0.07, 10);
    }

    #[test]
    fn derated_spec_keeps_reference_anchor() {
        let cpu = CpuSpec::arm8().derated_to(Freq::from_mhz(60));
        assert_eq!(cpu.full_freq(), Freq::from_mhz(60));
        assert_eq!(cpu.reference_freq(), Freq::from_mhz(100));
        assert_eq!(cpu.ladder().level_count(), 1);
        // Busy power at the derated clock is well under full power.
        let p = cpu.state_power(CpuState::Busy(Freq::from_mhz(60)));
        assert!(p < 0.5, "derated busy power {p}");
        // Wake-up latency still counts reference cycles.
        assert_eq!(cpu.wakeup_delay(), Dur::from_ns(100));
    }
}
