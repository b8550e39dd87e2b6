//! Typed validation errors for the processor model.
//!
//! Mirrors `lpfps_tasks::error`: the `assert!`s of the constructors are
//! the precondition of literal, known-good specs (the paper's ARM8-class
//! processor and its variants), while [`validate_cpu_spec`] is the one
//! fallible check, giving untrusted input — deserialized specs, external
//! configuration — a typed rejection instead of a process abort.

use crate::spec::CpuSpec;
use core::fmt;

/// Why a processor specification failed validation.
///
/// `Display` strings are stable (pinned by error-message snapshot tests).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CpuSpecError {
    /// The frequency ladder's minimum is zero: work could never retire.
    ZeroFrequency,
    /// The ladder's bounds are inverted (`min > max`).
    UnorderedLadder,
    /// The ladder's step is zero (the level iterator would never advance).
    ZeroLadderStep,
    /// The ladder span is not a whole number of steps: quantization would
    /// not be closed over the selectable levels.
    MisalignedLadder,
    /// The ladder maximum exceeds the V–f anchor frequency, so busy power
    /// would extrapolate beyond the model's domain.
    LadderAboveReference,
    /// The V–f curve breaks `0 <= Vt < Vmax` with `Vmax` finite (a NaN
    /// voltage breaks it too), so the voltage solve has no valid root.
    BadVfCurve {
        /// The rejected anchor voltage, in volts.
        v_max: f64,
        /// The rejected threshold voltage, in volts.
        v_t: f64,
    },
    /// A power-model fraction (NOP idle or power-down) is outside `[0, 1]`
    /// or NaN.
    BadPowerFraction {
        /// Which fraction: `"idle"` or `"power-down"`.
        what: &'static str,
        /// The rejected fraction.
        frac: f64,
    },
    /// The speed-ratio ramp rate `rho` is zero, negative, or not finite —
    /// a non-monotone ramp table: transitions would never converge.
    BadRampRate {
        /// The rejected rate, per microsecond.
        rate: f64,
    },
    /// The spec has no sleep modes; the kernel's power-down decision would
    /// have nothing to select.
    NoSleepModes,
    /// A sleep mode's residual power fraction is outside `[0, 1]` or NaN.
    BadSleepPower {
        /// Index of the offending mode.
        mode: usize,
        /// The rejected fraction.
        power_frac: f64,
    },
}

impl fmt::Display for CpuSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuSpecError::ZeroFrequency => {
                write!(f, "frequency ladder minimum must be positive")
            }
            CpuSpecError::UnorderedLadder => {
                write!(f, "frequency ladder bounds must be ordered (min <= max)")
            }
            CpuSpecError::ZeroLadderStep => {
                write!(f, "frequency ladder step must be positive")
            }
            CpuSpecError::MisalignedLadder => {
                write!(f, "frequency ladder span must be a whole number of steps")
            }
            CpuSpecError::LadderAboveReference => {
                write!(
                    f,
                    "frequency ladder maximum must not exceed the V-f reference frequency"
                )
            }
            CpuSpecError::BadVfCurve { v_max, v_t } => {
                write!(
                    f,
                    "V-f curve must satisfy 0 <= Vt < Vmax with Vmax finite, got Vt = {v_t} V, Vmax = {v_max} V"
                )
            }
            CpuSpecError::BadPowerFraction { what, frac } => {
                write!(
                    f,
                    "power model: {what} fraction must be in [0, 1], got {frac}"
                )
            }
            CpuSpecError::BadRampRate { rate } => {
                write!(f, "ramp rate must be positive and finite, got {rate}")
            }
            CpuSpecError::NoSleepModes => {
                write!(f, "a processor needs at least one sleep mode")
            }
            CpuSpecError::BadSleepPower { mode, power_frac } => {
                write!(
                    f,
                    "sleep mode {mode}: power fraction must be in [0, 1], got {power_frac}"
                )
            }
        }
    }
}

impl std::error::Error for CpuSpecError {}

/// Checks a (possibly deserialized) processor spec against every rule the
/// panicking constructors assert.
///
/// [`CpuSpec`] implements `Deserialize`, so malformed specs can exist
/// without passing through [`CpuSpec::new`](crate::spec::CpuSpec::new);
/// panic-free consumers (the simulation kernel) re-check here at their
/// boundary. After this passes, the constructor `assert!`s are provably
/// unreachable for this value.
pub fn validate_cpu_spec(cpu: &CpuSpec) -> Result<(), CpuSpecError> {
    let ladder = cpu.ladder();
    if ladder.min().is_zero() {
        return Err(CpuSpecError::ZeroFrequency);
    }
    if ladder.min() > ladder.max() {
        return Err(CpuSpecError::UnorderedLadder);
    }
    if ladder.step().is_zero() {
        return Err(CpuSpecError::ZeroLadderStep);
    }
    if !(ladder.max().as_khz() - ladder.min().as_khz()).is_multiple_of(ladder.step().as_khz()) {
        return Err(CpuSpecError::MisalignedLadder);
    }
    if ladder.max() > cpu.reference_freq() {
        return Err(CpuSpecError::LadderAboveReference);
    }
    let (v_max, v_t) = (cpu.vf().v_max().0, cpu.vf().v_t().0);
    if !(v_t >= 0.0 && v_t < v_max && v_max.is_finite()) {
        return Err(CpuSpecError::BadVfCurve { v_max, v_t });
    }
    let power = cpu.power();
    for (what, frac) in [
        ("idle", power.idle_nop()),
        ("power-down", power.power_down()),
    ] {
        if !(0.0..=1.0).contains(&frac) {
            return Err(CpuSpecError::BadPowerFraction { what, frac });
        }
    }
    let rate = cpu.ramp_rate_per_us();
    if !(rate.is_finite() && rate > 0.0) {
        return Err(CpuSpecError::BadRampRate { rate });
    }
    if cpu.sleep_modes().is_empty() {
        return Err(CpuSpecError::NoSleepModes);
    }
    for (i, mode) in cpu.sleep_modes().iter().enumerate() {
        let p = mode.power_frac();
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(CpuSpecError::BadSleepPower {
                mode: i,
                power_frac: p,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_processor_passes() {
        assert_eq!(validate_cpu_spec(&CpuSpec::arm8()), Ok(()));
        assert_eq!(validate_cpu_spec(&CpuSpec::arm8_multimode()), Ok(()));
        assert_eq!(validate_cpu_spec(&CpuSpec::arm8_fixed_frequency()), Ok(()));
    }

    /// Serializes the paper's spec and swaps one field for a hostile
    /// value — serde bypasses the constructors, so the malformed spec
    /// exists in memory without any assert having fired.
    fn doctored_arm8(needle: &str, replacement: &str) -> CpuSpec {
        let json = serde_json::to_string(&CpuSpec::arm8()).unwrap();
        let doctored = json.replace(needle, replacement);
        assert_ne!(json, doctored, "needle `{needle}` not found in {json}");
        serde_json::from_str(&doctored).unwrap()
    }

    #[test]
    fn deserialized_zero_frequency_ladder_is_caught() {
        let cpu = doctored_arm8("\"min\":8000", "\"min\":0");
        assert_eq!(validate_cpu_spec(&cpu), Err(CpuSpecError::ZeroFrequency));
    }

    #[test]
    fn deserialized_bad_ramp_rate_is_caught() {
        let cpu = doctored_arm8("\"ramp_rate_per_us\":0.07", "\"ramp_rate_per_us\":-1");
        assert_eq!(
            validate_cpu_spec(&cpu),
            Err(CpuSpecError::BadRampRate { rate: -1.0 })
        );
    }

    #[test]
    fn deserialized_empty_sleep_modes_are_caught() {
        let cpu = doctored_arm8(
            "\"sleep_modes\":[{\"power_frac\":0.05,\"wakeup_cycles\":10}]",
            "\"sleep_modes\":[]",
        );
        assert_eq!(validate_cpu_spec(&cpu), Err(CpuSpecError::NoSleepModes));
    }

    #[test]
    fn deserialized_idle_fraction_above_one_is_caught() {
        let cpu = doctored_arm8("\"idle_frac\":0.2", "\"idle_frac\":1.5");
        assert_eq!(
            validate_cpu_spec(&cpu),
            Err(CpuSpecError::BadPowerFraction {
                what: "idle",
                frac: 1.5
            })
        );
    }

    #[test]
    fn deserialized_threshold_above_anchor_voltage_is_caught() {
        let cpu = doctored_arm8("\"v_t\":0.8", "\"v_t\":4.0");
        assert_eq!(
            validate_cpu_spec(&cpu),
            Err(CpuSpecError::BadVfCurve {
                v_max: 3.3,
                v_t: 4.0
            })
        );
    }

    #[test]
    fn deserialized_negative_power_down_fraction_is_caught() {
        let cpu = doctored_arm8("\"powerdown_frac\":0.05", "\"powerdown_frac\":-3.0");
        assert_eq!(
            validate_cpu_spec(&cpu),
            Err(CpuSpecError::BadPowerFraction {
                what: "power-down",
                frac: -3.0
            })
        );
    }

    #[test]
    fn display_strings_are_stable() {
        assert_eq!(
            CpuSpecError::ZeroFrequency.to_string(),
            "frequency ladder minimum must be positive"
        );
        assert_eq!(
            CpuSpecError::BadRampRate { rate: 0.0 }.to_string(),
            "ramp rate must be positive and finite, got 0"
        );
        assert_eq!(
            CpuSpecError::BadVfCurve {
                v_max: 3.3,
                v_t: 4.0
            }
            .to_string(),
            "V-f curve must satisfy 0 <= Vt < Vmax with Vmax finite, got Vt = 4 V, Vmax = 3.3 V"
        );
        assert_eq!(
            CpuSpecError::BadPowerFraction {
                what: "power-down",
                frac: f64::NAN
            }
            .to_string(),
            "power model: power-down fraction must be in [0, 1], got NaN"
        );
    }
}
