//! Property-based tests for the processor model: ladder quantization,
//! the voltage–frequency curve, ramp geometry, and the power model.
//! Counterexamples that earlier proptest runs recorded are pinned as
//! explicit tests after the properties.

use lpfps_cpu::ladder::FrequencyLadder;
use lpfps_cpu::power::PowerModel;
use lpfps_cpu::ramp::Ramp;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::state::CpuState;
use lpfps_cpu::vf::VfCurve;
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::Dur;
use proptest::prelude::*;

const FMAX: Freq = Freq::from_mhz(100);

proptest! {
    // ---- frequency ladder -------------------------------------------------

    #[test]
    fn quantize_up_is_minimal_and_safe(target_khz in 1u64..150_000) {
        let ladder = FrequencyLadder::default();
        let f = ladder.quantize_up(Freq::from_khz(target_khz));
        prop_assert!(ladder.contains(f));
        if target_khz <= ladder.max().as_khz() {
            // Never below the request (deadline safety)...
            prop_assert!(f.as_khz() >= target_khz.max(ladder.min().as_khz()));
            // ...and never a full step above it (minimality).
            if f > ladder.min() {
                prop_assert!(f.as_khz() - ladder.step().as_khz() < target_khz);
            }
        } else {
            prop_assert_eq!(f, ladder.max());
        }
    }

    #[test]
    fn quantize_ratio_guarantees_capacity(ratio_ppm in 0u64..1_000_000) {
        let ladder = FrequencyLadder::default();
        let ratio = ratio_ppm as f64 / 1e6;
        let f = ladder.quantize_up_ratio(ratio);
        // The chosen frequency provides at least the requested fraction of
        // full-speed capacity.
        prop_assert!(f.as_khz() as f64 + 1e-9 >= ratio * ladder.max().as_khz() as f64);
    }

    // ---- voltage-frequency curve -------------------------------------------

    #[test]
    fn vf_inversion_roundtrips(khz in 1_000u64..100_000, vt_centi in 10u64..150) {
        let vt = vt_centi as f64 / 100.0;
        let vf = VfCurve::new(FMAX, 3.3, vt);
        let f = Freq::from_khz(khz);
        let v = vf.voltage_for(f);
        prop_assert!(v.0 > vt && v.0 <= 3.3 + 1e-12);
        let r = vf.frequency_ratio_at(v);
        prop_assert!((r - f.ratio_to(FMAX)).abs() < 1e-9);
    }

    #[test]
    fn voltage_is_monotone(khz in 1_000u64..99_000, step in 1u64..1_000) {
        let vf = VfCurve::default();
        let lo = vf.voltage_for(Freq::from_khz(khz)).0;
        let hi = vf.voltage_for(Freq::from_khz(khz + step)).0;
        prop_assert!(hi > lo);
    }

    // ---- power model --------------------------------------------------------

    #[test]
    fn busy_power_beats_linear_scaling(khz in 1_000u64..99_999) {
        let pm = PowerModel::default();
        let f = Freq::from_khz(khz);
        let p = pm.busy(f);
        prop_assert!(p > 0.0 && p < 1.0);
        // Quadratic voltage dependence makes p(f) < f/fmax strictly.
        prop_assert!(p < f.ratio_to(FMAX));
    }

    #[test]
    fn ramp_average_is_bounded_by_endpoints(a_mhz in 8u64..100, b_mhz in 8u64..100) {
        let pm = PowerModel::default();
        let ramp = Ramp::between(Freq::from_mhz(a_mhz), Freq::from_mhz(b_mhz), FMAX, 0.07);
        let avg = pm.ramp_average(&ramp);
        let lo = pm.busy(Freq::from_mhz(a_mhz.min(b_mhz)));
        let hi = pm.busy(Freq::from_mhz(a_mhz.max(b_mhz)));
        prop_assert!(avg >= lo - 1e-12 && avg <= hi + 1e-12);
    }

    // ---- ramp geometry -------------------------------------------------------

    #[test]
    fn ramp_duration_is_symmetric_and_rate_scaled(
        a_mhz in 8u64..100,
        b_mhz in 8u64..100,
        rate_milli in 10u64..1_000,
    ) {
        let rate = rate_milli as f64 / 1_000.0;
        let up = Ramp::between(Freq::from_mhz(a_mhz), Freq::from_mhz(b_mhz), FMAX, rate);
        let down = Ramp::between(Freq::from_mhz(b_mhz), Freq::from_mhz(a_mhz), FMAX, rate);
        prop_assert_eq!(up.duration(), down.duration());
        // Doubling the rate (at least) halves the duration up to rounding.
        let fast = Ramp::between(Freq::from_mhz(a_mhz), Freq::from_mhz(b_mhz), FMAX, rate * 2.0);
        prop_assert!(fast.duration() <= up.duration());
    }

    /// The duration a ramp stores when it is built is the one its
    /// endpoints and rate define, for every constructor: ladder-level and
    /// arbitrary-kHz endpoints through `between`, raw mid-ramp ratios
    /// through `from_ratios`, coinciding endpoints, and a rate slowed by a
    /// degradation factor in (0, 1] (how the kernel builds a degraded
    /// regulator's ramp).
    #[test]
    fn ramp_duration_is_the_ceiled_span_over_the_rate(
        a_khz in 1u64..=100_000,
        b_khz in 1u64..=100_000,
        r_ppm in (0u64..=1_000_000, 0u64..=1_000_000),
        rate_milli in 10u64..1_000,
        degrade_pct in 1u64..=100,
    ) {
        let rate = rate_milli as f64 / 1_000.0;
        let (a, b) = (Freq::from_khz(a_khz), Freq::from_khz(b_khz));
        let (ra, rb) = (a.ratio_to(FMAX), b.ratio_to(FMAX));
        check_duration(Ramp::between(a, b, FMAX, rate), ra, rb, rate)?;
        check_duration(Ramp::between(a, a, FMAX, rate), ra, ra, rate)?;
        let (r_from, r_to) = (r_ppm.0 as f64 / 1e6, r_ppm.1 as f64 / 1e6);
        check_duration(Ramp::from_ratios(r_from, r_to, rate), r_from, r_to, rate)?;
        check_duration(Ramp::from_ratios(r_from, r_from, rate), r_from, r_from, rate)?;
        let slow = rate * (degrade_pct as f64 / 100.0);
        check_duration(Ramp::from_ratios(r_from, r_to, slow), r_from, r_to, slow)?;
    }

    #[test]
    fn ramp_work_inverse_contract(
        a_mhz in 8u64..100,
        b_mhz in 8u64..100,
        frac_pct in 1u64..100,
    ) {
        ramp_work_inverse(a_mhz, b_mhz, frac_pct)?;
    }

    #[test]
    fn ramp_work_is_superadditive_free(
        a_mhz in 8u64..100,
        b_mhz in 8u64..100,
        cut_pct in 1u64..100,
    ) {
        // Splitting an interval can only lose (floor) work, never create it.
        let ramp = Ramp::between(Freq::from_mhz(a_mhz), Freq::from_mhz(b_mhz), FMAX, 0.07);
        let d = ramp.duration();
        prop_assume!(!d.is_zero());
        let cut = Dur::from_ns(d.as_ns() * cut_pct / 100);
        let whole = ramp.work_by(d, FMAX);
        let split = ramp.work_by(cut, FMAX) + (ramp.work_by(d, FMAX) - ramp.work_by(cut, FMAX));
        prop_assert_eq!(split, whole);
    }

    // ---- spec-level invariants ------------------------------------------------

    #[test]
    fn state_power_is_within_unit_range(mhz in 8u64..=100) {
        state_power_in_unit_range(mhz)?;
    }

    #[test]
    fn derating_never_raises_power(mhz in 8u64..=100) {
        derating_keeps_power(mhz)?;
    }
}

/// `ramp.duration()` is `ceil(|r_to - r_from| / rate * 1000)` ns, and 0
/// when the endpoints coincide.
fn check_duration(ramp: Ramp, r_from: f64, r_to: f64, rate: f64) -> Result<(), TestCaseError> {
    let want = Dur::from_ns(((r_to - r_from).abs() / rate * 1_000.0).ceil() as u64);
    prop_assert_eq!(ramp.duration(), want, "{:?}", ramp);
    if r_from == r_to {
        prop_assert!(ramp.duration().is_zero());
    }
    Ok(())
}

fn ramp_work_inverse(a_mhz: u64, b_mhz: u64, frac_pct: u64) -> Result<(), TestCaseError> {
    prop_assume!(a_mhz != b_mhz);
    let ramp = Ramp::between(Freq::from_mhz(a_mhz), Freq::from_mhz(b_mhz), FMAX, 0.07);
    let total = ramp.total_work(FMAX);
    let target = Cycles::new((total.as_u64() * frac_pct / 100).max(1));
    if let Some(t) = ramp.time_to_retire(target, FMAX) {
        prop_assert!(ramp.work_by(t, FMAX) >= target);
        if t > Dur::from_ns(0) {
            let before = Dur::from_ns(t.as_ns() - 1);
            prop_assert!(
                ramp.work_by(before, FMAX) < target,
                "not the earliest instant"
            );
        }
    } else {
        prop_assert!(target > total);
    }
    Ok(())
}

#[test]
fn ramp_work_inverse_holds_at_recorded_65_to_16_mhz() {
    ramp_work_inverse(65, 16, 41).unwrap();
}

fn state_power_in_unit_range(mhz: u64) -> Result<(), TestCaseError> {
    let (cpu, from, to) = (CpuSpec::arm8(), Freq::from_mhz(mhz), FMAX);
    for state in [
        CpuState::Busy(from),
        CpuState::Ramping { from, to },
        CpuState::RampingIdle { from, to },
        CpuState::IdleNop,
        CpuState::PowerDown { power_frac: 0.05 },
        CpuState::WakingUp,
    ] {
        let p = cpu.state_power(state);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p), "{state} -> {p}");
    }
    Ok(())
}

fn derating_keeps_power(mhz: u64) -> Result<(), TestCaseError> {
    let cpu = CpuSpec::arm8();
    let derated = cpu.derated_to(Freq::from_mhz(mhz));
    let p = derated.state_power(CpuState::Busy(derated.full_freq()));
    prop_assert!(p <= 1.0 + 1e-12);
    prop_assert_eq!(derated.reference_freq(), cpu.reference_freq());
    Ok(())
}

#[test]
fn state_power_and_derating_hold_at_recorded_100_mhz() {
    state_power_in_unit_range(100).unwrap();
    derating_keeps_power(100).unwrap();
}
