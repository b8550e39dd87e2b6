//! Property-based verification of the paper's Theorem 1 and of the
//! safety of every speed-ratio variant under the simulator's physical
//! (trapezoid-ramp) capacity model. Counterexamples that earlier proptest
//! runs recorded are pinned as explicit tests after the properties.

use lpfps::speed::{profile_capacity, r_heu, r_opt, r_opt_trapezoid};
use lpfps_tasks::time::Dur;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Theorem 1: `r_heu >= r_opt` whenever `t_a > t_c` and `t_I > R`.
    #[test]
    fn theorem1_r_heu_dominates_r_opt(
        window_ns in 1_000u64..100_000_000,
        rem_ppm in 1u64..1_000_000,
        rho_milli in 1u64..10_000, // 0.001 .. 10 per us
    ) {
        heu_dominates_opt(window_ns, rem_ppm, rho_milli)?;
    }

    /// The heuristic and the trapezoid-optimal both provide at least the
    /// required capacity under the physical ramp model, for any rate.
    #[test]
    fn safe_ratios_always_cover_the_demand(
        window_us in 2u64..1_000_000,
        rem_pct in 1u64..100,
        rho_milli in 1u64..1_000,
    ) {
        safe_ratios_cover(window_us, rem_pct, rho_milli)?;
    }

    /// The three ratios are totally ordered: Eq. 2 <= trapezoid <= heuristic
    /// (Eq. 2 credits the ramp with twice the physical work).
    #[test]
    fn ratio_family_is_ordered(
        window_us in 2u64..100_000,
        rem_pct in 1u64..100,
        rho_milli in 1u64..1_000,
    ) {
        ratios_ordered(window_us, rem_pct, rho_milli)?;
    }

    /// All ratios are monotone in the remaining work: more work demands at
    /// least as much speed.
    #[test]
    fn ratios_are_monotone_in_demand(
        window_us in 10u64..100_000,
        rem_pct in 1u64..98,
    ) {
        let window = Dur::from_us(window_us);
        let r1 = Dur::from_us((window_us * rem_pct / 100).max(1));
        let r2 = Dur::from_us((window_us * (rem_pct + 1) / 100).max(2));
        prop_assume!(r1 < r2 && r2 < window);
        prop_assert!(r_heu(r1, window) <= r_heu(r2, window) + 1e-12);
        prop_assert!(r_opt(r1, window, 0.07) <= r_opt(r2, window, 0.07) + 1e-9);
        prop_assert!(
            r_opt_trapezoid(r1, window, 0.07) <= r_opt_trapezoid(r2, window, 0.07) + 1e-9
        );
    }
}

fn heu_dominates_opt(window_ns: u64, rem_ppm: u64, rho_milli: u64) -> Result<(), TestCaseError> {
    let window = Dur::from_ns(window_ns);
    let remaining = Dur::from_ns(((window_ns as u128 * rem_ppm as u128) / 1_000_000) as u64);
    prop_assume!(!remaining.is_zero() && remaining < window);
    let rho = rho_milli as f64 / 1_000.0;
    let heu = r_heu(remaining, window);
    let opt = r_opt(remaining, window, rho);
    prop_assert!(
        heu >= opt - 1e-9,
        "heu={heu} opt={opt} window={window} rem={remaining} rho={rho}"
    );
    Ok(())
}

#[test]
fn theorem1_holds_at_recorded_window_72811006ns() {
    heu_dominates_opt(72_811_006, 999_517, 6_196).unwrap();
}

fn safe_ratios_cover(window_us: u64, rem_pct: u64, rho_milli: u64) -> Result<(), TestCaseError> {
    let window = Dur::from_us(window_us);
    let remaining = Dur::from_us((window_us * rem_pct / 100).max(1));
    prop_assume!(remaining < window);
    let rho = rho_milli as f64 / 1_000.0;
    let required = remaining.as_us_f64();
    for (label, r) in [
        ("heu", r_heu(remaining, window)),
        ("trap", r_opt_trapezoid(remaining, window, rho)),
    ] {
        let cap = profile_capacity(r, window, rho);
        prop_assert!(
            cap + 1e-6 >= required,
            "{label} r={r}: capacity {cap} < required {required} (rho={rho})"
        );
    }
    Ok(())
}

fn ratios_ordered(window_us: u64, rem_pct: u64, rho_milli: u64) -> Result<(), TestCaseError> {
    let window = Dur::from_us(window_us);
    let remaining = Dur::from_us((window_us * rem_pct / 100).max(1));
    prop_assume!(remaining < window);
    let rho = rho_milli as f64 / 1_000.0;
    let opt = r_opt(remaining, window, rho);
    let trap = r_opt_trapezoid(remaining, window, rho);
    let heu = r_heu(remaining, window);
    prop_assert!(opt <= trap + 1e-9, "opt {opt} > trap {trap}");
    prop_assert!(trap <= heu + 1e-9, "trap {trap} > heu {heu}");
    Ok(())
}

#[test]
fn ratios_cover_and_order_at_recorded_window_219856us() {
    safe_ratios_cover(219_856, 27, 551).unwrap();
    ratios_ordered(219_856, 27, 551).unwrap();
}

#[test]
fn ratios_cover_and_order_at_recorded_window_41us() {
    safe_ratios_cover(41, 8, 23).unwrap();
    ratios_ordered(41, 8, 23).unwrap();
}
