//! Property-based tests for the task-model foundations: quantity
//! arithmetic, cycle/time conversions, analysis invariants, generators,
//! and execution-time models. A counterexample that an earlier proptest
//! run recorded is pinned as an explicit test after its property.

use lpfps_tasks::analysis::{
    busy_period_responses, hyperperiod, liu_layland_bound, response_time, response_times,
    rta_schedulable, utilization_schedulable, RtaConfig,
};
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::exec::{AlwaysWcet, Bimodal, ExecModel, PaperGaussian, UniformBetween};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::gen::{generate, uunifast, GenConfig};
use lpfps_tasks::rng::SplitMix64;
use lpfps_tasks::task::{Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::{Dur, Time};
use proptest::prelude::*;

proptest! {
    // ---- time arithmetic ------------------------------------------------

    #[test]
    fn time_add_sub_roundtrip(base in 0u64..1_000_000_000, delta in 0u64..1_000_000_000) {
        let t = Time::from_ns(base);
        let d = Dur::from_ns(delta);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!(t.saturating_since(t + d), Dur::ZERO);
    }

    #[test]
    fn dur_div_rem_partition(a in 1u64..10_000_000, b in 1u64..100_000) {
        let d = Dur::from_ns(a);
        let p = Dur::from_ns(b);
        prop_assert_eq!(p * (d / p) + d % p, d);
        prop_assert!(d % p < p);
    }

    // ---- cycles <-> time ------------------------------------------------

    #[test]
    fn cycles_time_roundtrip_never_loses_work(
        cycles in 1u64..100_000_000,
        khz in 1_000u64..200_000,
    ) {
        let c = Cycles::new(cycles);
        let f = Freq::from_khz(khz);
        // time_at rounds up, so converting back recovers at least c.
        let back = Cycles::from_time_at(c.time_at(f), f);
        prop_assert!(back >= c);
        // And overshoots by less than one cycle's worth of rounding slack.
        prop_assert!(back.as_u64() - c.as_u64() <= 1);
    }

    /// The conversions take a `u64` path when the product fits and a
    /// `u128` one when it does not; both must give the `u128` formula's
    /// integer. Each magnitude is drawn log-uniformly (a random `u64`
    /// shifted right by 0–63 bits), so the cases land on both sides of
    /// the overflow boundary.
    #[test]
    fn cycle_conversions_equal_the_u128_formula(
        ns in 0u64..=u64::MAX,
        ns_shift in 0u32..64,
        cycles in 0u64..=u64::MAX,
        cycles_shift in 0u32..64,
        khz in 1u64..=u64::MAX,
        khz_shift in 0u32..64,
    ) {
        conversions_match_u128(ns >> ns_shift, cycles >> cycles_shift, (khz >> khz_shift).max(1))?;
    }

    #[test]
    fn slower_clocks_never_shorten_execution(
        cycles in 1u64..10_000_000,
        khz in 8_000u64..100_000,
    ) {
        let c = Cycles::new(cycles);
        let slow = c.time_at(Freq::from_khz(khz));
        let fast = c.time_at(Freq::from_khz(khz + 1_000));
        prop_assert!(slow >= fast);
    }

    // ---- schedulability analysis ----------------------------------------

    #[test]
    fn rta_response_at_least_wcet(
        periods in proptest::collection::vec(50u64..5_000, 1..6),
        seed in 0u64..1_000,
    ) {
        let mut rng = SplitMix64::new(seed);
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let c = 1 + (rng.next_u64() % (p / 4).max(1));
                Task::new(format!("t{i}"), Dur::from_us(p), Dur::from_us(c))
            })
            .collect();
        let ts = TaskSet::rate_monotonic("prop", tasks);
        for (i, outcome) in response_times(&ts, &RtaConfig::default()).iter().enumerate() {
            if let Some(r) = outcome.response() {
                prop_assert!(r >= ts.task(TaskId(i)).wcet());
                prop_assert!(r <= ts.task(TaskId(i)).deadline());
            }
        }
    }

    #[test]
    fn sufficient_tests_imply_the_exact_test(
        periods in proptest::collection::vec(100u64..10_000, 2..8),
        utils in proptest::collection::vec(1u64..20, 2..8),
    ) {
        let n = periods.len().min(utils.len());
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                // per-task utilization at most 20/n percent-ish, keeping the
                // sum within the Liu-Layland bound most of the time.
                let c = (periods[i] * utils[i] / (100 * n as u64)).max(1);
                Task::new(format!("t{i}"), Dur::from_us(periods[i]), Dur::from_us(c))
            })
            .collect();
        let ts = TaskSet::rate_monotonic("prop", tasks);
        if utilization_schedulable(&ts) {
            prop_assert!(rta_schedulable(&ts), "LL bound accepted an unschedulable set");
        }
    }

    #[test]
    fn rta_is_monotone_in_wcet(
        p1 in 100u64..1_000, p2 in 1_000u64..5_000, c1 in 1u64..80,
        c2 in 1u64..400, bump in 1u64..20,
    ) {
        let build = |c1: u64| {
            TaskSet::rate_monotonic(
                "mono",
                vec![
                    Task::new("hi", Dur::from_us(p1), Dur::from_us(c1.min(p1))),
                    Task::new("lo", Dur::from_us(p2), Dur::from_us(c2.min(p2))),
                ],
            )
        };
        let base = response_time(&build(c1), TaskId(1), &RtaConfig::default());
        let bumped = response_time(&build((c1 + bump).min(p1)), TaskId(1), &RtaConfig::default());
        match (base.response(), bumped.response()) {
            (Some(a), Some(b)) => prop_assert!(b >= a, "interference grew but response shrank"),
            (None, Some(_)) => prop_assert!(false, "adding load cannot make a task schedulable"),
            _ => {}
        }
    }

    #[test]
    fn hyperperiod_is_divisible_by_every_period(
        periods in proptest::collection::vec(1u64..500, 1..6),
    ) {
        let tasks: Vec<Task> = periods
            .iter()
            .enumerate()
            .map(|(i, &p)| Task::new(format!("t{i}"), Dur::from_us(p), Dur::from_us(1).min(Dur::from_us(p))))
            .collect();
        let ts = TaskSet::rate_monotonic("prop", tasks);
        if let Some(h) = hyperperiod(&ts) {
            for (_, t, _) in ts.iter() {
                prop_assert_eq!(h % t.period(), Dur::ZERO);
            }
        }
    }

    // ---- generators ------------------------------------------------------

    #[test]
    fn uunifast_always_sums_to_target(n in 1usize..32, total_pct in 1u64..100, seed in 0u64..500) {
        let total = total_pct as f64 / 100.0;
        let mut rng = SplitMix64::new(seed);
        let utils = uunifast(n, total, &mut rng);
        prop_assert_eq!(utils.len(), n);
        let sum: f64 = utils.iter().sum();
        prop_assert!((sum - total).abs() < 1e-9);
        prop_assert!(utils.iter().all(|&u| (0.0..=total + 1e-12).contains(&u)));
    }

    #[test]
    fn generated_sets_respect_their_config(n in 1usize..16, u_pct in 5u64..95, seed in 0u64..200) {
        let cfg = GenConfig::new(n, u_pct as f64 / 100.0)
            .with_periods(Dur::from_us(200), Dur::from_us(50_000))
            .with_bcet_fraction(0.5);
        let ts = generate(&cfg, seed);
        prop_assert_eq!(ts.len(), n);
        for (_, t, _) in ts.iter() {
            prop_assert!(t.period() >= Dur::from_us(200));
            prop_assert!(t.period() <= Dur::from_us(50_000));
            prop_assert!(t.bcet() <= t.wcet());
        }
    }

    // ---- execution-time models --------------------------------------------

    #[test]
    fn all_exec_models_respect_the_contract(
        wcet_us in 2u64..10_000,
        bcet_pct in 1u64..=100,
        job in 0u64..50,
        seed in 0u64..100,
    ) {
        let period = Dur::from_us(wcet_us * 2);
        let task = Task::new("t", period, Dur::from_us(wcet_us))
            .with_bcet_fraction(bcet_pct as f64 / 100.0);
        let models: [&dyn ExecModel; 4] =
            [&AlwaysWcet, &PaperGaussian, &UniformBetween, &Bimodal::new(0.3)];
        for m in models {
            let d = m.sample(&task, TaskId(0), job, seed);
            prop_assert!(!d.is_zero(), "{} returned zero", m.name());
            prop_assert!(d <= task.wcet(), "{} exceeded the WCET", m.name());
            // Deterministic per (job, seed).
            prop_assert_eq!(d, m.sample(&task, TaskId(0), job, seed));
        }
    }
}

/// `from_time_at(ns, khz)` and `time_at(cycles, khz)` equal the `u128`
/// formulas: `ns * khz / 10^6` rounded down, and `cycles * 10^6 / khz`
/// rounded up, each saturating at `u64::MAX`.
fn conversions_match_u128(ns: u64, cycles: u64, khz: u64) -> Result<(), TestCaseError> {
    let f = Freq::from_khz(khz);
    let want = u64::try_from(ns as u128 * khz as u128 / 1_000_000).unwrap_or(u64::MAX);
    let got = Cycles::from_time_at(Dur::from_ns(ns), f).as_u64();
    prop_assert_eq!(got, want, "from_time_at({} ns, {} kHz)", ns, khz);
    let want =
        u64::try_from((cycles as u128 * 1_000_000).div_ceil(khz as u128)).unwrap_or(u64::MAX);
    let got = Cycles::new(cycles).time_at(f).as_ns();
    prop_assert_eq!(got, want, "time_at({} cycles, {} kHz)", cycles, khz);
    Ok(())
}

/// The fast paths at the `u64` boundary. `from_time_at`'s product
/// `ns * khz` is 2^64 - 1 = (2^32 - 1)(2^32 + 1), which fits, and 2^64 =
/// 2^32 * 2^32 and 2^64 + 1 = 274,177 * 67,280,421,310,721, which do not.
/// `time_at`'s product `cycles * 10^6` is never one of those, so its
/// cases are the largest cycle count whose product fits and its two
/// neighbours, at 1 kHz, at 3 kHz and 3 MHz (which leave a remainder for
/// the rounding up to show), at 10^6 kHz, where the overflowing case
/// still has an in-range answer, and at `u64::MAX` kHz.
#[test]
fn cycle_conversions_equal_the_u128_formula_at_the_u64_boundary() {
    const TWO_32: u64 = 1 << 32;
    for (ns, khz) in [
        (TWO_32 + 1, TWO_32 - 1),
        (TWO_32 - 1, TWO_32 + 1),
        (TWO_32, TWO_32),
        (67_280_421_310_721, 274_177),
        (274_177, 67_280_421_310_721),
    ] {
        conversions_match_u128(ns, 0, khz).unwrap();
    }
    let last_fit = u64::MAX / 1_000_000;
    for cycles in [last_fit - 1, last_fit, last_fit + 1] {
        for khz in [1, 3, 3_000, 1_000_000, u64::MAX] {
            conversions_match_u128(0, cycles, khz).unwrap();
        }
    }
}

proptest! {
    /// The two exact oracles — the RTA fixed point and the synchronous
    /// busy-period simulation — must agree bit-exactly on every random
    /// constrained-deadline task set with U <= 1.
    #[test]
    fn rta_and_busy_period_oracles_agree(
        periods in proptest::collection::vec(20u64..2_000, 1..7),
        seed in 0u64..2_000,
    ) {
        oracles_agree(&periods, seed)?;
    }
}

/// RTA and the busy-period simulation agree on one random task set.
fn oracles_agree(periods: &[u64], seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    let tasks: Vec<Task> = periods
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let c = 1 + (rng.next_u64() % (p / 3).max(1));
            Task::new(format!("t{i}"), Dur::from_us(p), Dur::from_us(c))
        })
        .collect();
    let ts = TaskSet::rate_monotonic("oracles", tasks);
    prop_assume!(ts.utilization() <= 1.0);
    let sim = busy_period_responses(&ts).expect("U <= 1");
    if rta_schedulable(&ts) {
        // Exact domain: both oracles produce identical responses.
        let rta = response_times(&ts, &RtaConfig::default());
        for (i, (s, r)) in sim.iter().zip(&rta).enumerate() {
            prop_assert!(s.is_schedulable(), "task {} verdict mismatch", i);
            prop_assert_eq!(
                s.response(),
                r.response().expect("schedulable"),
                "task {} response mismatch",
                i
            );
        }
    } else {
        // Both must reject the set (once a job overruns, the sim's
        // per-task detail is not comparable to RTA's, but the overall
        // verdict is).
        prop_assert!(sim.iter().any(|o| !o.is_schedulable()));
    }
    Ok(())
}

#[test]
fn rta_and_busy_period_agree_at_recorded_periods() {
    oracles_agree(&[54, 303, 849, 24], 1134).unwrap();
}

#[test]
fn liu_layland_bound_brackets_ln2() {
    for n in 1..200 {
        let b = liu_layland_bound(n);
        assert!(b > (2f64).ln() && b <= 1.0);
    }
}
