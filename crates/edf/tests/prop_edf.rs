//! Property-based tests for the EDF/YDS/AVR baselines. Job sets that
//! earlier proptest runs recorded are pinned as explicit tests.

use lpfps_cpu::power::PowerModel;
use lpfps_edf::{simulate_edf, simulate_edf_full_speed, Job, JobSet, SpeedProfile, YdsSchedule};
use lpfps_tasks::time::{Dur, Time};
use proptest::prelude::*;

/// Random feasible job sets: jobs with windows inside [0, 10ms] and work
/// at most a third of the window, which keeps every interval intensity
/// comfortably below 1 for small job counts.
fn arb_jobs() -> impl Strategy<Value = JobSet> {
    proptest::collection::vec((0u64..8_000, 50u64..2_000, 1u64..100), 1..10)
        .prop_map(|raw| {
            job_set(raw.into_iter().map(|(start, window, work_pct)| {
                (
                    start,
                    start + window,
                    (window * work_pct.min(33) / 100).max(1),
                )
            }))
        })
        .prop_filter("feasible at unit speed", |js| js.max_intensity() <= 1.0)
}

/// A job set from `(release, deadline, work)` triples in µs.
fn job_set(jobs: impl IntoIterator<Item = (u64, u64, u64)>) -> JobSet {
    JobSet::new(
        jobs.into_iter()
            .map(|(r, d, w)| Job::new(Time::from_us(r), Time::from_us(d), Dur::from_us(w)))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn yds_conserves_work_and_orders_speeds(js in arb_jobs()) {
        yds_conserves_work(&js)?;
    }

    #[test]
    fn yds_peak_equals_max_intensity(js in arb_jobs()) {
        yds_peak_is_max_intensity(&js)?;
    }

    #[test]
    fn avr_is_feasible_and_never_beats_yds(js in arb_jobs()) {
        avr_feasible_and_above_yds(&js)?;
    }

    #[test]
    fn full_speed_edf_is_feasible_and_most_expensive(js in arb_jobs()) {
        full_speed_edf_feasible_and_costliest(&js)?;
    }

    #[test]
    fn avr_speed_bounds_hold_pointwise(js in arb_jobs()) {
        avr_speed_bounded(&js)?;
    }
}

fn yds_conserves_work(js: &JobSet) -> Result<(), TestCaseError> {
    let sched = YdsSchedule::compute(js);
    let mut prev = f64::INFINITY;
    let mut processed = 0.0;
    for s in sched.segments() {
        prop_assert!(s.speed <= prev + 1e-9, "speeds must be non-increasing");
        prop_assert!(
            s.speed <= 1.0 + 1e-9,
            "feasible sets stay within unit speed"
        );
        prev = s.speed;
        processed += s.speed * s.length.as_ns() as f64;
    }
    let demanded = js.total_work().as_ns() as f64;
    prop_assert!((processed - demanded).abs() <= demanded * 1e-9 + 1e-6);
    prop_assert!(sched.busy_time() <= sched.span());
    Ok(())
}

fn yds_peak_is_max_intensity(js: &JobSet) -> Result<(), TestCaseError> {
    let sched = YdsSchedule::compute(js);
    // The first critical interval *is* the max-intensity interval.
    prop_assert!((sched.peak_speed() - js.max_intensity()).abs() < 1e-9);
    Ok(())
}

fn avr_feasible_and_above_yds(js: &JobSet) -> Result<(), TestCaseError> {
    let power = PowerModel::default();
    let avr = simulate_edf(js, &SpeedProfile::avr(js), &power);
    prop_assert_eq!(avr.misses, 0, "AVR guarantees feasibility");
    prop_assert_eq!(avr.completed, js.len());
    let optimal = YdsSchedule::compute(js).energy(&power);
    prop_assert!(
        optimal <= avr.energy + 1e-9,
        "optimal {} must not exceed AVR {}",
        optimal,
        avr.energy
    );
    Ok(())
}

fn full_speed_edf_feasible_and_costliest(js: &JobSet) -> Result<(), TestCaseError> {
    let power = PowerModel::default();
    let full = simulate_edf_full_speed(js, &power);
    prop_assert_eq!(full.misses, 0, "EDF at unit speed schedules feasible sets");
    // Busy time at full speed equals total work exactly.
    let work_secs = js.total_work().as_secs_f64();
    prop_assert!((full.busy_secs - work_secs).abs() < 1e-9);
    // Racing at full speed burns at least as much as AVR — whenever
    // AVR's profile stays within the real processor's speed range.
    // (Where density sums exceed 1, the idealized model's super-unity
    // speeds cost super-unity power and AVR can legitimately lose.)
    let profile = SpeedProfile::avr(js);
    if profile.peak() <= 1.0 {
        let avr = simulate_edf(js, &profile, &power);
        prop_assert!(avr.energy <= full.energy + 1e-9);
    }
    Ok(())
}

fn avr_speed_bounded(js: &JobSet) -> Result<(), TestCaseError> {
    let p = SpeedProfile::avr(js);
    // The AVR speed is bounded by the sum of all densities and is
    // at least the density of any single covering window.
    let total: f64 = js.jobs().iter().map(|j| j.density()).sum();
    for &j in js.jobs() {
        let mid = (j.release.as_ns() + j.deadline.as_ns()) as f64 / 2.0;
        let s = p.speed_at(mid);
        prop_assert!(s + 1e-12 >= j.density());
        prop_assert!(s <= total + 1e-12);
    }
    Ok(())
}

/// Every property at one recorded job set: all of them take `js`, and the
/// record does not say which one failed.
fn all_properties_hold(jobs: &[(u64, u64, u64)]) {
    let js = job_set(jobs.iter().copied());
    yds_conserves_work(&js).unwrap();
    yds_peak_is_max_intensity(&js).unwrap();
    avr_feasible_and_above_yds(&js).unwrap();
    full_speed_edf_feasible_and_costliest(&js).unwrap();
    avr_speed_bounded(&js).unwrap();
}

#[test]
fn properties_hold_at_recorded_eight_job_set() {
    all_properties_hold(&[
        (0, 50, 1),
        (0, 50, 1),
        (0, 50, 1),
        (0, 1_175, 199),
        (284, 1_951, 550),
        (641, 1_338, 230),
        (668, 1_235, 153),
        (751, 2_633, 621),
    ]);
}

#[test]
fn properties_hold_at_recorded_four_job_set() {
    all_properties_hold(&[
        (2_963, 4_385, 469),
        (2_968, 4_671, 306),
        (2_998, 4_371, 453),
        (3_520, 4_202, 225),
    ]);
}
