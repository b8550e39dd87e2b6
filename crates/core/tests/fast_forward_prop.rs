//! Property-based equivalence of the steady-state fast-forward.
//!
//! For random schedulable task sets with representable hyperperiods,
//! every policy the driver dispatches must produce a **bit-identical
//! serialized report** whether the kernel's cycle detector is allowed to
//! skip whole hyperperiods or the run is forced through the full
//! event-by-event simulation — at several horizon scales, including ones
//! where dozens of cycles are extrapolated. A second property pins the
//! eligibility rule: a faulted run never fast-forwards, because fault
//! draws are a function of the absolute job index and would not repeat
//! cycle for cycle.

use lpfps::driver::{run_in, PolicyKind};
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::NoProbe;
use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
use lpfps_tasks::error::MAX_TIME_PARAM;
use lpfps_tasks::exec::AlwaysWcet;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use lpfps_workloads::{avionics, cnc, ins, table1};
use proptest::prelude::*;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};

const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];

/// Periods drawn from a divisor-friendly pool so hyperperiods stay small
/// enough for several whole cycles to fit in a test-sized horizon. (Fully
/// random periods give astronomically large hyperperiods, which only
/// exercises the detector's *ineligible* path — covered separately by the
/// hostile-input tests.)
const PERIOD_POOL_US: [u64; 6] = [100, 200, 400, 500, 800, 1000];

/// A small task set with pool periods and utilization low enough that
/// every policy schedules it.
fn pool_set(n: usize, picks: &[usize], wcet_pcts: &[u64]) -> TaskSet {
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let period = Dur::from_us(PERIOD_POOL_US[picks[i] % PERIOD_POOL_US.len()]);
            // 2%..=12% of the period each, so n <= 6 stays well under the
            // RM bound and LPFPS has genuine slack to stretch into.
            let wcet_ns = period.as_ns() * (2 + wcet_pcts[i] % 11) / 100;
            Task::new(format!("t{i}"), period, Dur::from_ns(wcet_ns.max(1)))
        })
        .collect();
    TaskSet::rate_monotonic("prop", tasks)
}

fn report_json<T: Serialize>(report: &T) -> String {
    serde_json::to_string(report).expect("report serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Detector-on vs forced-full: bit-identical serialized reports for
    /// every policy at horizon scales 1 (no cycle ever completes twice),
    /// 3 (one skip), and 17 (a dozen-plus extrapolated cycles).
    #[test]
    fn fast_forward_is_bit_identical_to_full_simulation(
        n in 2usize..=5,
        picks in proptest::collection::vec(0usize..6, 5..6),
        wcet_pcts in proptest::collection::vec(0u64..100, 5..6),
        seed in 0u64..=1_000,
    ) {
        let ts = pool_set(n, &picks, &wcet_pcts);
        prop_assume!(rta_schedulable(&ts));
        let h = hyperperiod(&ts).expect("pool hyperperiods are tiny");
        let cpu = CpuSpec::arm8();
        for scale in [1u64, 3, 17] {
            let cfg = SimConfig::new(h * scale).with_seed(seed);
            let full_cfg = SimConfig::new(h * scale)
                .with_seed(seed)
                .with_force_full_simulation();
            for kind in POLICIES {
                let mut ws = SimWorkspace::new();
                let fast = run_in(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut ws, &mut NoProbe).unwrap();
                let ff = ws.fast_forward_stats();
                let full = run_in(&ts, &cpu, kind, &AlwaysWcet, &full_cfg, &mut ws, &mut NoProbe).unwrap();
                prop_assert_eq!(ws.fast_forward_stats().cycles_detected, 0,
                    "force_full_simulation must disable the detector");
                prop_assert_eq!(
                    report_json(&fast), report_json(&full),
                    "{}/scale {} diverged (cycles_detected={}, events_skipped={})",
                    kind.name(), scale, ff.cycles_detected, ff.events_skipped
                );
                if scale == 1 {
                    // One hyperperiod can never contain two matching
                    // release boundaries a whole hyperperiod apart.
                    prop_assert_eq!(ff.cycles_detected, 0);
                }
            }
        }
    }

    /// Fault streams index jobs absolutely, so no two cycles are alike:
    /// a faulted run must never fast-forward, and (trivially, both sides
    /// simulating fully) stays bit-identical under the flag.
    #[test]
    fn faulted_runs_never_fast_forward(
        n in 2usize..=5,
        picks in proptest::collection::vec(0usize..6, 5..6),
        wcet_pcts in proptest::collection::vec(0u64..100, 5..6),
        seed in 0u64..=1_000,
        fault_seed in 0u64..=1_000,
    ) {
        let ts = pool_set(n, &picks, &wcet_pcts);
        prop_assume!(rta_schedulable(&ts));
        let h = hyperperiod(&ts).expect("pool hyperperiods are tiny");
        let faults = FaultConfig::none()
            .with_seed(fault_seed)
            .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3));
        let cfg = SimConfig::new(h * 9).with_seed(seed).with_faults(faults);
        let cpu = CpuSpec::arm8();
        for kind in POLICIES {
            let mut ws = SimWorkspace::new();
            let faulted = run_in(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut ws, &mut NoProbe).unwrap();
            let ff = ws.fast_forward_stats();
            prop_assert_eq!(ff.cycles_detected, 0, "{}: faulted run fast-forwarded", kind.name());
            prop_assert_eq!(ff.events_skipped, 0);
            let full = run_in(
                &ts, &cpu, kind, &AlwaysWcet,
                &cfg.clone().with_force_full_simulation(), &mut ws, &mut NoProbe,
            ).unwrap();
            prop_assert_eq!(report_json(&faulted), report_json(&full));
        }
    }
}

/// Runs `ts` under LPFPS with every job at its WCET for `cycles` whole
/// hyperperiods and asserts that the detector skipped at least
/// `min_skipped_cycles` cycles and some events, that the report still
/// serializes byte-identically to the forced full simulation, and that
/// no deadline was missed.
fn assert_long_run_fast_forwards(ts: &TaskSet, cycles: u64, min_skipped_cycles: u64) {
    let name = ts.name();
    let cpu = CpuSpec::arm8();
    let cfg = SimConfig::new(hyperperiod(ts).unwrap() * cycles);
    let mut ws = SimWorkspace::new();
    let fast = run_in(
        ts,
        &cpu,
        PolicyKind::Lpfps,
        &AlwaysWcet,
        &cfg,
        &mut ws,
        &mut NoProbe,
    )
    .unwrap();
    let ff = ws.fast_forward_stats();
    assert!(
        ff.cycles_detected >= min_skipped_cycles,
        "{name}: skipped {} cycles",
        ff.cycles_detected
    );
    assert!(ff.events_skipped > 0, "{name}: nothing extrapolated");
    let full = run_in(
        ts,
        &cpu,
        PolicyKind::Lpfps,
        &AlwaysWcet,
        &cfg.with_force_full_simulation(),
        &mut ws,
        &mut NoProbe,
    )
    .unwrap();
    assert_eq!(
        report_json(&fast),
        report_json(&full),
        "{name}: fast-forward report differs from the full simulation"
    );
    assert!(fast.all_deadlines_met(), "{name}: deadline missed");
}

/// Deterministic smoke outside proptest: the motivating example engages
/// the detector and extrapolates most of a long run.
#[test]
fn table1_long_run_actually_skips_cycles() {
    let ts = table1();
    assert_eq!(hyperperiod(&ts).unwrap(), Dur::from_us(400));
    assert_long_run_fast_forwards(&ts, 40, 30);
}

/// The other catalog workloads at 3 hyperperiods each: the detector
/// engages on avionics' 118 s hyperperiod and on the INS and CNC sets,
/// and each fast-forwarded report matches the full simulation.
#[test]
fn catalog_long_runs_fast_forward_byte_identically() {
    for ts in [avionics(), cnc(), ins()] {
        assert_long_run_fast_forwards(&ts, 3, 1);
    }
}

/// table1 and cnc, whose cycles meet exact half-ulp ties in the energy
/// fold, at 1,000 and 1,001 hyperperiods (both parities of the skipped
/// count) under every policy that fast-forwards: the fold crosses many
/// binades, and each report matches its forced-full run byte for byte.
#[test]
fn thousand_cycle_runs_fold_energy_bit_for_bit() {
    let cpu = CpuSpec::arm8();
    let mut ws = SimWorkspace::new();
    for ts in [table1(), cnc()] {
        let h = hyperperiod(&ts).unwrap();
        for cycles in [1_000, 1_001] {
            let cfg = SimConfig::new(h * cycles);
            for kind in POLICIES {
                let fast =
                    run_in(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut ws, &mut NoProbe).unwrap();
                assert!(ws.fast_forward_stats().cycles_detected >= cycles - 2);
                let full_cfg = cfg.clone().with_force_full_simulation();
                let full = run_in(
                    &ts,
                    &cpu,
                    kind,
                    &AlwaysWcet,
                    &full_cfg,
                    &mut ws,
                    &mut NoProbe,
                )
                .unwrap();
                assert_eq!(
                    report_json(&fast),
                    report_json(&full),
                    "{} {kind:?} at {cycles} hyperperiods",
                    ts.name()
                );
            }
        }
    }
}

/// At the largest admissible horizon the detector skips up to 1.15e13
/// hyperperiods (table1); the energy fold makes that a few dozen passes
/// over the tape, so each catalog set under each policy returns a
/// miss-free report, without a panic, in well under a second.
#[test]
fn max_horizon_runs_fast_forward_without_misses() {
    let cpu = CpuSpec::arm8();
    let cfg = SimConfig::new(MAX_TIME_PARAM);
    let mut ws = SimWorkspace::new();
    for ts in [table1(), cnc(), ins()] {
        for kind in POLICIES {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_in(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut ws, &mut NoProbe)
            }));
            let report = outcome
                .unwrap_or_else(|_| panic!("{} {kind:?} panicked", ts.name()))
                .unwrap();
            assert!(ws.fast_forward_stats().cycles_detected > 1_000_000_000);
            assert!(report.all_deadlines_met(), "{} {kind:?} missed", ts.name());
        }
    }
}
