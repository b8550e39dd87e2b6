//! Randomized per-core check over random partitions: fleets from the
//! UUniFast generator, replicated, run on 1–8 cores through every
//! partitioner under FPS, LPFPS and LPFPS with the watchdog, fault-free
//! and with overruns. Every case runs back to back through one shared
//! [`MultiEngine`], so the engine's stored per-core reports are reused
//! across partitioners, core counts and policies of one fleet and dropped
//! when the next case brings another fleet.
//!
//! * each [`MultiReport`] serializes byte-identically to a fresh
//!   engine's run of the same cell;
//! * each per-core report serializes byte-identically to its derived
//!   cell run standalone through the uniprocessor kernel.
//!
//! The horizon is scaled to a twentieth, which keeps the suite near two
//! seconds in a debug build.

use std::cell::RefCell;

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::error::SimError;
use lpfps_multi::{MultiCell, MultiEngine, MultiReport, PartitionerKind};
use lpfps_sweep::{Cell, ExecKind};
use lpfps_tasks::gen::{generate, GenConfig};
use lpfps_tasks::time::Dur;
use lpfps_workloads::WorkloadBuilder;
use proptest::prelude::*;

const HORIZON_SCALE: f64 = 0.05;

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Fps,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
];

thread_local! {
    /// The engine every case runs through, in case order.
    static SHARED: RefCell<MultiEngine> = RefCell::new(MultiEngine::serial());
}

fn json(report: &MultiReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// A run's serialized report, or its error message.
fn outcome(run: &Result<MultiReport, SimError>) -> Result<String, String> {
    run.as_ref().map(json).map_err(ToString::to_string)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn shared_engine_runs_match_fresh_engines_and_standalone_cores(
        set_seed in 0u64..=10_000,
        n in 2usize..=5,
        util_pct in 30u64..=90,
        copies in 1usize..=3,
        seed in 0u64..=1_000,
    ) {
        let cfg = GenConfig::new(n, util_pct as f64 / 100.0)
            .with_periods(Dur::from_us(200), Dur::from_ms(20));
        let fleet = WorkloadBuilder::new(generate(&cfg, set_seed))
            .with_seed(set_seed)
            .replicate(copies);
        let overrun = FaultConfig::none()
            .with_seed(seed)
            .with_overrun(OverrunFault::clamped(0.3, 0.3, 1.3));
        for cores in 1..=8 {
            for kind in PartitionerKind::ALL {
                for policy in POLICIES {
                    for faults in [FaultConfig::none(), overrun] {
                        let cell = Cell::new(fleet.clone(), CpuSpec::arm8(), policy)
                            .with_exec(ExecKind::PaperGaussian)
                            .with_bcet_fraction(0.5)
                            .with_seed(seed)
                            .with_faults(faults);
                        let mc = MultiCell::new(cell, cores, kind);
                        let label = mc.label();
                        let shared = SHARED.with_borrow_mut(|e| e.run(&mc, HORIZON_SCALE));
                        let fresh = MultiEngine::serial().run(&mc, HORIZON_SCALE);
                        // A fleet that does not fit fails alike through both.
                        prop_assert_eq!(outcome(&shared), outcome(&fresh), "{}", label);
                        let Ok(report) = shared else { continue };
                        let (_, derived) = mc.derived_cells().unwrap();
                        for (k, cell) in derived.iter().enumerate() {
                            let standalone = cell
                                .as_ref()
                                .map(|c| serde_json::to_string(&c.run(HORIZON_SCALE).unwrap()).unwrap());
                            let merged = report
                                .core_report(k)
                                .map(|r| serde_json::to_string(r).unwrap());
                            prop_assert_eq!(merged, standalone, "{} core {}", label, k);
                        }
                    }
                }
            }
        }
    }
}
