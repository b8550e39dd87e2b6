//! The golden workload matrix behind the engine's determinism tests.
//!
//! All four paper workloads × {fps, lpfps, lpfps-wd}, fault-free and
//! under an injected WCET-overrun model, at fixed seeds. The matrix is a
//! shared definition so `tests/golden_determinism.rs` (which pins the
//! fingerprints) and `tests/multicore_golden.rs` (which reproduces them
//! through one-core fleets) can never drift apart. Regenerating the pins
//! needs no separate tool: when a pin fails and the naive oracle agrees
//! with the engine, [`diagnose_mismatch`] prints the whole recomputed
//! table.

use crate::fingerprint::report_fingerprint;
use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::probe::NoProbe;
use lpfps_kernel::report::SimReport;
use lpfps_oracle::{first_divergence, oracle_run};
use lpfps_sweep::{Cell, ExecKind, PolicyChoice};
use lpfps_workloads::{avionics, cnc, ins, table1};

/// `(label, fingerprint)` of every golden cell, in [`golden_cells`]
/// order — captured on the pre-optimization reference engine. Pinned by
/// `tests/golden_determinism.rs` (uniprocessor engine) and
/// `tests/multicore_golden.rs` (one-core multicore runs must reproduce
/// it byte for byte).
pub const GOLDEN_FINGERPRINTS: [(&str, u64); 24] = [
    ("table1/fps/b50%/s42", 0x6980f6940f8b88e2),
    ("table1/lpfps/b50%/s42", 0x96ba117d5e644651),
    ("table1/lpfps-wd/b50%/s42", 0x4f91fe31f8e73a47),
    ("avionics/fps/b50%/s42", 0x9023ab159b4c1e9d),
    ("avionics/lpfps/b50%/s42", 0x839bbdc8814168ef),
    ("avionics/lpfps-wd/b50%/s42", 0xe89d5889a58c6415),
    ("cnc/fps/b50%/s42", 0xae118dff6f934ca8),
    ("cnc/lpfps/b50%/s42", 0x01360554c39bb965),
    ("cnc/lpfps-wd/b50%/s42", 0xfeb19d4178a8fafb),
    ("ins/fps/b50%/s42", 0xd21c5a0aecdea464),
    ("ins/lpfps/b50%/s42", 0xe3eb67e9d52ce4a7),
    ("ins/lpfps-wd/b50%/s42", 0xa6375d9915c03891),
    ("table1/fps/b50%/s42/overrun", 0x088bd9b2a5ed849b),
    ("table1/lpfps/b50%/s42/overrun", 0xa21f3f5d348b69f5),
    ("table1/lpfps-wd/b50%/s42/overrun", 0x0fadb77d1da5d7d4),
    ("avionics/fps/b50%/s42/overrun", 0x396a5075e5188c26),
    ("avionics/lpfps/b50%/s42/overrun", 0xb00f54b5a098d2a1),
    ("avionics/lpfps-wd/b50%/s42/overrun", 0x180a8c14817052fc),
    ("cnc/fps/b50%/s42/overrun", 0x0b42ba74343c5603),
    ("cnc/lpfps/b50%/s42/overrun", 0x96e0023be650f2a5),
    ("cnc/lpfps-wd/b50%/s42/overrun", 0xeb78f7fa9942d149),
    ("ins/fps/b50%/s42/overrun", 0x450e1ddf13defd4f),
    ("ins/lpfps/b50%/s42/overrun", 0x9aca5885ab758e3b),
    ("ins/lpfps-wd/b50%/s42/overrun", 0x2f37d14c71b5e28f),
];

/// The execution-time seed every golden cell runs with.
pub const GOLDEN_SEED: u64 = 42;

/// The fault-stream seed of the faulted half of the matrix.
pub const GOLDEN_FAULT_SEED: u64 = 7;

/// The golden cells, in a fixed, documented order: workload-major,
/// policy-minor, fault-free matrix first, then the overrun-fault matrix.
pub fn golden_cells() -> Vec<Cell> {
    let cpu = CpuSpec::arm8();
    let policies = [
        PolicyKind::Fps,
        PolicyKind::Lpfps,
        PolicyKind::LpfpsWatchdog,
    ];
    let overrun = FaultConfig::none()
        .with_seed(GOLDEN_FAULT_SEED)
        .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3));
    let mut cells = Vec::new();
    for faults in [FaultConfig::none(), overrun] {
        for ts in [table1(), avionics(), cnc(), ins()] {
            for policy in policies {
                cells.push(
                    Cell::new(ts.clone(), cpu.clone(), policy)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(0.5)
                        .with_seed(GOLDEN_SEED)
                        .with_faults(faults),
                );
            }
        }
    }
    cells
}

/// Explains a golden fingerprint mismatch: instead of "hash A != hash B",
/// run the cell through the naive oracle under the exact configuration
/// the engine ran ([`Cell::sim_config`]) and report either the first
/// diverging field (an engine bug) or full agreement (an intentional
/// behavior change). On agreement the message carries the whole matrix
/// recomputed on the current engine, one `("label", 0x…),` row per cell,
/// ready to paste over [`GOLDEN_FINGERPRINTS`].
pub fn diagnose_mismatch(cell: &Cell, engine: &SimReport) -> String {
    let PolicyChoice::Kind(kind) = cell.policy else {
        return "no oracle dispatch for this policy; diff the serialized reports by hand".into();
    };
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let exec = cell.exec.model();
    let cfg = cell.sim_config(1.0, false);
    let mut oracle = oracle_run(&scaled, &cell.cpu, kind, exec, &cfg, &mut NoProbe)
        .expect("every golden cell is a valid simulation for the oracle too");
    oracle.taskset = cell.app.clone();
    match first_divergence(engine, &oracle) {
        Some(d) => format!(
            "the engine DISAGREES with the naive reference simulator — likely an engine bug.\n{d}"
        ),
        None => format!(
            "the engine agrees with the naive reference simulator field for field — \
             the behavior change looks intentional. If it is meant, replace \
             GOLDEN_FINGERPRINTS in crates/bench/src/golden.rs with:\n{}",
            recomputed_fingerprints()
        ),
    }
}

/// The golden matrix fingerprinted on the current engine, formatted as
/// the body of [`GOLDEN_FINGERPRINTS`].
fn recomputed_fingerprints() -> String {
    golden_cells()
        .iter()
        .map(|cell| {
            let report = cell
                .run(1.0)
                .expect("every golden cell is a valid simulation");
            format!(
                "    (\"{}\", {:#018x}),\n",
                cell.label(),
                report_fingerprint(&report)
            )
        })
        .collect()
}
