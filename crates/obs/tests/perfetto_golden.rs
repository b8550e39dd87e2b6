//! Golden snapshot of the Perfetto exporter: the committed
//! `results/fig2_trace.perfetto.json` must be byte-identical to a fresh
//! export of the same cell, and must pass the exporter's own schema
//! validation.
//!
//! Byte identity pins *both* sides at once: the schedule (Table 1 under
//! LPFPS, clamped Gaussian at BCET = 50 %, seed 42, 400 µs) and the
//! exporter's serialization (field order, timestamp formatting, event
//! ordering). Regenerate only for an intentional change, with
//! [`REGENERATE`]; `lpfps-bench`'s `committed_results` table and its
//! `multicore_flags` suite check that this command writes the committed
//! bytes.

use lpfps::driver::{run_in, PolicyKind};
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::trace::Trace;
use lpfps_obs::{export_chrome_trace, validate_chrome_trace};
use lpfps_tasks::exec::PaperGaussian;
use lpfps_tasks::time::{Dur, Time};
use lpfps_workloads::table1;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/fig2_trace.perfetto.json"
);

/// The command that writes the committed snapshot.
const REGENERATE: &str = "cargo run --release --bin simulate -- --seed 42 --horizon-scale 0.5 \
                          --quiet --trace-out results/fig2_trace.perfetto.json";

/// Fresh export of the cell [`REGENERATE`] renders: `simulate`'s default
/// cell at seed 42 over half its 800 µs horizon.
fn fresh_export() -> String {
    let ts = table1().with_bcet_fraction(0.5);
    let horizon = Dur::from_us(400);
    let cfg = SimConfig::new(horizon)
        .with_seed(42)
        .with_force_full_simulation();
    let mut trace = Trace::new();
    run_in(
        &ts,
        &CpuSpec::arm8(),
        PolicyKind::Lpfps,
        &PaperGaussian,
        &cfg,
        &mut SimWorkspace::new(),
        &mut trace,
    )
    .expect("the Figure 2 cell simulates");
    export_chrome_trace(&trace, &ts, Time::ZERO + horizon)
}

#[test]
fn committed_snapshot_is_byte_identical_to_a_fresh_export() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("results/fig2_trace.perfetto.json is committed");
    let fresh = fresh_export();
    if golden != fresh {
        // Locate the first diverging line instead of dumping 19 kB twice.
        let line = golden
            .lines()
            .zip(fresh.lines())
            .position(|(g, f)| g != f)
            .map(|i| i + 1)
            .unwrap_or_else(|| golden.lines().count().min(fresh.lines().count()) + 1);
        panic!(
            "committed Perfetto snapshot diverged from a fresh export at line {line}; \
             if the schedule or exporter changed intentionally, regenerate with \
             `{REGENERATE}`"
        );
    }
}

#[test]
fn committed_snapshot_passes_schema_validation() {
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("results/fig2_trace.perfetto.json is committed");
    // The validator enforces the minimal Chrome-trace-event schema: known
    // ph codes, non-decreasing timestamps per lane, and name-matched B/E
    // pairs that all close by end of trace.
    let stats = validate_chrome_trace(&golden).expect("golden snapshot validates");
    assert_eq!(stats.events, 267, "event census drifted");
    assert_eq!(stats.spans, 61, "span census drifted");
    assert_eq!(stats.instants, 33, "instant-marker census drifted");
    assert_eq!(stats.counters, 107, "counter-sample census drifted");
    // Structural frame: header line, one event per line, closing bracket.
    assert!(golden.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"));
    assert!(golden.ends_with("]}\n"));
}
