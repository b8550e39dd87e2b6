//! Property test: a recycled [`SimWorkspace`] is behaviorally invisible.
//! Whatever ran in a workspace before — other workloads, other policies,
//! faulted runs, even a simulation that *aborted mid-run* (a tripped
//! event budget) and left the buffers in whatever state the dead engine
//! took them to, or whatever its draw tape holds — the next report out
//! of that workspace must serialize byte-identically to the same cell run
//! in a fresh workspace, traces included.

use lpfps::baselines::Fps;
use lpfps::driver::{default_horizon, PolicyKind};
use lpfps_cpu::ladder::FrequencyLadder;
use lpfps_cpu::power::PowerModel;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::vf::VfCurve;
use lpfps_faults::{FaultConfig, OverrunFault, ReleaseJitter};
use lpfps_kernel::engine::{simulate_in, SimConfig, SimWorkspace};
use lpfps_kernel::trace::Trace;
use lpfps_kernel::{FixedPriority, NoProbe};
use lpfps_sweep::{Cell, ExecKind};
use lpfps_tasks::exec::{AlwaysWcet, DrawTape};
use lpfps_tasks::freq::Freq;
use lpfps_tasks::time::Dur;
use lpfps_workloads::{avionics, cnc, ins, table1};
use proptest::prelude::*;

/// Runs `cell` fully simulated with a [`Trace`] attached and serializes
/// the report together with the trace.
fn traced_json(cell: &Cell, horizon_scale: f64, ws: &mut SimWorkspace) -> String {
    let mut trace = Trace::new();
    let report = cell
        .run_probed_opts(horizon_scale, ws, true, &mut trace)
        .unwrap();
    serde_json::to_string(&(report, trace)).unwrap()
}

/// The paper's processor with the V–f threshold at 0.4 V instead of
/// 0.8 V, built as `examples/design_space.rs` builds it: another power
/// model, so other busy and ramp powers.
fn low_vt_arm8() -> CpuSpec {
    CpuSpec::new(
        FrequencyLadder::default(),
        PowerModel::new(VfCurve::new(Freq::from_mhz(100), 3.3, 0.4), 0.2, 0.05),
        0.07,
        10,
    )
}

/// Runs an adversarial warm-up mix through the workspace: every catalog
/// workload (including the widest, INS, so every per-task buffer grows
/// past the target cell's needs), a faulted traced run, LPFPS runs on a
/// processor with another power model (whose busy and ramp powers must
/// not reach the next cell), Gaussian runs under more seeds than the
/// draw tape has slots and one with more draws than it stores (so the
/// target cell's seed, drawn above, meets an evicted slot and a spent
/// capacity), a zero-horizon cell (rejected up front with a typed
/// error), and a budget-aborted simulation that abandons the buffers
/// mid-run.
fn dirty(ws: &mut SimWorkspace, seed: u64) {
    let faults = FaultConfig::none()
        .with_seed(seed)
        .with_overrun(OverrunFault::clamped(0.3, 0.5, 1.5))
        .with_release_jitter(ReleaseJitter::uniform(Dur::from_us(20)));
    for (i, ts) in [ins(), avionics(), cnc(), table1()].into_iter().enumerate() {
        let cell = Cell::new(ts, CpuSpec::arm8(), PolicyKind::LpfpsWatchdog)
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(0.4)
            .with_seed(seed ^ i as u64)
            .with_faults(faults);
        traced_json(&cell, 0.05, ws);
    }
    for (i, ts) in [ins(), avionics(), cnc(), table1()].into_iter().enumerate() {
        let cell = Cell::new(ts, low_vt_arm8(), PolicyKind::Lpfps)
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(0.4)
            .with_seed(seed ^ i as u64);
        traced_json(&cell, 0.2, ws);
    }
    // The draw-tape poison: other seeds past the slot count, then one run
    // whose draws pass the capacity (Table 1 draws 17 per 400 us).
    let gaussian = |seed: u64| {
        Cell::new(table1(), CpuSpec::arm8(), PolicyKind::Fps)
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(0.5)
            .with_seed(seed)
    };
    for i in 1..=DrawTape::SEED_SLOTS as u64 + 4 {
        gaussian(seed.wrapping_add(i << 32))
            .run_in(1.0, ws)
            .unwrap();
    }
    let draws = DrawTape::CAPACITY as u64 + 1_000;
    let long = gaussian(seed.wrapping_add(1 << 20)).with_horizon(Dur::from_us(draws * 400 / 17));
    long.run_in(1.0, ws).unwrap();
    // The validation poison: a zero horizon is rejected with a typed
    // error before the engine ever touches the workspace.
    let poisoned = Cell::new(table1(), CpuSpec::arm8(), PolicyKind::Lpfps).with_horizon(Dur::ZERO);
    assert!(
        poisoned.run_in(1.0, ws).is_err(),
        "the zero-horizon poison cell must be rejected"
    );
    // The abandonment poison: a tight event budget aborts a simulation
    // *mid-run*; the buffers moved into the dead engine are lost and the
    // workspace must recover empty-but-valid.
    let ts = table1();
    let tight = SimConfig::new(default_horizon(&ts)).with_max_events(40);
    assert!(
        simulate_in::<FixedPriority, _>(
            &ts,
            &CpuSpec::arm8(),
            &mut Fps,
            &AlwaysWcet,
            &tight,
            ws,
            &mut NoProbe
        )
        .is_err(),
        "the event-budget poison must fail mid-run"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dirty_workspace_reports_are_bit_identical(
        workload in 0usize..4,
        policy in 0usize..4,
        seed in 0u64..=1_000,
        frac_pct in 10u64..=100,
        faulted in proptest::bool::ANY,
    ) {
        let ts = [table1(), avionics(), cnc(), ins()][workload].clone();
        let kind = [
            PolicyKind::Fps,
            PolicyKind::FpsPd,
            PolicyKind::Lpfps,
            PolicyKind::LpfpsWatchdog,
        ][policy];
        let mut cell = Cell::new(ts, CpuSpec::arm8(), kind)
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(frac_pct as f64 / 100.0)
            .with_seed(seed);
        if faulted {
            cell = cell.with_faults(
                FaultConfig::none()
                    .with_seed(seed)
                    .with_overrun(OverrunFault::clamped(0.2, 0.3, 1.3)),
            );
        }

        let fresh = traced_json(&cell, 0.2, &mut SimWorkspace::new());

        let mut ws = SimWorkspace::new();
        dirty(&mut ws, seed);
        let reused = traced_json(&cell, 0.2, &mut ws);
        prop_assert_eq!(fresh, reused);

        // And the workspace stays sound for a *different* follow-up cell.
        let follow = Cell::new(cnc(), CpuSpec::arm8_multimode(), PolicyKind::Lpfps)
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(0.5)
            .with_seed(seed + 1);
        prop_assert_eq!(
            traced_json(&follow, 0.1, &mut SimWorkspace::new()),
            traced_json(&follow, 0.1, &mut ws)
        );
    }
}
