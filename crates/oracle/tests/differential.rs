//! The differential harness: the optimized kernel against the naive
//! reference simulator, field for field, over the full workload × policy
//! × fault matrix — plus the sabotage test proving the oracle actually
//! discriminates: an engine fed a one-job-short execution model must
//! diverge from the oracle at a located report field.
//! The fast-forward matrix checks the steady-state detector's eligible
//! regime the same way, and against each cell's forced-full run.

use lpfps::driver::{default_horizon, run, run_in, PolicyKind};
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault};
use lpfps_kernel::engine::{SimConfig, SimWorkspace};
use lpfps_kernel::probe::Probe;
use lpfps_kernel::report::SimReport;
use lpfps_kernel::trace::Trace;
use lpfps_kernel::NoProbe;
use lpfps_oracle::{first_divergence, first_trace_divergence, oracle_run, Divergence};
use lpfps_tasks::analysis::hyperperiod;
use lpfps_tasks::exec::{AlwaysWcet, DrawTape, ExecModel, PaperGaussian};
use lpfps_tasks::task::{Task, TaskId};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use lpfps_workloads::{avionics, cnc, ins, table1};

/// The differential matrix: every paper workload under the policies that
/// exercise distinct engine paths (plain FPS, power-down only, the full
/// heuristic, the fault-reactive watchdog) and both dispatch disciplines
/// (EDF at full speed, and the LPFPS manager under EDF dispatch).
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Fps,
    PolicyKind::FpsPd,
    PolicyKind::Lpfps,
    PolicyKind::LpfpsWatchdog,
    PolicyKind::Edf,
    PolicyKind::CcEdf,
];

fn workloads() -> Vec<TaskSet> {
    vec![table1(), avionics(), cnc(), ins()]
}

/// The fast-forward matrix's horizon, in default horizons: at 1× the
/// detector never engages on Table 1.
const FAST_FORWARD_SCALE: u64 = 10;

/// Overrun stream at p = 0.1, the fault model of the differential matrix.
fn overrun_faults() -> FaultConfig {
    FaultConfig::none()
        .with_seed(7)
        .with_overrun(OverrunFault::clamped(0.1, 0.3, 1.3))
}

/// Runs one cell on the engine (with `probe` attached next to a
/// [`Trace`]) and on the oracle. Returns the engine report when both
/// agree, else the first divergence of their reports or, failing that, of
/// their traces — so the comparison also covers every event stamp and the
/// per-segment energy stream, not just the integrated report.
/// `engine_exec` is `exec` except in the sabotage test, which plants a
/// bug there; full simulation is forced so the engine trace is complete.
/// The engine runs in `ws`, fresh except where a test recycles one.
fn check_against_oracle<P: Probe>(
    ts: &TaskSet,
    kind: PolicyKind,
    engine_exec: &dyn ExecModel,
    exec: &dyn ExecModel,
    cfg: &SimConfig,
    ws: &mut SimWorkspace,
    probe: &mut P,
) -> Result<SimReport, Divergence> {
    let cpu = CpuSpec::arm8();
    let engine_cfg = cfg.clone().with_force_full_simulation();
    let mut engine_trace = Trace::new();
    let mut both = |at, ev: &_| {
        engine_trace.on_event(at, ev);
        probe.on_event(at, ev);
    };
    let engine = run_in(ts, &cpu, kind, engine_exec, &engine_cfg, ws, &mut both).unwrap();
    let mut oracle_trace = Trace::new();
    let oracle = oracle_run(ts, &cpu, kind, exec, cfg, &mut oracle_trace).unwrap();
    match first_divergence(&engine, &oracle)
        .or_else(|| first_trace_divergence(&engine_trace, &oracle_trace))
    {
        Some(d) => Err(d),
        None => Ok(engine),
    }
}

/// One Gaussian cell of the matrix (BCET 50 %, seed 42) over `scale`
/// default horizons.
fn assert_matches_oracle(ts: &TaskSet, kind: PolicyKind, faults: FaultConfig, scale: u64) {
    assert_matches_oracle_in(ts, kind, faults, scale, 42, &mut SimWorkspace::new());
}

/// [`assert_matches_oracle`] under `seed`, with the engine running in
/// `ws`.
fn assert_matches_oracle_in(
    ts: &TaskSet,
    kind: PolicyKind,
    faults: FaultConfig,
    scale: u64,
    seed: u64,
    ws: &mut SimWorkspace,
) {
    let scaled = ts.with_bcet_fraction(0.5);
    let cfg = SimConfig::new(default_horizon(&scaled) * scale)
        .with_seed(seed)
        .with_faults(faults);
    let exec = &PaperGaussian;
    if let Err(d) = check_against_oracle(&scaled, kind, exec, exec, &cfg, ws, &mut NoProbe) {
        panic!(
            "{}/{kind} at seed {seed} diverged from the oracle\n{d}",
            ts.name()
        );
    }
}

#[test]
fn engine_matches_oracle_fault_free() {
    for ts in workloads() {
        for kind in POLICIES {
            assert_matches_oracle(&ts, kind, FaultConfig::none(), 1);
        }
    }
}

#[test]
fn engine_matches_oracle_under_overruns() {
    for ts in workloads() {
        for kind in POLICIES {
            assert_matches_oracle(&ts, kind, overrun_faults(), 1);
        }
    }
}

/// The 48 Gaussian cells again, through one recycled workspace whose
/// draw tape (`lpfps_tasks::exec::DrawTape`) carries over from cell to
/// cell, against the oracle, which draws every demand afresh. Each seed
/// serves two cells in a row, so the second reads its draws from the
/// tape, and the 24 seeds outnumber the tape's slots, so the later ones
/// take evicted slots. A tape that dropped any part of its key, or kept
/// an evicted seed's draws, would run some cell on another realization
/// than the oracle's.
#[test]
fn recycled_workspace_matches_oracle_across_seeds() {
    let mut ws = SimWorkspace::new();
    let mut cells = 0;
    for faults in [FaultConfig::none(), overrun_faults()] {
        for ts in workloads() {
            for kind in POLICIES {
                let seed = 1_000 + cells / 2;
                assert_matches_oracle_in(&ts, kind, faults, 1, seed, &mut ws);
                cells += 1;
            }
        }
    }
    assert!(
        cells / 2 > DrawTape::SEED_SLOTS as u64,
        "too few seeds to evict"
    );
}

/// The Gaussian matrix, both fault halves, at the fast-forward matrix's
/// horizon. Release builds only: it takes ~40 s in a debug build on a
/// 2-vCPU host.
#[cfg(not(debug_assertions))]
#[test]
fn engine_matches_oracle_at_ten_times_the_horizon() {
    for faults in [FaultConfig::none(), overrun_faults()] {
        for ts in workloads() {
            for kind in POLICIES {
                assert_matches_oracle(&ts, kind, faults, FAST_FORWARD_SCALE);
            }
        }
    }
}

/// The fast-forward matrix: each `AlwaysWcet` cell at 10× the default
/// horizon runs with the detector on, and its report must match the
/// oracle field for field and its own forced-full run byte for byte.
/// The detector must engage on every cell whose hyperperiod fits in the
/// horizon — all 18 but avionics', whose hyperperiod is 118 s.
#[test]
fn fast_forward_matches_oracle_and_forced_full() {
    let cpu = CpuSpec::arm8();
    let mut ws = SimWorkspace::new();
    let mut engaged = 0;
    for ts in workloads() {
        let horizon = default_horizon(&ts) * FAST_FORWARD_SCALE;
        let fits = hyperperiod(&ts).is_some_and(|h| h <= horizon);
        let cfg = SimConfig::new(horizon).with_seed(42);
        let full_cfg = cfg.clone().with_force_full_simulation();
        for kind in POLICIES {
            let label = format!("{}/{kind}", ts.name());
            let fast = run_in(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut ws, &mut NoProbe).unwrap();
            let cycles = ws.fast_forward_stats().cycles_detected;
            let full = run(&ts, &cpu, kind, &AlwaysWcet, &full_cfg).unwrap();
            let oracle = oracle_run(&ts, &cpu, kind, &AlwaysWcet, &cfg, &mut NoProbe).unwrap();
            if let Some(d) = first_divergence(&fast, &oracle) {
                panic!("{label}: the fast-forwarding engine diverged from the oracle\n{d}");
            }
            assert_eq!(
                serde_json::to_string(&fast).unwrap(),
                serde_json::to_string(&full).unwrap(),
                "{label}: the fast-forwarded report differs from the forced-full one"
            );
            assert_eq!(
                cycles > 0,
                fits,
                "{label}: {cycles} cycles detected, hyperperiod within the horizon: {fits}"
            );
            engaged += usize::from(cycles > 0);
        }
    }
    assert_eq!(engaged, 18, "cells on which the detector engaged");
}

#[test]
fn engine_matches_oracle_on_every_policy_kind() {
    // The remaining kinds (ablations and the static baseline, including
    // its derate-then-rename path) on the motivating example.
    for kind in [
        PolicyKind::LpfpsDvsOnly,
        PolicyKind::LpfpsOptimal,
        PolicyKind::StaticSlowdown,
    ] {
        assert_matches_oracle(&table1(), kind, FaultConfig::none(), 1);
        assert_matches_oracle(&table1(), kind, overrun_faults(), 1);
    }
}

#[test]
fn engine_matches_oracle_with_kernel_overheads() {
    // Context-switch + slow-down overheads and a tick-driven kernel walk
    // the `pending_overhead` and quantization paths.
    let scaled = table1().with_bcet_fraction(0.5);
    let cfg = SimConfig::new(default_horizon(&scaled))
        .with_seed(42)
        .with_context_switch(Dur::from_ns(500))
        .with_ratio_overhead(Dur::from_ns(800))
        .with_tick(Dur::from_us(1));
    for kind in POLICIES {
        let exec = &PaperGaussian;
        let ws = &mut SimWorkspace::new();
        if let Err(d) = check_against_oracle(&scaled, kind, exec, exec, &cfg, ws, &mut NoProbe) {
            panic!("table1/{kind} with overheads diverged from the oracle\n{d}");
        }
    }
}

/// The probed engine against the oracle: re-runs the full differential
/// matrix (both fault halves, every distinct-path policy) with a
/// recording [`JobRecorder`](lpfps_obs::JobRecorder) attached next to the
/// trace. The probe must be invisible — field-for-field agreement with
/// the naive reference simulator, exactly as in the unprobed matrix — and
/// non-vacuously live: it must have counted every completion the report
/// integrated.
#[test]
fn probed_engine_matches_oracle_across_the_matrix() {
    use lpfps_obs::JobRecorder;
    for ts in workloads() {
        for kind in POLICIES {
            for faults in [FaultConfig::none(), overrun_faults()] {
                let scaled = ts.with_bcet_fraction(0.5);
                let cfg = SimConfig::new(default_horizon(&scaled))
                    .with_seed(42)
                    .with_faults(faults);
                let mut rec = JobRecorder::new();
                let exec = &PaperGaussian;
                let ws = &mut SimWorkspace::new();
                let engine = check_against_oracle(&scaled, kind, exec, exec, &cfg, ws, &mut rec)
                    .unwrap_or_else(|d| {
                        panic!(
                            "{}/{kind} diverged from the oracle with a probe attached\n{d}",
                            ts.name()
                        )
                    });
                assert_eq!(
                    rec.response_ns().count(),
                    engine.counters.completions,
                    "{}/{kind}: the probe missed completions the report integrated",
                    ts.name()
                );
            }
        }
    }
}

/// Error paths must be as differential as success paths: the engine and
/// the oracle reject the same inputs with the *same* typed error, and a
/// budget cut-off trips at the same event with the same diagnostic.
#[test]
fn engine_and_oracle_reject_identically() {
    let cpu = CpuSpec::arm8();
    let ts = table1();
    let exec = lpfps_tasks::exec::AlwaysWcet;

    // Invalid config: zero horizon.
    let zero = SimConfig::new(lpfps_tasks::time::Dur::ZERO);
    let e = run(&ts, &cpu, PolicyKind::Fps, &exec, &zero).unwrap_err();
    let o = oracle_run(&ts, &cpu, PolicyKind::Fps, &exec, &zero, &mut NoProbe).unwrap_err();
    assert_eq!(e, o);
    assert_eq!(e.kind(), "invalid-config");

    // Malformed task set smuggled past the constructors via Deserialize.
    let json = serde_json::to_string(&ts).unwrap();
    let bad: TaskSet =
        serde_json::from_str(&json.replace("\"period\":50000", "\"period\":0")).unwrap();
    let cfg = SimConfig::new(default_horizon(&ts));
    let e = run(&bad, &cpu, PolicyKind::Lpfps, &exec, &cfg).unwrap_err();
    let o = oracle_run(&bad, &cpu, PolicyKind::Lpfps, &exec, &cfg, &mut NoProbe).unwrap_err();
    assert_eq!(e, o);
    assert_eq!(e.kind(), "invalid-task-set");

    // A budget cut-off carries an identical partial-progress diagnostic
    // on both sides — same event, same sim time, same segment count.
    let tight = SimConfig::new(default_horizon(&ts)).with_max_events(25);
    let e = run(&ts, &cpu, PolicyKind::Lpfps, &exec, &tight).unwrap_err();
    let o = oracle_run(&ts, &cpu, PolicyKind::Lpfps, &exec, &tight, &mut NoProbe).unwrap_err();
    assert_eq!(e, o);
    assert_eq!(e.kind(), "budget-exhausted");
}

/// The planted bug of the non-vacuity proof: [`AlwaysWcet`], except that
/// the first job of the highest-priority task runs 1 µs short.
#[derive(Debug)]
struct OneJobShort;

impl ExecModel for OneJobShort {
    fn sample(&self, task: &Task, task_id: TaskId, job_index: u64, _seed: u64) -> Dur {
        if (task_id, job_index) == (TaskId(0), 0) {
            task.wcet() - Dur::from_us(1)
        } else {
            task.wcet()
        }
    }

    fn name(&self) -> &'static str {
        AlwaysWcet.name()
    }
}

/// The non-vacuity proof: an engine that retires one job 1 µs early (it
/// runs [`OneJobShort`] while the oracle runs the true model) must
/// diverge from the oracle, and the diff must say where.
#[test]
fn engine_with_a_one_job_short_demand_is_caught() {
    let ts = table1();
    let cfg = SimConfig::new(default_horizon(&ts));
    let d = check_against_oracle(
        &ts,
        PolicyKind::Fps,
        &OneJobShort,
        &AlwaysWcet,
        &cfg,
        &mut SimWorkspace::new(),
        &mut NoProbe,
    )
    .expect_err("a job retiring 1 us early must produce an observable divergence");
    // The diagnostic must locate a concrete field, not just say "differs".
    assert!(d.path.starts_with("report."), "unexpected path {}", d.path);
    assert_ne!(d.left, d.right);
}
