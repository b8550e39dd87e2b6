//! Integration tests of the multicore engine: seed derivation, report
//! aggregation, serde stability, and the engine's per-fleet reuse of
//! per-core reports. The heavyweight gates (golden-matrix reproduction,
//! standalone bit-identity over the full grid, the sweep runner's
//! assembly across thread counts) live in
//! `crates/bench/tests/multicore_golden.rs`.

use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_cpu::{FrequencyLadder, PowerModel, VfCurve};
use lpfps_faults::{core_seed, FaultConfig, OverrunFault};
use lpfps_multi::{
    MultiCell, MultiEngine, MultiReport, PartitionError, Partitioner, PartitionerKind,
};
use lpfps_sweep::{Cell, ExecKind};
use lpfps_tasks::error::TaskSetError;
use lpfps_tasks::freq::Freq;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use lpfps_workloads::{table1, WorkloadBuilder};
use serde::Deserialize;

fn fleet(cores: usize) -> Cell {
    fleet_of(table1(), cores)
}

fn fleet_of(base: TaskSet, cores: usize) -> Cell {
    let ts = WorkloadBuilder::new(base).with_seed(11).replicate(cores);
    Cell::new(ts, CpuSpec::arm8(), PolicyKind::Lpfps)
        .with_exec(ExecKind::PaperGaussian)
        .with_bcet_fraction(0.5)
        .with_seed(42)
}

#[test]
fn one_core_derivation_is_the_identity() {
    let base = fleet(1);
    let mc = MultiCell::new(base.clone(), 1, PartitionerKind::Ffd);
    let (partition, cells) = mc.derived_cells().unwrap();
    assert_eq!(partition.assignment, vec![0, 0, 0]);
    let derived = cells[0].as_ref().unwrap();
    assert_eq!(
        derived.app, base.app,
        "app label must not grow a .c0 suffix"
    );
    assert_eq!(derived.seed, base.seed, "core 0 seed is the base seed");
    assert_eq!(derived.faults.seed, base.faults.seed);
    assert_eq!(
        derived.horizon,
        Some(base.effective_horizon(1.0)),
        "pinned horizon must equal the uniprocessor default"
    );
}

#[test]
fn per_core_seeds_follow_core_seed() {
    let base = fleet(4);
    let mc = MultiCell::new(base.clone(), 4, PartitionerKind::Wfd);
    let (_, cells) = mc.derived_cells().unwrap();
    for (k, cell) in cells.iter().enumerate() {
        let cell = cell
            .as_ref()
            .expect("4 replicas on 4 cores leave no core idle");
        assert_eq!(cell.seed, core_seed(base.seed, k));
        assert_eq!(cell.faults.seed, core_seed(base.faults.seed, k));
        assert_eq!(cell.app, format!("{}.c{k}", base.app));
    }
}

#[test]
fn fleet_aggregates_are_consistent_with_the_per_core_reports() {
    let mc = MultiCell::new(fleet(2), 2, PartitionerKind::Wfd);
    let report = MultiEngine::serial().run(&mc, 1.0).unwrap();
    assert_eq!(report.policy, "lpfps");
    assert_eq!(report.partitioner, "wfd");
    assert_eq!(report.cores, 2);
    assert_eq!(report.per_core.len(), 2);
    let horizon_s = report.horizon.as_secs_f64();
    let mut energy = 0.0;
    let mut power = 0.0;
    let mut misses = 0;
    for (k, row) in report.per_core.iter().enumerate() {
        assert_eq!(row.core, k);
        let core = report.core_report(k).unwrap();
        assert_eq!(row.average_power, core.average_power());
        assert_eq!(row.energy, core.average_power() * horizon_s);
        assert_eq!(row.misses, core.misses.len());
        energy += row.energy;
        power += row.average_power;
        misses += row.misses;
    }
    assert_eq!(report.fleet_energy, energy);
    assert_eq!(report.fleet_average_power, power / 2.0);
    assert_eq!(report.fleet_misses, misses);
    assert_eq!(report.all_deadlines_met(), misses == 0);
}

#[test]
fn multi_report_serde_round_trips() {
    let mc = MultiCell::new(fleet(2), 3, PartitionerKind::Bfd);
    let report = MultiEngine::serial().run(&mc, 1.0).unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let back = MultiReport::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    assert_eq!(back.cores, 3);
    assert_eq!(back.reports.len(), 3);
}

#[test]
fn unpartitionable_cells_surface_a_sim_error() {
    // table1 x4 has utilization ~3.4: it cannot fit on 2 cores.
    let mc = MultiCell::new(fleet(4), 2, PartitionerKind::Ffd);
    let err = MultiEngine::serial().run(&mc, 1.0).unwrap_err();
    assert_eq!(err.kind(), "invalid-partition");
    assert!(err.to_string().starts_with("partitioning failed: "));
}

/// A fleet whose set carries a task `bad` smuggled past the constructors
/// (`Task` implements `Deserialize`) is rejected before any allocator
/// runs, under the rule the task breaks: by every partitioner, and by the
/// fleet's derived cells.
#[test]
fn a_smuggled_task_is_rejected_by_name_before_partitioning() {
    for (period, wcet, rule) in [
        (0, 10_000, TaskSetError::ZeroPeriod { task: "bad".into() }),
        (100_000, 0, TaskSetError::ZeroWcet { task: "bad".into() }),
    ] {
        let json = format!(
            r#"{{"name":"bad","period":{period},"deadline":{period},"wcet":{wcet},"bcet":{wcet},"phase":0}}"#
        );
        let mut hostile = fleet(2);
        let mut tasks = hostile.ts.tasks().to_vec();
        tasks.push(Task::from_value(&serde_json::from_str(&json).unwrap()).unwrap());
        hostile.ts = TaskSet::rate_monotonic("hostile", tasks);
        for kind in PartitionerKind::ALL {
            let outcome = kind.partition(&hostile.ts, 2).map(|p| p.assignment);
            let expected = Err(PartitionError::InvalidSet(rule.clone()));
            assert_eq!(outcome, expected, "{}", kind.name());
            let mc = MultiCell::new(hostile.clone(), 2, kind);
            let err = mc.derived_cells().map(|_| ()).unwrap_err();
            let message = format!("partitioning failed: invalid task set: {rule}");
            assert_eq!(err.to_string(), message);
        }
    }
}

#[test]
fn label_names_the_topology() {
    let mc = MultiCell::new(fleet(2), 2, PartitionerKind::RtaFf);
    assert_eq!(mc.label(), format!("{}/m2/rta-ff", mc.base.label()));
    assert_eq!(mc.partitioner.name(), "rta-ff");
}

#[test]
fn horizon_scale_shrinks_the_shared_horizon() {
    let mc = MultiCell::new(fleet(2), 2, PartitionerKind::Wfd);
    let full = MultiEngine::serial().run(&mc, 1.0).unwrap();
    let half = MultiEngine::serial().run(&mc, 0.5).unwrap();
    assert_eq!(
        half.horizon,
        Dur::from_ns((full.horizon.as_ns() as f64 * 0.5).round() as u64)
    );
    for k in 0..2 {
        assert_eq!(half.core_report(k).unwrap().horizon, half.horizon);
    }
}

fn json(report: &MultiReport) -> String {
    serde_json::to_string(report).unwrap()
}

/// One engine runs a fleet cell, then variants that each change exactly
/// one input, on the same fleet set (so the engine keeps every report it
/// stored). Each variant must serialize exactly like a fresh engine's
/// run, so no stored report of another input is served; and each must
/// differ from the base, so the case can fail.
#[test]
fn reused_reports_never_stand_in_for_another_input() {
    // Idle gaps of milliseconds, long enough that the multimode
    // processor's deep sleep pays off, so the `cpu` variant changes the
    // report (on Table 1 every gap is under 100 us and both processors
    // pick the same sleep mode).
    let sparse = TaskSet::rate_monotonic(
        "sparse",
        vec![
            Task::new("a", Dur::from_ms(10), Dur::from_ms(1)),
            Task::new("b", Dur::from_ms(20), Dur::from_ms(2)),
            Task::new("c", Dur::from_ms(50), Dur::from_ms(5)),
        ],
    );
    let base = fleet_of(sparse, 2);
    let overrun = FaultConfig::none()
        .with_seed(7)
        .with_overrun(OverrunFault::clamped(0.5, 0.3, 1.3));
    let variants = [
        (
            "policy",
            Cell {
                policy: PolicyKind::Fps.into(),
                ..base.clone()
            },
            1.0,
        ),
        ("seed", base.clone().with_seed(43), 1.0),
        ("BCET fraction", base.clone().with_bcet_fraction(0.3), 1.0),
        (
            "exec model",
            base.clone().with_exec(ExecKind::AlwaysWcet),
            1.0,
        ),
        ("fault config", base.clone().with_faults(overrun), 1.0),
        (
            "context switch",
            base.clone().with_context_switch(Dur::from_us(5)),
            1.0,
        ),
        (
            "ratio overhead",
            base.clone().with_ratio_overhead(Dur::from_us(2)),
            1.0,
        ),
        ("tick", base.clone().with_tick(Dur::from_us(100)), 1.0),
        (
            "cpu",
            Cell {
                cpu: CpuSpec::arm8_multimode(),
                ..base.clone()
            },
            1.0,
        ),
        ("horizon scale", base.clone(), 0.5),
    ];
    let on_two_cores = |cell: &Cell| MultiCell::new(cell.clone(), 2, PartitionerKind::Ffd);
    let mut shared = MultiEngine::serial();
    let base_json = json(&shared.run(&on_two_cores(&base), 1.0).unwrap());
    for (what, cell, scale) in &variants {
        let mc = on_two_cores(cell);
        let fresh = json(&MultiEngine::serial().run(&mc, *scale).unwrap());
        assert_ne!(
            fresh, base_json,
            "{what}: the variant must change the report"
        );
        let got = json(&shared.run(&mc, *scale).unwrap());
        assert_eq!(
            got, fresh,
            "{what}: the shared engine served another input's report"
        );
    }
    // Every variant is stored now; the base still gets its own report.
    let again = json(&shared.run(&on_two_cores(&base), 1.0).unwrap());
    assert_eq!(again, base_json);
}

/// Derived `==` compares floats as values, so `-0.0 == 0.0`, and cells
/// whose floats differ only in the sign of a zero share a report. That
/// is exact: such a float enters the run through a comparison, a sum
/// with a non-zero term, a rounding to an integer, or an energy charge
/// summed into meters that start at `+0.0` (where `+0.0 + -0.0` is
/// `+0.0`). Here every zero-able float of a valid processor (the V-f
/// threshold, the NOP and power-down fractions, hence the sleep mode's
/// power) and the overrun probability take each sign.
#[test]
fn cells_equal_up_to_the_sign_of_a_zero_run_byte_identically() {
    let cell = |zero: f64, policy: PolicyKind| {
        let vf = VfCurve::new(Freq::from_mhz(100), 3.3, zero);
        let power = PowerModel::new(vf, zero, zero);
        let never = OverrunFault {
            probability: zero,
            magnitude: 0.3,
            clamp: Some(1.3),
        };
        Cell {
            cpu: CpuSpec::new(FrequencyLadder::default(), power, 0.07, 10),
            policy: policy.into(),
            ..fleet(2).with_faults(FaultConfig::none().with_overrun(never))
        }
    };
    let on_two_cores = |cell: &Cell| MultiCell::new(cell.clone(), 2, PartitionerKind::Ffd);
    for policy in [
        PolicyKind::Fps,
        PolicyKind::Lpfps,
        PolicyKind::LpfpsWatchdog,
    ] {
        let (plus, minus) = (cell(0.0, policy), cell(-0.0, policy));
        assert_eq!(plus, minus, "derived == equates the two signs");
        assert!(minus.cpu.vf().v_t().0.is_sign_negative());
        let plus_json = json(
            &MultiEngine::serial()
                .run(&on_two_cores(&plus), 1.0)
                .unwrap(),
        );
        let minus_mc = on_two_cores(&minus);
        let minus_json = json(&MultiEngine::serial().run(&minus_mc, 1.0).unwrap());
        assert_eq!(
            plus_json, minus_json,
            "{policy:?}: the sign of a zero changed a report"
        );
        let mut shared = MultiEngine::serial();
        shared.run(&on_two_cores(&plus), 1.0).unwrap();
        assert_eq!(json(&shared.run(&minus_mc, 1.0).unwrap()), minus_json);
    }
}
