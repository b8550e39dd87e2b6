//! Golden snapshots of the boundary error messages.
//!
//! The `Display` strings of [`SimError`] (and the domain errors it wraps)
//! are part of the tool's surface: sweep progress lines, `CellError`
//! payloads in results JSON, and CLI diagnostics all print them verbatim.
//! These tests pin the exact text of the validation failures — every
//! `TaskSetError` and `CpuSpecError` rule that lacks a test closer to its
//! validator, each produced by name at the `simulate` boundary — plus the
//! budget-exhaustion diagnostic shape, so a refactor that drifts a
//! message fails here by name instead of silently changing every
//! downstream artifact.
//!
//! Malformed inputs are built through the `Deserialize` back door (the
//! constructors' `assert!`s refuse to build them), exactly as a hostile
//! JSON spec would arrive.

use lpfps_cpu::error::CpuSpecError;
use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::{simulate, SimConfig};
use lpfps_kernel::error::SimError;
use lpfps_kernel::policy::AlwaysFullSpeed;
use lpfps_tasks::error::TaskSetError;
use lpfps_tasks::exec::AlwaysWcet;
use lpfps_tasks::task::{Priority, Task};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use serde::{Deserialize, Map, Value};

/// Builds a `Task` value tree with the given nanosecond fields and
/// deserializes it unvalidated.
fn smuggle_task(name: &str, period: u64, deadline: u64, wcet: u64, bcet: u64) -> Task {
    let mut m = Map::new();
    m.insert("name".to_string(), Value::String(name.to_string()));
    for (key, ns) in [
        ("period", period),
        ("deadline", deadline),
        ("wcet", wcet),
        ("bcet", bcet),
        ("phase", 0),
    ] {
        m.insert(
            key.to_string(),
            serde_json::to_value(Dur::from_ns(ns)).unwrap(),
        );
    }
    Task::from_value(&Value::Object(m)).expect("the field map matches `Task`'s shape")
}

/// Same back door for a whole `TaskSet`.
fn smuggle_task_set(tasks: &[Task]) -> TaskSet {
    let mut m = Map::new();
    m.insert("name".to_string(), Value::String("snapshot".to_string()));
    m.insert("tasks".to_string(), serde_json::to_value(tasks).unwrap());
    let prios: Vec<Priority> = (0..tasks.len() as u32).map(Priority::new).collect();
    m.insert(
        "priorities".to_string(),
        serde_json::to_value(&prios).unwrap(),
    );
    TaskSet::from_value(&Value::Object(m)).expect("the field map matches `TaskSet`'s shape")
}

/// Runs the smuggled inputs through the boundary and returns the error.
fn boundary_error(ts: &TaskSet, cpu: &CpuSpec, cfg: &SimConfig) -> SimError {
    simulate(ts, cpu, &mut AlwaysFullSpeed, &AlwaysWcet, cfg)
        .expect_err("snapshot inputs are all invalid")
}

/// The boundary error of a one-task set `tau1` with the given period,
/// deadline, WCET and BCET (ns) on the paper's processor.
fn task_error(period: u64, deadline: u64, wcet: u64, bcet: u64) -> SimError {
    let ts = smuggle_task_set(&[smuggle_task("tau1", period, deadline, wcet, bcet)]);
    boundary_error(&ts, &CpuSpec::arm8(), &SimConfig::new(Dur::from_ms(1)))
}

/// The boundary error of a valid one-task set on `cpu`.
fn cpu_error(cpu: &CpuSpec) -> SimError {
    let ts = smuggle_task_set(&[smuggle_task("tau1", 50_000, 50_000, 10_000, 10_000)]);
    boundary_error(&ts, cpu, &SimConfig::new(Dur::from_ms(1)))
}

#[test]
fn empty_task_set_message() {
    let ts = smuggle_task_set(&[]);
    let err = boundary_error(&ts, &CpuSpec::arm8(), &SimConfig::new(Dur::from_ms(1)));
    assert_eq!(err, SimError::TaskSet(TaskSetError::Empty));
    assert_eq!(err.to_string(), "invalid task set: task set is empty");
    assert_eq!(err.kind(), "invalid-task-set");
}

#[test]
fn zero_period_message() {
    let err = task_error(0, 50_000, 10_000, 10_000);
    assert_eq!(
        err.to_string(),
        "invalid task set: task `tau1`: period must be positive"
    );
    assert_eq!(err.kind(), "invalid-task-set");
}

#[test]
fn wcet_exceeds_period_message() {
    let err = task_error(50_000, 50_000, 60_000, 10_000);
    let task = "tau1".to_string();
    assert_eq!(
        err,
        SimError::TaskSet(TaskSetError::WcetExceedsPeriod { task })
    );
    assert_eq!(
        err.to_string(),
        "invalid task set: task `tau1`: WCET exceeds its period"
    );
    assert_eq!(err.kind(), "invalid-task-set");
}

#[test]
fn zero_wcet_message() {
    let err = task_error(50_000, 50_000, 0, 0);
    let task = "tau1".to_string();
    assert_eq!(err, SimError::TaskSet(TaskSetError::ZeroWcet { task }));
    assert_eq!(
        err.to_string(),
        "invalid task set: task `tau1`: WCET must be positive"
    );
}

#[test]
fn bad_deadline_message() {
    // D = 5 us < C = 10 us; D = 0 and D > T break the same rule.
    let err = task_error(50_000, 5_000, 10_000, 10_000);
    let task = "tau1".to_string();
    assert_eq!(err, SimError::TaskSet(TaskSetError::BadDeadline { task }));
    assert_eq!(
        err.to_string(),
        "invalid task set: task `tau1`: deadline must lie between the WCET and the period"
    );
}

#[test]
fn bad_bcet_message() {
    // BCET = 20 us > C = 10 us; BCET = 0 breaks the same rule.
    let err = task_error(50_000, 50_000, 10_000, 20_000);
    let task = "tau1".to_string();
    assert_eq!(err, SimError::TaskSet(TaskSetError::BadBcet { task }));
    assert_eq!(
        err.to_string(),
        "invalid task set: task `tau1`: BCET must be positive and at most the WCET"
    );
}

#[test]
fn priority_count_mismatch_message() {
    // One task, no priority: `iter()` zips the two vectors, so only the
    // count check keeps the task from going unchecked.
    let json = r#"{"name": "snapshot", "tasks": [{"name": "tau1", "period": 50000,
        "deadline": 50000, "wcet": 10000, "bcet": 10000, "phase": 0}], "priorities": []}"#;
    let ts: TaskSet = serde_json::from_str(json).unwrap();
    let err = boundary_error(&ts, &CpuSpec::arm8(), &SimConfig::new(Dur::from_ms(1)));
    let mismatch = TaskSetError::PriorityCountMismatch {
        tasks: 1,
        priorities: 0,
    };
    assert_eq!(err, SimError::TaskSet(mismatch));
    assert_eq!(
        err.to_string(),
        "invalid task set: task set has 1 tasks but 0 priorities"
    );
}

#[test]
fn zero_horizon_message() {
    let ts = smuggle_task_set(&[smuggle_task("tau1", 50_000, 50_000, 10_000, 10_000)]);
    let err = boundary_error(&ts, &CpuSpec::arm8(), &SimConfig::new(Dur::ZERO));
    assert_eq!(
        err.to_string(),
        "invalid simulation config: simulation horizon must be positive"
    );
    assert_eq!(err.kind(), "invalid-config");
}

#[test]
fn missing_sleep_modes_message() {
    // Empty the sleep-mode family through the value tree; the builders
    // refuse to construct this.
    let mut tree = serde_json::to_value(CpuSpec::arm8()).unwrap();
    match &mut tree {
        Value::Object(m) => m.insert("sleep_modes".to_string(), Value::Array(vec![])),
        _ => unreachable!("CpuSpec serializes as an object"),
    }
    let cpu = CpuSpec::from_value(&tree).expect("the mutated tree still matches the shape");
    let err = cpu_error(&cpu);
    assert_eq!(
        err.to_string(),
        "invalid processor spec: a processor needs at least one sleep mode"
    );
    assert_eq!(err.kind(), "invalid-cpu-spec");
}

/// The paper's spec with one JSON fragment swapped for a hostile one.
fn doctored_arm8(needle: &str, replacement: &str) -> CpuSpec {
    let json = serde_json::to_string(&CpuSpec::arm8()).unwrap();
    let doctored = json.replace(needle, replacement);
    assert_ne!(json, doctored, "needle `{needle}` not found in {json}");
    serde_json::from_str(&doctored).unwrap()
}

#[test]
fn bad_power_fraction_message() {
    let cpu = doctored_arm8("\"idle_frac\":0.2", "\"idle_frac\":1.5");
    let err = cpu_error(&cpu);
    assert_eq!(
        err.to_string(),
        "invalid processor spec: power model: idle fraction must be in [0, 1], got 1.5"
    );
    assert_eq!(err.kind(), "invalid-cpu-spec");
}

#[test]
fn bad_vf_curve_message() {
    let cpu = doctored_arm8("\"v_t\":0.8", "\"v_t\":4.0");
    let err = cpu_error(&cpu);
    assert_eq!(
        err.to_string(),
        "invalid processor spec: V-f curve must satisfy 0 <= Vt < Vmax with Vmax finite, \
         got Vt = 4 V, Vmax = 3.3 V"
    );
    assert_eq!(err.kind(), "invalid-cpu-spec");
}

#[test]
fn unordered_ladder_message() {
    let err = cpu_error(&doctored_arm8("\"min\":8000", "\"min\":200000"));
    assert_eq!(err, SimError::CpuSpec(CpuSpecError::UnorderedLadder));
    assert_eq!(
        err.to_string(),
        "invalid processor spec: frequency ladder bounds must be ordered (min <= max)"
    );
}

#[test]
fn zero_ladder_step_message() {
    let err = cpu_error(&doctored_arm8("\"step\":1000", "\"step\":0"));
    assert_eq!(err, SimError::CpuSpec(CpuSpecError::ZeroLadderStep));
    assert_eq!(
        err.to_string(),
        "invalid processor spec: frequency ladder step must be positive"
    );
}

#[test]
fn misaligned_ladder_message() {
    // 8..100 MHz spans 92 MHz: not a whole number of 3 MHz steps.
    let err = cpu_error(&doctored_arm8("\"step\":1000", "\"step\":3000"));
    assert_eq!(err, SimError::CpuSpec(CpuSpecError::MisalignedLadder));
    assert_eq!(
        err.to_string(),
        "invalid processor spec: frequency ladder span must be a whole number of steps"
    );
}

#[test]
fn ladder_above_reference_message() {
    // A 120 MHz ladder top over the 100 MHz V-f anchor.
    let err = cpu_error(&doctored_arm8("\"max\":100000", "\"max\":120000"));
    assert_eq!(err, SimError::CpuSpec(CpuSpecError::LadderAboveReference));
    assert_eq!(
        err.to_string(),
        "invalid processor spec: frequency ladder maximum must not exceed the V-f reference \
         frequency"
    );
}

#[test]
fn bad_sleep_power_message() {
    let err = cpu_error(&doctored_arm8("\"power_frac\":0.05", "\"power_frac\":1.5"));
    let bad = CpuSpecError::BadSleepPower {
        mode: 0,
        power_frac: 1.5,
    };
    assert_eq!(err, SimError::CpuSpec(bad));
    assert_eq!(
        err.to_string(),
        "invalid processor spec: sleep mode 0: power fraction must be in [0, 1], got 1.5"
    );
}

#[test]
fn budget_exhausted_message_carries_the_partial_diagnostic() {
    let ts = smuggle_task_set(&[smuggle_task("tau1", 50_000, 50_000, 10_000, 10_000)]);
    let cfg = SimConfig::new(Dur::from_ms(10)).with_max_events(3);
    let err = boundary_error(&ts, &CpuSpec::arm8(), &cfg);
    assert_eq!(err.kind(), "budget-exhausted");
    let msg = err.to_string();
    assert!(
        msg.starts_with("event budget of 3 exhausted before the horizon (t="),
        "diagnostic shape drifted: {msg}"
    );
    assert!(
        msg.contains("events") && msg.contains("segments") && msg.contains("completions"),
        "partial diagnostic lost a field: {msg}"
    );
}

#[test]
fn partition_message_wraps_the_allocator_reason() {
    // The multicore layer folds `PartitionError` into `SimError` as a
    // pre-rendered reason string; pin the wrapper format here so sweep
    // logs and `kind()` dispatch stay stable.
    let err = SimError::Partition {
        reason: String::from("no core of 2 has capacity left for task `tau1`"),
    };
    assert_eq!(
        err.to_string(),
        "partitioning failed: no core of 2 has capacity left for task `tau1`"
    );
    assert_eq!(err.kind(), "invalid-partition");
}
