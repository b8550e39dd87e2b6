//! Adversarial inputs against the panic-free boundary.
//!
//! `TaskSet` and `CpuSpec` implement `Deserialize` and `SimConfig` has
//! public fields, so values that no constructor would ever build can still
//! reach `simulate` — a malformed JSON sweep spec, a hand-edited results
//! file, a fuzzer. The contract under test: **every** such input yields
//! either a valid report or a typed [`SimError`]; the library never
//! panics. Each property runs the engine under `catch_unwind` so a panic
//! anywhere inside the boundary fails the case by name instead of
//! aborting the harness.
//!
//! Three property blocks (120 + 80 + 80 = 280 cases per run):
//!
//! 1. task sets smuggled past the constructors field by field, rejected
//!    with `SimError::TaskSet` exactly when `validate_task_set` rejects
//!    them,
//! 2. processor specs with mutated numeric leaves,
//! 3. extreme simulation configs (horizon/tick/budget corners).

use std::panic::{catch_unwind, AssertUnwindSafe};

use lpfps_cpu::spec::CpuSpec;
use lpfps_kernel::engine::{simulate, SimConfig};
use lpfps_kernel::error::SimError;
use lpfps_kernel::policy::AlwaysFullSpeed;
use lpfps_tasks::error::{validate_task_set, MAX_TIME_PARAM_NS};
use lpfps_tasks::exec::AlwaysWcet;
use lpfps_tasks::task::{Priority, Task};
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use proptest::prelude::*;
use serde::{Deserialize, Map, Number, Value};

/// Maps a raw draw onto the adversarial corners of the `u64` range: zero,
/// one, ordinary magnitudes, and the neighborhoods of [`MAX_TIME_PARAM_NS`]
/// and `u64::MAX` where unchecked time arithmetic would wrap.
fn warp(raw: u64, sel: u8) -> u64 {
    match sel % 8 {
        0 => 0,
        1 => 1,
        2 => raw % 1_000_000,
        3 => MAX_TIME_PARAM_NS - (raw % 1_000),
        4 => MAX_TIME_PARAM_NS.saturating_add(1 + raw % 1_000),
        5 => u64::MAX - (raw % 1_000),
        6 => u64::MAX,
        _ => raw,
    }
}

/// Builds a [`Task`] through the `Deserialize` back door, bypassing every
/// constructor check: the field map mirrors the struct's serialized shape,
/// so any nanosecond values — zero periods, `C > T`, near-`u64::MAX`
/// phases — come out the other side as a live `Task`.
fn smuggle_task(name: &str, period: u64, deadline: u64, wcet: u64, bcet: u64, phase: u64) -> Task {
    let mut m = Map::new();
    m.insert("name".to_string(), Value::String(name.to_string()));
    for (key, ns) in [
        ("period", period),
        ("deadline", deadline),
        ("wcet", wcet),
        ("bcet", bcet),
        ("phase", phase),
    ] {
        m.insert(
            key.to_string(),
            serde_json::to_value(Dur::from_ns(ns)).unwrap(),
        );
    }
    Task::from_value(&Value::Object(m)).expect("the field map matches `Task`'s shape")
}

/// Same back door for a whole [`TaskSet`], including mismatched or
/// duplicated priority vectors.
fn smuggle_task_set(tasks: &[Task], priorities: &[u32]) -> TaskSet {
    let mut m = Map::new();
    m.insert("name".to_string(), Value::String("hostile".to_string()));
    m.insert("tasks".to_string(), serde_json::to_value(tasks).unwrap());
    let prios: Vec<Priority> = priorities.iter().map(|p| Priority::new(*p)).collect();
    m.insert(
        "priorities".to_string(),
        serde_json::to_value(&prios).unwrap(),
    );
    TaskSet::from_value(&Value::Object(m)).expect("the field map matches `TaskSet`'s shape")
}

/// A small valid task set, for properties that attack a *different*
/// input dimension.
fn valid_probe_set() -> TaskSet {
    let tasks = vec![
        Task::new("a", Dur::from_us(50), Dur::from_us(10)),
        Task::new("b", Dur::from_us(80), Dur::from_us(20)),
    ];
    TaskSet::rate_monotonic("probe", tasks)
}

/// Runs the engine under `catch_unwind`; `Err` means the library panicked,
/// which is exactly what the taxonomy promises never happens.
fn run_guarded(
    ts: &TaskSet,
    cpu: &CpuSpec,
    cfg: &SimConfig,
) -> Result<Result<lpfps_kernel::report::SimReport, SimError>, String> {
    catch_unwind(AssertUnwindSafe(|| {
        simulate(ts, cpu, &mut AlwaysFullSpeed, &AlwaysWcet, cfg)
    }))
    .map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Counts the numeric leaves of a serialized value, so a mutation index
/// can be drawn uniformly over them.
fn count_numbers(v: &Value) -> usize {
    match v {
        Value::Number(_) => 1,
        Value::Array(items) => items.iter().map(count_numbers).sum(),
        Value::Object(m) => m.iter().map(|(_, v)| count_numbers(v)).sum(),
        _ => 0,
    }
}

/// Replaces the `target`-th numeric leaf (pre-order) with `replacement`.
fn replace_number(v: &mut Value, target: &mut usize, replacement: &Number) -> bool {
    match v {
        Value::Number(n) => {
            if *target == 0 {
                *n = *replacement;
                return true;
            }
            *target -= 1;
            false
        }
        Value::Array(items) => items
            .iter_mut()
            .any(|item| replace_number(item, target, replacement)),
        Value::Object(m) => m
            .iter_mut()
            .any(|(_, item)| replace_number(item, target, replacement)),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Malformed task sets — zero periods, `C > T`, inverted BCETs,
    /// over-large phases, duplicated or miscounted priorities — reach the
    /// boundary unvalidated and must come back as typed errors, never
    /// panics. Structurally *valid* draws must instead complete (budget
    /// exhaustion included: the event cap below also bounds the runtime
    /// of accidental 1 ns-period sets).
    #[test]
    fn smuggled_task_sets_yield_typed_errors_not_panics(
        raw_tasks in proptest::collection::vec(
            ((0u64..=u64::MAX, 0u8..8), (0u64..=u64::MAX, 0u8..8), (0u64..=u64::MAX, 0u8..8), (0u64..=u64::MAX, 0u8..8)),
            1..5,
        ),
        priorities in proptest::collection::vec(0u32..4, 0..6),
        horizon_sel in 0u8..8,
        horizon_raw in 0u64..=u64::MAX,
    ) {
        let tasks: Vec<Task> = raw_tasks
            .iter()
            .enumerate()
            .map(|(i, ((p_raw, p_sel), (d_raw, d_sel), (c_raw, c_sel), (b_raw, b_sel)))| {
                smuggle_task(
                    &format!("t{i}"),
                    warp(*p_raw, *p_sel),
                    warp(*d_raw, *d_sel),
                    warp(*c_raw, *c_sel),
                    warp(*b_raw, *b_sel),
                    // Keep phases small so valid draws stay representative;
                    // the config block attacks the phase/horizon axis.
                    c_raw % 1_000,
                )
            })
            .collect();
        let ts = smuggle_task_set(&tasks, &priorities);
        let horizon = warp(horizon_raw, horizon_sel);
        let cfg = SimConfig::new(Dur::from_ns(horizon)).with_max_events(100_000);

        let outcome = run_guarded(&ts, &CpuSpec::arm8(), &cfg);
        prop_assert!(outcome.is_ok(), "engine panicked: {}", outcome.unwrap_err());
        let result = outcome.unwrap();

        // A set the validator rejects must be *rejected* with that very
        // error, not merely survived, and a set it accepts must not be.
        // The config is validated first, so the task-set kind is only
        // guaranteed when the horizon itself is admissible.
        let config_valid = horizon > 0 && horizon <= MAX_TIME_PARAM_NS;
        if config_valid {
            match validate_task_set(&ts) {
                Err(e) => prop_assert!(
                    matches!(&result, Err(SimError::TaskSet(got)) if *got == e),
                    "malformed task set slipped through as {result:?}, not {e:?}"
                ),
                Ok(()) => prop_assert!(
                    !matches!(result, Err(SimError::TaskSet(_))),
                    "boundary rejected a set the validator accepts: {result:?}"
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Degenerate processor specs: serialize the four-mode ARM8 spec,
    /// overwrite one numeric leaf (a ladder bound, a voltage, a power
    /// fraction, a ramp rate, a wake-up latency ...) with an adversarial
    /// number, and push the result through `Deserialize` into `simulate`.
    /// Outcome must be a report or a typed error — in particular
    /// `SimError::CpuSpec` for broken ladders, sleep modes and power
    /// models.
    #[test]
    fn mutated_cpu_specs_yield_typed_errors_not_panics(
        leaf_raw in 0usize..1_000,
        int_raw in 0u64..=u64::MAX,
        sel in 0u8..16,
    ) {
        let mut tree = serde_json::to_value(CpuSpec::arm8_multimode()).unwrap();
        let leaves = count_numbers(&tree);
        prop_assert!(leaves > 0, "spec serialized without numeric leaves");
        let replacement = match sel {
            0..=7 => Number::PosInt(warp(int_raw, sel)),
            8 => Number::Float(f64::NAN),
            9 => Number::Float(f64::INFINITY),
            10 => Number::Float(f64::NEG_INFINITY),
            11 => Number::Float(-1.0),
            12 => Number::Float(0.0),
            13 => Number::Float(1e308),
            14 => Number::NegInt(-1),
            _ => Number::Float(1e-300),
        };
        let mut target = leaf_raw % leaves;
        prop_assert!(replace_number(&mut tree, &mut target, &replacement));

        // A type-level mismatch (float where a u64 field lives) is a typed
        // serde error — fine; the property only cares about values that
        // make it through deserialization.
        let Ok(cpu) = CpuSpec::from_value(&tree) else { return Ok(()); };
        let cfg = SimConfig::new(Dur::from_ms(1)).with_max_events(100_000);
        let outcome = run_guarded(&valid_probe_set(), &cpu, &cfg);
        prop_assert!(outcome.is_ok(), "engine panicked: {}", outcome.unwrap_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Extreme configurations on valid workloads: horizons at zero /
    /// `MAX_TIME_PARAM` / `u64::MAX`, zero and enormous ticks (written
    /// directly to the public field, bypassing the builder's assert the
    /// way a deserialized config would), and event-budget caps from 0 upward.
    /// Horizon-scale extremes are the sweep-layer face of the same axis.
    #[test]
    fn extreme_configs_yield_typed_errors_not_panics(
        horizon_raw in 0u64..=u64::MAX,
        horizon_sel in 0u8..8,
        tick_raw in 0u64..=u64::MAX,
        tick_sel in 0u8..9,
        events_cap in 0u64..200_000,
    ) {
        let horizon = warp(horizon_raw, horizon_sel);
        let mut cfg = SimConfig::new(Dur::from_ns(horizon)).with_max_events(events_cap);
        if tick_sel < 8 {
            cfg.tick = Some(Dur::from_ns(warp(tick_raw, tick_sel)));
        }

        let outcome = run_guarded(&valid_probe_set(), &CpuSpec::arm8(), &cfg);
        prop_assert!(outcome.is_ok(), "engine panicked: {}", outcome.unwrap_err());
        let result = outcome.unwrap();

        if horizon == 0 {
            prop_assert!(
                matches!(result, Err(SimError::InvalidConfig { .. })),
                "zero horizon slipped through: {result:?}"
            );
        } else if horizon > MAX_TIME_PARAM_NS {
            prop_assert!(
                matches!(result, Err(SimError::TimeOverflow { .. })),
                "over-large horizon slipped through: {result:?}"
            );
        } else if matches!(cfg.tick, Some(t) if t.is_zero()) {
            prop_assert!(
                matches!(result, Err(SimError::InvalidConfig { .. })),
                "zero tick slipped through: {result:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hyperperiod overflow must *degrade*, never derail: near-co-prime
    /// giant periods push `lcm` past the representable range, so
    /// `hyperperiod()` returns `None`, the steady-state detector never
    /// arms, and the run completes as a plain full simulation —
    /// byte-identical to one with the detector explicitly forced off.
    #[test]
    fn hyperperiod_overflow_degrades_to_full_simulation(
        offsets in proptest::collection::vec(0u64..1_000, 3..4),
        seed in 0u64..=1_000,
    ) {
        // Large primes minus small offsets: pairwise lcm around 1e18 µs,
        // far beyond Dur's range once multiplied out.
        let primes = [999_999_937u64, 999_999_893, 999_999_883];
        let tasks: Vec<Task> = primes
            .iter()
            .zip(&offsets)
            .enumerate()
            .map(|(i, (&p, &off))| {
                Task::new(
                    format!("t{i}"),
                    Dur::from_us(p - off),
                    Dur::from_us(1_000),
                )
            })
            .collect();
        let ts = TaskSet::rate_monotonic("coprime", tasks);
        prop_assert!(
            lpfps_tasks::analysis::hyperperiod(&ts).is_none(),
            "these periods must overflow the hyperperiod"
        );
        let cfg = SimConfig::new(Dur::from_ms(5_000)).with_seed(seed);
        let outcome = catch_unwind(|| {
            let fast = simulate(&ts, &CpuSpec::arm8(), &mut AlwaysFullSpeed, &AlwaysWcet, &cfg)?;
            let full = simulate(
                &ts,
                &CpuSpec::arm8(),
                &mut AlwaysFullSpeed,
                &AlwaysWcet,
                &cfg.clone().with_force_full_simulation(),
            )?;
            Ok::<_, SimError>((fast, full))
        });
        prop_assert!(outcome.is_ok(), "engine panicked on overflow-scale periods");
        let (fast, full) = outcome.unwrap().expect("hostile-but-valid set simulates");
        prop_assert_eq!(fast.counters, full.counters);
        prop_assert_eq!(
            fast.energy.total_energy().to_bits(),
            full.energy.total_energy().to_bits()
        );
    }
}

/// Two tasks, T = 10 µs and 1,000 µs with C = 1 µs, under FPS at the
/// largest admissible horizon: the detector arms and skips ~4.6e12
/// hyperperiods. With no tick nothing misses and the run returns a report
/// at once, the per-cycle miss loop never iterating over an empty window.
/// With a 1,000 µs tick every short job waits for the tick and misses, and
/// the extrapolated summed response time leaves `u64` nanoseconds: that is
/// the full run's `TimeOverflow`, returned before a miss list without
/// bound is built.
#[test]
fn max_horizon_fast_forward_returns_overflow_not_a_panic() {
    let tasks = vec![
        Task::new("fast", Dur::from_us(10), Dur::from_us(1)),
        Task::new("slow", Dur::from_us(1_000), Dur::from_us(1)),
    ];
    let ts = TaskSet::rate_monotonic("tick-bound", tasks);
    let cfg = SimConfig::new(Dur::from_ns(MAX_TIME_PARAM_NS));
    let outcome = run_guarded(&ts, &CpuSpec::arm8(), &cfg);
    let report = outcome.expect("no panic").expect("no tick: a report");
    assert!(report.all_deadlines_met());

    let ticked = SimConfig {
        tick: Some(Dur::from_us(1_000)),
        ..cfg
    };
    let result = run_guarded(&ts, &CpuSpec::arm8(), &ticked).expect("no panic");
    assert_eq!(
        result.err(),
        Some(SimError::TimeOverflow {
            what: "summed response time"
        })
    );
}
